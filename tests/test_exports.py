"""Every exported name resolves, and so does every site the benchmark traces."""

import importlib
import importlib.util
from pathlib import Path

import pytest

MODULES = ["core", "mobius", "poly", "probspace", "structure"]
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"configspaces.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_traced_sites_exist():
    # bench/run.py --trace 1 wraps these; a deleted one would fail only there.
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for span, module_name, attr, class_name, _ in tracer.TRACED:
        module = importlib.import_module(module_name)
        if class_name is None:
            assert callable(getattr(module, attr, None)), span
        else:
            assert attr in vars(getattr(module, class_name)), span
