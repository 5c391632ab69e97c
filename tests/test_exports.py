"""Every exported name resolves, and so does every site the benchmark traces."""

import importlib
import importlib.util
from collections.abc import Iterator
from pathlib import Path

import pytest

from configspaces.core import from_nubs

MODULES = ["core", "mobius", "poly", "probspace", "structure"]
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"configspaces.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def traced_sites():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    return tracer.TRACED


def test_traced_sites_exist():
    # bench/run.py --trace 1 wraps these; a deleted one would fail only there.
    for span, module_name, attr, class_name, _ in traced_sites():
        module = importlib.import_module(module_name)
        if class_name is None:
            assert callable(getattr(module, attr, None)), span
        else:
            assert attr in vars(getattr(module, class_name)), span


def test_traced_generators_return_iterators():
    # The tracer calls next() on what a "generator" site returns and
    # counts the items; a site returning a list would break only there.
    tiny = from_nubs(3, [0b011])
    generators = [site for site in traced_sites() if site[4] == "generator"]
    assert generators
    for span, module_name, attr, _, _ in generators:
        result = getattr(importlib.import_module(module_name), attr)(tiny)
        assert isinstance(result, Iterator), span
        assert list(result), span
