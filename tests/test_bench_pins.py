"""The benchmark's correctness gate, replayed as tests.

``bench/pins.json`` pins the exit code and the sha256 of stdout of every
command the benchmark runs at its default seed.  The ``classify-uniform``
and ``space-verify`` commands name built-in inputs only, so each is
replayed here and must reproduce its pin byte for byte.  The
``weighted-sweep`` pins name generated files under ``.bench/``: the
replay builds the pinned passes with the benchmark's own workload
module, in a temporary directory, binds each ``verify`` to half the t0
of the ``classify`` before it, as the benchmark does, and matches every
pin.
"""

import contextlib
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from configspaces.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"
PINS = json.loads((BENCH / "pins.json").read_text(encoding="utf-8"))
CASES = [
    (workload, line, pin)
    for workload in ("classify-uniform", "space-verify")
    for line, pin in PINS[workload].items()
]
# The weighted-sweep passes whose outputs bench/pins.json holds.
WEIGHTED_PASSES = 2


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize(
    "workload, line, pin", CASES, ids=[f"{workload}: {line}" for workload, line, _ in CASES]
)
def test_pinned_output(workload, line, pin):
    code, stdout = _run(line.split())
    assert [code, hashlib.sha256(stdout.encode()).hexdigest()] == pin


def test_weighted_sweep_pins(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    monkeypatch.chdir(tmp_path)
    pins = PINS["weighted-sweep"]
    seen = {}
    for index in range(WEIGHTED_PASSES):
        previous = ""
        for command in workloads.build_pass(
            "weighted-sweep", workloads.DEFAULT_SEED, index, Path(".bench")
        ):
            if command.argv[0] == "verify":
                workloads.bind_verify(command, previous)
            code, previous = _run(command.argv)
            seen[command.line] = [code, workloads.digest(previous)]
    assert seen == pins
