"""The benchmark's correctness gate, replayed as tests.

``bench/pins.json`` pins the exit code and the sha256 of stdout of every
command the benchmark runs at its default seed.  The ``classify-uniform``
and ``space-verify`` commands name built-in inputs only, so each is
replayed here and must reproduce its pin byte for byte.  The
``weighted-sweep`` pins name generated files under ``.bench/`` and are
left to the benchmark.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from configspaces.cli import main

PINS = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "pins.json").read_text(encoding="utf-8")
)
CASES = [
    (workload, line, pin)
    for workload in ("classify-uniform", "space-verify")
    for line, pin in PINS[workload].items()
]


@pytest.mark.parametrize(
    "workload, line, pin", CASES, ids=[f"{workload}: {line}" for workload, line, _ in CASES]
)
def test_pinned_output(workload, line, pin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(line.split())
    assert [code, hashlib.sha256(out.getvalue().encode()).hexdigest()] == pin
