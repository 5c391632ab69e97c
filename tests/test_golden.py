"""Golden CLI corpus: exact stdout and exit code of every command.

``tests/golden/cli.json`` lists argument vectors with the stdout line
and exit code the command line front end produced for them.  The
placeholders ``@weighted``, ``@twins``, ``@split`` and ``@double``
stand for text-format inputs that this test writes before running the
corpus.

The corpus is also the record of what the commands exercise: replayed
under a profiler, it must enter every public operation of the library
except the few kept only as test oracles and fixtures.
"""

import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

from configspaces.cli import COMMANDS, main
from configspaces.mobius import MobiusFamily

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
CASES = json.loads(GOLDEN.read_text(encoding="utf-8"))

# A 4-cycle a-b-c-d with a tail d-e, so right-angled, with three weights.
WEIGHTED_TEXT = """\
vertices: a b c d e
nub: a b
nub: b c
nub: c d
nub: a d
nub: d e
weight: a 1/2
weight: c 2/3
weight: e 3
"""

# Right-angled, with a and b dependent and dependent on c alone: both have
# the link {d, e} but different weights, so the transform digits of {a}
# and {b} (and of {a, d} and {b, d}, ...) are proportional, not equal.
TWINS_TEXT = """\
vertices: a b c d e
nub: a b
nub: a c
nub: b c
nub: c d
nub: d e
weight: a 1/2
weight: b 3
weight: d 2/3
"""

# A 13-vertex path, a disjoint nub pair x y and a vertex z in no nub,
# with the labels interleaved: the components, by least vertex, are
# {x, y}, the path and {z}, and the path is too long to be a leaf.
SPLIT_TEXT = """\
vertices: x p0 p1 p2 p3 p4 p5 z p6 p7 p8 p9 p10 p11 p12 y
nub: x y
""" + "".join(f"nub: p{i} p{i + 1}\n" for i in range(12))

# The connected graph a-b, a-d, b-e, c-e, d-e, d-f, with
# mu = (1 - t)^2 (1 - 4t): t0 = 1/4 is a simple root of mu, but
# gcd(mu, mu') = t - 1 is not constant, so its sign is taken at t0.
DOUBLE_TEXT = """\
vertices: a b c d e f
nub: a b
nub: a d
nub: b e
nub: c e
nub: d e
nub: d f
"""


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    folder = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, text in (
        ("weighted", WEIGHTED_TEXT),
        ("twins", TWINS_TEXT),
        ("split", SPLIT_TEXT),
        ("double", DOUBLE_TEXT),
    ):
        path = folder / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[f"@{name}"] = str(path)
    return paths


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden(case, inputs, capsys):
    argv = [inputs.get(arg, arg) for arg in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, out) == (case["exit"], case["stdout"])


def test_every_command_has_a_golden_row():
    assert {case["argv"][0] for case in CASES} == set(COMMANDS)


# Public operations that no command runs: the dense route the verify
# cross-check reimplements on the independent masks, and one event's
# probability (verify reads every event from one transform).  They stay
# in the package because the benchmark's tracer times both by name.
LIBRARY_ONLY = {
    "probspace.atoms_from_intersections",
    "probspace.event_probability",
}


def public_operations() -> dict:
    """Code object -> name of every function in a module's ``__all__``
    and of every public ``MobiusFamily`` method."""
    operations = {}
    for name in ("core", "mobius", "poly", "probspace", "structure"):
        module = importlib.import_module(f"configspaces.{name}")
        for attr in module.__all__:
            value = getattr(module, attr)
            if inspect.isfunction(value):
                operations[value.__code__] = f"{name}.{attr}"
    for attr, value in vars(MobiusFamily).items():
        if not attr.startswith("_") and inspect.isfunction(value):
            operations[value.__code__] = f"MobiusFamily.{attr}"
    return operations


def test_golden_corpus_enters_every_public_operation(inputs, capsys):
    operations = public_operations()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    try:
        for case in CASES:
            main([inputs.get(arg, arg) for arg in case["argv"]])
    finally:
        sys.setprofile(None)
    missed = {name for code, name in operations.items() if code not in entered}
    assert missed == LIBRARY_ONLY
