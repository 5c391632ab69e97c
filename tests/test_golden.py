"""Golden CLI corpus: exact stdout and exit code of every command.

``tests/golden/cli.json`` lists argument vectors with the stdout line
and exit code the command line front end produced for them.  The
placeholder ``@weighted`` stands for a weighted text-format input that
this test writes before running the corpus.
"""

import json
from pathlib import Path

import pytest

from configspaces.cli import main

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


@pytest.fixture(scope="module")
def weighted_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "weighted.txt"
    path.write_text(WEIGHTED_TEXT, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden(case, weighted_path, capsys):
    argv = [weighted_path if arg == "@weighted" else arg for arg in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert (code, out) == (case["exit"], case["stdout"])
