"""README's examples run as documented.

Every ``configspaces ...`` line of a ``sh`` block goes through
``cli.main`` and must print one JSON report with exit code 0, and the
``python`` block runs with each ``print`` checked against the ``# ...``
comment that ends its line.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from configspaces.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"

# The input that README's ``decompose --input my-config.txt`` reads:
# two nub-connected components.
MY_CONFIG = """\
vertices: a b c d e
nub: a b
nub: c d e
weight: a 1/2
"""


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```$", text, re.MULTILINE | re.DOTALL)


COMMAND_LINES = [
    line
    for block in _blocks("sh")
    for line in block.splitlines()
    if line.startswith("configspaces ")
]


def test_readme_lists_commands():
    assert len(COMMAND_LINES) >= 13


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command(line, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "my-config.txt").write_text(MY_CONFIG, encoding="utf-8")
    argv = shlex.split(line)[1:]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("\n") == 1
    assert json.loads(out)["command"] == argv[0]


def test_readme_library_block():
    (block,) = _blocks("python")
    expected = [
        line.split("#", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")
    ]
    printed = []
    exec(block, {"print": lambda *args: printed.append(" ".join(map(str, args)))})
    assert len(expected) == 5
    assert printed == expected
