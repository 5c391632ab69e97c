"""No float enters a decision on the serving path.

An AST scan of the parser, the configuration model, root isolation,
classification and the probability spaces rejects every ``float(...)``
call and every float literal, except inside ``AlgebraicRoot.approx``,
which renders a root for display only.  ``structure.py`` is left out:
its random generator draws with a float probability.
"""

import ast
from pathlib import Path

import configspaces

SOURCES = ("poly.py", "mobius.py", "core.py", "probspace.py", "cli.py")


def _float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, kind) of each float call or literal outside AlgebraicRoot.approx."""
    allowed: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "AlgebraicRoot":
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "approx":
                    allowed.update(id(inner) for inner in ast.walk(item))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float call"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
    return found


def test_no_floats_in_poly_and_mobius():
    package = Path(configspaces.__file__).parent
    for name in SOURCES:
        assert _float_uses(ast.parse((package / name).read_text(encoding="utf-8"))) == [], name


def test_float_guard_sees_calls_and_literals():
    assert _float_uses(ast.parse("x = float(3)\ny = 0.5\nz = 1e-9\n")) == [
        (1, "float call"), (2, "float literal"), (3, "float literal")
    ]
    display_only = "class AlgebraicRoot:\n    def approx(self):\n        return float(1) * 0.5\n"
    assert _float_uses(ast.parse(display_only)) == []
    elsewhere = "class AlgebraicRoot:\n    def width(self):\n        return float(1)\n"
    assert _float_uses(ast.parse(elsewhere)) == [(3, "float call")]
