"""No float enters a decision on the serving path.

An AST scan of the parser, the configuration model, root isolation,
classification, the probability spaces and the structural analyses
rejects every ``float(...)`` call and every float literal, except inside
``AlgebraicRoot.approx``, which renders a root for display only, and
``random_configuration``, whose draw compares a float probability.
"""

import ast
from pathlib import Path

import configspaces

SOURCES = ("poly.py", "mobius.py", "core.py", "probspace.py", "cli.py", "structure.py")

# Qualified names of the only scopes allowed to use floats.
EXEMPT = {"AlgebraicRoot.approx", "random_configuration"}


def _float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, kind) of each float call or literal outside the EXEMPT scopes."""
    allowed: set[int] = set()

    def exempt(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = prefix + child.name
                if name in EXEMPT:
                    allowed.update(id(inner) for inner in ast.walk(child))
                    continue
                exempt(child, name + ".")
            else:
                exempt(child, prefix)

    exempt(tree, "")
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
    draw = "def random_configuration(n, rng, p=0.25):\n    return rng.random() < p\n"
    assert _float_uses(ast.parse(draw)) == []
    # Only the module-level function is exempt, and only its own body.
    nested = "class Other:\n    def random_configuration(self):\n        return 0.5\n"
    assert _float_uses(ast.parse(nested)) == [(3, "float literal")]
    decision = "def symmetric_counts(config):\n    return 0.5 < 1\n"
    assert _float_uses(ast.parse(decision)) == [(2, "float literal")]
