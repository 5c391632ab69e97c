"""No float enters a decision on the serving path.

An AST scan of the parser, the configuration model, root isolation,
classification, the probability spaces and the structural analyses
rejects every ``float(...)`` call and every float literal, except inside
``AlgebraicRoot.approx``, which renders a root for display only, and
``random_configuration``, whose draw compares a float probability.
Inside the integer root kernel it also rejects true division and the
float functions of ``math``: a secant step written ``a / b`` on ints,
or a ``math.log2`` bit count, would leave the integers unseen.
"""

import ast
from pathlib import Path

import configspaces

SOURCES = ("poly.py", "mobius.py", "core.py", "probspace.py", "cli.py", "structure.py")

# Qualified names of the only scopes allowed to use floats.
EXEMPT = {"AlgebraicRoot.approx", "random_configuration"}
# Scopes of the integer root kernel, nested scopes included.
INTEGER_ONLY = {"_int_value", "_int_sign", "_Bisection"}
FLOAT_MATH = {"log", "log2", "log10", "sqrt", "exp", "pow", "frexp", "ldexp"}


def _float_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, kind) of each float call or literal outside the EXEMPT
    scopes, and of each true division or float ``math`` call inside the
    INTEGER_ONLY scopes."""
    allowed: set[int] = set()
    kernel: set[int] = set()

    def exempt(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                name = prefix + child.name
                if name in EXEMPT:
                    allowed.update(id(inner) for inner in ast.walk(child))
                    continue
                if name in INTEGER_ONLY:
                    kernel.update(id(inner) for inner in ast.walk(child))
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
        elif id(node) not in kernel:
            continue
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Call) and _math_name(node.func) in FLOAT_MATH:
            found.append((node.lineno, "float math call"))
    return sorted(found)


def _math_name(func: ast.expr) -> str | None:
    """f for a call of ``math.f`` or of a bare name f."""
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "math":
        return func.attr
    return getattr(func, "id", None)


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


def test_float_guard_sees_division_in_the_root_kernel():
    secant = "class _Bisection:\n    def narrow(self):\n        a = f / (f - g)\n        a /= 2\n"
    assert _float_uses(ast.parse(secant)) == [(3, "true division"), (4, "true division")]
    bits = "def _int_sign(c, a, b):\n    return math.log2(a) + sqrt(b) + pow(a, b)\n"
    assert _float_uses(ast.parse(bits)) == [(2, "float math call")] * 3
    # Nested scopes are inside the kernel; floor division and integer
    # math, and true division outside the kernel, are allowed.
    nested = "class _Bisection:\n    def narrow(self):\n        def at(k):\n"
    nested += "            return 1 / k\n"
    assert _float_uses(ast.parse(nested)) == [(4, "true division")]
    integer = "def _int_value(c, a, b):\n    return a // b + math.gcd(a, b) + math.lcm(a, b)\n"
    assert _float_uses(ast.parse(integer)) == []
    elsewhere = "def cauchy_root_bound(p):\n    return 1 / math.sqrt(2)\n"
    assert _float_uses(ast.parse(elsewhere)) == []
