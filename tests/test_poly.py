from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from configspaces import poly
from configspaces.poly import (
    AlgebraicRoot,
    EndpointRoot,
    Polynomial,
    ZeroAtOrigin,
    ZeroConstantTerm,
    cauchy_root_bound,
    compare_roots,
    evaluate_on_interval,
    first_positive_root,
    format_rational,
    isolate_first_root,
    parse_rational,
    poly_divmod,
    poly_gcd,
    poly_to_strings,
    refine_root,
    series_inverse,
    sign_at_root,
    simplest_rational_between,
    sturm_count,
    _Bisection,
    _sign_at,
    _squarefree_chain,
)

from conftest import fraction_first_positive_root

P = Polynomial


def test_add_examples():
    assert P([1, -1]) + P([0, 1]) == P([1])
    assert P() + P([1, 2]) == P([1, 2])
    assert P([1, -3, 3]) + P([-1, 3, -3]) == P()


def test_mul_examples():
    assert P([1, -1]) * P([1, -1]) == P([1, -2, 1])
    assert P([3, 0, 2]) * P([1]) == P([3, 0, 2])
    # hand convolution: (1-2t)(1-3t+3t^2) = 1 - 5t + 9t^2 - 6t^3
    assert P([1, -2]) * P([1, -3, 3]) == P([1, -5, 9, -6])


def test_derivative_examples():
    assert P([1, -4, 6, -4]).derivative() == P([-4, 12, -12])
    assert P([7]).derivative() == P()
    assert P([0, 0, 0, 0, 1]).derivative() == P([0, 0, 0, 4])


def test_evaluate_examples():
    assert P([1, -3, 3])(Fraction(1, 2)) == Fraction(1, 4)
    assert P([1, -4, 6, -4])(Fraction(1, 2)) == 0
    assert P([5, 1, 2])(0) == 5


def test_series_inverse_examples():
    assert series_inverse(P([1, -2]), 4) == (1, 2, 4, 8, 16)
    assert series_inverse(P([1, -2, 1]), 3) == (1, 2, 3, 4)
    assert series_inverse(P([1, -3, 3]), 3) == (1, 3, 6, 9)
    # the same inverse turns negative further out
    tail = series_inverse(P([1, -3, 3]), 6)
    assert tail == (1, 3, 6, 9, 9, 0, -27)


def test_series_inverse_needs_unit():
    with pytest.raises(ZeroConstantTerm):
        series_inverse(P([0, 1]), 3)


def _grid_sign_changes(p, lo, hi, steps=4096):
    """Independent root-count oracle: sign alternations on a fine grid."""
    changes = 0
    last = 0
    for i in range(steps + 1):
        t = lo + (hi - lo) * Fraction(i, steps)
        v = p(t)
        s = 1 if v > 0 else (-1 if v < 0 else 0)
        if s == 0:
            changes += 1
            last = 0
            continue
        if last and s != last:
            changes += 1
        last = s
    return changes


def test_sturm_count_examples():
    assert sturm_count(P([1, -3, 3]), 0, 10) == 0
    assert sturm_count(P([1, -2]), 0, 1) == 1
    cubic = P([1, -5, 6, -1])
    oracle = _grid_sign_changes(cubic, Fraction(0), Fraction(1))
    assert oracle == 2
    assert sturm_count(cubic, 0, 1) == oracle


def test_sturm_count_collapses_multiplicity():
    assert sturm_count(P([1, -2, 1]), 0, 2) == 1


def test_sturm_count_endpoint_root():
    with pytest.raises(EndpointRoot):
        sturm_count(P([1, -2]), Fraction(1, 2), 1)
    with pytest.raises(EndpointRoot):
        sturm_count(P([1, -2]), 0, Fraction(1, 2))


def test_first_positive_root_rational():
    root = first_positive_root(P([1, -2]))
    assert root.is_rational and root.value == Fraction(1, 2)


def test_first_positive_root_none():
    assert first_positive_root(P([1, -3, 3])) is None
    assert first_positive_root(P([1, 1])) is None
    assert first_positive_root(P([5])) is None


def test_first_positive_root_multiplicity():
    root = first_positive_root(P([1, -4, 6, -4, 1]))
    assert root.is_rational and root.value == 1
    assert root.witness.degree == 1


def test_first_positive_root_zero_at_origin():
    with pytest.raises(ZeroAtOrigin):
        first_positive_root(P([0, 1, 1]))


def test_first_positive_root_is_smallest():
    # roots at 1/3 and 1/2
    p = P([1, -3]) * P([1, -2])
    root = first_positive_root(p)
    assert root.is_rational and root.value == Fraction(1, 3)


def test_first_positive_root_invariants_irrational():
    # 1 - 5t + 5t^2, roots (5 +- sqrt(5))/10
    p = P([1, -5, 5])
    root = first_positive_root(p)
    assert not root.is_rational
    assert root.witness(root.lo) * root.witness(root.hi) < 0
    assert sturm_count(p, Fraction(1, 10**30), root.lo) == 0
    assert root.width <= Fraction(1, 2**64) * max(1, cauchy_root_bound(_squarefree_chain(p)[0]))


def test_compare_roots_examples():
    half = first_positive_root(P([1, -2]))
    third = first_positive_root(P([1, -3]))
    assert compare_roots(half, first_positive_root(P([1, -2]))) == 0
    assert compare_roots(half, third) == 1
    cubic_root = first_positive_root(P([1, -5, 6, -1]))
    assert compare_roots(cubic_root, half) == -1


def test_compare_roots_equal_irrational_different_witnesses():
    p = P([1, -5, 5])
    q = p * P([1, Fraction(-1, 7)])  # extra root at 7, shared smallest root
    a = first_positive_root(p)
    b = first_positive_root(q)
    assert compare_roots(a, b) == 0
    assert compare_roots(b, a) == 0


def test_compare_roots_close_irrational():
    a = first_positive_root(P([-2, 0, 1]))  # sqrt(2)
    b = first_positive_root(P([-2000002, 0, 1000000]))  # sqrt(2.000002)
    assert compare_roots(a, b) == -1


def test_refine_root_keeps_root():
    root = first_positive_root(P([1, -5, 5]))
    narrower = refine_root(root)
    assert narrower.lo >= root.lo and narrower.hi <= root.hi
    assert narrower.width <= root.width / 2
    tight = root
    while tight.width > Fraction(1, 2**200):
        tight = refine_root(tight)
    assert tight.width <= Fraction(1, 2**200)
    assert root.lo <= tight.lo and tight.hi <= root.hi


def test_evaluate_on_interval_bounds():
    p = P([1, -5, 5])
    lo, hi = evaluate_on_interval(p, Fraction(1, 4), Fraction(1, 2))
    for k in range(9):
        t = Fraction(1, 4) + Fraction(k, 32)
        assert lo <= p(t) <= hi


def test_sign_at_root():
    root = first_positive_root(P([1, -5, 5]))
    assert sign_at_root(P([1, -5, 5]), root) == 0
    assert sign_at_root(P([1, -1]), root) == 1  # 1 - t > 0 at ~0.276
    assert sign_at_root(P([-1, 4]), root) == 1  # 4t - 1 > 0
    assert sign_at_root(P([1, -4]), root) == -1
    exact = first_positive_root(P([1, -2]))
    assert sign_at_root(P([1, -2]), exact) == 0
    assert sign_at_root(P([1, -1]), exact) == 1
    # a point interval evaluates exactly; the zero polynomial and
    # constants need no branch of their own
    assert sign_at_root(P([-1, 1]), exact) == -1
    assert sign_at_root(P([-1, 0, 4]), exact) == 0  # 4t^2 - 1 at 1/2
    for at in (root, exact):
        assert sign_at_root(P([]), at) == 0
        assert sign_at_root(P([3]), at) == 1
        assert sign_at_root(P([-3]), at) == -1


def test_simplest_rational_between():
    assert simplest_rational_between(Fraction(3, 10), Fraction(31, 100)) == Fraction(3, 10)
    assert simplest_rational_between(Fraction(4999, 10000), Fraction(5001, 10000)) == Fraction(1, 2)
    assert simplest_rational_between(Fraction(5, 2), Fraction(7, 2)) == 3
    assert simplest_rational_between(Fraction(1, 2), Fraction(1, 2)) == Fraction(1, 2)


def test_poly_gcd_and_squarefree():
    p = P([1, -2, 1])  # (1-t)^2
    g = poly_gcd(p, p.derivative())
    assert g.degree == 1
    sf = _squarefree_chain(p)[0]
    assert sf.degree == 1 and sf(1) == 0


def test_serialization_roundtrip():
    p = P(["1", "-5", "7", "-1"])
    assert poly_to_strings(p) == ["1", "-5", "7", "-1"]
    assert format_rational(Fraction(-3, 7)) == "-3/7"
    assert parse_rational("-3/7") == Fraction(-3, 7)


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
small_polys = st.lists(small_fractions, max_size=6).map(Polynomial)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_derivative_is_linear(p, q):
    assert (p + q).derivative() == p.derivative() + q.derivative()


@settings(max_examples=60, deadline=None)
@given(small_polys, st.integers(min_value=0, max_value=8))
def test_series_inverse_identity(p, order):
    if p.constant_term == 0:
        return
    inv = series_inverse(p, order)
    product = p * Polynomial(inv)
    truncated = product.coefficients[: order + 1]
    expected = (Fraction(1),) + (Fraction(0),) * min(order, len(truncated) - 1)
    assert truncated == expected[: len(truncated)]


@settings(max_examples=60, deadline=None)
@given(small_polys, small_fractions)
def test_evaluate_matches_power_sum(p, t):
    naive = sum((c * t**k for k, c in enumerate(p.coefficients)), Fraction(0))
    assert p(t) == naive


@settings(max_examples=40, deadline=None)
@given(small_polys, small_polys)
def test_mul_evaluates_pointwise(p, q):
    t = Fraction(3, 7)
    assert (p * q)(t) == p(t) * q(t)


def _fraction_gcd(p, q):
    """Euclid over the rationals, made monic."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return a if a.is_zero else a * (1 / a.leading_coefficient)


def _random_root_polynomial(rng):
    """A product of factors with positive roots: rational ones, some with
    denominators near 2**63, square roots of rationals, some of either
    clustered within 2**-60 or 2**-140, and perhaps a double root or a
    factor with complex roots."""
    factors = []
    for _ in range(rng.randint(1, 2)):
        kind = rng.random()
        if kind < 0.25:
            r = Fraction(rng.randint(1, 2**63), rng.randint(2**62, 2**63))
            factors.append(P([-r, 1]))
            continue
        a = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        gap = Fraction(1, 2 ** rng.choice([60, 140]))
        # t - a, or t^2 - a: a is rarely a square, so sqrt(a) is irrational
        make = (lambda r: P([-r, 1])) if kind < 0.55 else (lambda r: P([-r, 0, 1]))
        factors += [make(a), make(a + gap), make(a + 3 * gap)][: rng.randint(1, 3)]
    del factors[3:]
    if rng.random() < 0.4:
        factors.append(factors[0])  # a double root
    if rng.random() < 0.3:
        factors.append(P([1, 0, Fraction(1, rng.randint(1, 9))]))
    p = P([rng.choice([-1, 1]) * rng.randint(1, 9)])
    for factor in factors:
        p = p * factor
    return p


def test_first_positive_root_matches_fraction_oracle(rng):
    found = []
    for _ in range(40):
        p = _random_root_polynomial(rng)
        expected = fraction_first_positive_root(p)
        root = first_positive_root(p)
        assert (root.witness, root.lo, root.hi) == (expected.witness, expected.lo, expected.hi)
        coarse = isolate_first_root(p)
        assert coarse.witness == root.witness
        assert coarse.lo <= root.lo <= root.hi <= coarse.hi
        assert compare_roots(coarse, root) == 0 == compare_roots(root, coarse)
        for other in found[-4:]:
            order = compare_roots(root, other)
            assert compare_roots(other, root) == -order
            if root.hi < other.lo or other.hi < root.lo:
                assert order == (-1 if root.hi < other.lo else 1)
            elif root.is_rational and other.is_rational:
                assert order == (root.lo > other.lo) - (root.lo < other.lo)
        found.append(root)
    for p in (P([1, -5, 5]), P([1, -3, 3]), P([-2, 0, 1]), P([1, -5, 6, -1]), P([1, -4, 6, -4, 1])):
        assert first_positive_root(p) == fraction_first_positive_root(p)
    # (t-2)(t-3) has Cauchy bound 8; the Sturm bisection visits 4, then
    # hits the smaller root 2 while (0, 4] still holds both roots
    root = isolate_first_root(P([6, -5, 1]))
    assert root.is_rational and root.value == 2
    assert first_positive_root(P([6, -5, 1])) == fraction_first_positive_root(P([6, -5, 1]))


def test_integer_gcd_matches_rational_euclid(rng):
    for _ in range(25):
        p, q = _random_root_polynomial(rng), _random_root_polynomial(rng)
        shared = P([Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 1])
        for a, b in ((p, q), (p * shared, q * shared), (p, p.derivative()), (p, P()), (P(), q)):
            assert poly_gcd(a, b) == _fraction_gcd(a, b)


@settings(max_examples=80, deadline=None)
@given(small_polys, small_fractions)
def test_integer_sign_matches_fraction_sign(p, x):
    if p.is_zero:
        return
    value = p(x)
    assert _sign_at(p, x) == (value > 0) - (value < 0)
    # x is an exact root of p * (t - x); isolation agrees with the oracle
    assert _sign_at(p * P([-x, 1]), x) == 0
    if x > 0 and p.constant_term != 0:
        root = first_positive_root(p * P([-x, 1]))
        assert root == fraction_first_positive_root(p * P([-x, 1]))


def _narrowed_by_halving(p):
    """The loop that ``_Bisection.narrow`` replaces: ``refine_root`` on
    the coarse isolation until the cell is at most 2**-128 wide and does
    not start at 0, or is a point.  Also checks ``narrow`` against it,
    and ``first_positive_root`` against its probe of that cell."""
    coarse = isolate_first_root(p)
    halved = coarse
    while halved.width > Fraction(1, 2**128) or halved.lo == 0:
        halved = refine_root(halved)
    cell = _Bisection(coarse)
    cell.narrow()
    assert cell.root() == halved
    root = first_positive_root(p)
    candidate = simplest_rational_between(halved.lo, halved.hi)
    if _sign_at(p, candidate) == 0:
        assert root == AlgebraicRoot(halved.witness, candidate, candidate)
    else:
        assert root == halved
    return coarse, halved


def test_narrow_matches_halving_on_random_roots(rng, monkeypatch):
    evaluations = []
    value = poly._int_value
    monkeypatch.setattr(poly, "_int_value", lambda *args: evaluations.append(1) or value(*args))
    narrowed, spent = 0, 0
    for _ in range(60):
        p = _random_root_polynomial(rng)
        coarse = isolate_first_root(p)
        if coarse.is_rational:
            continue
        cell = _Bisection(coarse)
        evaluations.clear()
        cell.narrow()
        narrowed, spent = narrowed + 1, spent + len(evaluations)
        _narrowed_by_halving(p)
    # Halving spends about 129 evaluations per root.
    assert narrowed >= 30 and spent <= 32 * narrowed


def test_narrow_matches_halving_on_hard_cases():
    # Two roots closer than 2**-130: the coarse cell is already narrow
    # enough, so there is nothing to refine.
    coarse, halved = _narrowed_by_halving(P([-2, 0, 1]) * P([-2 - Fraction(1, 2**135), 0, 1]))
    assert coarse.width <= Fraction(1, 2**128) and halved == coarse and not coarse.is_rational
    # (t - r)(t - r - 2**-70)(t^3 + 1000) has Cauchy bound 1002, so r =
    # 1002 j / 2^k, j odd, is a halving point of level k: one past the
    # coarse isolation (level about 80), with a denominator too large for
    # the probe; level 138 is the last that halving visits.
    for k in (90, 110, 138):
        r = Fraction(1002 * (2 * (2 ** (k - 2) // 3340) + 1), 2**k)
        p = P([-r, 1]) * P([-r - Fraction(1, 2**70), 1]) * P([1000, 0, 0, 1])
        coarse, halved = _narrowed_by_halving(p)
        assert not coarse.is_rational and coarse.lo < r < coarse.hi
        assert halved.is_rational and halved.value == r and r.denominator >= 2**64
        assert cauchy_root_bound(p) == 1002
    # A coarse cell (0, B]: a root past the first part, and a root below
    # 2**-139, whose part at width 2**-128 still starts at 0, so halving
    # goes on until it does not.
    for p in (P([-2, 0, 1]), P([-Fraction(6, 2**282), 0, 1])):
        coarse, halved = _narrowed_by_halving(p)
        assert coarse.lo == 0 < halved.lo and not halved.is_rational
    assert halved.width < Fraction(1, 2**139)
    # Linear witnesses whose roots have denominators of at least 2**64.
    for r in (Fraction(2**64 + 13, 3 * 2**64 + 1), Fraction(7, 2**70 + 3)):
        coarse, halved = _narrowed_by_halving(P([-r, 1]))
        assert not coarse.is_rational and coarse.lo < r < coarse.hi
    # A repeated root goes through the squarefree part.
    p = P([-3, 0, 1]) * P([-3, 0, 1]) * P([-5, 1])
    coarse, halved = _narrowed_by_halving(p)
    assert halved.witness.degree == 3 and not halved.is_rational
