import math
import tracemalloc
from fractions import Fraction

import pytest

import configspaces.core as core_module
import configspaces.mobius as mobius_module
import configspaces.poly as poly_module
from configspaces.core import (
    NotIndependent,
    TooLarge,
    Valuation,
    components,
    enumerate_independence_sets,
    from_nubs,
    relative_configuration,
    valuation_of,
)
from configspaces.mobius import (
    MobiusFamily,
    RestBound,
    TYPE_I,
    TYPE_II,
    TrivialConfiguration,
    _enumerated_mu,
    mobius_polynomial,
)
from configspaces.poly import (
    Polynomial,
    compare_roots,
    first_positive_root,
    sturm_count,
    _descartes,
    _descartes_root_free,
)
from configspaces.structure import (
    builtin,
    random_configuration,
    random_valuation,
    star,
)

from conftest import direct_transform, disjoint_union, powerset_mobius, refine_root, shape_ids

P = Polynomial


def test_mobius_fig1():
    assert mobius_polynomial(builtin("fig1-left")) == P([1, -5, 7, -1])
    assert mobius_polynomial(builtin("fig1-right")) == P([1, -5, 6, -1])


def test_mobius_star_n2():
    for n in range(2, 7):
        expected = P([1, -n, Fraction(n * (n - 1), 2)])
        assert mobius_polynomial(star(n, 2)) == expected


def test_mobius_trivial():
    assert mobius_polynomial(from_nubs(0, [])) == P([1])


def test_mu_streams_on_right_angled():
    # The leaf kernel, which classify's walk and every leaf run: path-20
    # has 17,711 members, and a walk that kept one mask per member, or a
    # whole level of them, peaks at 0.8 MB or more.
    path = builtin("path-20")
    weights = Valuation.uniform(path.n).weights
    tracemalloc.start()
    try:
        mu = _enumerated_mu(path, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert mu(Fraction(0)) == 1 and mu.degree == 10


def test_eliminated_mu_memory():
    # path-64: about 2.8e13 members, 54 memoised polynomials.
    path = builtin("path-64")
    tracemalloc.start()
    try:
        mu = mobius_polynomial(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert mu.degree == 32 and mu.coefficients[1] == -64


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the links taken by elimination."""
    calls = []
    original = core_module._link

    def counting(n, nubs, x):
        calls.append(x)
        return original(n, nubs, x)

    monkeypatch.setattr(core_module, "_link", counting)
    return calls


def chain_configuration(n, rng):
    """A path of n - 1 nubs under shuffled labels, some widened.

    Nub i holds chain positions i and i + 1, and one time in twelve one
    or two more positions, none next to another of its positions, so no
    nub contains another.  The whole is connected with fewer nubs than
    vertices, and its family stays near a path's.
    """
    order = rng.sample(range(n), n)
    nubs = []
    for i in range(n - 1):
        nub = [i, i + 1]
        far = [j for j in range(n) if j < i - 1 or j > i + 2]
        width = rng.choice((2,) * 10 + (3, 4))
        while len(nub) < width and far:
            j = rng.choice(far)
            nub.append(j)
            far = [k for k in far if abs(k - j) > 1]
        nubs.append([order[j] for j in nub])
    return from_nubs(n, nubs)


def test_elimination_matches_leaf_kernel(rng, eliminations):
    sizes = set()
    for _ in range(200):
        c = chain_configuration(rng.randint(13, 20), rng)
        f = random_valuation(c, rng)
        assert len(c.nubs) == c.n - 1
        sizes.update(nub.bit_count() for nub in c.nubs)
        eliminations.clear()
        assert mobius_polynomial(c, f) == _enumerated_mu(c, f.weights)
        assert eliminations
    assert sizes == {2, 3, 4}


@pytest.mark.parametrize(
    "config",
    [
        builtin("path-13"),
        builtin("path-20"),
        disjoint_union(builtin("path-14"), star(4, 3)),
        star(14, 13),
    ],
    ids=["path-13", "path-20", "union", "star-14-13"],
)
def test_elimination_on_built_ins(config, eliminations):
    uniform = Valuation.uniform(config.n)
    weighted = Valuation(tuple(Fraction(1 + i % 3, 2 + i % 5) for i in range(config.n)))
    for f in (uniform, weighted):
        eliminations.clear()
        assert mobius_polynomial(config, f) == _enumerated_mu(config, f.weights)
        assert eliminations


def test_star_closed_form_by_elimination(eliminations):
    # star(n, n - 1): mu is (1 - t)^n without its top term.
    for n in (13, 16, 24):
        full = [(-1) ** k * math.comb(n, k) for k in range(n)]
        assert mobius_polynomial(star(n, n - 1)) == P(full)
    assert eliminations


def test_elimination_builds_no_restriction(monkeypatch):
    calls = []
    original = core_module.Restriction.of.__func__

    def counting(cls, config, vertices, nubs):
        calls.append(vertices)
        return original(cls, config, vertices, nubs)

    monkeypatch.setattr(core_module.Restriction, "of", classmethod(counting))
    mu = mobius_polynomial(builtin("path-64"))
    assert mu.degree == 32 and calls == []
    # The hook sees what the restriction wrappers build.
    core_module.components(builtin("path-64"))
    assert calls == [2**64 - 1]


def test_leaf_rule(monkeypatch):
    # Leaves by walk: over the members, or over the least members of
    # the twin orbits when the leaf has twin classes.
    leaves = []
    walk = mobius_module.enumerate_independence_sets

    def walking(config, twins=None):
        leaves.append(("members" if twins is None else "orbits", config.n))
        return walk(config, twins)

    monkeypatch.setattr(mobius_module, "enumerate_independence_sets", walking)
    # At least as many nubs as vertices and a family within the budget:
    # one whole leaf, even where the sets below the smallest nub
    # outnumber the nubs (star-14-5: 3,473 sets, 3,003 nubs).  The
    # dodecahedron has no twins and walks its members; the others are
    # one twin class each and walk their orbits.
    for name, route in (
        ("complete-30", "orbits"),
        ("dodecahedron", "members"),
        ("star-64-2", "orbits"),
        ("star-14-5", "orbits"),
    ):
        leaves.clear()
        mobius_polynomial(builtin(name))
        assert leaves == [(route, builtin(name).n)], name
    # star(n, n - 2) has 2^n - n - 1 sets below its n nubs, past the
    # budget from n = 18: star-30-28 eliminates down to star(17, 15).
    leaves.clear()
    mu = mobius_polynomial(star(30, 28))
    assert mu == P([(-1) ** k * math.comb(30, k) for k in range(29)])
    assert max(n for _, n in leaves) == 17


def test_elimination_memo_budget(monkeypatch):
    # 37 free vertices of distinct weights and one triple: 39 distinct
    # restrictions, none with more than 7 members.
    config = from_nubs(40, [(37, 38, 39)])
    f = Valuation(tuple(Fraction(i + 1) for i in range(40)))
    expected = mobius_polynomial(config, f)
    monkeypatch.setattr(core_module, "MEMBER_BUDGET", 39)
    assert mobius_polynomial(config, f) == expected
    monkeypatch.setattr(core_module, "MEMBER_BUDGET", 38)
    with pytest.raises(TooLarge, match="elimination memo exceeds the member budget of 38"):
        mobius_polynomial(config, f)


def test_mobius_matches_powerset_oracle(rng):
    for _ in range(30):
        c = random_configuration(rng.randint(1, 8), rng)
        f = random_valuation(c, rng)
        assert mobius_polynomial(c, f) == powerset_mobius(c, f)


def test_relative_mobius_star43():
    s43 = star(4, 3)
    assert MobiusFamily(s43).relative(0b1000) == P([1, -3, 3])
    assert MobiusFamily(s43).relative(0b1100) == P([1, -2])
    assert MobiusFamily(s43).relative(0b1110) == P([1])


def test_mobius_transform_star43():
    s43 = star(4, 3)
    assert MobiusFamily(s43).transform(0) == P([1, -4, 6, -4])
    assert MobiusFamily(s43).transform(0b1000) == P([0, 1, -3, 3])
    # a maximal independence set has transform f(x) t^|x|
    assert MobiusFamily(s43).transform(0b0111) == P([0, 0, 0, 1])


def test_transform_two_routes(rng):
    for _ in range(25):
        c = random_configuration(rng.randint(1, 7), rng)
        f = random_valuation(c, rng)
        family = MobiusFamily(c, f)
        for x in family.members():
            assert family.transform(x) == direct_transform(c, f, x)


def test_inversion_check():
    assert MobiusFamily(star(3, 2)).inversion_check()
    rng_seeded = __import__("random").Random(7)
    for _ in range(15):
        c = random_configuration(rng_seeded.randint(1, 8), rng_seeded)
        f = random_valuation(c, rng_seeded)
        assert MobiusFamily(c, f).inversion_check()


def test_inversion_check_detects_a_tampered_transform(rng, monkeypatch):
    families = [MobiusFamily(star(4, 2)), MobiusFamily(from_nubs(5, []))]
    for _ in range(4):
        c = random_configuration(rng.randint(2, 6), rng)
        families.append(MobiusFamily(c, random_valuation(c, rng)))
    for family in families:
        assert family.inversion_check()
        transform = family.transform
        for target in family.members():
            def tampered(x, target=target):
                return transform(x) + P([0, 0, 1]) if x == target else transform(x)

            monkeypatch.setattr(family, "transform", tampered)
            assert not family.inversion_check()
        monkeypatch.setattr(family, "transform", transform)
        assert family.inversion_check()


def test_sum_of_transforms_is_one(rng):
    for _ in range(10):
        c = random_configuration(rng.randint(1, 7), rng)
        f = random_valuation(c, rng)
        family = MobiusFamily(c, f)
        total = Polynomial()
        for x in family.members():
            total = total + family.transform(x)
        assert total == P([1])


def test_derivative_identity_examples():
    s43 = star(4, 3)
    assert mobius_polynomial(s43).derivative() == P([-4, 12, -12])
    assert MobiusFamily(s43).derivative_identity_residual().is_zero
    assert MobiusFamily(from_nubs(0, [])).derivative_identity_residual().is_zero
    single = from_nubs(1, [])
    weighted = valuation_of(single, [Fraction(5, 3)])
    assert mobius_polynomial(single, weighted) == P([1, Fraction(-5, 3)])
    assert MobiusFamily(single, weighted).derivative_identity_residual().is_zero


def test_derivative_identity_random(rng):
    for _ in range(40):
        c = random_configuration(rng.randint(1, 9), rng)
        f = random_valuation(c, rng)
        assert MobiusFamily(c, f).derivative_identity_residual().is_zero


def test_critical_root_star_diagonal():
    for n in range(2, 7):
        root, attained = MobiusFamily(star(n, n - 1)).critical_root()
        assert root.is_rational and root.value == Fraction(1, 2)


def test_critical_root_complete_dependence():
    # all pairs are nubs: mu = 1 - nt, every mu relative to a vertex is 1
    for n in (2, 3, 5):
        c = from_nubs(n, [{i, j} for i in range(n) for j in range(i + 1, n)])
        assert mobius_polynomial(c) == P([1, -n])
        root, attained = MobiusFamily(c).critical_root()
        assert root.value == Fraction(1, n)
        assert attained == (0,)


def test_critical_root_free_configuration():
    c = from_nubs(3, [])
    root, attained = MobiusFamily(c).critical_root()
    assert root.value == 1
    # every proper independence set still sees a (1-t) factor
    assert len(attained) == 7


def test_critical_root_trivial():
    with pytest.raises(TrivialConfiguration):
        MobiusFamily(from_nubs(0, [])).critical_root()
    with pytest.raises(TrivialConfiguration):
        MobiusFamily(from_nubs(0, [])).classify()


def test_classify_star32():
    result = MobiusFamily(star(3, 2)).classify()
    assert result.config_type == TYPE_II
    assert result.critical_root.value == Fraction(1, 2)
    assert result.rest_at_t0 == Fraction(1, 4)
    assert 0 not in result.attained_at


def test_classify_star43():
    result = MobiusFamily(star(4, 3)).classify()
    assert result.config_type == TYPE_I
    assert 0 in result.attained_at
    assert result.rest_at_t0 == 0


def test_classify_path_right_angled():
    result = MobiusFamily(builtin("fig1-right")).classify()
    assert result.config_type == TYPE_I
    assert not result.critical_root.is_rational
    assert isinstance(result.rest_at_t0, RestBound)
    assert result.rest_at_t0.sign == "zero"
    assert result.rest_at_t0.lo <= 0 <= result.rest_at_t0.hi
    assert result.rest_at_t0.hi - result.rest_at_t0.lo <= Fraction(1, 2**64)


def test_classify_fig1_left():
    # computed fixture: the smallest relative root comes from vertex "5",
    # whose relative configuration is a 3-vertex complete dependence
    result = MobiusFamily(builtin("fig1-left")).classify()
    assert result.config_type == TYPE_II
    assert result.critical_root.value == Fraction(1, 3)
    assert result.rest_at_t0 == Fraction(2, 27)
    left = builtin("fig1-left")
    assert [left.labels_of(x) for x in result.attained_at] == [["5"]]


STAR_TYPES_COMPUTED = {
    (1, 1): TYPE_I,
    (2, 1): TYPE_I, (2, 2): TYPE_I,
    (3, 1): TYPE_I, (3, 2): TYPE_II, (3, 3): TYPE_I,
    (4, 1): TYPE_I, (4, 2): TYPE_II, (4, 3): TYPE_I, (4, 4): TYPE_I,
    (5, 1): TYPE_I, (5, 2): TYPE_II, (5, 3): TYPE_II, (5, 4): TYPE_II, (5, 5): TYPE_I,
    (6, 1): TYPE_I, (6, 2): TYPE_II, (6, 3): TYPE_II, (6, 4): TYPE_II, (6, 5): TYPE_I, (6, 6): TYPE_I,
}


def test_star_types_computed_table():
    # Frozen from this implementation's exact semantics: t0 is the first
    # positive zero over all relative polynomials, and type I means mu
    # itself vanishes there.  Note (5,3) and (6,3): their relative
    # configurations S(3,1) and S(4,1) force t0 = 1/3 and 1/4 while mu
    # stays positive there, so both are type II.
    for (n, k), expected in STAR_TYPES_COMPUTED.items():
        assert MobiusFamily(star(n, k)).classify().config_type == expected, (n, k)


def test_star_5_3_discrepancy_details():
    result = MobiusFamily(star(5, 3)).classify()
    assert result.critical_root.value == Fraction(1, 3)
    assert result.rest_at_t0 == Fraction(2, 27)
    mu = mobius_polynomial(star(5, 3))
    root = first_positive_root(mu)
    # mu's own first root lies strictly above t0, so no covering exists
    assert compare_roots(result.critical_root, root) == -1


def test_classify_type_two_irrational_root():
    # apex vertex 0 whose relative configuration is the 5-cycle: t0 is
    # the irrational first root of 1 - 5t + 5t^2, attained only at the
    # apex, and the rest there is certified positive with an enclosure
    apex = from_nubs(6, [{0, 1, 2}, {0, 2, 3}, {0, 3, 4}, {0, 4, 5}, {0, 5, 1}])
    result = MobiusFamily(apex).classify()
    assert result.config_type == TYPE_II
    assert not result.critical_root.is_rational
    assert result.critical_root.witness == P([1, -5, 5])
    assert result.attained_at == (0b000001,)
    assert isinstance(result.rest_at_t0, RestBound)
    assert result.rest_at_t0.sign == "positive"
    assert 0 < result.rest_at_t0.lo <= result.rest_at_t0.hi
    assert result.rest_at_t0.hi - result.rest_at_t0.lo <= Fraction(1, 2**64)


def test_attaining_set_decides_relative_positivity(rng):
    # attained_at == (0,) exactly when every relative polynomial with a
    # nonempty anchor is positive at t0, the rule certified one
    # polynomial at a time by sign_at_root before
    from configspaces.poly import sign_at_root

    cases = [(star(n, k), None) for n in range(2, 8) for k in range(1, n)]
    cases += [(builtin("fig1-left"), None), (builtin("fig1-right"), None)]
    cases.append((disjoint_union(star(3, 1), star(3, 1)), None))
    for _ in range(25):
        c = random_configuration(rng.randint(1, 7), rng, sizes=(2, 3, 4))
        cases.append((c, None))
        cases.append((c, random_valuation(c, rng)))
    outcomes = set()
    for c, valuation in cases:
        family = MobiusFamily(c, valuation)
        result = family.classify()
        root = result.critical_root
        old_rule = all(
            sign_at_root(poly, root) > 0
            for poly in dict.fromkeys(family.relative(x) for x in family.members() if x)
        )
        assert (result.attained_at == (0,)) == old_rule, (c, valuation)
        outcomes.add((old_rule, result.config_type))
    assert {True, False} == {rule for rule, _ in outcomes}
    assert {TYPE_I, TYPE_II} == {kind for _, kind in outcomes}


def test_classify_builds_each_sturm_chain_once(monkeypatch, rng):
    # One classify builds the Sturm chain of each distinct polynomial,
    # and of its squarefree part, at most once: isolation, the Sturm
    # count of critical_root, compare_roots and first_positive_root
    # share them
    original = poly_module._sturm_chain
    built: list[Polynomial] = []

    def counting(p):
        built.append(p)
        return original(p)

    monkeypatch.setattr(poly_module, "_sturm_chain", counting)
    # Paths have repeated factors: the link of a middle vertex splits
    # into two equal paths.  On a disjoint union of equal parts mu is a
    # square, and compare_roots meets a gcd that is a witness times a
    # constant.
    cases = [star(9, 4), star(10, 5), builtin("path-12"), builtin("fig1-left")]
    cases.append(disjoint_union(builtin("fig1-right"), builtin("fig1-right")))
    cases += [random_configuration(rng.randint(3, 8), rng) for _ in range(20)]
    repeated = 0
    for c in cases:
        built.clear()
        family = MobiusFamily(c)
        family.classify()
        chains = list(built)
        distinct = set(family.relative(x) for x in family.members())
        squarefree = sum(poly_module._squarefree_chain(p)[0] == p for p in distinct)
        repeated += squarefree < len(distinct)
        assert len(set(map(id, chains))) == len(chains), c
        assert 0 < len(chains) <= 2 * len(distinct) - squarefree, c
    assert repeated


def test_type_one_iff_mu_vanishes_at_root(rng):
    # the membership of the empty set in attained_at must agree with the
    # certified sign of mu at t0 (gcd-based equality for irrational t0)
    from configspaces.poly import sign_at_root

    cases = [star(3, 2), star(4, 3), builtin("fig1-left"), builtin("fig1-right")]
    for _ in range(15):
        cases.append(random_configuration(rng.randint(1, 7), rng))
    for c in cases:
        family = MobiusFamily(c)
        root, attained = family.critical_root()
        assert root.lo > 0
        assert (0 in attained) == (sign_at_root(mobius_polynomial(c), root) == 0)


def test_rest_polynomial():
    s32 = star(3, 2)
    rest = mobius_polynomial(s32)
    assert rest == powerset_mobius(s32)
    assert rest(Fraction(1, 2)) == Fraction(1, 4)
    assert rest(0) == 1


def test_range_shape_random(rng):
    for _ in range(15):
        c = random_configuration(rng.randint(1, 7), rng)
        family = MobiusFamily(c)
        root, _ = family.critical_root()
        top = root.value if root.is_rational else root.lo
        samples = [top * Fraction(k, 17) for k in range(1, 17)]
        for x in family.members():
            poly = family.relative(x)
            assert all(poly(t) >= 0 for t in samples)
        # strictly decreasing rest before t0
        mu = mobius_polynomial(c)
        values = [mu(t) for t in samples]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_decomposition_product(rng):
    for _ in range(15):
        c = random_configuration(rng.randint(2, 8), rng)
        f = random_valuation(c, rng)
        whole = mobius_polynomial(c, f)
        product = P([1])
        for part in components(c):
            product = product * mobius_polynomial(part.config, f.restrict(part.index_map))
        assert product == whole


def test_members_in_size_mask_order(rng):
    cases = [builtin(name) for name in ("fig1-left", "path-9", "star-7-3", "complete-5")]
    cases += [random_configuration(rng.randint(1, 9), rng) for _ in range(40)]
    for c in cases:
        expected = sorted(enumerate_independence_sets(c), key=lambda m: (m.bit_count(), m))
        assert MobiusFamily(c).members() == expected


# Vertices 0 and 1 are dependent and in no other nub, so both have the
# link {2, .., 5}: weighted apart, their digit keys are proportional.
# The link's first root, 2 - sqrt(3), is below the pair's 2/7, so the
# empty set, {0} and {1} all attain t0.
TWINS = from_nubs(6, [{0, 1}, {2, 3}, {2, 4}, {3, 4}, {2, 5}, {3, 5}])
TWINS_WEIGHTS = Valuation((Fraction(1, 2), Fraction(3)) + (Fraction(1),) * 4)


def test_critical_root_decodes_each_key_once(monkeypatch):
    anchors = []
    original = MobiusFamily.relative
    monkeypatch.setattr(
        MobiusFamily, "relative", lambda self, x: anchors.append(x) or original(self, x)
    )
    for config, valuation in (
        (builtin("path-12"), None),
        (star(9, 4), None),
        (TWINS, TWINS_WEIGHTS),
    ):
        family = MobiusFamily(config, valuation)
        anchors.clear()
        family.critical_root()
        ids = shape_ids(family)
        assert len(anchors) <= len(set(ids.values())) < len(ids)
        assert len({ids[x] for x in anchors}) == len(anchors)


def test_shape_table_keeps_no_digit_key():
    for config, valuation in (
        (builtin("path-12"), None),
        (star(9, 4), None),
        (TWINS, TWINS_WEIGHTS),
    ):
        family = MobiusFamily(config, valuation)
        family.critical_root()
        assert not hasattr(family, "_keys")
        ids = shape_ids(family)
        assert list(ids) == family.members()
        assert all(type(i) is int and i in range(len(family._shapes)) for i in ids.values())
        assert len(set(family._shapes)) == len(family._shapes)


def test_proportional_keys_are_isolated_once(monkeypatch):
    isolated = []
    original = mobius_module.isolate_first_root
    monkeypatch.setattr(
        mobius_module, "isolate_first_root", lambda p: isolated.append(p) or original(p)
    )
    family = MobiusFamily(TWINS, TWINS_WEIGHTS)
    root, attained = family.critical_root()
    assert family.transform(0b01) != family.transform(0b10)
    assert family.relative(0b01) == family.relative(0b10)
    assert attained == (0, 0b01, 0b10)
    assert len(isolated) == len(set(isolated))
    assert (root, attained) == _eager_critical_root(family)


def test_relative_polynomials_are_shared_by_value():
    # Proportional keys have one shape, so one polynomial object.
    family = MobiusFamily(TWINS, TWINS_WEIGHTS)
    assert family.transform(0b01) != family.transform(0b10)
    assert family.relative(0b01) is family.relative(0b10)
    assert len({id(family.relative(x)) for x in family.members()}) == len(
        {family.relative(x) for x in family.members()}
    )


def test_relative_presets_its_primitive(rng):
    for _ in range(40):
        c = random_configuration(rng.randint(1, 8), rng)
        family = MobiusFamily(c, random_valuation(c, rng))
        for x in family.members():
            p = family.relative(x)
            assert p._primitive is not None
            assert p.primitive() == Polynomial(p.coefficients).primitive()


def test_memoization_shares_relative_polynomials():
    family = MobiusFamily(star(6, 4))
    # anchors of equal size share one relative polynomial each
    assert len({family.relative(x) for x in family.members()}) == 5


def test_relative_matches_direct_transform(rng):
    # mu^{|x} = H(x) / (f(x) t^|x|), H from the brute-force superset sum
    for _ in range(50):
        c = random_configuration(rng.randint(1, 8), rng)
        f = random_valuation(c, rng)
        family = MobiusFamily(c, f)
        for x in family.members():
            h = direct_transform(c, f, x).coefficients
            k = x.bit_count()
            assert all(coeff == 0 for coeff in h[:k])
            assert family.relative(x) == P([coeff / f.of(x) for coeff in h[k:]])


def test_link_route_matches_family_relative(rng):
    # The relative command's route: mu of the anchor's link, restricted weights.
    for _ in range(60):
        c = random_configuration(rng.randint(1, 8), rng)
        f = random_valuation(c, rng)
        family = MobiusFamily(c, f)
        for x in family.members():
            view = relative_configuration(c, x)
            link = mobius_polynomial(view.config, f.restrict(view.index_map))
            assert link == family.relative(x)


def test_relative_of_dependent_set_raises():
    family = MobiusFamily(star(4, 2))
    with pytest.raises(NotIndependent):
        family.relative(0b0111)
    with pytest.raises(NotIndependent):
        MobiusFamily(builtin("fig1-left")).relative(0b00011)


def _eager_critical_root(family):
    """Oracle: isolate every distinct relative polynomial, keep the minimum."""
    members = family.members()
    polys = dict.fromkeys(family.relative(x) for x in members)
    roots = {poly: first_positive_root(poly) for poly in polys}
    best = None
    for poly in polys:
        if roots[poly] is not None and (best is None or compare_roots(roots[poly], best) < 0):
            best = roots[poly]
    attaining = {
        poly for poly in polys if roots[poly] is not None and compare_roots(roots[poly], best) == 0
    }
    return best, tuple(x for x in members if family.relative(x) in attaining)


def test_lazy_critical_root_matches_eager_oracle(rng, monkeypatch):
    # stars have relative polynomials with complex roots, where Descartes'
    # rule is inconclusive and the walk falls back to a Sturm count
    sturm_calls = []
    original = mobius_module.sturm_count
    monkeypatch.setattr(
        mobius_module, "sturm_count", lambda *a: sturm_calls.append(a) or original(*a)
    )
    cases = [(star(n, k), None) for n in range(2, 9) for k in range(1, n + 1)]
    cases += [(builtin(name), None) for name in ("fig1-left", "fig1-right", "path-9")]
    for c, f in cases:
        family = MobiusFamily(c, f)
        assert family.critical_root() == _eager_critical_root(family)
    assert sturm_calls
    for _ in range(30):
        c = random_configuration(rng.randint(1, 8), rng)
        f = random_valuation(c, rng) if rng.random() < 0.5 else None
        family = MobiusFamily(c, f)
        assert family.critical_root() == _eager_critical_root(family)
    # Weighted disjoint unions c + c' with an irrational t0 of c.  With
    # c' = c, distinct relative polynomials share the irrational root, so
    # compare_roots must answer 0 through a common factor; with every
    # weight of c' scaled by 1 + 2**-140, c' has the root t0 / (1 + 2**-140),
    # closer to t0 than 2**-130.
    shared_factors = []
    original_gcd = poly_module.poly_gcd

    def recording_gcd(p, q):
        g = original_gcd(p, q)
        if q != p.derivative():  # not a squarefree-part gcd
            shared_factors.append(g.degree)
        return g

    monkeypatch.setattr(poly_module, "poly_gcd", recording_gcd)
    unions = 0
    while unions < 4:
        c = random_configuration(rng.randint(2, 4), rng)
        f = random_valuation(c, rng)
        t0 = MobiusFamily(c, f).critical_root()[0]
        if t0.is_rational:
            continue
        unions += 1
        for scale in (Fraction(1), 1 + Fraction(1, 2**140)):
            scaled = Valuation(tuple(w * scale for w in f.weights))
            family = MobiusFamily(disjoint_union(c, c), Valuation(f.weights + scaled.weights))
            shared_factors.clear()
            root, attained = family.critical_root()
            if scale == 1:
                assert any(degree >= 1 for degree in shared_factors)
                assert compare_roots(root, t0) == 0
            else:
                assert compare_roots(root, t0) == -1
                assert compare_roots(root, MobiusFamily(c, scaled).critical_root()[0]) == 0
                # t0 - t0 / (1 + 2**-140) < t0 * 2**-140
                assert t0.hi * Fraction(1, 2**140) < Fraction(1, 2**130)
            assert (root, attained) == _eager_critical_root(family)


def test_critical_root_asks_descartes_once_per_shape(monkeypatch):
    # Each shape meets Descartes' rule at most once, and a Sturm count
    # runs only on a shape the rule left open, on (0, hi] at the same hi
    original_descartes, original_sturm = poly_module._descartes, mobius_module.sturm_count
    descartes_calls, sturm_calls = [], []

    def descartes(coeffs, hi):
        variations = original_descartes(coeffs, hi)
        descartes_calls.append((tuple(coeffs), hi, variations))
        return variations

    def sturm(p, lo, hi):
        sturm_calls.append((p.primitive(), lo, hi))
        return original_sturm(p, lo, hi)

    monkeypatch.setattr(poly_module, "_descartes", descartes)
    monkeypatch.setattr(mobius_module, "sturm_count", sturm)
    cases = [star(n, k) for n in range(2, 9) for k in range(1, n + 1)]
    cases += [builtin(name) for name in ("fig1-left", "fig1-right", "path-9")]
    counted = 0
    for c in cases:
        descartes_calls.clear()
        sturm_calls.clear()
        MobiusFamily(c).critical_root()
        shapes = [coeffs for coeffs, _, _ in descartes_calls]
        assert len(shapes) == len(set(shapes)), c
        left_open = {(coeffs, hi) for coeffs, hi, variations in descartes_calls if variations}
        assert all(lo == 0 and (coeffs, hi) in left_open for coeffs, lo, hi in sturm_calls), c
        counted += len(sturm_calls)
    assert counted


def test_mu_always_eliminates(monkeypatch, rng):
    # classify reads mu from the transform and never eliminates, while
    # the derivative identity eliminates mu once.  So the identity
    # compares an eliminated mu with relatives read from the transform,
    # not the transform with itself.
    calls = []
    original = mobius_module.mobius_polynomial
    monkeypatch.setattr(mobius_module, "mobius_polynomial", lambda *a: calls.append(a) or original(*a))
    cases = [(builtin("fig1-left"), None), (star(5, 3), None), (builtin("path-9"), None)]
    for _ in range(5):
        c = random_configuration(rng.randint(1, 7), rng)
        cases.append((c, random_valuation(c, rng)))
    for c, f in cases:
        family = MobiusFamily(c, f)
        calls.clear()
        family.classify()
        assert calls == []
        assert family.relative(0) == original(c, f)
        assert family.derivative_identity_residual().is_zero
        assert calls == [(c, family.valuation)]


def _root_free(p, h):
    """critical_root's test of (0, h]: Descartes' rule on the integer
    coefficients, then a Sturm count where the rule leaves it open."""
    free = _descartes_root_free(p.primitive(), h)
    return sturm_count(p, 0, h) == 0 if free is None else free


def test_descartes_never_misses_a_root(rng):
    for _ in range(100):
        r = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        cofactor = P([rng.choice([-1, 1]) * rng.randint(1, 9)] + [
            Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(rng.randint(0, 5))
        ])
        p = P([-r, 1]) * cofactor
        if rng.random() < 0.3:
            p = p * P([-r, 1])  # a double root
        for h in (r, r + Fraction(rng.randint(1, 20), rng.randint(1, 20))):
            assert _descartes_root_free(p.primitive(), h) is not True
            assert not _root_free(p, h)
            if h != r:
                assert _descartes(p.primitive(), h) > 0
        # the test agrees with isolation on arbitrary intervals
        h = Fraction(rng.randint(1, 80), rng.randint(1, 20))
        first = first_positive_root(p)
        while first.lo < h < first.hi:
            first = refine_root(first)
        # interval endpoints are never roots; a point interval is one
        expected = h < first.lo or (h == first.lo and not first.is_rational)
        assert _root_free(p, h) == expected
