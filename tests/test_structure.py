import math
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

from configspaces import core
from configspaces import mobius as mobius_module
from configspaces import poly as poly_module
from configspaces import structure as structure_module
from configspaces.core import (
    TooLarge,
    Valuation,
    VertexOutOfRange,
    components,
    enumerate_independence_sets,
    from_nubs,
    is_right_angled,
    mask_from_indices,
    relative_configuration,
    valuation_of,
)
from configspaces.mobius import TYPE_I, TYPE_II, MobiusFamily, mobius_polynomial
from configspaces.poly import Polynomial
from configspaces.structure import (
    BadParameters,
    NotRightAngled,
    SelfLoop,
    UnknownDataset,
    builtin,
    from_dependence_graph,
    is_irreducible,
    random_configuration,
    random_valuation,
    right_angled_properties,
    star,
    symmetric_counts,
    trace_count_cf,
    trace_series,
)

from conftest import bfs_components, brute_independence_family, disjoint_union

P = Polynomial


def test_components_examples():
    path = builtin("fig1-right")
    assert len(components(path)) == 1
    two_edges = from_nubs(4, [{0, 1}, {2, 3}])
    decomposition = components(two_edges)
    assert [c.vertices for c in decomposition] == [0b0011, 0b1100]
    free = from_nubs(3, [])
    assert [c.vertices for c in components(free)] == [1, 2, 4]


def test_components_restrict_nubs():
    c = from_nubs(5, [{0, 1}, {1, 2}, {3, 4}])
    parts = components(c)
    assert parts[0].config.nubs == (0b011, 0b110)
    assert parts[1].config.nubs == (0b11,)
    assert parts[0].index_map == (0, 1, 2)
    assert parts[1].index_map == (3, 4)


def test_is_irreducible():
    for n in range(2, 6):
        for k in range(1, n):
            assert is_irreducible(star(n, k))
    assert not is_irreducible(star(3, 3))
    assert is_irreducible(from_nubs(1, []))
    assert not is_irreducible(from_nubs(2, []))


def mixed_nub_configuration(rng):
    """Up to 64 vertices, some in no nub, with 2-, 3- and 4-vertex nubs
    drawn inside a few random clusters, so that some draws split and
    some do not."""
    n = rng.randint(1, 64)
    vertices = list(range(n))
    clusters = [rng.sample(vertices, rng.randint(1, n)) for _ in range(rng.randint(1, 4))]
    nubs = []
    for cluster in clusters:
        for _ in range(rng.randint(0, 2 * len(cluster))):
            size = rng.choice((2, 3, 4))
            if size <= len(cluster):
                nubs.append(rng.sample(cluster, size))
    return from_nubs(n, nubs)


def test_components_match_bfs_oracle(rng):
    splits = 0
    seen_sizes = set()
    independent = 0
    for _ in range(300):
        c = mixed_nub_configuration(rng)
        parts = components(c)
        expected = bfs_components(c)
        assert [part.vertices for part in parts] == expected
        assert is_irreducible(c) == (len(expected) <= 1)
        splits += len(parts) > 1
        for part in parts:
            assert part.index_map == tuple(core.indices_of(part.vertices))
            assert part.config.labels == tuple(c.labels[i] for i in part.index_map)
            nubs = part.config.nubs
            assert list(nubs) == sorted(nubs, key=lambda m: (m.bit_count(), m))
            assert not any(a != b and a & b == a for a in nubs for b in nubs)
            seen_sizes.update(nub.bit_count() for nub in nubs)
        # Every nub lies in exactly one part, once re-indexed.
        assert sum(len(part.config.nubs) for part in parts) == len(c.nubs)
        for k in range(20):
            # Densities 1/4 and 1/8, so that both outcomes occur.
            x = rng.getrandbits(c.n) & rng.getrandbits(c.n)
            if k % 2:
                x &= rng.getrandbits(c.n)
            local = [
                mask_from_indices(
                    i for i, orig in enumerate(part.index_map) if x >> orig & 1
                )
                for part in parts
            ]
            assert c.is_independent(x) == all(
                part.config.is_independent(y) for part, y in zip(parts, local)
            )
            independent += c.is_independent(x)
    assert 0 < splits < 300 and 0 < independent < 300 * 20
    assert seen_sizes == {2, 3, 4}


def test_is_right_angled():
    assert is_right_angled(builtin("fig1-right"))
    assert not is_right_angled(star(4, 3))
    assert is_right_angled(from_nubs(3, []))
    assert is_right_angled(builtin("dodecahedron"))


def test_from_dependence_graph():
    path = from_dependence_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    assert path.nubs == builtin("fig1-right").nubs
    complete = from_dependence_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert sorted(enumerate_independence_sets(complete)) == [0, 1, 2, 4]
    empty = from_dependence_graph(3, [])
    assert len(list(enumerate_independence_sets(empty))) == 8
    with pytest.raises(SelfLoop):
        from_dependence_graph(3, [(1, 1)])


def test_star_polynomials():
    assert mobius_polynomial(star(3, 2)) == P([1, -3, 3])
    assert mobius_polynomial(star(4, 3)) == P([1, -4, 6, -4])
    assert mobius_polynomial(star(4, 4)) == P([1, -4, 6, -4, 1])
    assert star(4, 4).nubs == ()
    assert star(0, 0).n == 0
    with pytest.raises(BadParameters):
        star(3, 0)
    with pytest.raises(BadParameters):
        star(3, 4)


def test_star_nubs_match_from_nubs():
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert star(n, k) == from_nubs(n, combinations(range(n), k + 1))
    assert star(64, 2) == from_nubs(64, combinations(range(64), 3))


def test_star_mu_is_truncated_binomial():
    for n in range(1, 7):
        binom = P([1])
        for _ in range(n):
            binom = binom * P([1, -1])
        for k in range(1, n + 1):
            truncated = P(binom.coefficients[: k + 1])
            assert mobius_polynomial(star(n, k)) == truncated


def test_trace_series_examples():
    k2 = from_dependence_graph(2, [(0, 1)])
    assert trace_series(k2, order=5) == (1, 2, 4, 8, 16, 32)
    free2 = from_nubs(2, [])
    assert trace_series(free2, order=5) == (1, 2, 3, 4, 5, 6)
    with pytest.raises(NotRightAngled):
        trace_series(star(4, 3))


def test_trace_count_examples():
    k2 = from_dependence_graph(2, [(0, 1)])
    assert trace_count_cf(k2, 0) == 1
    assert [trace_count_cf(k2, L) for L in range(6)] == [1, 2, 4, 8, 16, 32]
    with pytest.raises(NotRightAngled):
        trace_count_cf(star(4, 3), 2)


def test_trace_count_memory_does_not_grow_with_length():
    # Only the rows from k to k + (largest clique size) are kept, so the
    # memory does not grow with the length.
    single = builtin("path-1")
    tracemalloc.start()
    try:
        assert trace_count_cf(single, 20000) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    empty = from_dependence_graph(0, [])
    assert [trace_count_cf(empty, L) for L in range(3)] == [1, 0, 0]


def test_trace_two_algorithms_agree(rng):
    graphs = [
        builtin("fig1-right"),
        from_dependence_graph(2, [(0, 1)]),
        builtin("complete-3"),
        from_dependence_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ]
    for _ in range(8):
        n = rng.randint(1, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        graphs.append(from_dependence_graph(n, edges))
    for graph in graphs:
        series = trace_series(graph, order=8)
        counts = [trace_count_cf(graph, L) for L in range(9)]
        assert list(series) == counts


def test_trace_weighted_agreement(rng):
    k3 = builtin("complete-3")
    f = valuation_of(k3, [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)])
    series = trace_series(k3, f, order=6)
    counts = [trace_count_cf(k3, L, f) for L in range(7)]
    assert list(series) == counts
    for _ in range(12):
        n = rng.randint(1, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        graph = from_dependence_graph(n, edges)
        f = valuation_of(graph, [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(n)])
        series = trace_series(graph, f, order=8)
        assert list(series) == [trace_count_cf(graph, L, f) for L in range(9)]


@pytest.mark.parametrize(
    "name",
    ["fig1-left", "fig1-right", "dodecahedron", "star-5-3", "star-7-1", "path-6", "complete-4"],
)
def test_builtin_round_trips_through_from_nubs(name):
    c = builtin(name)
    assert from_nubs(c.n, c.nubs, c.labels) == c


def test_right_angled_properties_path():
    report = right_angled_properties(builtin("fig1-right"))
    assert report.type_one and report.irreducible
    assert report.simple_root and report.relative_positive and report.monotone


def test_right_angled_properties_k3():
    report = right_angled_properties(builtin("complete-3"))
    assert report.type_one
    assert report.critical_root.value == Fraction(1, 3)
    assert report.simple_root and report.relative_positive


def test_right_angled_properties_reducible():
    k2 = from_dependence_graph(2, [(0, 1)])
    pair = disjoint_union(k2, k2)
    report = right_angled_properties(pair)
    assert report.type_one and not report.irreducible
    assert report.simple_root is None and report.relative_positive is None
    assert report.monotone
    with pytest.raises(NotRightAngled):
        right_angled_properties(star(4, 3))


def _fraction_monotone(family, lo):
    """Oracle for (d): every covering pair of anchors, in Fractions."""
    points = [lo * Fraction(k, 4) for k in (1, 2, 3, 4)]
    for x in family.members():
        above = family.relative(x)
        for i in range(family.config.n):
            if x >> i & 1:
                below = family.relative(x ^ (1 << i))
                if any(below(t) > above(t) for t in points):
                    return False
    return True


def test_integer_monotone_check_matches_fractions(rng):
    # Points with 128-bit denominators, uniform and weighted digit
    # patterns, and wide nubs, where monotonicity fails past small t.
    outcomes = set()
    for trial in range(60):
        c = random_configuration(rng.randint(1, 7), rng)
        f = random_valuation(c, rng) if trial % 2 else None
        family = MobiusFamily(c, f)
        for _ in range(3):
            lo = Fraction(rng.getrandbits(130) + 1, 2**128 + rng.getrandbits(127))
            got = structure_module._monotone_under_inclusion(family, lo)
            assert got == _fraction_monotone(family, lo)
            outcomes.add(got)
    assert outcomes == {True, False}


def test_each_digit_key_is_decoded_once(monkeypatch):
    # (d) of right_angled_properties, then relative at every member, all
    # read one memoised decode per distinct digit key, and no relative
    # polynomial recomputes the primitive coefficients its shape gave.
    decoded, families = [], []
    original = mobius_module._content_free
    monkeypatch.setattr(
        mobius_module, "_content_free", lambda digits: decoded.append(1) or original(digits)
    )
    monkeypatch.setattr(
        structure_module,
        "MobiusFamily",
        lambda *args: families.append(MobiusFamily(*args)) or families[-1],
    )
    right_angled_properties(builtin("path-14"))
    (family,) = families
    monkeypatch.setattr(poly_module, "_content_free", None)
    for x in family.members():
        family.relative(x).primitive()
    # Digit keys are D f(x) times the coefficients of mu^{|x}.
    keys = {family.relative(x) * family.valuation.of(x) for x in family.members()}
    assert len(decoded) == len(keys) == 52


def test_non_monotone_pair_is_reported():
    # Two free vertices: mu = (1 - t)^2 exceeds mu^{|a} = 1 - t past t = 1,
    # so every sampled point of lo = 8 breaks the pair (e, a).
    family = MobiusFamily(from_nubs(2, []))
    assert not structure_module._monotone_under_inclusion(family, Fraction(8))
    assert structure_module._monotone_under_inclusion(family, Fraction(1))


def test_right_angled_properties_evaluates_no_polynomial(monkeypatch):
    # No Fraction evaluation, and no enclosure of the rest of mu at t0,
    # which the report never prints: classify would enclose it.
    calls, intervals, classified = [], [], []
    original = Polynomial.__call__
    monkeypatch.setattr(Polynomial, "__call__", lambda p, t: calls.append(t) or original(p, t))
    enclose = poly_module.evaluate_on_interval
    monkeypatch.setattr(
        poly_module, "evaluate_on_interval", lambda *args: intervals.append(1) or enclose(*args)
    )
    classify = MobiusFamily.classify
    monkeypatch.setattr(MobiusFamily, "classify", lambda self: classified.append(1) or classify(self))
    twins = from_dependence_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
    weights = Valuation((Fraction(1, 2), Fraction(3), Fraction(1), Fraction(2, 3), Fraction(1)))
    for config, valuation in ((builtin("path-10"), None), (twins, weights)):
        report = right_angled_properties(config, valuation)
        assert report.monotone and not report.critical_root.is_rational
    assert calls == [] and intervals == [] and classified == []


def test_symmetric_counts_powerset():
    for n in (1, 3, 5):
        report = symmetric_counts(from_nubs(n, []))
        binomials = [len(list(combinations(range(n), k))) for k in range(n + 1)]
        assert list(report.counts) == binomials
        assert list(report.eta) == [n - j for j in range(n + 1)]
        assert report.formula_ok


def test_symmetric_counts_dodecahedron():
    report = symmetric_counts(builtin("dodecahedron"))
    assert report.counts == (1, 20, 30)
    assert report.eta == (20, 3, 0)
    assert report.formula_ok and report.failed_level is None


def test_symmetric_counts_asymmetric():
    report = symmetric_counts(builtin("fig1-left"))
    assert not report.formula_ok
    assert report.failed_level == 1
    assert report.eta[0] == 5 and report.eta[1] is None


def test_symmetric_counts_stars():
    for n, k in [(4, 2), (5, 3), (6, 4)]:
        report = symmetric_counts(star(n, k))
        assert report.formula_ok
        assert report.eta[:k] == tuple(n - j for j in range(k))


def test_symmetric_counts_matches_brute_force(rng):
    cases = [star(6, 3), from_nubs(5, []), builtin("fig1-right")]
    cases += [random_configuration(rng.randint(1, 8), rng) for _ in range(40)]
    for c in cases:
        family = brute_independence_family(c)
        top = max(x.bit_count() for x in family)
        counts = [sum(1 for x in family if x.bit_count() == k) for k in range(top + 1)]
        parallel = [set() for _ in range(top + 1)]
        for x in family:
            free = sum(1 for a in range(c.n) if not x >> a & 1 and x | 1 << a in family)
            parallel[x.bit_count()].add(free)
        constant = [len(values) == 1 for values in parallel]
        failed = None if all(constant) else constant.index(False)
        report = symmetric_counts(c)
        assert report.counts == tuple(counts)
        assert report.failed_level == failed
        levels = top + 1 if failed is None else failed
        assert report.eta[:levels] == tuple(min(v) for v in parallel[:levels])
        assert all(e is None for e in report.eta[levels:])
        eta = [min(v) for v in parallel]
        formula = failed is None and all(
            counts[k] * math.factorial(k) == math.prod(eta[:k]) for k in range(top + 1)
        )
        assert report.formula_ok == formula


def test_builtin_names():
    left = builtin("fig1-left")
    assert left.labels == ("1", "2", "3", "4", "5")
    assert [left.labels_of(nub) for nub in left.nubs] == [
        ["1", "2"],
        ["1", "4"],
        ["3", "5"],
        ["2", "4", "5"],
    ]
    assert builtin("star-4-3").nubs == star(4, 3).nubs
    assert builtin("path-4").nubs == from_dependence_graph(4, [(0, 1), (1, 2), (2, 3)]).nubs
    assert builtin("complete-4").nubs == tuple(
        sorted(mask_from_indices(e) for e in combinations(range(4), 2))
    )
    for name in ("path-0", "complete-0", "star-0-0"):
        assert builtin(name).n == 0
    # Parameters are plain decimal numerals, so each dataset has one name.
    for name in (
        "klein-bottle",
        "star-3-9",
        "path-1_0",
        "path-+3",
        "path-03",
        "path- 3",
        "path-3 ",
        "path-\u0663",
        "complete-00",
        "star-3-02",
    ):
        with pytest.raises(UnknownDataset):
            builtin(name)


class _NoDraws:
    def random(self):
        raise AssertionError("drew before checking the vertex count")


def test_sizes_checked_before_generation(monkeypatch):
    with pytest.raises(TooLarge, match="131282408400 nubs"):
        star(40, 20)
    with pytest.raises(VertexOutOfRange):
        star(65, 1)
    assert len(star(18, 8).nubs) == math.comb(18, 9)  # 48,620 nubs: admitted
    monkeypatch.setattr(core, "MEMBER_BUDGET", 100)
    with pytest.raises(TooLarge):
        star(9, 3)  # 126 nubs
    for name in ("path-65", "complete-100000", "star-40-20"):
        with pytest.raises(UnknownDataset):
            builtin(name)
    for n in (-1, 65, 100000):
        with pytest.raises(VertexOutOfRange):
            random_configuration(n, _NoDraws())


def test_dodecahedron_graph_sanity():
    config = builtin("dodecahedron")
    assert config.n == 20
    non_edges = set(config.nubs)
    assert len(non_edges) == 190 - 30
    edges = {
        mask_from_indices(e)
        for e in combinations(range(20), 2)
        if mask_from_indices(e) not in non_edges
    }
    assert len(edges) == 30
    degree = [0] * 20
    for e in edges:
        for i in range(20):
            if (e >> i) & 1:
                degree[i] += 1
    assert degree == [3] * 20
    # triangle-free: no three mutually adjacent vertices
    adjacency = [set() for _ in range(20)]
    for e in edges:
        a, b = [i for i in range(20) if (e >> i) & 1]
        adjacency[a].add(b)
        adjacency[b].add(a)
    for a in range(20):
        for b in adjacency[a]:
            assert not (adjacency[a] & adjacency[b])
    # connected
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in adjacency[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    assert len(seen) == 20


def test_pairwise_parallel_equivalence(rng):
    # all nubs of size two iff every set of pairwise parallel vertices
    # is independent (brute force over subsets)
    for _ in range(40):
        n = rng.randint(2, 6)
        c = random_configuration(n, rng, include_probability=0.35)
        condition = True
        for mask in range(1 << n):
            verts = [i for i in range(n) if (mask >> i) & 1]
            if all(
                c.is_independent((1 << a) | (1 << b))
                for a, b in combinations(verts, 2)
            ):
                if not c.is_independent(mask):
                    condition = False
                    break
        assert condition == is_right_angled(c)


def test_right_angled_heredity(rng):
    for _ in range(20):
        n = rng.randint(2, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        c = from_dependence_graph(n, edges)
        for x in enumerate_independence_sets(c):
            view = relative_configuration(c, x)
            assert is_right_angled(view.config)


def test_disjoint_union_structure():
    a = star(3, 2)
    b = from_dependence_graph(2, [(0, 1)])
    union = disjoint_union(a, b)
    assert union.n == 5
    assert mobius_polynomial(union) == mobius_polynomial(a) * mobius_polynomial(b)
    parts = components(union)
    assert [p.vertices for p in parts] == [0b00111, 0b11000]


def test_star_diagonal_alternation():
    for n in range(2, 9):
        result = MobiusFamily(star(n, n - 1)).classify()
        assert result.critical_root.value == Fraction(1, 2)
        expected = TYPE_I if n % 2 == 0 else TYPE_II
        assert result.config_type == expected
