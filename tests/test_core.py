import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from configspaces import core
from configspaces.core import (
    MissingSingleton,
    NonPositiveWeight,
    NotDownwardClosed,
    NotIndependent,
    SingletonNub,
    TooLarge,
    Valuation,
    VertexOutOfRange,
    canonical_key,
    default_labels,
    enumerate_independence_sets,
    from_independence_list,
    from_nubs,
    is_right_angled,
    mask_from_indices,
    relative_configuration,
    valuation_of,
)
from configspaces.structure import builtin, from_dependence_graph, random_configuration, star

from conftest import (
    brute_independence_family,
    merged_split,
    nub_scan_enumeration,
    random_sized_configuration,
)

FIG1_LEFT_FAMILY = (
    [()]
    + [(i,) for i in range(5)]
    + [(0, 2), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
    + [(1, 2, 3)]
)


def test_from_nubs_single_triple():
    c = from_nubs(3, [{0, 1, 2}])
    assert c.nubs == (0b111,)
    assert c.is_independent(0b011)
    assert not c.is_independent(0b111)


def test_from_nubs_empty_dependence():
    c = from_nubs(2, [])
    assert c.nubs == ()
    assert sorted(enumerate_independence_sets(c)) == [0, 1, 2, 3]


def test_from_nubs_antichain_reduction():
    c = from_nubs(3, [{0, 1}, {0, 1, 2}])
    assert c.nubs == (0b011,)


def test_from_nubs_errors():
    with pytest.raises(SingletonNub):
        from_nubs(3, [{0}])
    with pytest.raises(VertexOutOfRange):
        from_nubs(2, [{0, 5}])


def test_from_independence_list_fig1_left():
    c = from_independence_list(5, FIG1_LEFT_FAMILY)
    assert c.nubs == tuple(
        sorted(
            [mask_from_indices(s) for s in [{0, 1}, {0, 3}, {2, 4}, {1, 3, 4}]],
            key=lambda m: (m.bit_count(), m),
        )
    )


def test_from_independence_list_full_powerset():
    c = from_independence_list(3, range(8))
    assert c.nubs == ()


def test_from_independence_list_path():
    family = (
        [()]
        + [(i,) for i in range(5)]
        + [(0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 4)]
        + [(0, 2, 4)]
    )
    c = from_independence_list(5, family)
    assert c.nubs == (0b00011, 0b00110, 0b01100, 0b11000)


def test_from_independence_list_errors():
    with pytest.raises(MissingSingleton):
        from_independence_list(2, [()])
    with pytest.raises(NotDownwardClosed):
        from_independence_list(2, [(0,), (1,), (0, 1)])  # empty set missing
    with pytest.raises(NotDownwardClosed):
        from_independence_list(3, [(), (0,), (1,), (2,), (0, 1, 2)])


def test_is_independent_examples():
    s32 = star(3, 2)
    assert s32.is_independent(0b011)
    assert not s32.is_independent(0b111)
    assert s32.is_independent(0)


def test_enumerate_counts():
    assert len(list(enumerate_independence_sets(star(4, 3)))) == 15
    left = from_independence_list(5, FIG1_LEFT_FAMILY)
    assert len(list(enumerate_independence_sets(left))) == 14
    assert len(list(enumerate_independence_sets(from_nubs(3, [])))) == 8


def test_enumerate_budget(monkeypatch):
    path = builtin("path-20")  # 17,711 independence sets
    monkeypatch.setattr(core, "MEMBER_BUDGET", 17711)
    assert len(list(enumerate_independence_sets(path))) == 17711
    monkeypatch.setattr(core, "MEMBER_BUDGET", 4096)
    with pytest.raises(TooLarge, match="member budget of 4096"):
        list(enumerate_independence_sets(path))


def test_enumeration_matches_nub_scan_on_mixed_nubs(rng):
    # Random nubs of 2, 3 and 4 vertices: the memoised rule, in order.
    size_mixes = [(2, 3), (2, 3, 4), (3, 4), (2, 4), (3,), (4,)]
    for trial in range(240):
        n = rng.randint(0, 12)
        probability = rng.choice([0.05, 0.1, 0.25])
        c = random_sized_configuration(n, rng, probability, size_mixes[trial % 6])
        assert list(enumerate_independence_sets(c)) == list(nub_scan_enumeration(c)), c


@pytest.mark.parametrize(
    "name",
    ["fig1-left", "fig1-right", "dodecahedron", "star-9-1", "star-10-3", "star-12-6",
     "star-7-7", "star-40-2", "path-16", "complete-12"],
)
def test_enumeration_matches_nub_scan_on_builtins(name):
    c = builtin(name)
    assert list(enumerate_independence_sets(c)) == list(nub_scan_enumeration(c))


@pytest.mark.parametrize(
    "name, budget", [("star-12-6", 1000), ("path-20", 4096), ("fig1-left", 9)]
)
def test_enumeration_budget_matches_nub_scan(monkeypatch, name, budget):
    # Both raise TooLarge, and the kernel's members before the raise are
    # a prefix of the oracle's.  On a right-angled configuration that is
    # the same member; with wider nubs the kernel may raise sooner, once
    # its memo holds more distinct members than the budget.
    c = builtin(name)
    monkeypatch.setattr(core, "MEMBER_BUDGET", budget)
    seen = {}
    for enumerate_ in (enumerate_independence_sets, nub_scan_enumeration):
        got = []
        with pytest.raises(TooLarge, match=f"member budget of {budget}$"):
            got.extend(enumerate_(c))
        seen[enumerate_] = got
    kernel, oracle = seen[enumerate_independence_sets], seen[nub_scan_enumeration]
    assert len(oracle) == budget
    assert kernel == oracle[: len(kernel)]
    if is_right_angled(c):
        assert kernel == oracle


def test_enumeration_memo_respects_budget(monkeypatch):
    # One triple nub topped by vertex 39: the walk is 37 deep before it
    # meets the nub, while every subset of the branch is a member the
    # memo would otherwise fill in.
    monkeypatch.setattr(core, "MEMBER_BUDGET", 4096)
    c = from_nubs(40, [(37, 38, 39)])
    yielded = 0
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="member budget of 4096$"):
            for _ in enumerate_independence_sets(c):
                yielded += 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert yielded < 4096 and peak < 2**20


def test_roundtrip_thirty_vertices(rng):
    # Nub recovery walks the family, not all 2^30 vertex sets.
    edges = [e for e in combinations(range(30), 2) if rng.random() < 0.7]
    for c in (builtin("complete-30"), star(30, 2), from_dependence_graph(30, edges)):
        rebuilt = from_independence_list(30, enumerate_independence_sets(c), c.labels)
        assert rebuilt == c


def test_nubs_roundtrip():
    c = from_nubs(5, [{0, 1}, {2, 3, 4}])
    rebuilt = from_independence_list(5, enumerate_independence_sets(c))
    assert rebuilt.nubs == c.nubs


def to_original(view, mask):
    """A set of a restriction in the vertex indices of its base."""
    return mask_from_indices(view.index_map[i] for i in core.indices_of(mask))


def original_nubs(view):
    return tuple(to_original(view, nub) for nub in view.config.nubs)


def test_split_matches_merging(rng):
    # The same dict, parts in least-vertex order and each part's nubs in
    # their original order, on 2- and 3-vertex nubs and the built-ins.
    names = ("fig1-left", "fig1-right", "dodecahedron", "path-64", "complete-20", "star-9-4")
    configs = [builtin(name) for name in names]
    configs += [
        random_sized_configuration(n, rng, 0.12, (2, 3)) for n in range(15) for _ in range(24)
    ]
    configs.append(from_nubs(0, []))
    split = 0
    for config in configs:
        expected = merged_split(config.n, config.nubs)
        found = core._split(config.n, config.nubs)
        assert list(found.items()) == list(expected.items()), config
        split += len(found) > 1
    assert split > 100


def test_relative_configuration_star():
    s43 = star(4, 3)
    view = relative_configuration(s43, 0b1000)
    assert view.vertices == 0b0111
    assert original_nubs(view) == (0b0111,)
    assert view.config.n == 3
    assert view.config.nubs == (0b111,)
    # relative to the empty set is the configuration itself
    identity = relative_configuration(s43, 0)
    assert identity.config == s43
    # S(n,k) relative to a j-set looks like S(n-j, k-j)
    view2 = relative_configuration(star(6, 4), 0b000011)
    assert view2.config.nubs == star(4, 2).nubs
    with pytest.raises(NotIndependent):
        relative_configuration(s43, 0b1111)


def test_relative_keeps_original_indices():
    c = from_nubs(4, [{0, 1}, {1, 2, 3}])
    view = relative_configuration(c, 0b0010)  # anchor vertex 1
    assert view.vertices == 0b1100
    assert original_nubs(view) == (0b1100,)
    assert view.index_map == (2, 3)
    assert view.config.labels == ("c", "d")


def brute_minimal(masks):
    """Oracle: the listed sets with no other listed set as a proper subset."""
    unique = set(masks)
    minimal = [m for m in unique if not any(o != m and o & m == o for o in unique)]
    return tuple(sorted(minimal, key=lambda m: (m.bit_count(), m)))


def test_antichain_minimal_matches_brute_force(rng):
    # Branch of core._antichain_minimal: subset lookup when a mask has
    # fewer subsets than there are smaller minimal sets, else a scan.
    branches = set()
    for _ in range(300):
        n = rng.randint(2, 14)
        sizes = rng.choice(((1, 2, 3), (2, 3, 4), (2, 2, 3, 5), (3, 4, 6)))
        masks = [
            mask_from_indices(rng.sample(range(n), min(rng.choice(sizes), n)))
            for _ in range(rng.randint(0, 150))
        ]
        expected = brute_minimal(masks)
        assert core._antichain_minimal(masks) == expected
        for mask in set(masks):
            below = sum(m.bit_count() < mask.bit_count() for m in expected)
            branches.add(1 << mask.bit_count() < below)
    assert branches == {True, False}


def test_antichain_minimal_wide_masks():
    # A 40-vertex set and its 40 subsets of 39 vertices: a subset walk
    # would take 2**40 steps, so only the scan can return.
    full = (1 << 40) - 1
    pairs = [0b11, 0b101, 0b1001]
    masks = [full, *(full ^ (1 << i) for i in range(40)), *pairs]
    assert core._antichain_minimal(masks) == (*pairs, full ^ 1)
    assert core._antichain_minimal(masks) == brute_minimal(masks)


def test_relative_configuration_matches_brute_force(rng):
    # Both directions: every set of the link, mapped back and joined to
    # x, is independent, and every independent superset of x minus x is
    # a set of the link.
    for _ in range(60):
        n = rng.randint(0, 10)
        c = random_configuration(n, rng, rng.choice((0.05, 0.1, 0.2)))
        family = brute_independence_family(c)
        for x in range(1 << n):
            if x not in family:
                with pytest.raises(NotIndependent):
                    relative_configuration(c, x)
                continue
            view = relative_configuration(c, x)
            link = {to_original(view, z) for z in brute_independence_family(view.config)}
            assert link == {y & ~x for y in family if y & x == x}
            nubs = view.config.nubs
            assert list(nubs) == sorted(nubs, key=lambda m: (m.bit_count(), m))
            assert brute_minimal(nubs) == nubs
        for outside in (1 << n, c.vertex_mask | (1 << (n + 3))):
            with pytest.raises(VertexOutOfRange):
                relative_configuration(c, outside)


def test_valuation():
    c = star(2, 1)
    uniform = Valuation.uniform(c.n)
    assert uniform.of(0b11) == 1
    weighted = valuation_of(c, [Fraction(1, 2), Fraction(1, 3)])
    assert weighted.of(0b11) == Fraction(1, 6)
    assert weighted.of(0) == 1
    with pytest.raises(NonPositiveWeight):
        valuation_of(c, [Fraction(0), Fraction(1)])
    # Valuation itself refuses, so no caller can pass a bad weight on.
    for weights in ((Fraction(-1, 2),), (Fraction(1), Fraction(0))):
        with pytest.raises(NonPositiveWeight, match="is not positive"):
            Valuation(weights)


def test_canonical_key():
    a = from_nubs(3, [{0, 1, 2}])
    b = star(3, 2)
    assert canonical_key(a) == canonical_key(b)
    path3 = from_nubs(3, [{0, 1}, {1, 2}])
    assert canonical_key(a) != canonical_key(path3)
    relabeled = from_nubs(3, [{0, 1, 2}], labels=("x", "y", "z"))
    assert canonical_key(relabeled) == canonical_key(a)


def test_default_labels():
    assert default_labels(3) == ("a", "b", "c")
    assert default_labels(30)[26] == "v26"


@pytest.mark.parametrize("n", [1, 8, 9, 26, 27, 64])
def test_labels_of_matches_indices_of(n, rng):
    c = from_nubs(n, [])
    masks = [0, c.vertex_mask] + [rng.getrandbits(n) for _ in range(300)]
    for mask in masks:
        assert c.labels_of(mask) == [c.labels[i] for i in core.indices_of(mask)]
    assert c.word(0) == "e"
    with pytest.raises(IndexError):
        c.labels_of(1 << (n if n % 8 else n + 8))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_roundtrip_random(n, pyrandom):
    c = random_configuration(n, pyrandom)
    family = list(enumerate_independence_sets(c))
    rebuilt = from_independence_list(n, family)
    assert rebuilt.nubs == c.nubs


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_enumeration_matches_brute_force(n, pyrandom):
    c = random_configuration(n, pyrandom)
    assert set(enumerate_independence_sets(c)) == brute_independence_family(c)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_downward_closure(n, pyrandom):
    c = random_configuration(n, pyrandom)
    for x in enumerate_independence_sets(c):
        for i in range(n):
            if (x >> i) & 1:
                assert c.is_independent(x ^ (1 << i))


def test_relative_composition(rng):
    for _ in range(60):
        n = rng.randint(2, 8)
        c = random_configuration(n, rng)
        members = list(enumerate_independence_sets(c))
        x = rng.choice(members)
        view_x = relative_configuration(c, x)
        link = view_x.config
        assert from_nubs(link.n, link.nubs).nubs == link.nubs  # an antichain, in order
        inner = list(enumerate_independence_sets(view_x.config))
        z_local = rng.choice(inner)
        z = to_original(view_x, z_local)
        via_two_steps = relative_configuration(view_x.config, z_local).config
        direct = relative_configuration(c, x | z).config
        assert via_two_steps == direct


def test_parallel_order_link(rng):
    # x <= y among independence sets iff y = x + z for a unique z
    # independent in the view relative to x; that z is y minus x.
    for _ in range(40):
        n = rng.randint(2, 7)
        c = random_configuration(n, rng)
        members = list(enumerate_independence_sets(c))
        view_cache = {}
        for y in members:
            for x in members:
                if x & y == x:
                    view = view_cache.get(x)
                    if view is None:
                        view = view_cache[x] = relative_configuration(c, x)
                    z = y & ~x
                    assert z & view.vertices == z
                    local = mask_from_indices(
                        view.index_map.index(i)
                        for i in range(n)
                        if (z >> i) & 1
                    )
                    assert view.config.is_independent(local)
