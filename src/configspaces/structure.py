"""Structural analyses and datasets.

Covers decomposition into nub-connected components, right-angled
configurations (all nubs are pairs) with their trace-monoid series and
normal-form counting, star configurations, the symmetric counting
formula, and the named built-in datasets.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations

from . import core
from .core import (
    Configuration,
    Valuation,
    _Record,
    default_labels,
    enumerate_independence_sets,
    from_nubs,
    is_right_angled,
    mask_from_indices,
)
from .mobius import MobiusFamily, mobius_polynomial
from .poly import (
    poly_gcd,
    series_inverse,
    sign_at_root,
)

__all__ = [
    "RightAngledReport",
    "SymmetricCountReport",
    "NotRightAngled",
    "SelfLoop",
    "BadParameters",
    "UnknownDataset",
    "is_irreducible",
    "from_dependence_graph",
    "star",
    "trace_series",
    "trace_count_cf",
    "right_angled_properties",
    "symmetric_counts",
    "builtin",
    "random_configuration",
    "random_valuation",
]


class NotRightAngled(ValueError):
    """Operation requires every nub to be a pair."""


class SelfLoop(ValueError):
    """Dependence edges must join two distinct vertices."""


class BadParameters(ValueError):
    """Star parameters must satisfy 1 <= k <= n (or n = k = 0)."""


class UnknownDataset(ValueError):
    """No built-in configuration under that name."""


def is_irreducible(config: Configuration) -> bool:
    """True iff the nub hypergraph is connected (no restriction is built)."""
    return len(core._split(config.n, config.nubs)) <= 1


def from_dependence_graph(
    n: int,
    edges: Iterable[tuple[int, int]],
    labels: Sequence[str] | None = None,
) -> Configuration:
    """Right-angled configuration of a dependence graph.

    Nubs are the edges; the independence family is the set of cliques of
    the complementary relation.
    """
    masks = []
    for a, b in edges:
        if a == b:
            raise SelfLoop(f"edge ({a}, {b}) joins a vertex to itself")
        masks.append((1 << a) | (1 << b))
    return from_nubs(n, masks, labels)


def star(n: int, k: int) -> Configuration:
    """The star configuration: n vertices, independent = size at most k.

    Nubs are all (k+1)-subsets; empty for k = n.  The Mobius polynomial
    is (1-t)^n truncated to degree k.  Stars with more nubs than
    ``core.MEMBER_BUDGET`` are refused before any nub is listed.
    """
    if n == k == 0:
        return from_nubs(0, (), ())
    if not 1 <= k <= n:
        raise BadParameters(f"need 1 <= k <= n, got n={n}, k={k}")
    core.check_vertex_count(n)
    count = math.comb(n, k + 1)
    if count > core.MEMBER_BUDGET:
        raise core.TooLarge(
            f"star({n}, {k}) has {count} nubs, more than the member budget of {core.MEMBER_BUDGET}"
        )
    # The nubs all have k+1 vertices, so no one contains another, and
    # sorting their masks puts them in (size, mask) order.
    nubs = sorted(map(sum, combinations([1 << v for v in range(n)], k + 1)))
    return Configuration(n=n, labels=default_labels(n), nubs=tuple(nubs))


def trace_series(
    config: Configuration,
    valuation: Valuation | None = None,
    order: int = 8,
) -> tuple[Fraction, ...]:
    """Generating series of the trace monoid: the inverse of mu, up to
    t^order.

    Only defined for right-angled configurations; the coefficients count
    (weighted) monoid elements by length and are always nonnegative.
    """
    if not is_right_angled(config):
        raise NotRightAngled("the trace series needs all nubs of size 2")
    result = series_inverse(mobius_polynomial(config, valuation), order)
    assert all(c >= 0 for c in result), (
        "inverse of a right-angled Mobius polynomial went negative"
    )
    return result


def trace_count_cf(
    config: Configuration,
    length: int,
    valuation: Valuation | None = None,
) -> int | Fraction:
    """Count monoid elements of one length via the normal form.

    An element is a sequence of nonempty commuting cliques where every
    vertex of a clique is dependent on some vertex of the previous one;
    lengths add up.  One forward pass of dynamic programming in the
    total size; the weighted variant multiplies vertex weights along
    the element.
    """
    if not is_right_angled(config):
        raise NotRightAngled("normal-form counting needs all nubs of size 2")
    if length < 0:
        raise ValueError("length must be nonnegative")
    zero = 0 if valuation is None else Fraction(0)
    # (clique, size, weight, mask the next clique must fit inside: the
    # clique together with every nub that meets it, the union of its
    # vertices' neighbourhoods)
    near, _ = core._neighbourhoods(config.n, config.nubs)
    cliques = []
    for c in enumerate_independence_sets(config):
        if c:
            after = 0
            for v in core.indices_of(c):
                after |= near[v]
            weight = 1 if valuation is None else valuation.of(c)
            cliques.append((c, c.bit_count(), weight, after))
    # counts[k % span][allowed]: weighted number of clique sequences of
    # total size k after which the next clique must fit inside `allowed`.
    # Row k is final once the loop reaches it, and adds land at most the
    # largest clique size ahead, so only span rows are kept.
    span = 1 + max((e[1] for e in cliques), default=0)
    counts: list[dict[int, int | Fraction]] = [{} for _ in range(span)]
    counts[0][config.vertex_mask] = 1 if valuation is None else Fraction(1)
    inside: dict[int, list] = {}
    for k in range(length):
        current, counts[k % span] = counts[k % span], {}
        for allowed, count in current.items():
            if allowed not in inside:
                inside[allowed] = [e for e in cliques if e[0] & allowed == e[0]]
            for c, size, weight, after in inside[allowed]:
                if k + size <= length:
                    row = counts[(k + size) % span]
                    row[after] = row.get(after, zero) + count * weight
    return sum(counts[length % span].values(), zero)


class RightAngledReport(_Record):
    """Properties (a)-(d) of ``right_angled_properties``, with the
    critical root; ``simple_root`` and ``relative_positive`` are None
    when the configuration is reducible."""

    __slots__ = (
        "type_one", "irreducible", "critical_root", "simple_root", "relative_positive", "monotone"
    )


def right_angled_properties(
    config: Configuration, valuation: Valuation | None = None
) -> RightAngledReport:
    """Certified checks of the right-angled package of properties.

    (a) the classification is type I: the empty set attains the critical
    root; (b) when irreducible, the critical root is a simple root of mu,
    certified through gcd(mu, mu'); (c) when irreducible, every relative
    polynomial with nonempty anchor is strictly positive at the critical
    root, exactly when only the empty set attains it (each is 1 at 0 with
    no root below t0); (d) relative polynomials are monotone under anchor
    inclusion at the four points root.lo * k/4, k = 1..4, in (0, t0]: on
    each covering pair of anchors the smaller one's polynomial is at most
    the larger one's, decided in integers once per distinct pair of
    shapes (``_monotone_under_inclusion``), with no Fraction evaluation.
    (a) and (c) read the attaining anchors of
    ``MobiusFamily.critical_root``; the rest of mu at t0 is not reported,
    so it is not computed.
    """
    if not is_right_angled(config):
        raise NotRightAngled("property report needs all nubs of size 2")
    family = MobiusFamily(config, valuation)
    root, attained = family.critical_root()
    irreducible = is_irreducible(config)

    simple: bool | None = None
    positive: bool | None = None
    if irreducible:
        mu = family.relative(0)
        g = poly_gcd(mu, mu.derivative())
        simple = g.degree < 1 or sign_at_root(g, root) != 0
        positive = attained == (0,)

    return RightAngledReport(
        type_one=0 in attained,
        irreducible=irreducible,
        critical_root=root,
        simple_root=simple,
        relative_positive=positive,
        monotone=_monotone_under_inclusion(family, root.lo),
    )


def _monotone_under_inclusion(family: MobiusFamily, lo: Fraction) -> bool:
    """(d) of ``right_angled_properties``: for every member x and vertex
    v of x, mu^{|x - v} <= mu^{|x} at the points lo * k/4, k = 1..4.

    In integers on the primitive coefficients (shapes) of the family's
    distinct relative polynomials (``MobiusFamily._anchor_ids``).  With
    the points a_k / b, b = 4 lo.denominator, b^deg p(a_k / b) is the
    dot product of a shape with a_k^j b^(deg - j), over the shape's
    positive lead shape[0].  Each shape is evaluated once, into a list
    indexed like the family's table, and each distinct (below, above)
    pair of indices is compared once, by cross-multiplying with the two
    leads.
    The keys are the least members of the twin orbits, and x - v runs
    over the keys one smaller: v the top of one of x's classes.
    """
    ids = family._anchor_ids()
    degree = family.relative(0).degree
    b = 4 * lo.denominator
    rows = []
    for k in (1, 2, 3, 4):
        a = k * lo.numerator
        rows.append([a**j * b ** (degree - j) for j in range(degree + 1)])
    values = [
        (shape[0], [sum(map(operator.mul, shape, row)) for row in rows])
        for shape in (poly.primitive() for poly in family._shapes)
    ]
    pairs = set()
    for x, above in ids.items():
        rest = x
        while rest:
            low = rest & -rest
            if x ^ low in ids:
                pairs.add((ids[x ^ low], above))
            rest ^= low
    for below, above in pairs:
        lead_below, at_below = values[below]
        lead_above, at_above = values[above]
        if any(v * lead_above > w * lead_below for v, w in zip(at_below, at_above)):
            return False
    return True


class SymmetricCountReport(_Record):
    """The level counts, the eta values, whether the counting formula
    holds, and the first level where it fails (see ``symmetric_counts``)."""

    __slots__ = ("counts", "eta", "formula_ok", "failed_level")


def symmetric_counts(config: Configuration) -> SymmetricCountReport:
    """Level counts and the factorial counting formula.

    ``counts[j]`` is the number of independence sets of size j.  When
    the number of vertices parallel to x depends only on |x| (value
    eta_j), the counts satisfy k! * counts[k] = eta_0 * ... * eta_{k-1};
    the report records the eta values (None at the first non-constant
    level and beyond) and whether the formula holds at every level.  The
    uniform Mobius polynomial has coefficients (-1)^k counts[k], so its
    coefficient form of the formula needs no separate check.

    Both counts are constant on twin orbits, so they are read off the
    quotient (``core._orbit_family``).  The automorphisms fixing the
    least member x of an orbit permute a class's vertices outside x
    transitively, so all of them are parallel to x or none is: all iff
    x with the lowest of them is an orbit y, in which that vertex tops
    its class.
    """
    classes, orbits, sizes = core._orbit_family(config, Valuation.uniform(config.n).weights)
    top = orbits[-1].bit_count()
    counts = [0] * (top + 1)
    twinned = [twin for twin in classes if twin & (twin - 1)]
    alone = sum(twin for twin in classes if not twin & (twin - 1))
    # free[x]: the vertices parallel to x, counted from each orbit x | a.
    free = dict.fromkeys(orbits, 0)
    for y, size in zip(orbits, sizes):
        counts[y.bit_count()] += size
        rest = y & alone
        while rest:
            low = rest & -rest
            free[y ^ low] += 1
            rest ^= low
    for twin in twinned:
        for y in orbits:
            inside = y & twin
            if inside:  # y minus its top in the class: the class from there up
                free[y ^ (1 << inside.bit_length() - 1)] += (twin & ~y).bit_count() + 1
    parallel_sizes: list[set[int]] = [set() for _ in range(top + 1)]
    for x, parallel in free.items():
        parallel_sizes[x.bit_count()].add(parallel)
    eta: list[int | None] = []
    failed_level: int | None = None
    for level, values in enumerate(parallel_sizes):
        if failed_level is None and len(values) == 1:
            eta.append(values.pop())
        else:
            if failed_level is None:
                failed_level = level
            eta.append(None)
    formula_ok = failed_level is None and all(
        counts[k] * math.factorial(k) == math.prod(eta[:k]) for k in range(top + 1)
    )
    return SymmetricCountReport(
        counts=tuple(counts),
        eta=tuple(eta),
        formula_ok=formula_ok,
        failed_level=failed_level,
    )


# Dodecahedral graph in LCF notation: a 20-cycle plus chords.
_DODECAHEDRON_LCF = (10, 7, 4, -4, -7, 10, -4, 7, -7, 4)


def _dodecahedron_edges() -> set[frozenset[int]]:
    edges = {frozenset((i, (i + 1) % 20)) for i in range(20)}
    for i in range(20):
        jump = _DODECAHEDRON_LCF[i % 10]
        edges.add(frozenset((i, (i + jump) % 20)))
    return edges


def _dodecahedron() -> Configuration:
    """Vertices of the dodecahedron; independent = subsets of an edge.

    Encoded extensionally through its nubs, which are exactly the
    non-adjacent vertex pairs (the graph has no triangles, so no larger
    minimal dependent set hides behind the pairs).  Note that under the
    pairs-only criterion this encoding is itself right-angled.
    """
    edges = _dodecahedron_edges()
    nubs = [
        (1 << a) | (1 << b)
        for a, b in combinations(range(20), 2)
        if frozenset((a, b)) not in edges
    ]
    return from_nubs(20, nubs, tuple(str(i + 1) for i in range(20)))


def _numeral(text: str) -> int:
    """A plain decimal numeral: 0, or ASCII digits with no leading zero.
    ``int`` alone would also take a sign, ``_``, spaces, leading zeros
    and non-ASCII digits, giving one dataset many names."""
    value = int(text)
    if str(value) != text:
        raise ValueError(f"{text!r} is not a plain decimal numeral")
    return value


def builtin(name: str) -> Configuration:
    """Named datasets; star-n-k, path-n, complete-n are parametric, with
    n and k plain decimal numerals."""
    if name == "fig1-left":
        return from_nubs(
            5,
            [{0, 1}, {0, 3}, {2, 4}, {1, 3, 4}],
            tuple(str(i + 1) for i in range(5)),
        )
    if name == "fig1-right":
        return from_dependence_graph(
            5, [(0, 1), (1, 2), (2, 3), (3, 4)], tuple(str(i + 1) for i in range(5))
        )
    if name == "dodecahedron":
        return _dodecahedron()
    parts = name.split("-")
    try:
        if len(parts) == 3 and parts[0] == "star":
            return star(_numeral(parts[1]), _numeral(parts[2]))
        if len(parts) == 2 and parts[0] in ("path", "complete"):
            n = _numeral(parts[1])
            core.check_vertex_count(n)
            if parts[0] == "path":
                edges = [(i, i + 1) for i in range(n - 1)]
            else:
                edges = combinations(range(n), 2)
            return from_dependence_graph(n, edges, tuple(str(i + 1) for i in range(n)))
    except (ValueError, BadParameters) as exc:
        raise UnknownDataset(f"bad dataset parameters in {name!r}: {exc}") from exc
    raise UnknownDataset(f"no built-in configuration named {name!r}")


def random_configuration(
    n: int, rng: random.Random, include_probability: float = 0.25
) -> Configuration:
    """Random nub family: each candidate subset of 2, 3 or 4 vertices is
    included independently, then reduced to an antichain.  The vertex
    count is checked before the first draw."""
    core.check_vertex_count(n)
    nubs = []
    for size in (2, 3, 4):
        if size > n:
            continue
        for combo in combinations(range(n), size):
            if rng.random() < include_probability:
                nubs.append(mask_from_indices(combo))
    return from_nubs(n, nubs)


def random_valuation(config: Configuration, rng: random.Random) -> Valuation:
    """Random weights p/q with 1 <= p, q <= 8."""
    return Valuation(
        tuple(Fraction(rng.randint(1, 8), rng.randint(1, 8)) for _ in range(config.n))
    )
