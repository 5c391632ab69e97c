"""Shared brute-force oracles and corpus helpers for the test suite."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from configspaces import core
from configspaces.core import Configuration, TooLarge, Valuation, default_labels, from_nubs
from configspaces.poly import (
    AlgebraicRoot,
    Polynomial,
    cauchy_root_bound,
    poly_divmod,
    simplest_rational_between,
    _Bisection,
    _squarefree_chain,
)
from configspaces.probspace import ConfiguredSpace, SplitMix64


def powerset_mobius(config: Configuration, valuation: Valuation | None = None) -> Polynomial:
    """Oracle: alternating sum over all 2**n subsets, no backtracking."""
    if valuation is None:
        valuation = Valuation.uniform(config.n)
    coeffs = [Fraction(0)] * (config.n + 1)
    for mask in range(1 << config.n):
        if config.is_independent(mask):
            k = mask.bit_count()
            value = valuation.of(mask)
            coeffs[k] += -value if k % 2 else value
    return Polynomial(coeffs)


def direct_transform(config: Configuration, valuation: Valuation, x: int) -> Polynomial:
    """Oracle for H(x): the alternating sum over independent supersets of x."""
    coeffs = [Fraction(0)] * (config.n + 1)
    for y in range(1 << config.n):
        if y & x == x and config.is_independent(y):
            k = y.bit_count()
            sign = -1 if (k - x.bit_count()) % 2 else 1
            coeffs[k] += sign * valuation.of(y)
    return Polynomial(coeffs)


def _fraction_variations(chain: list[Polynomial], x: Fraction) -> int:
    count, last = 0, 0
    for f in chain:
        value = f(x)
        s = (value > 0) - (value < 0)
        if s == 0:
            continue
        if last != 0 and s != last:
            count += 1
        last = s
    return count


def fraction_first_positive_root(p: Polynomial) -> AlgebraicRoot | None:
    """Oracle: Sturm bisection of (0, B] with every sign taken from an
    exact Fraction evaluation, narrowed to width 2**-128 and probed for
    the simplest rational inside (the isolation before the integer
    sign kernel)."""
    q = _squarefree_chain(p)[0]
    if q.degree < 1:
        return None
    chain = [q, q.derivative()]
    while not chain[-1].is_zero:
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])
    chain.pop()

    def count(lo, hi):
        return _fraction_variations(chain, lo) - _fraction_variations(chain, hi)

    lo, hi = Fraction(0), cauchy_root_bound(q)
    n = count(lo, hi)
    if n == 0:
        return None
    while n > 1:
        mid = (lo + hi) / 2
        if q(mid) == 0:
            left = count(lo, mid)
            if left == 1:
                return AlgebraicRoot(q, mid, mid)
            hi, n = mid, left
            continue
        left = count(lo, mid)
        if left == 0:
            lo = mid
        else:
            hi, n = mid, left
    if q(hi) == 0:
        return AlgebraicRoot(q, hi, hi)
    sign_lo = q(lo) > 0
    while hi - lo > Fraction(1, 2**128) or lo == 0:
        mid = (lo + hi) / 2
        v = q(mid)
        if v == 0:
            return AlgebraicRoot(q, mid, mid)
        if (v > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    candidate = simplest_rational_between(lo, hi)
    if q(candidate) == 0:
        return AlgebraicRoot(q, candidate, candidate)
    return AlgebraicRoot(q, lo, hi)


def refine_root(root: AlgebraicRoot) -> AlgebraicRoot:
    """One bisection step; an exact root stays the same point."""
    cell = _Bisection(root)
    cell.halve()
    return cell.root()


def brute_independence_family(config: Configuration) -> set[int]:
    return {m for m in range(1 << config.n) if config.is_independent(m)}


def bfs_components(config: Configuration) -> list[int]:
    """Oracle: the vertex sets of the nub-connected components, by least
    vertex, from a breadth-first search that steps between vertices
    sharing a nub."""
    neighbours = [0] * config.n
    for nub in config.nubs:
        for v in range(config.n):
            if nub >> v & 1:
                neighbours[v] |= nub
    parts, seen = [], 0
    for start in range(config.n):
        if seen >> start & 1:
            continue
        part, queue = 1 << start, [start]
        while queue:
            v = queue.pop(0)
            for w in range(config.n):
                if neighbours[v] >> w & 1 and not part >> w & 1:
                    part |= 1 << w
                    queue.append(w)
        parts.append(part)
        seen |= part
    return parts


def merged_split(n: int, nubs) -> dict[int, list[int]]:
    """Oracle for ``core._split``: each nub merges the parts it meets, a
    vertex in no nub is a part of its own, and each part lists the nubs
    that meet it, in their original order."""
    parts: list[int] = []
    for nub in nubs:
        met = [part for part in parts if part & nub]  # disjoint, so their sum is their union
        parts = [part for part in parts if not part & nub] + [nub | sum(met)]
    parts += [1 << v for v in core.indices_of(((1 << n) - 1) & ~sum(parts))]
    parts.sort(key=lambda part: part & -part)
    return {part: [nub for nub in nubs if nub & part] for part in parts}


def path_mu(n: int) -> list[str]:
    """mu of path-n as printed: coefficient k is (-1)^k C(n + 1 - k, k)."""
    return [str((-1) ** k * math.comb(n + 1 - k, k)) for k in range((n + 1) // 2 + 1)]


def cycle_mu(n: int) -> list[str]:
    """mu of the n-cycle (n >= 3) as printed: it has n / (n - k) C(n - k, k)
    independent k-sets."""
    return [str((-1) ** k * n * math.comb(n - k, k) // (n - k)) for k in range(n // 2 + 1)]


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """The edges of the rows x cols grid graph, vertex r * cols + c."""
    right = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    down = [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return right + down


def grid_mu(rows: int, cols: int) -> list[str]:
    """mu of the rows x cols grid graph as printed, by a row-by-row
    transfer matrix: a state is an independent subset of one row, and a
    row may follow another when they share no column.  Counts by size
    are summed over the states of the last row; no elimination order is
    involved."""
    states = [s for s in range(1 << cols) if not s & (s >> 1)]
    size = (rows * cols + 1) // 2 + 1  # past the largest independent set
    counts = {0: [1] + [0] * (size - 1)}  # no row yet: the empty set
    for _ in range(rows):
        following = {}
        for s in states:
            k, total = s.bit_count(), [0] * size
            for before, sums in counts.items():
                if not before & s:
                    for j in range(size - k):
                        total[j + k] += sums[j]
            following[s] = total
        counts = following
    sums = [sum(column) for column in zip(*counts.values())]
    while sums[-1] == 0:
        sums.pop()
    return [str((-1) ** k * c) for k, c in enumerate(sums)]


def disjoint_union(left: Configuration, right: Configuration) -> Configuration:
    """Place two configurations side by side (fresh default labels)."""
    n = left.n + right.n
    nubs = list(left.nubs) + [nub << left.n for nub in right.nubs]
    return from_nubs(n, nubs, default_labels(n))


def brute_twin_classes(config: Configuration, weights) -> list[int] | None:
    """Oracle for ``core._twin_classes``: every pair of equal weights is
    swapped in every nub and the nub set compared; classes by least
    vertex, None when no two vertices are twins."""
    nubs = set(config.nubs)

    def swapped(nub: int, u: int, v: int) -> int:
        a, b = nub >> u & 1, nub >> v & 1
        return nub & ~(1 << u | 1 << v) | a << v | b << u

    classes: list[int] = []
    for v in range(config.n):
        for i, twins in enumerate(classes):
            u = (twins & -twins).bit_length() - 1
            if weights[u] == weights[v] and {swapped(nub, u, v) for nub in nubs} == nubs:
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return None if len(classes) == config.n else classes


def shape_ids(family) -> dict[int, int]:
    """Per member of a ``MobiusFamily``, in (size, mask) order, the index
    of its shape: the anchor table spread from each twin orbit's least
    member over the orbit's members."""
    ids = family._anchor_ids()
    return {z: ids[family._orbit_of(z)] for z in family.members()}


def nub_scan_enumeration(config: Configuration):
    """Oracle: the depth-first walk that tests every nub topped by each
    added vertex, in the order and under the member budget of
    ``enumerate_independence_sets``."""
    n = config.n
    nubs_topped_by = [[] for _ in range(n)]
    for nub in config.nubs:
        nubs_topped_by[nub.bit_length() - 1].append(nub)
    produced = 0

    def walk(x: int, start: int):
        nonlocal produced
        produced += 1
        if produced > core.MEMBER_BUDGET:
            budget = core.MEMBER_BUDGET
            raise TooLarge(f"the independence family exceeds the member budget of {budget}")
        yield x
        for a in range(start, n):
            y = x | (1 << a)
            if all(nub & y != nub for nub in nubs_topped_by[a]):
                yield from walk(y, a + 1)

    return walk(0, 0)


def shift_masses(space, deltas: dict[int, Fraction]):
    """A tampered copy of a configured space: deltas[x] is added to the
    integer mass of atom x (a new x becomes an atom), all masses
    rescaled to one common denominator and kept in (size, mask) order."""
    scale = math.lcm(space.scale, *(delta.denominator for delta in deltas.values()))
    masses = {x: mass * (scale // space.scale) for x, mass in space.masses.items()}
    for x, delta in deltas.items():
        masses[x] = masses.get(x, 0) + delta.numerator * (scale // delta.denominator)
    order = sorted(masses, key=lambda x: (x.bit_count(), x))
    return ConfiguredSpace(
        space.config, space.valuation, space.t, scale, {x: masses[x] for x in order}, space._products
    )


def binary_search_sample(space, count: int, seed: int) -> dict[int, int]:
    """Oracle for ``probspace.sample``: the same boundaries, each draw
    placed by a hand-written binary search for the first boundary above
    the word."""
    atoms = list(space.atoms.items())
    boundaries = []
    cumulative = Fraction(0)
    for _, mass in atoms:
        cumulative += mass
        boundaries.append((cumulative.numerator << 64) // cumulative.denominator)
    tallies = {mask: 0 for mask, _ in atoms}
    rng = SplitMix64(seed)
    for _ in range(count):
        word = rng.next_word()
        lo, hi = 0, len(boundaries) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if word < boundaries[mid]:
                hi = mid
            else:
                lo = mid + 1
        tallies[atoms[lo][0]] += 1
    return tallies


@pytest.fixture
def rng():
    return random.Random(20250810)
