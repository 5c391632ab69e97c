"""Mobius polynomials of configurations and type I/II classification.

The Mobius polynomial of a weighted configuration is the alternating
sum over its independence family,

    mu(t) = sum over independent x of (-1)^|x| f(x) t^|x|,

and each independence set x has a relative polynomial mu^{|x}, the
Mobius polynomial of the configuration relative to x.  The transform
H(x) factors as f(x) t^|x| mu^{|x}(t).

Two facts drive everything here.  First, the derivative identity: the
derivative of mu equals minus the weighted sum of the single-vertex
relative polynomials.  Second, the critical root t0, the smallest
positive real at which some relative polynomial vanishes, is exactly
the right end of the parameter range on which the configuration can be
realized by a probability space; the configuration is of type I when mu
itself vanishes there (zero rest) and of type II otherwise.

One integer kernel gives every relative polynomial.  mu^{|x} sums
(-1)^|y| f(y) t^|y|, y = z - x, over the independent z containing x,
so it is a superset sum over the family.  With D the product of the
weight denominators, N(z) = D f(z) is an integer.  Each member z
carries the packed integer N(z) << (B |z|), one B-bit digit per size,
and one superset zeta transform over the family (Yates' algorithm, the
kernel canonical spaces share) leaves at x, in digit k, the sum of
N(z) over the independent z containing x with |z| = k.  Digit |x| is
N(x) alone and f(z) / f(x) = f(z - x), so coefficient d of mu^{|x} is
(-1)^d digit_{|x|+d} / digit_{|x|}.  No digit exceeds the sum of all
N(z), which fits in B bits, so no carry crosses digits.  No relative
configuration is built.  The entry of x shifted down by B |x| is its
digit key.  Each distinct key is decoded once, while the transform is
read, into a ``Polynomial``: its signed digits over digit 0, reduced
by one gcd.  Keys that differ by a factor (the same link, another
f(x)) give equal polynomials and share one.  The family keeps only its
table of distinct polynomials and, per member, an index into it; no
key is kept.

mu alone needs no transform.  Deleting vertex v splits the family into
the sets that miss v and the sets v | y with y independent in the link
of v, so mu_C = mu_{C - v} - f(v) t mu^{|v}: the paper's derivative
formula taken at one vertex, and the deletion-link recursion of Gutman
and Harary for independence polynomials.  On a disjoint union mu is the
product over the components.  On graphs, where every nub is a pair,
the link of v is the induced subgraph on C minus v and its neighbours,
so the recursion is mu_G = mu_{G - v} - f(v) t mu_{G - N[v]} and every
restriction it meets is a vertex mask: ``_graph_mu`` eliminates on
masks, in a breadth-first order that keeps them few, and walks no leaf
(``path-64``, about 2.8e13 members, memoises 65 masks).  Other inputs
are split and eliminated over bare nub masks down to leaves, and only
those are enumerated, unless a restriction reached is a graph: a leaf
is a restriction whose twin classes (below) give at most 2^12 count
vectors, so the cost follows the distinct restrictions met, not the
family.

Twins.  Vertices u and v are twins when their weights are equal and
swapping them maps the nubs onto the nubs (``core._twin_classes``).  The
swap is an automorphism, so every relative polynomial is constant on the
orbits of the twin classes' symmetric groups.  An orbit is a count
vector c, c_i vertices taken from class i of size s_i, with prod_i
C(s_i, c_i) members; it is independent iff its least member is, the c_i
lowest vertices of each class.  Without twins every class is one vertex
and every orbit one member.  ``MobiusFamily`` and the leaves of
``mobius_polynomial`` walk the least members of the independent orbits
(``core.enumerate_independence_sets`` given the classes); the family
takes them from ``core._orbit_family``, as ``probspace`` and
``structure`` do, and each wide restriction finds its own classes, which
decide whether it is a leaf.  The family's table is keyed by them in
(size, mask) order, in which every polynomial first meets a least
member, so the polynomials keep the order and numbering of a table over
all members.  Digit j of orbit c is the sum of prod_i
C(s_i - c_i, d_i - c_i) D f(d) over the independent orbits d >= c with
|d| = |c| + j, transformed one class at a time (``_orbit_transform``,
Yates' step for a class of one vertex) on the same packed digits and
width.  The family is
refused once its members, not its orbits, number more than
``core.MEMBER_BUDGET``; a leaf, which sums prod_i C(s_i, d_i) D f(d) by
size, has at most ``_LEAF_ORBITS`` orbits and is never refused.  The
canonical spaces of ``probspace`` transform the same orbits with signs,
and ``_expand`` lists the members of orbits only for output.

The critical root is searched lazily: only polynomials that may have a
root at or below the best one found are isolated (see
``MobiusFamily.critical_root``).

On graphs no search is needed.  A right-angled configuration is a
dependence graph G, its nubs the edges; mu(t) is G's independence
polynomial at w_v = -f(v) t, and mu^{|x} that of G minus x and its
neighbours, a proper induced subgraph when x is not empty.  When G is
connected, the first positive root along that ray rises strictly on
every proper induced subgraph (Shearer 1985; Scott and Sokal 2005).  So
on an irreducible right-angled configuration the empty set alone
attains t0, which is the first positive root of mu, and the type is I:
``connected_graph_root`` eliminates mu on vertex masks (``_graph_mu``)
and builds no family, and ``_classified`` reads the rest off mu as
``MobiusFamily.classify`` does.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, MutableMapping, Sequence
from fractions import Fraction
from operator import mul

from . import core
from .core import (
    Configuration,
    NotIndependent,
    TooLarge,
    Valuation,
    _in_size_order,
    _Record,
    enumerate_independence_sets,
)
from .poly import (
    AlgebraicRoot,
    Polynomial,
    _descartes_root_free,
    _enclosures,
    compare_roots,
    first_positive_root,
    isolate_first_root,
    sturm_count,
)

__all__ = [
    "TYPE_I",
    "TYPE_II",
    "TrivialConfiguration",
    "RestBound",
    "Classification",
    "MobiusFamily",
    "mobius_polynomial",
    "connected_graph_root",
]

TYPE_I = "I"
TYPE_II = "II"


class TrivialConfiguration(ValueError):
    """Critical-root machinery needs at least one vertex."""


class RestBound(_Record):
    """Certified sign of the rest at an irrational critical root,
    ``"zero"`` or ``"positive"``, with an exact rational enclosure
    ``[lo, hi]`` of its value."""

    __slots__ = ("sign", "lo", "hi")


class Classification(_Record):
    """The critical root, the anchors attaining it, the type (``TYPE_I``
    or ``TYPE_II``), and the rest at t0: a Fraction, or a ``RestBound``
    when t0 is irrational."""

    __slots__ = ("critical_root", "attained_at", "config_type", "rest_at_t0")


def _superset_transform(
    table: MutableMapping[int, int] | list[int], keys: Iterable[int], vertices: int, sign: int
) -> None:
    """In place: table[x] becomes the sum of sign^(|y|-|x|) table[y] over
    keys y containing x with y - x inside ``vertices``, one vertex at a
    time (Yates' algorithm).

    sign -1 is the superset Mobius transform, +1 the superset sums
    (zeta transform).  The keys must be downward closed: every subset
    of a key is a key.
    """
    for bit in map((1).__lshift__, core.indices_of(vertices)):
        for y in keys:
            if y & bit:
                value = table[y]
                if value:
                    table[y ^ bit] += value if sign > 0 else -value


def _scaled_products(
    members: Iterable[int], weights: Sequence[Fraction], t: Fraction
) -> tuple[int, dict[int, int]]:
    """A common denominator D and the integers D f(x) t^|x| over members.

    Members must come in (size, mask) order from the empty set, each
    after x minus its top vertex a, and x takes the value of x - a times
    f(a) t: a downward closed family, or the least members of orbits.
    f(a) t is reduced once per distinct weight, looked up by the
    weight's integer pair, which hashes faster than the fraction.
    """
    pairs = [w.as_integer_ratio() for w in weights]
    ratios = {pair: (w * t).as_integer_ratio() for pair, w in dict(zip(pairs, weights)).items()}
    factors = list(map(ratios.__getitem__, pairs))
    scale = math.prod(den for _, den in factors)
    scaled = {0: scale}
    for x in itertools.islice(members, 1, None):
        top = x.bit_length() - 1
        num, den = factors[top]
        scaled[x] = scaled[x ^ (1 << top)] // den * num
    return scale, scaled


def _orbit_weights(weights: Sequence[Fraction], twins: Sequence[int] | None) -> list[Fraction]:
    """The weights, vertex v times (s - r + 1) / r where v is the r-th
    lowest of a twin class of s vertices: over the least member of an
    orbit d they multiply to f(d) prod_i C(s_i, d_i), the sum of f over
    its members."""
    out = list(weights)
    for twin in twins or ():
        vertices = core.indices_of(twin)
        for r, v in enumerate(vertices, 1):
            out[v] *= Fraction(len(vertices) + 1 - r, r)
    return out


def _enumerated_mu(
    config: Configuration, weights: Sequence[Fraction], twins: Sequence[int] | None = None
) -> Polynomial:
    """The Mobius polynomial, summed by size straight from the walk of
    the orbits of the twin classes ``twins`` (see the module docstring),
    each weighted by ``_orbit_weights`` to stand for its members.

    Nothing per set is stored here; on a right-angled configuration
    the enumeration keeps only its branch, otherwise it keeps up to one
    extension mask per set, at most ``core.MEMBER_BUDGET`` of them
    (see ``core.enumerate_independence_sets``).
    """
    weights = _orbit_weights(weights, twins)
    scale = math.prod(w.denominator for w in weights)
    sums = [0] * (config.n + 1)
    # The current branch of the depth-first walk, as (z, D f(z)) pairs:
    # z minus its top vertex is on it when z is yielded.
    branch = [(0, scale)]
    for z in enumerate_independence_sets(config, twins):
        if z:
            top = z.bit_length() - 1
            while branch[-1][0] != z ^ (1 << top):
                branch.pop()
            w = weights[top]
            branch.append((z, branch[-1][1] // w.denominator * w.numerator))
        sums[z.bit_count()] += branch[-1][1]
    return Polynomial._of([-total if k % 2 else total for k, total in enumerate(sums)], scale)


def _orbit_transform(
    table: dict[int, int], orbits: Sequence[int], twins: Sequence[int], sign: int
) -> None:
    """In place: table[x] becomes the sum over orbits y >= x of
    sign^(|y|-|x|) prod_i C(s_i - c_i, d_i - c_i) table[y], one class at
    a time, with c and d the count vectors of x and y: the superset sums
    (sign +1) or Mobius transform (-1) over the members, read at the
    least members.  Orbits come by least member in (size, mask) order, so the
    larger orbits along a class, still untouched, follow x.  The classes
    of one vertex take Yates' steps."""
    _superset_transform(table, orbits, sum(twin for twin in twins if not twin & (twin - 1)), sign)
    for twin in twins:
        if not twin & (twin - 1):
            continue
        vertices = [1 << v for v in core.indices_of(twin)]
        size = len(vertices)
        for x in orbits:
            c = (x & twin).bit_count()
            y, total = x, table[x]
            for k in range(c, size):
                y |= vertices[k]
                value = table.get(y)
                if value is None:
                    break
                total += sign ** (k + 1 - c) * math.comb(size - c, k + 1 - c) * value
            table[x] = total


def _expand(twins: Sequence[int], *tables: dict[int, object]) -> tuple[dict[int, object], ...]:
    """The tables, keyed by orbits in (size, mask) order, re-keyed by
    every member of those orbits in that order with its orbit's values:
    class by class, a set with c vertices of a class of two or more
    becomes the C(s, c) sets with any c of them.  Without such a class
    they come back as is."""
    twinned = [twin for twin in twins if twin & (twin - 1)]
    if not twinned:
        return tables
    owner = dict(zip(tables[0], tables[0]))
    for twin in twinned:
        vertices = [1 << v for v in core.indices_of(twin)]
        expanded: dict[int, int] = {}
        for x, orbit in owner.items():
            picks = map(sum, itertools.combinations(vertices, (x & twin).bit_count()))
            expanded.update(dict.fromkeys(map((x & ~twin).__or__, picks), orbit))
        owner = expanded
    members = _in_size_order(owner)
    owners = list(map(owner.__getitem__, members))
    return tuple(dict(zip(members, map(table.__getitem__, owners))) for table in tables)


def _graph_mu(n: int, edges: Sequence[int], weights: Sequence[Fraction]) -> Polynomial:
    """mu of the dependence graph on 0..n-1 with these edges, nubs of
    two vertices, eliminated on vertex masks.

    The vertices are relabelled once, breadth first from a least-degree
    vertex of each component, new neighbours by rising degree and ties
    by index (Cuthill and McKee): mu does not change when the weights
    move with their vertices, and the order's narrow frontier keeps the
    masks met few.  Then, with v the least vertex of the mask S,

        M(S) = M(S - v) + (M(S - N[v]) // den(v) * num(v) << B),

    M(S) packing the sums of D f(x) over the independent x inside S, one
    B-bit digit per size, with D the product of the weight denominators.
    den(v) divides every digit of M(S - N[v]), since D f(x) has the
    factor den(v) when v is not in x.  No digit exceeds prod (num +
    den), the sum of D f(x) over all sets, so B is its bit length and no
    carry crosses digits; coefficient k of mu is (-1)^k digit_k / D.
    Each call drops a vertex of S, so the recursion is at most n deep,
    and :class:`TooLarge` is raised once more than
    ``core.MEMBER_BUDGET`` masks are memoised.
    """
    near, _ = core._neighbourhoods(n, edges)
    degree = list(map(int.bit_count, near))
    order, seen = [], 0
    for start in sorted(range(n), key=degree.__getitem__):
        if not seen >> start & 1:
            seen |= 1 << start
            queue = [start]
            for v in queue:  # the queue grows as it is read
                fresh = near[v] & ~seen
                seen |= fresh
                queue += sorted(core.indices_of(fresh), key=degree.__getitem__)
            order += queue
    closed = near
    if order != list(range(n)):
        position = [0] * n
        for i, v in enumerate(order):
            position[v] = i
        closed = [1 << i for i in range(n)]
        for edge in edges:
            a, b = position[(edge & -edge).bit_length() - 1], position[edge.bit_length() - 1]
            closed[a] |= 1 << b
            closed[b] |= 1 << a
    pairs = [weights[v].as_integer_ratio() for v in order]
    scale = math.prod(den for _, den in pairs)
    width = math.prod(num + den for num, den in pairs).bit_length()
    memo = {0: scale}

    def packed(s: int) -> int:
        # Called on masks not yet memoised; every value is positive.
        low = s & -s
        v = low.bit_length() - 1
        num, den = pairs[v]
        rest, kept = s ^ low, s & ~closed[v]
        kept = memo.get(kept) or packed(kept)
        found = memo[s] = (memo.get(rest) or packed(rest)) + (kept // den * num << width)
        if len(memo) > core.MEMBER_BUDGET:
            raise TooLarge(f"the elimination memo exceeds the member budget of {core.MEMBER_BUDGET}")
        return found

    whole = (1 << n) - 1
    total, digit, sums = memo.get(whole) or packed(whole), (1 << width) - 1, []
    while total:
        sums.append(-(total & digit) if len(sums) % 2 else total & digit)
        total >>= width
    return Polynomial._of(sums, scale)


#: A restriction is walked, not split, when its twin classes give at most
#: this many count vectors, prod (s_i + 1).
_LEAF_ORBITS = 2**12


def mobius_polynomial(config: Configuration, valuation: Valuation | None = None) -> Polynomial:
    """The Mobius polynomial, uniform when no valuation is given, by
    component split and deletion-link elimination, enumerating only at
    the leaves; the family is neither enumerated nor stored.

    The independence sets of C either miss its vertex 0, and are those
    of C - 0, or are 0 plus an independence set of the link of 0, so
    mu_C = mu_{C - 0} - f(0) t mu_{link(0)}; and the polynomial of a
    disjoint union is the product over its nub-connected components.
    A restriction whose nubs are all pairs, the input (before any memo key
    is built) or one reached below, is a dependence graph and goes whole to
    ``_graph_mu``, which eliminates on vertex masks and walks no leaf.  Any
    other is a leaf when its twin classes (``core._twin_classes``) of s_i
    vertices give at most ``_LEAF_ORBITS`` count vectors, prod (s_i + 1),
    which is 2^n without twins: ``_enumerated_mu`` walks its orbits, at most
    that many, so a leaf is never refused.  Every restriction of at most 12
    vertices is one, and so is a star, one class (``star-19-8``: 9 orbits,
    92,378 nubs).  Otherwise a split restriction multiplies its components,
    and a connected one eliminates vertex 0.

    Restrictions are bare keys (vertex count, nubs, weights), the weights
    as indices into the distinct weights so that keys hash as integers:
    C - 0 is ``nub >> 1`` over the nubs that miss 0, the link and the
    parts come from ``core._link`` and ``core._split`` through
    ``core._compact``, and only a leaf becomes a ``Configuration``.
    Results are memoised for this call, and :class:`TooLarge` is raised
    once the memo holds more than ``core.MEMBER_BUDGET`` polynomials, or
    a graph's more than that many masks.
    """
    weights = (valuation if valuation is not None else Valuation.uniform(config.n)).weights
    if core.is_right_angled(config):
        return _graph_mu(config.n, config.nubs, weights)
    values = list(dict.fromkeys(weights))
    index = {w: i for i, w in enumerate(values)}
    memo: dict[tuple[int, tuple[int, ...], tuple[int, ...]], Polynomial] = {}

    def mu_of(n: int, nubs: tuple[int, ...], classes: tuple[int, ...]) -> Polynomial:
        key = (n, nubs, classes)
        found = memo.get(key)
        if found is not None:
            return found
        if all(nub.bit_count() == 2 for nub in nubs):
            found = _graph_mu(n, nubs, [values[k] for k in classes])
        else:
            twins = core._twin_classes(n, nubs, classes)
            vectors = math.prod(twin.bit_count() + 1 for twin in twins) if twins else 1 << n
            if vectors <= _LEAF_ORBITS:
                leaf = Configuration(n, core.default_labels(n), nubs)
                found = _enumerated_mu(leaf, [values[k] for k in classes], twins)
            elif len(parts := core._split(n, nubs)) > 1:
                found = Polynomial([1])
                for part, inside in parts.items():
                    found = found * restricted(part, inside, classes)
            else:
                rest = tuple(nub >> 1 for nub in nubs if not nub & 1)
                linked = restricted(*core._link(n, nubs, 1), classes)
                found = mu_of(n - 1, rest, classes[1:]) - (linked * values[classes[0]]).shifted(1)
        memo[key] = found
        if len(memo) > core.MEMBER_BUDGET:
            raise TooLarge(
                f"the elimination memo exceeds the member budget of {core.MEMBER_BUDGET}"
            )
        return found

    def restricted(vertices: int, nubs: Sequence[int], classes: tuple[int, ...]) -> Polynomial:
        kept = core.indices_of(vertices)
        return mu_of(len(kept), core._compact(vertices, nubs), tuple(classes[i] for i in kept))

    return mu_of(config.n, config.nubs, tuple(index[w] for w in weights))


class MobiusFamily:
    """All relative Mobius polynomials of one weighted configuration.

    The independent orbits of the twin classes (see the module
    docstring; without twins, the members) and their packed zeta
    transform are built on first use and kept.  The transform is read
    once into one table, each anchor's index into the distinct relative
    polynomials (``_anchor_ids``), so polynomials equal in value are one
    object, with one Sturm chain and one isolation.  Everything kept is
    write-once: racing writers would store identical values, so
    concurrent reads are safe.
    """

    def __init__(self, config: Configuration, valuation: Valuation | None = None):
        self.config = config
        self.valuation = valuation if valuation is not None else Valuation.uniform(config.n)
        self._members: list[int] | None = None
        self._ids: dict[int, int] | None = None
        self._shapes: list[Polynomial] = []
        # The twin classes, each vertex its own class where it has no twin.
        self._classes: list[int] = []

    def members(self) -> list[int]:
        """The independence family in (size, mask) order, enumerated once."""
        if self._members is None:
            self._members = _in_size_order(enumerate_independence_sets(self.config))
        return self._members

    def _anchor_ids(self) -> dict[int, int]:
        """Per anchor x, in (size, mask) order, the index of mu^{|x} in
        ``_shapes``, the table of distinct relative polynomials in order
        of first anchor.  The anchors are the least members of the
        independent orbits (see the module docstring), which every
        polynomial first meets: without twins, the members.

        The packed transform leaves at x its digit key, digit d the sum
        of D f(z) over members z containing x with |z| = |x| + d (see the
        module docstring).  Each distinct key is decoded once, straight
        into a ``Polynomial``: coefficient d is (-1)^d digit_d / digit_0,
        reduced by one gcd, which also leaves ``primitive()``.  Keys that
        differ by a factor (the same link, another f(x)) give equal
        polynomials and so one index, and no key outlives the build.
        """
        if self._ids is None:
            weights = self.valuation.weights
            self._classes, anchors, sizes = core._orbit_family(self.config, weights)
            _, table = _scaled_products(anchors, weights, Fraction(1))
            total = sum(map(mul, sizes, table.values()))
            width = total.bit_length()
            for z in anchors:
                table[z] <<= width * z.bit_count()
            _orbit_transform(table, anchors, self._classes, 1)
            low, decoded, ids = (1 << width) - 1, {}, {}
            for z in anchors:
                key = table[z] >> width * z.bit_count()
                if key not in decoded:
                    digits, rest = [], key
                    while rest:
                        digits.append(-(rest & low) if len(digits) % 2 else rest & low)
                        rest >>= width
                    decoded[key] = ids.setdefault(Polynomial._of(digits, digits[0]), len(ids))
                table[z] = decoded[key]
            self._shapes, self._ids = list(ids), table
        return self._ids

    def relative(self, x: int) -> Polynomial:
        """mu^{|x}: the Mobius polynomial of the configuration relative to
        x, the entry of the family's table for x's orbit."""
        ids = self._anchor_ids()
        if x not in ids:
            if not self.config.is_independent(x):
                labels = ",".join(self.config.labels_of(x))
                raise NotIndependent(f"{labels} is not an independence set")
            x = self._orbit_of(x)
        return self._shapes[ids[x]]

    def _orbit_of(self, x: int) -> int:
        """The least member of x's orbit: the lowest vertices of each
        class, as many as x has."""
        least = 0
        for twin in self._classes:
            for _ in range((x & twin).bit_count()):
                least |= twin & -twin
                twin &= twin - 1
        return least

    def transform(self, x: int) -> Polynomial:
        """H(x) = f(x) t^|x| mu^{|x}(t)."""
        return (self.relative(x) * self.valuation.of(x)).shifted(x.bit_count())

    def derivative_identity_residual(self) -> Polynomial:
        """d(mu)/dt plus the weighted sum of single-vertex relatives.

        This is the zero polynomial for every configuration; the
        per-vertex weight factor makes the identity hold for arbitrary
        valuations (the single weighted vertex forces it).  mu is
        eliminated (``mobius_polynomial``), not read from the transform
        that gives the relatives, so the check is not circular.
        """
        residual = mobius_polynomial(self.config, self.valuation).derivative()
        for a in range(self.config.n):
            residual = residual + self.relative(1 << a) * self.valuation.weights[a]
        return residual

    def inversion_check(self) -> bool:
        """Verify F(x) = sum of H(y) over independent y containing x,
        for every member x, by one superset zeta transform of H."""
        members = self.members()
        table = {y: self.transform(y) for y in members}
        _superset_transform(table, members, self.config.vertex_mask, 1)
        return all(
            table[x] == Polynomial([self.valuation.of(x)]).shifted(x.bit_count())
            for x in members
        )

    def critical_root(self) -> tuple[AlgebraicRoot, tuple[int, ...]]:
        """The smallest positive zero over all relative polynomials.

        Returns the root together with every independence set whose
        relative polynomial attains it.  Some relative polynomial is
        linear (drop one vertex from a maximal independence set), so the
        minimum always exists for a non-trivial configuration.

        Equal relative polynomials have one index (see ``_anchor_ids``),
        so each is visited once, at its first anchor in (size, mask)
        order, and ``attained_at`` is read off the indices, the attaining
        orbits expanded into their members when there are twins.  One with no
        root in (0, best.hi] cannot reach the minimum (the best root only
        decreases) and is never isolated: Descartes' rule on its primitive
        integer coefficients decides that first (``_descartes_root_free``),
        and a Sturm count (``sturm_count``) only where the rule leaves it
        open; ``relative`` is asked only for a Sturm count or an
        isolation.  The others are isolated coarsely
        (``isolate_first_root``: until one root is left in the interval)
        and compared exactly with the best by ``compare_roots``, which
        halves only until the intervals separate.  Only a polynomial that
        beats the best is isolated in full, so best.hi stays within
        2**-128 of the best root and keeps the root-free test sharp; the
        reported root is ``first_positive_root`` of the first attaining
        anchor's polynomial.  That narrowing takes
        few certified secant steps on the grid of the halving level it
        stops at (``_Bisection.narrow``), so its cell is the one
        bisection would return.
        """
        if self.config.n == 0:
            raise TrivialConfiguration("the empty configuration has no critical root")
        ids = self._anchor_ids()
        best: AlgebraicRoot | None = None
        attaining: set[int] = set()
        fresh = 0  # polynomials are numbered in order of first anchor
        for x, i in ids.items():
            if i != fresh:
                continue
            fresh += 1
            free = best is not None and _descartes_root_free(self._shapes[i].primitive(), best.hi)
            if free:
                continue
            poly = self.relative(x)
            if free is None and sturm_count(poly, 0, best.hi) == 0:
                continue
            root = isolate_first_root(poly)
            if root is None:
                continue
            order = -1 if best is None else compare_roots(root, best)
            if order < 0:
                best, attaining = first_positive_root(poly), {i}
            elif order == 0:
                attaining.add(i)
        if best is None:
            raise AssertionError("no relative polynomial has a positive root")
        attained = tuple(x for x, i in ids.items() if i in attaining)
        return best, tuple(_expand(self._classes, dict.fromkeys(attained))[0])

    def classify(self) -> Classification:
        """The type and the rest at the critical root (``_classified``)."""
        root, attained = self.critical_root()
        return _classified(self.relative(0), root, attained)


def _classified(mu: Polynomial, root: AlgebraicRoot, attained: tuple[int, ...]) -> Classification:
    """Type I when the empty set attains t0, where mu vanishes.  Every
    relative polynomial is 1 at 0 with no root below t0, so
    ``attained_at`` decides its sign at t0 exactly: zero on those
    anchors, positive elsewhere.  An irrational t0's rest is enclosed
    to width 2**-64."""
    is_type_one = 0 in attained
    rest: Fraction | RestBound
    if root.is_rational:
        rest = mu(root.value)
    else:
        for lo, hi in _enclosures(mu, root):
            if (hi - lo) * 2**64 <= 1:
                break
        rest = RestBound("zero" if is_type_one else "positive", lo, hi)
    return Classification(
        critical_root=root,
        attained_at=attained,
        config_type=TYPE_I if is_type_one else TYPE_II,
        rest_at_t0=rest,
    )


def connected_graph_root(
    config: Configuration, valuation: Valuation
) -> tuple[Polynomial, AlgebraicRoot] | None:
    """mu, by elimination, and its first positive root, which is t0 and
    attained at the empty set alone, when the configuration is right
    angled and irreducible: a connected dependence graph (see the module
    docstring).  None on any other configuration, which
    ``MobiusFamily`` decides; no family is built here."""
    if not core.is_right_angled(config) or len(core._split(config.n, config.nubs)) != 1:
        return None
    mu = mobius_polynomial(config, valuation)
    return mu, first_positive_root(mu)
