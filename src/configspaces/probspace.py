"""Canonical probability spaces realizing a configuration.

Given a rational event probability t in the feasible range, the
canonical space has one atom per independence set x with exact mass
m(x) = f(x) t^|x| mu^{|x}(t); the masses sum to one.  A space keeps
them as the transform leaves them, integers over one denominator;
``verify_realization`` and ``sample`` work on those, and a reduced
``Fraction`` is built only for a reported value.  Sign-word atoms
(which vertices occur, which are negated) are derived on demand.

One subset transform does the work.  The masses are the superset
Mobius transform of q(x) = f(x) t^|x| over the independence family,
and the joint probabilities of a space are the superset sums (zeta
transform) of its atoms.  Both run one vertex at a time (Yates'
algorithm, the kernel ``mobius`` builds every relative polynomial
with) on integer numerators over a common denominator, in
O(|F| n) steps for a family F on n vertices; downward closure makes
the transform over the family alone exact, so no relative polynomial
is built.  Prescribed intersection probabilities go through one more
kernel, ``_intersection_masses``: ``atoms_from_intersections`` runs it
over all 2^n subsets, and the CLI's ``verify`` cross-check over the
subsets that contain no nub.  The two agree exactly.  The dependent
subsets are closed upward and carry q = 0, and a superset Mobius step
only moves value from y to y minus a vertex, so a dependent cell stays
0 at every step and the transform skips it; the independent subsets
are closed downward, as the transform needs.

Feasibility is decided pointwise: t is admissible iff every relative
polynomial is nonnegative at t, which holds exactly on [0, t0] with t0
the critical root.  For t > 0 the mass m(x) has the sign of
mu^{|x}(t), so the first negative mass names the witness.  No root
isolation is needed to build a space.
"""

from __future__ import annotations

import functools
import math
import sys
from bisect import bisect_left
from collections.abc import Iterable, Mapping, MutableMapping, Sequence
from fractions import Fraction
from itertools import accumulate
from operator import add, sub
from types import MappingProxyType

from .core import Configuration, Valuation, _Record
from .mobius import MobiusFamily, _scaled_products, _superset_transform

__all__ = [
    "SignedWord",
    "ConfiguredSpace",
    "RealizationReport",
    "OutOfRange",
    "MissingEntry",
    "InfeasibleIntersections",
    "atoms_from_intersections",
    "event_probability",
    "canonical_space",
    "verify_realization",
    "sample",
    "SplitMix64",
]


class OutOfRange(ValueError):
    """t lies outside the feasible range; carries a witness set."""

    def __init__(self, t: Fraction, witness: int, value: Fraction):
        reason = f"the relative polynomial of set mask {witness} evaluates to {value} < 0"
        if t < 0:
            reason = "it is negative"
        super().__init__(f"t = {t} is outside the probabilistic range: {reason}")
        self.t = t
        self.witness = witness
        self.value = value


class MissingEntry(ValueError):
    """The prescribed intersection table is not defined on every subset."""


class InfeasibleIntersections(ValueError):
    """The prescribed intersections force a negative atom mass."""

    def __init__(self, negatives: list[tuple[int, Fraction]]):
        super().__init__(
            f"{len(negatives)} atom(s) would get negative mass; first: {negatives[0]}"
        )
        self.negatives = negatives


class SignedWord(_Record):
    """A partial assignment: the vertices of ``positives`` occur, those
    of ``negatives`` are negated.

    Slotted: the dense route keys one word per subset of the vertices.
    """

    __slots__ = ("positives", "negatives")

    def _check(self) -> None:
        if self.positives & self.negatives:
            raise ValueError("a vertex cannot be both positive and negative")


class ConfiguredSpace(_Record):
    """Finite probability space with atoms indexed by independence sets:
    atom x has mass ``masses[x] / scale``, the members in (size, mask)
    order, and ``atoms``, ``mass`` and ``rest`` are read-only views of
    those masses as reduced fractions (``atoms.items()`` lists them in
    member order).  ``_products`` holds the denominator and integers
    D f(x) t^|x| over the family that the masses were built from, keyed
    by the members in the same order.  Spaces compare by identity."""

    __slots__ = ("config", "valuation", "t", "scale", "masses", "_products", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    @functools.cached_property
    def atoms(self) -> Mapping[int, Fraction]:
        """Each atom's mass as a reduced fraction; computed once."""
        scale = self.scale
        return MappingProxyType({x: Fraction(m, scale) for x, m in self.masses.items()})

    def mass(self, x: int) -> Fraction:
        return Fraction(self.masses[x], self.scale)

    def rest(self) -> Fraction:
        """Mass left uncovered by the vertex events; equals the atom at the empty set."""
        return self.mass(0)


class RealizationReport(_Record):
    """The four checks of ``verify_realization``, the rest mass, and the
    list of violation messages; unhashable, as it holds a list."""

    __slots__ = (
        "marginals_ok", "independence_ok", "exclusivity_ok", "covering", "rest", "violations"
    )
    __hash__ = None

    @property
    def ok(self) -> bool:
        return self.marginals_ok and self.independence_ok and self.exclusivity_ok


def _downward_closure(keys: Iterable[int], n: int) -> list[int]:
    """Every subset of every key, in (size, mask) order: vertex i leaves
    each set in turn, so a subset loses the vertices it lacks in order."""
    closed = set(keys)
    for i in range(n):
        closed |= {x & ~(1 << i) for x in closed}
    return sorted(closed, key=lambda m: (m.bit_count(), m))


def _intersection_masses(
    keys: Sequence[int], table: MutableMapping[int, int] | list[int], scale: int
) -> None:
    """In place: table[y], the integer D q(y) over the common
    denominator D = ``scale``, becomes the integer mass D m(y).

    m(y) is the alternating sum of q over the supersets of y among the
    keys, which must be downward closed and come in ascending order.
    Raises :class:`InfeasibleIntersections` when any mass comes out
    negative, listing the offending masks in key order.
    """
    _superset_transform(table, keys, (1 << keys[-1].bit_length()) - 1, -1)
    negatives = [(y, Fraction(table[y], scale)) for y in keys if table[y] < 0]
    if negatives:
        raise InfeasibleIntersections(negatives)


def atoms_from_intersections(
    n: int, q: Mapping[int, Fraction]
) -> dict[SignedWord, Fraction]:
    """Atom masses forced by prescribed intersection probabilities.

    ``q[mask]`` prescribes the probability that all vertices in mask
    occur jointly; it must be defined for every subset with q[0] = 1.
    The mass of the full sign word with positive part y is the
    alternating sum of q over supersets of y.  Raises
    :class:`InfeasibleIntersections` when any mass comes out negative,
    listing the offending words.

    The masses come from ``_intersection_masses`` over all 2^n subsets,
    the kernel the CLI's ``verify`` runs over the independent subsets
    alone (see the module docstring for why both give the same masses).
    """
    size = 1 << n
    for mask in range(size):
        if mask not in q:
            raise MissingEntry(f"no intersection probability for mask {mask}")
    values = [Fraction(q[mask]) for mask in range(size)]
    if values[0] != 1:
        raise ValueError("the empty intersection must have probability 1")
    scale = math.lcm(*(value.denominator for value in values))
    masses = [value.numerator * (scale // value.denominator) for value in values]
    del values
    _intersection_masses(range(size), masses, scale)
    zero = Fraction(0)
    full = size - 1
    return {
        SignedWord(positives=mask, negatives=full ^ mask): (
            Fraction(value, scale) if value else zero
        )
        for mask, value in enumerate(masses)
    }


def event_probability(
    source: ConfiguredSpace | Mapping[SignedWord, Fraction],
    word: SignedWord,
) -> Fraction:
    """Probability of a sign word: total mass of full words extending it."""
    if isinstance(source, ConfiguredSpace):
        atoms = source.atoms.items()
    else:
        atoms = ((atom.positives, mass) for atom, mass in source.items())
    on, off = word.positives, word.negatives
    return sum((mass for x, mass in atoms if x & on == on and not x & off), Fraction(0))


def canonical_space(
    config: Configuration,
    valuation: Valuation | None = None,
    t: Fraction | int | str = Fraction(0),
) -> ConfiguredSpace:
    """The canonical configured space at rational t.

    The masses are the superset Mobius transform of q(x) = f(x) t^|x|
    over the independence family, computed on integer numerators with
    no relative polynomial.  Raises :class:`OutOfRange` whenever some
    relative polynomial is negative at t, which happens exactly for t
    above the critical root.  The witness is the first independence set
    in (size, mask) order with a negative mass, and the reported value
    is m(x) / q(x), which is its relative polynomial at t.  At t = 0
    no mass is negative.  A negative t is out of range, with the empty
    set and t as the error's witness and value, although every relative
    polynomial is positive there.
    """
    t = Fraction(t)
    if t < 0:
        raise OutOfRange(t, 0, t)
    family = MobiusFamily(config, valuation)
    members = family.members()
    scale, products = _scaled_products(members, family.valuation.weights, t)
    masses = dict(products)
    _superset_transform(masses, members, config.vertex_mask, -1)
    for x in members:
        if masses[x] < 0:
            raise OutOfRange(t, x, Fraction(masses[x], products[x]))
    total = sum(masses.values())
    if total != scale:
        raise AssertionError(f"atom masses sum to {Fraction(total, scale)}, not 1")
    return ConfiguredSpace(config, family.valuation, t, scale, masses, (scale, products))


def verify_realization(space: ConfiguredSpace) -> RealizationReport:
    """Exact check of the three realization conditions.

    Marginals: each vertex event has probability t f(a).  Independence:
    for every independence set the joint probability is the product of
    marginals (all sizes, not just pairs).  Exclusivity: every nub has
    joint probability zero; upward closure makes nub checking
    sufficient.  Violations are reported, never raised.

    One zeta transform of the space's integer masses over the downward
    closure of their sets gives every joint probability the checks need,
    and a nub outside the closure lies in no atom.  The products
    f(x) t^|x| over the same closure are the marginal and independence
    targets, and their alternating sum over the family is mu(t); when
    the closure is the family, they are the products the space was
    built from, and only masses off the family are multiplied out anew.
    """
    config, scale, masses = space.config, space.scale, space.masses
    product_scale, products = space._products
    members = closure = products.keys()
    if masses.keys() != members:  # masses off the family: close them
        closure = _downward_closure([*masses, *members], config.n)
        product_scale, products = _scaled_products(closure, space.valuation.weights, space.t)
    joint = dict.fromkeys(closure, 0)
    joint.update(masses)
    _superset_transform(joint, closure, config.vertex_mask, 1)
    # joint / scale against products / product_scale, cross-multiplied by
    # the cofactors of the two denominators: 1 and 1 on a canonical space.
    common = math.gcd(scale, product_scale)
    joint_factor, product_factor = product_scale // common, scale // common

    def off_product(keys: Iterable[int]) -> list[tuple[int, Fraction, Fraction]]:
        return [
            (x, Fraction(joint[x], scale), Fraction(products[x], product_scale))
            for x in keys
            if joint[x] * joint_factor != products[x] * product_factor
        ]

    # Every vertex is an independence set, so a singleton's product is t f(a).
    marginals = off_product(1 << a for a in range(config.n))
    joints = off_product(masses)
    nubs = [(nub, Fraction(joint[nub], scale)) for nub in config.nubs if joint.get(nub)]
    violations = [
        f"marginal of {config.label_of(x.bit_length() - 1)}: {g} != {w}" for x, g, w in marginals
    ]
    violations += [f"joint probability of {config.word(x)}: {g} != {w}" for x, g, w in joints]
    violations += [f"nub {config.word(nub)} has joint probability {g}" for nub, g in nubs]
    rest = space.rest()
    mu_at_t = sum(-products[x] if x.bit_count() & 1 else products[x] for x in members)
    if masses[0] * joint_factor != mu_at_t * product_factor:
        violations.append(f"rest {rest} disagrees with mu(t) = {Fraction(mu_at_t, product_scale)}")
    return RealizationReport(
        marginals_ok=not marginals,
        independence_ok=not joints,
        exclusivity_ok=not nubs,
        covering=(rest == 0),
        rest=rest,
        violations=violations,
    )


_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
# Words per bulk step: ``SplitMix64.words`` computes at most this many as
# one integer of 128-bit lanes (64 KB), and ``sample`` tallies blocks of
# this many draws, or of one per atom if that is more.
_BLOCK = 4096
# The low half of each 128-bit lane, once a lane integer is cast to
# native 64-bit words: the first of each pair on a little-endian host,
# counted from the end on a big-endian one.
_LOW_HALVES = slice(0, None, 2) if sys.byteorder == "little" else slice(None, None, -2)


@functools.cache
def _lane_constants() -> tuple[int, int, int]:
    """(ones, low, ramp) over ``_BLOCK`` 128-bit lanes: lane i holds 1,
    2**64 - 1 and (i + 1) * gamma mod 2**64."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * _BLOCK, "little")
    ramp = b"".join(
        ((k * _GAMMA) & _MASK64).to_bytes(16, "little") for k in range(1, _BLOCK + 1)
    )
    return ones, ones * _MASK64, int.from_bytes(ramp, "little")


def _low_halves(lanes: int, n: int) -> list[int]:
    """The low 64 bits of each of the first n 128-bit lanes of ``lanes``."""
    view = memoryview(lanes.to_bytes(16 * n, sys.byteorder)).cast("Q")
    return view[_LOW_HALVES].tolist()


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix mixing constants).

    state' = state + 0x9E3779B97F4A7C15; the output mixes the new state
    with xor-shifts and the multipliers 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB.  Identical seeds give identical streams on
    every platform.  ``next_word`` is the one-step reference; ``words``
    and ``sample`` compute a block of steps at once.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_word(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def words(self, count: int) -> list[int]:
        """The next ``count`` words, as ``count`` calls of ``next_word``
        would give them, leaving the same state."""
        if count < 0:
            raise ValueError("count must be nonnegative")
        words: list[int] = []
        for done in range(0, count, _BLOCK):
            n = min(_BLOCK, count - done)
            words += _low_halves(self._lanes(n), n)
        return words

    def _lanes(self, n: int) -> int:
        """The next n <= ``_BLOCK`` words, word i in the low half of the
        128-bit lane i of one integer, whose high halves are 0; advances
        the state by n steps.

        Word k depends only on state + k * gamma mod 2**64, so each step
        of the mix is one operation on the whole integer, masked to the
        low half of every lane.  A lane is 128 bits wide so that the
        product of a 64-bit lane and a 64-bit multiplier never carries
        into the next lane.
        """
        ones, low, ramp = _lane_constants()
        if n < _BLOCK:
            # Every step below masks with low, so this keeps n lanes.
            low &= (1 << (128 * n)) - 1
        z = (ramp + self.state * ones) & low
        z = (((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9) & low
        z = (((z ^ (z >> 27)) & low) * 0x94D049BB133111EB) & low
        self.state = (self.state + n * _GAMMA) & _MASK64
        return (z ^ (z >> 31)) & low


def sample(space: ConfiguredSpace, count: int, seed: int) -> dict[int, int]:
    """Multinomial draw of atoms; identical seeds give identical tallies.

    Returns the tally of every atom, in the order of ``space.masses``.
    Atom boundaries are the exact cumulative masses scaled to 2**64 and
    floored, so each atom's draw probability is within 2**-64 of its
    mass; draw k is the atom whose interval holds the k-th word of
    ``SplitMix64(seed)``, and the tallies equal those of drawing one
    word at a time.

    The words come from ``SplitMix64.words``, computed as 128-bit lanes
    of one integer, a block at a time, so memory stays bounded for any
    count: ``_BLOCK`` words, or one per atom if there are more atoms.  A
    block is tallied without a step per word: sorted, the words below
    boundary i number ``bisect_left(block, b_i)``, and atom i receives
    those below b_i and not below b_(i-1), exactly the words that
    ``bisect_right(boundaries, word)`` sends to it.  The boundaries come
    from the space's integer masses, so no mass is reduced.

    Raises ``ValueError`` if a mass is negative or the masses do not
    sum to 1.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    scale, masses = space.scale, space.masses
    for x, mass in masses.items():
        if mass < 0:
            raise ValueError(f"atom {x} has negative mass {Fraction(mass, scale)}")
    cumulative = list(accumulate(masses.values()))
    if cumulative[-1:] != [scale]:
        total = Fraction(cumulative[-1] if cumulative else 0, scale)
        raise ValueError(f"the atom masses sum to {total}, not 1")
    # The last boundary is 2**64, above every word.
    boundaries = [(c << 64) // scale for c in cumulative]
    below = [0] * len(boundaries)  # words below each boundary so far
    # A block bisects every boundary, so it holds at least as many words
    # as there are atoms: the work per draw stays logarithmic.
    size = max(_BLOCK, len(boundaries))
    generator = SplitMix64(seed)
    for drawn in range(0, count, size):
        words = generator.words(min(size, count - drawn))
        words.sort()
        block = map(functools.partial(bisect_left, words), boundaries)
        below = list(map(add, below, block))
    return dict(zip(masses, map(sub, below, [0] + below)))
