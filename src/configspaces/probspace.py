"""Canonical probability spaces realizing a configuration.

Given a rational event probability t in the feasible range, the
canonical space has one atom per independence set x with exact mass
m(x) = f(x) t^|x| mu^{|x}(t); the masses sum to one.  Sign-word atoms
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
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from operator import add, sub
from typing import Iterable, Mapping, Sequence, Union

from .core import Configuration, Valuation
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
        super().__init__(
            f"t = {t} is outside the probabilistic range: the relative "
            f"polynomial of set mask {witness} evaluates to {value} < 0"
        )
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


@dataclass(frozen=True, slots=True)
class SignedWord:
    """A partial assignment: these vertices occur, those are negated.

    Slotted: the dense route keys one word per subset of the vertices.
    """

    positives: int
    negatives: int

    def __post_init__(self) -> None:
        if self.positives & self.negatives:
            raise ValueError("a vertex cannot be both positive and negative")


@dataclass(frozen=True, eq=False)
class ConfiguredSpace:
    """Finite probability space with atoms indexed by independence sets."""

    config: Configuration
    valuation: Valuation
    t: Fraction
    atoms: dict[int, Fraction]
    _family: MobiusFamily = field(repr=False)

    def mass(self, x: int) -> Fraction:
        return self.atoms[x]

    def rest(self) -> Fraction:
        """Mass left uncovered by the vertex events; equals the atom at the empty set."""
        return self.atoms[0]

    def sorted_atoms(self) -> list[tuple[int, Fraction]]:
        return sorted(self.atoms.items(), key=lambda kv: (kv[0].bit_count(), kv[0]))


@dataclass
class RealizationReport:
    marginals_ok: bool
    independence_ok: bool
    exclusivity_ok: bool
    covering: bool
    rest: Fraction
    violations: list[str]

    @property
    def ok(self) -> bool:
        return self.marginals_ok and self.independence_ok and self.exclusivity_ok


def _downward_closure(keys: Iterable[int]) -> set[int]:
    """Every subset of every key."""
    closed = set(keys)
    pending = list(closed)
    while pending:
        x = pending.pop()
        rest = x
        while rest:
            bit = rest & -rest
            rest ^= bit
            if x ^ bit not in closed:
                closed.add(x ^ bit)
                pending.append(x ^ bit)
    return closed


def _intersection_masses(
    keys: Sequence[int], q: Mapping[int, Fraction] | Sequence[Fraction]
) -> tuple[int, dict[int, int]]:
    """A common denominator D and the integer masses D m(y) over keys.

    m(y) is the alternating sum of q over the supersets of y among the
    keys, which must be downward closed and come in ascending order.
    The transform runs on integer numerators over the least common
    denominator of q and does no Fraction arithmetic.  Raises
    :class:`InfeasibleIntersections` when any mass comes out negative,
    listing the offending masks in key order.
    """
    scale = math.lcm(*(q[y].denominator for y in keys))
    masses = {y: q[y].numerator * (scale // q[y].denominator) for y in keys}
    _superset_transform(masses, keys, keys[-1].bit_length(), -1)
    negatives = [(y, Fraction(value, scale)) for y, value in masses.items() if value < 0]
    if negatives:
        raise InfeasibleIntersections(negatives)
    return scale, masses


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
    values = []
    for mask in range(size):
        if mask not in q:
            raise MissingEntry(f"no intersection probability for mask {mask}")
        value = q[mask]
        values.append(value if isinstance(value, Fraction) else Fraction(value))
    if values[0] != 1:
        raise ValueError("the empty intersection must have probability 1")
    scale, masses = _intersection_masses(range(size), values)
    del values
    zero = Fraction(0)
    full = size - 1
    return {
        SignedWord(positives=mask, negatives=full ^ mask): (
            Fraction(value, scale) if value else zero
        )
        for mask, value in masses.items()
    }


def event_probability(
    source: Union[ConfiguredSpace, Mapping[SignedWord, Fraction]],
    word: SignedWord,
) -> Fraction:
    """Probability of a sign word: total mass of full words extending it."""
    total = Fraction(0)
    if isinstance(source, ConfiguredSpace):
        for x, mass in source.atoms.items():
            if x & word.positives == word.positives and x & word.negatives == 0:
                total += mass
        return total
    for atom, mass in source.items():
        if (
            atom.positives & word.positives == word.positives
            and atom.positives & word.negatives == 0
        ):
            total += mass
    return total


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
    no mass is negative.
    """
    t = Fraction(t)
    if t < 0:
        raise OutOfRange(t, 0, t)
    family = MobiusFamily(config, valuation)
    members = family.members()
    scale, products = _scaled_products(members, family.valuation, t)
    masses = dict(products)
    _superset_transform(masses, members, config.n, -1)
    for x in members:
        if masses[x] < 0:
            raise OutOfRange(t, x, Fraction(masses[x], products[x]))
    total = sum(masses.values())
    if total != scale:
        raise AssertionError(f"atom masses sum to {Fraction(total, scale)}, not 1")
    atoms = {x: Fraction(masses[x], scale) for x in members}
    return ConfiguredSpace(
        config=config, valuation=family.valuation, t=t, atoms=atoms, _family=family
    )


def verify_realization(space: ConfiguredSpace) -> RealizationReport:
    """Exact check of the three realization conditions.

    Marginals: each vertex event has probability t f(a).  Independence:
    for every independence set the joint probability is the product of
    marginals (all sizes, not just pairs).  Exclusivity: every nub has
    joint probability zero; upward closure makes nub checking
    sufficient.  Violations are reported, never raised.

    One zeta transform of the atoms over the downward closure of their
    sets gives every joint probability the three checks need, on integer
    numerators over a common denominator: the marginals are its
    singleton entries, and a nub outside the closure lies in no atom.
    The rest is compared with mu(t), summed over the members the
    space's Mobius family has already enumerated.
    """
    config, valuation, t = space.config, space.valuation, space.t
    atoms = space.atoms
    scale = math.lcm(*(mass.denominator for mass in atoms.values()))
    closure = sorted(_downward_closure(atoms), key=lambda m: (m.bit_count(), m))
    joint = dict.fromkeys(closure, 0)
    for x, mass in atoms.items():
        joint[x] = mass.numerator * (scale // mass.denominator)
    _superset_transform(joint, closure, max(closure).bit_length(), 1)
    violations: list[str] = []
    marginals_ok = True
    for a in range(config.n):
        got = joint.get(1 << a, 0)
        want = t * valuation.weights[a]
        if got * want.denominator != want.numerator * scale:
            marginals_ok = False
            violations.append(
                f"marginal of {config.label_of(a)}: {Fraction(got, scale)} != {want}"
            )
    independence_ok = True
    product_scale, products = _scaled_products(closure, valuation, t)
    for x in atoms:
        if joint[x] * product_scale != products[x] * scale:
            independence_ok = False
            got = Fraction(joint[x], scale)
            want = Fraction(products[x], product_scale)
            violations.append(
                f"joint probability of {config.word(x)}: {got} != {want}"
            )
    exclusivity_ok = True
    for nub in config.nubs:
        got = joint.get(nub, 0)
        if got != 0:
            exclusivity_ok = False
            violations.append(
                f"nub {config.word(nub)} has joint probability {Fraction(got, scale)}"
            )
    rest = space.rest()
    mu_scale, terms = _scaled_products(space._family.members(), valuation, t)
    mu_at_t = Fraction(sum((-1) ** x.bit_count() * v for x, v in terms.items()), mu_scale)
    if rest != mu_at_t:
        violations.append(f"rest {rest} disagrees with mu(t) = {mu_at_t}")
    return RealizationReport(
        marginals_ok=marginals_ok,
        independence_ok=independence_ok,
        exclusivity_ok=exclusivity_ok,
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

    Returns the tally of every atom, in ``sorted_atoms`` order.  Atom
    boundaries are the exact cumulative masses scaled to 2**64 and
    floored, so each atom's draw probability is within 2**-64 of its
    mass; draw k is the atom whose interval holds the k-th word of
    ``SplitMix64(seed)``, and the tallies equal those of drawing one
    word at a time.

    The words come from ``SplitMix64.words``, computed as 128-bit lanes
    of one integer, a block at a time, so memory stays bounded for any
    count: ``_BLOCK`` words, or one per atom if there are more atoms.  A block is tallied without a step
    per word: sorted, the words below boundary i number
    ``bisect_left(block, b_i)``, and atom i receives those below b_i
    and not below b_(i-1), exactly the words that
    ``bisect_right(boundaries, word)`` sends to it.

    Raises ``ValueError`` if a mass is negative or the masses do not
    sum to 1.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    atoms = space.sorted_atoms()
    for x, mass in atoms:
        if mass < 0:
            raise ValueError(f"atom {x} has negative mass {mass}")
    # Cumulative masses as integers over the common denominator.
    scale = math.lcm(*(mass.denominator for _, mass in atoms))
    cumulative = list(
        accumulate(mass.numerator * (scale // mass.denominator) for _, mass in atoms)
    )
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
    return {x: tally for (x, _), tally in zip(atoms, map(sub, below, [0] + below))}
