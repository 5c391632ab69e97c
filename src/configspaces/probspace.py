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

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
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


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix mixing constants).

    state' = state + 0x9E3779B97F4A7C15; the output mixes the new state
    with xor-shifts and the multipliers 0xBF58476D1CE4E5B9 and
    0x94D049BB133111EB.  Identical seeds give identical streams on
    every platform.  ``sample`` runs the same step inline.
    """

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_word(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def sample(space: ConfiguredSpace, count: int, seed: int) -> dict[int, int]:
    """Multinomial draw of atoms; identical seeds give identical tallies.

    Atom boundaries are the exact cumulative masses scaled to 2**64 and
    floored, so each atom's draw probability is within 2**-64 of its
    mass; draws are uniform 64-bit words bisected against the
    boundaries.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    atoms = space.sorted_atoms()
    boundaries = []
    cumulative = Fraction(0)
    for _, mass in atoms:
        cumulative += mass
        boundaries.append((cumulative.numerator << 64) // cumulative.denominator)
    tallies = {mask: 0 for mask, _ in atoms}
    state = seed & _MASK64
    for _ in range(count):
        # SplitMix64.next_word, inline: one method call per draw was
        # most of the loop.
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        # The first boundary above the word; the last one is 2**64.
        index = bisect_right(boundaries, z ^ (z >> 31))
        tallies[atoms[index][0]] += 1
    return tallies
