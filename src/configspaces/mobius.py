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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .core import (
    Configuration,
    DEFAULT_ENUMERATION_CAP,
    Valuation,
    canonical_key,
    enumerate_independence_sets,
    relative_configuration,
)
from .poly import (
    AlgebraicRoot,
    Polynomial,
    compare_roots,
    evaluate_on_interval,
    first_positive_root,
    refine_root,
)

__all__ = [
    "TYPE_I",
    "TYPE_II",
    "TrivialConfiguration",
    "RestBound",
    "Classification",
    "MobiusFamily",
    "mobius_polynomial",
    "relative_mobius",
    "mobius_transform",
    "inversion_check",
    "derivative_identity_residual",
    "critical_root",
    "classify",
]

TYPE_I = "I"
TYPE_II = "II"

_REST_ENCLOSURE_WIDTH = Fraction(1, 2**64)


class TrivialConfiguration(ValueError):
    """Critical-root machinery needs at least one vertex."""


@dataclass(frozen=True)
class RestBound:
    """Certified sign of the rest at an irrational critical root, with
    an exact rational enclosure of its value."""

    sign: str  # "zero" or "positive"
    lo: Fraction
    hi: Fraction


@dataclass(frozen=True)
class Classification:
    critical_root: AlgebraicRoot
    attained_at: tuple[int, ...]
    config_type: str
    rest_at_t0: Union[Fraction, RestBound]


class MobiusFamily:
    """All relative Mobius polynomials of one weighted configuration.

    Relative polynomials are memoized by the identity key of the
    standalone relative configuration together with its restricted
    weight tuple (the polynomial depends on which vertex carries which
    weight, so the full tuple is the key).  The cache is write-once:
    racing writers would store identical values, so concurrent reads
    are safe.
    """

    def __init__(
        self,
        config: Configuration,
        valuation: Valuation | None = None,
        max_vertices: int = DEFAULT_ENUMERATION_CAP,
    ):
        self.config = config
        self.valuation = valuation if valuation is not None else Valuation.uniform(config.n)
        self.max_vertices = max_vertices
        self._relative_cache: dict[tuple[str, tuple[Fraction, ...]], Polynomial] = {}
        self._by_anchor: dict[int, Polynomial] = {}
        self._root_cache: dict[Polynomial, AlgebraicRoot | None] = {}
        self._members: list[int] | None = None

    def members(self) -> list[int]:
        """The independence family, enumerated once."""
        if self._members is None:
            self._members = sorted(
                enumerate_independence_sets(self.config, self.max_vertices),
                key=lambda m: (m.bit_count(), m),
            )
        return self._members

    def mu(self) -> Polynomial:
        return self.relative(0)

    def relative(self, x: int) -> Polynomial:
        """mu^{|x}: the Mobius polynomial of the configuration relative to x."""
        if x in self._by_anchor:
            return self._by_anchor[x]
        view = relative_configuration(self.config, x)
        weights = tuple(self.valuation.weights[i] for i in view.index_map)
        key = (canonical_key(view.standalone), weights)
        poly = self._relative_cache.get(key)
        if poly is None:
            poly = _alternating_sum(view.standalone, Valuation(weights), self.max_vertices)
            self._relative_cache[key] = poly
        self._by_anchor[x] = poly
        return poly

    def transform(self, x: int) -> Polynomial:
        """H(x) = f(x) t^|x| mu^{|x}(t)."""
        return (self.relative(x) * self.valuation.of(x)).shifted(x.bit_count())

    def relative_table(self) -> dict[int, Polynomial]:
        """Map every independence set to its relative polynomial."""
        return {x: self.relative(x) for x in self.members()}

    def derivative_identity_residual(self) -> Polynomial:
        """d(mu)/dt plus the weighted sum of single-vertex relatives.

        This is the zero polynomial for every configuration; the
        per-vertex weight factor makes the identity hold for arbitrary
        valuations (the single weighted vertex forces it).
        """
        residual = self.mu().derivative()
        for a in range(self.config.n):
            residual = residual + self.relative(1 << a) * self.valuation.weights[a]
        return residual

    def inversion_check(self) -> bool:
        """Verify F(x) = sum of H(y) over independent y containing x."""
        members = self.members()
        for x in members:
            total = Polynomial()
            for y in members:
                if y & x == x:
                    total = total + self.transform(y)
            expected = Polynomial([self.valuation.of(x)]).shifted(x.bit_count())
            if total != expected:
                return False
        return True

    def _first_root(self, poly: Polynomial) -> AlgebraicRoot | None:
        if poly not in self._root_cache:
            self._root_cache[poly] = first_positive_root(poly)
        return self._root_cache[poly]

    def critical_root(self) -> tuple[AlgebraicRoot, tuple[int, ...]]:
        """The smallest positive zero over all relative polynomials.

        Returns the root together with every independence set whose
        relative polynomial attains it.  Some relative polynomial is
        linear (drop one vertex from a maximal independence set), so the
        minimum always exists for a non-trivial configuration.
        """
        if self.config.n == 0:
            raise TrivialConfiguration("the empty configuration has no critical root")
        best: AlgebraicRoot | None = None
        attained: list[int] = []
        for x in self.members():
            root = self._first_root(self.relative(x))
            if root is None:
                continue
            if best is None:
                best, attained = root, [x]
                continue
            order = compare_roots(root, best)
            if order < 0:
                best, attained = root, [x]
            elif order == 0:
                attained.append(x)
        if best is None:
            raise AssertionError("no relative polynomial has a positive root")
        return best, tuple(sorted(attained, key=lambda m: (m.bit_count(), m)))

    def classify(self) -> Classification:
        root, attained = self.critical_root()
        is_type_one = 0 in attained
        mu = self.mu()
        rest: Union[Fraction, RestBound]
        if root.is_rational:
            rest = mu(root.value)
        else:
            enclosure = root
            while True:
                lo, hi = evaluate_on_interval(mu, enclosure.lo, enclosure.hi)
                if hi - lo <= _REST_ENCLOSURE_WIDTH:
                    break
                enclosure = refine_root(enclosure)
            rest = RestBound("zero" if is_type_one else "positive", lo, hi)
        return Classification(
            critical_root=root,
            attained_at=attained,
            config_type=TYPE_I if is_type_one else TYPE_II,
            rest_at_t0=rest,
        )


def _alternating_sum(
    config: Configuration, valuation: Valuation, max_vertices: int
) -> Polynomial:
    coeffs = [Fraction(0)] * (config.n + 1)
    for x in enumerate_independence_sets(config, max_vertices):
        k = x.bit_count()
        value = valuation.of(x)
        coeffs[k] += -value if k % 2 else value
    return Polynomial(coeffs)


def mobius_polynomial(
    config: Configuration,
    valuation: Valuation | None = None,
    max_vertices: int = DEFAULT_ENUMERATION_CAP,
) -> Polynomial:
    return MobiusFamily(config, valuation, max_vertices).mu()


def relative_mobius(
    config: Configuration,
    valuation: Valuation | None,
    x: int,
    max_vertices: int = DEFAULT_ENUMERATION_CAP,
) -> Polynomial:
    return MobiusFamily(config, valuation, max_vertices).relative(x)


def mobius_transform(
    config: Configuration,
    valuation: Valuation | None,
    x: int,
    max_vertices: int = DEFAULT_ENUMERATION_CAP,
) -> Polynomial:
    return MobiusFamily(config, valuation, max_vertices).transform(x)


def inversion_check(
    config: Configuration,
    valuation: Valuation | None = None,
    max_vertices: int = DEFAULT_ENUMERATION_CAP,
) -> bool:
    return MobiusFamily(config, valuation, max_vertices).inversion_check()


def derivative_identity_residual(
    config: Configuration,
    valuation: Valuation | None = None,
    max_vertices: int = DEFAULT_ENUMERATION_CAP,
) -> Polynomial:
    return MobiusFamily(config, valuation, max_vertices).derivative_identity_residual()


def critical_root(
    config: Configuration,
    valuation: Valuation | None = None,
    max_vertices: int = DEFAULT_ENUMERATION_CAP,
) -> tuple[AlgebraicRoot, tuple[int, ...]]:
    return MobiusFamily(config, valuation, max_vertices).critical_root()


def classify(
    config: Configuration,
    valuation: Valuation | None = None,
    max_vertices: int = DEFAULT_ENUMERATION_CAP,
) -> Classification:
    return MobiusFamily(config, valuation, max_vertices).classify()
