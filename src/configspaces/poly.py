"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction`; a polynomial is an immutable
dense coefficient tuple in ascending degree with no trailing zeros.
Real roots are located with Sturm sequences on the squarefree part and
reported as :class:`AlgebraicRoot` values, a squarefree witness
polynomial plus an isolating rational interval.  A rational root
collapses to a point interval (``lo == hi``).

Nothing in this module touches floating point, so every comparison and
zero-test is certified.  All values are immutable and all functions are
pure; concurrent use needs no locks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

__all__ = [
    "Polynomial",
    "Series",
    "AlgebraicRoot",
    "PolynomialError",
    "ZeroConstantTerm",
    "EndpointRoot",
    "ZeroAtOrigin",
    "DEFAULT_ROOT_WIDTH",
    "poly_divmod",
    "poly_gcd",
    "squarefree_part",
    "cauchy_root_bound",
    "series_inverse",
    "sturm_count",
    "descartes_variations",
    "root_free",
    "first_positive_root",
    "refine_root",
    "compare_roots",
    "evaluate_on_interval",
    "sign_at_root",
    "simplest_rational_between",
    "format_rational",
    "parse_rational",
    "poly_to_strings",
    "root_to_json",
]

CoefficientLike = Union[Fraction, int, str]

#: Width factor for reported isolating intervals: width <= 2**-64 * max(1, bound).
DEFAULT_ROOT_WIDTH = Fraction(1, 2**64)

# Before reporting an interval root, the isolation loop refines further and
# probes the simplest rational inside; this catches rational roots with
# denominator up to 2**64 and returns them as exact point intervals.
_RATIONAL_PROBE_WIDTH = Fraction(1, 2**128)


class PolynomialError(ValueError):
    """Base class for errors raised by this module."""


class ZeroConstantTerm(PolynomialError):
    """Series inversion requires an invertible constant term."""


class EndpointRoot(PolynomialError):
    """Sturm counting was given an endpoint at which the polynomial vanishes."""


class ZeroAtOrigin(PolynomialError):
    """Positive-root isolation requires p(0) != 0."""


def _frac(value: CoefficientLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


def _sign(value: Fraction) -> int:
    if value > 0:
        return 1
    if value < 0:
        return -1
    return 0


class Polynomial:
    """Immutable dense polynomial with Fraction coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[CoefficientLike] = ()):
        coeffs = [_frac(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(coeffs)

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[-1]

    @property
    def constant_term(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[0]

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Polynomial(out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(-c for c in self._coeffs)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["Polynomial", CoefficientLike]) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self._coeffs or not other._coeffs:
                return Polynomial()
            out = [Fraction(0)] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other._coeffs):
                    out[i + j] += a * b
            return Polynomial(out)
        scalar = _frac(other)
        return Polynomial(c * scalar for c in self._coeffs)

    def __rmul__(self, other: CoefficientLike) -> "Polynomial":
        return self * other

    def __call__(self, t: CoefficientLike) -> Fraction:
        """Exact evaluation by Horner's rule."""
        point = _frac(t)
        acc = Fraction(0)
        for c in reversed(self._coeffs):
            acc = acc * point + c
        return acc

    def derivative(self) -> "Polynomial":
        return Polynomial(k * c for k, c in enumerate(self._coeffs) if k >= 1)

    def shifted(self, power: int) -> "Polynomial":
        """Multiply by t**power."""
        if not self._coeffs:
            return self
        return Polynomial((Fraction(0),) * power + self._coeffs)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                term = str(mag)
            else:
                var = "t" if k == 1 else f"t^{k}"
                term = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"+ {term}" if c > 0 else f"- {term}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"



@dataclass(frozen=True)
class Series:
    """A truncated power series: coefficients up to a stated order."""

    coefficients: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def __getitem__(self, k: int) -> Fraction:
        return self.coefficients[k]


@dataclass(frozen=True)
class AlgebraicRoot:
    """One real root, identified by a squarefree witness and an interval.

    The witness has exactly one real root in ``[lo, hi]``.  When
    ``lo == hi`` the root is the rational ``lo``; otherwise the witness
    changes sign on the interval and neither endpoint is a root.
    """

    witness: Polynomial
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("isolating interval endpoints out of order")
        if self.witness.is_zero:
            raise ValueError("witness polynomial must be nonzero")

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    @property
    def value(self) -> Fraction:
        """The exact value; only defined for rational roots."""
        if not self.is_rational:
            raise ValueError("root is not known to be rational")
        return self.lo

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def approx(self) -> float:
        """Float midpoint, for display only."""
        return float((self.lo + self.hi) / 2)

    def __str__(self) -> str:
        if self.is_rational:
            return format_rational(self.lo)
        return f"({format_rational(self.lo)}, {format_rational(self.hi)}) ~ {self.approx():.6g}"


def poly_divmod(p: Polynomial, d: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Exact division with remainder over the rationals."""
    if d.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p.coefficients)
    dc = d.coefficients
    dd = d.degree
    lead = d.leading_coefficient
    quo = [Fraction(0)] * max(len(rem) - dd, 0)
    for i in range(len(rem) - 1, dd - 1, -1):
        factor = rem[i] / lead
        if factor == 0:
            continue
        quo[i - dd] = factor
        for j, c in enumerate(dc):
            rem[i - dd + j] -= factor * c
    return Polynomial(quo), Polynomial(rem)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor (Euclid over the rationals)."""
    a, b = p, q
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    if a.is_zero:
        return a
    return a * (1 / a.leading_coefficient)


def squarefree_part(p: Polynomial) -> Polynomial:
    """p divided by gcd(p, p'); same roots, all simple."""
    if p.is_zero:
        raise ValueError("zero polynomial has no squarefree part")
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p
    quo, rem = poly_divmod(p, g)
    if not rem.is_zero:
        raise AssertionError("gcd does not divide its argument")
    return quo


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """A rational B with every real root of p strictly inside (-B, B)."""
    if p.degree < 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(p.leading_coefficient)
    bound = 1 + max(abs(c) for c in p.coefficients[:-1]) / lead
    return bound + 1


def series_inverse(p: Polynomial, order: int) -> Series:
    """Truncated multiplicative inverse: (p * result) == 1 mod t**(order+1)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    c0 = p.constant_term
    if c0 == 0:
        raise ZeroConstantTerm("cannot invert a series with zero constant term")
    coeffs = p.coefficients
    inv0 = 1 / c0
    out = [inv0]
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, min(k, p.degree) + 1):
            acc += coeffs[j] * out[k - j]
        out.append(-acc * inv0)
    return Series(tuple(out))


def _sturm_chain(q: Polynomial) -> list[Polynomial]:
    chain = [q, q.derivative()]
    while not chain[-1].is_zero:
        rem = poly_divmod(chain[-2], chain[-1])[1]
        chain.append(-rem)
    chain.pop()
    return chain


def _variations(values: Iterable[Fraction]) -> int:
    count = 0
    last = 0
    for v in values:
        s = _sign(v)
        if s == 0:
            continue
        if last != 0 and s != last:
            count += 1
        last = s
    return count


def _variations_at(chain: Sequence[Polynomial], x: Fraction) -> int:
    return _variations(f(x) for f in chain)


def _count_half_open(chain: Sequence[Polynomial], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of the (squarefree) chain head in (lo, hi].

    Requires head(lo) != 0; the right endpoint may be a root, which is
    counted (sign variations are right-continuous at roots).
    """
    return _variations_at(chain, lo) - _variations_at(chain, hi)


def sturm_count(p: Polynomial, lo: CoefficientLike, hi: CoefficientLike) -> int:
    """Number of distinct real roots of p in (lo, hi].

    Counts on the squarefree part, so multiplicities collapse.  Raises
    :class:`EndpointRoot` if p vanishes at either endpoint; the caller
    must perturb the interval.
    """
    if p.is_zero:
        raise ValueError("cannot count roots of the zero polynomial")
    a, b = _frac(lo), _frac(hi)
    if a >= b:
        raise ValueError("need lo < hi")
    if p(a) == 0 or p(b) == 0:
        raise EndpointRoot(f"polynomial vanishes at an endpoint of ({a}, {b})")
    q = squarefree_part(p)
    if q.degree < 1:
        return 0
    return _count_half_open(_sturm_chain(q), a, b)


def descartes_variations(p: Polynomial, hi: Fraction) -> int:
    """Sign variations of (1+s)^d p(hi/(1+s)), with d the degree of p.

    s -> hi/(1+s) maps (0, inf) onto (0, hi), so by Descartes' rule of
    signs this bounds the number of roots of p in (0, hi), counted with
    multiplicity, and has its parity; zero variations certify that
    there is none (the test of Collins-Akritas bisection).  Needs
    hi > 0.  The coefficients are cleared of denominators and shifted
    by one in integers.
    """
    coeffs = p.coefficients
    d = len(coeffs) - 1
    common = math.lcm(*(c.denominator for c in coeffs))
    a, b = hi.numerator, hi.denominator
    # Coefficient k of p times common * hi^k * b^d multiplies y^(d-k),
    # so shifted lists the coefficients of y^0..y^d; then y = 1 + s.
    shifted = [
        c.numerator * (common // c.denominator) * a**k * b ** (d - k)
        for k, c in enumerate(coeffs)
    ][::-1]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            shifted[j] += shifted[j + 1]
    return _variations(shifted)


def root_free(p: Polynomial, hi: Fraction) -> bool:
    """Whether p has no root in (0, hi], decided exactly.

    Needs p(0) != 0 and hi > 0.  A root at hi answers False at once.
    Descartes' rule certifies most root-free intervals cheaply; when it
    is inconclusive (complex roots near the interval), a Sturm count on
    the squarefree part decides.
    """
    if p(hi) == 0:
        return False
    return descartes_variations(p, hi) == 0 or sturm_count(p, 0, hi) == 0


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in [lo, hi]; needs lo > 0."""
    if not 0 < lo <= hi:
        raise ValueError("requires 0 < lo <= hi")
    # Continued-fraction walk: an integer in range ends the descent.
    terms: list[int] = []
    a, b = lo, hi
    while True:
        floor_a = a.numerator // a.denominator
        ceil_a = -((-a.numerator) // a.denominator)
        if ceil_a <= b:
            terms.append(ceil_a)
            break
        terms.append(floor_a)
        a, b = 1 / (b - floor_a), 1 / (a - floor_a)
    value = Fraction(terms[-1])
    for term in reversed(terms[:-1]):
        value = term + 1 / value
    return value


def _exact_root(q: Polynomial, point: Fraction) -> AlgebraicRoot:
    return AlgebraicRoot(q, point, point)


def first_positive_root(p: Polynomial) -> AlgebraicRoot | None:
    """Smallest real root of p in (0, inf), or None.

    Works on the squarefree part, so multiple roots collapse.  Rational
    roots (denominator below 2**64) are returned exactly; otherwise the
    isolating interval has width at most ``DEFAULT_ROOT_WIDTH * max(1, B)``
    where B is the Cauchy root bound.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    if p(0) == 0:
        raise ZeroAtOrigin("polynomial vanishes at the origin")
    q = squarefree_part(p)
    if q.degree < 1:
        return None
    bound = cauchy_root_bound(q)
    chain = _sturm_chain(q)
    lo, hi = Fraction(0), bound
    count = _count_half_open(chain, lo, hi)
    if count == 0:
        return None
    target = DEFAULT_ROOT_WIDTH * max(Fraction(1), bound)
    probe_width = min(target, _RATIONAL_PROBE_WIDTH)
    # Narrow (lo, hi] onto the leftmost root.  Endpoint lo is never a
    # root; hi may be, in which case the count includes it.
    while count > 1:
        mid = (lo + hi) / 2
        if q(mid) == 0:
            left = _count_half_open(chain, lo, mid)
            if left == 1:
                return _exact_root(q, mid)
            hi, count = mid, left
            continue
        left = _count_half_open(chain, lo, mid)
        if left == 0:
            lo = mid
        else:
            hi, count = mid, left
    if q(hi) == 0:
        return _exact_root(q, hi)
    # One simple root strictly inside (lo, hi): bisect on sign changes.
    sign_lo = _sign(q(lo))
    while hi - lo > probe_width or lo == 0:
        mid = (lo + hi) / 2
        v = q(mid)
        if v == 0:
            return _exact_root(q, mid)
        if _sign(v) == sign_lo:
            lo = mid
        else:
            hi = mid
    candidate = simplest_rational_between(lo, hi)
    if q(candidate) == 0:
        return _exact_root(q, candidate)
    return AlgebraicRoot(q, lo, hi)


def refine_root(root: AlgebraicRoot) -> AlgebraicRoot:
    """One bisection step; exact roots are returned unchanged."""
    if root.is_rational:
        return root
    w = root.witness
    mid = (root.lo + root.hi) / 2
    v = w(mid)
    if v == 0:
        return AlgebraicRoot(w, mid, mid)
    if _sign(v) == _sign(w(root.lo)):
        return AlgebraicRoot(w, mid, root.hi)
    return AlgebraicRoot(w, root.lo, mid)


def _compare_exact_with_interval(point: Fraction, root: AlgebraicRoot) -> int:
    """Sign of (point - root) for an interval-identified root."""
    if root.lo < point < root.hi and root.witness(point) == 0:
        return 0
    current = root
    while True:
        if current.is_rational:
            return _sign(point - current.lo)
        if point <= current.lo:
            return -1
        if point >= current.hi:
            return 1
        current = refine_root(current)


def compare_roots(a: AlgebraicRoot, b: AlgebraicRoot) -> int:
    """Exact three-way comparison: -1, 0, or 1.

    Intervals are refined until disjoint; persistent overlap is decided
    through a common root of gcd(witness_a, witness_b) in the overlap.
    """
    if a.is_rational and b.is_rational:
        return _sign(a.lo - b.lo)
    if a.is_rational:
        return _compare_exact_with_interval(a.lo, b)
    if b.is_rational:
        return -_compare_exact_with_interval(b.lo, a)
    x, y = a, b
    while True:
        if x.is_rational or y.is_rational:
            return compare_roots(x, y)
        if x.hi <= y.lo:
            return -1
        if y.hi <= x.lo:
            return 1
        g = poly_gcd(x.witness, y.witness)
        if g.degree >= 1:
            overlap_lo = max(x.lo, y.lo)
            overlap_hi = min(x.hi, y.hi)
            # Witness endpoints are never roots, so g is nonzero there.
            if overlap_lo < overlap_hi and _count_half_open(
                _sturm_chain(g), overlap_lo, overlap_hi
            ):
                return 0
        x, y = refine_root(x), refine_root(y)


def evaluate_on_interval(
    p: Polynomial, lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Bounds on p over [lo, hi] by interval Horner evaluation."""
    if lo > hi:
        raise ValueError("interval endpoints out of order")
    if p.is_zero:
        return Fraction(0), Fraction(0)
    coeffs = p.coefficients
    acc_lo = acc_hi = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo = min(products) + c
        acc_hi = max(products) + c
    return acc_lo, acc_hi


def sign_at_root(p: Polynomial, root: AlgebraicRoot) -> int:
    """Certified sign of p at the root: -1, 0, or 1.

    Zero is decided exactly through gcd(p, witness); a nonzero sign is
    certified by refining the interval under interval evaluation.
    """
    if p.is_zero:
        return 0
    if root.is_rational:
        return _sign(p(root.value))
    g = poly_gcd(p, root.witness)
    if g.degree >= 1 and _count_half_open(_sturm_chain(g), root.lo, root.hi):
        return 0
    current = root
    while True:
        vlo, vhi = evaluate_on_interval(p, current.lo, current.hi)
        if vlo > 0:
            return 1
        if vhi < 0:
            return -1
        current = refine_root(current)
        if current.is_rational:
            return _sign(p(current.value))


def format_rational(x: Fraction) -> str:
    """Render as "num" or "num/den"."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def poly_to_strings(p: Polynomial) -> list[str]:
    return [format_rational(c) for c in p.coefficients]


def root_to_json(root: AlgebraicRoot) -> dict:
    return {
        "witness": poly_to_strings(root.witness),
        "lo": format_rational(root.lo),
        "hi": format_rational(root.hi),
    }

