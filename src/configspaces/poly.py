"""Exact univariate polynomial arithmetic over the rationals.

Coefficients are `fractions.Fraction`; a polynomial is an immutable
dense coefficient tuple in ascending degree with no trailing zeros.
Real roots are located with Sturm sequences on the squarefree part and
reported as :class:`AlgebraicRoot` values, a squarefree witness
polynomial plus an isolating rational interval.  A rational root
collapses to a point interval (``lo == hi``).

Every sign decision of root isolation is one integer computation.  A
polynomial keeps its primitive integer coefficients (``primitive``),
and the sign of q(a/b), b > 0, is the sign of b^d q(a/b), evaluated by
Horner's rule in integers (``_int_value``).  Bisection of (0, B], B
the Cauchy bound, visits the dyadic points j B / 2^k; they are carried
as integer numerators over one common denominator, and a ``Fraction``
is built only for a reported endpoint.  A first positive root is then
narrowed to the cell that halving reaches at width 2**-128, found on
that level's grid by quadratic interval refinement: a secant guesses
the cell and exact integer signs certify it, so the cell is the one
bisection returns.

Whether (0, hi] holds no root is asked of Descartes' rule on the
integer coefficients first (``_descartes_root_free``), and of a Sturm
count (``sturm_count``) only where the rule leaves it open.

A polynomial also keeps its squarefree part with that part's Sturm
chain, and the coarse isolation of its first positive root, each
computed once; refinement is one loop (``_enclosures``) that halves one
cell in place.  The caches are write-once: racing writers would store
identical values, so polynomials are safe to share and concurrent use
needs no locks.  Nothing in this module touches floating point, so
every comparison and zero-test is certified.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .core import _Record

__all__ = [
    "Polynomial",
    "AlgebraicRoot",
    "PolynomialError",
    "ZeroConstantTerm",
    "EndpointRoot",
    "ZeroAtOrigin",
    "poly_divmod",
    "poly_gcd",
    "cauchy_root_bound",
    "series_inverse",
    "sturm_count",
    "isolate_first_root",
    "first_positive_root",
    "compare_roots",
    "evaluate_on_interval",
    "sign_at_root",
    "simplest_rational_between",
    "format_rational",
    "parse_rational",
    "poly_to_strings",
]

CoefficientLike = Fraction | int | str

# Reported intervals have width at most 2**-_PROBE_BITS; the simplest
# rational inside is then probed, which catches rational roots with
# denominator up to 2**64 and returns them as exact point intervals.
_PROBE_BITS = 128


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


class Polynomial:
    """Immutable dense polynomial with Fraction coefficients."""

    # Write-once caches of primitive(), _squarefree_chain and
    # isolate_first_root (a 1-tuple, as None is a result); None until used.
    __slots__ = ("_coeffs", "_primitive", "_squarefree", "_first_root")

    def __init__(self, coefficients: Iterable[CoefficientLike] = ()):
        coeffs = [_frac(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs: tuple[Fraction, ...] = tuple(coeffs)
        self._primitive = self._squarefree = self._first_root = None

    def primitive(self) -> tuple[int, ...]:
        """Coprime integer coefficients, the polynomial times a positive
        rational: every sign is kept.  Computed once."""
        if self._primitive is None:
            common = math.lcm(*(c.denominator for c in self._coeffs))
            self._primitive = _content_free(
                [c.numerator * (common // c.denominator) for c in self._coeffs]
            )
        return self._primitive

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

    def __mul__(self, other: Polynomial | CoefficientLike) -> Polynomial:
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


class AlgebraicRoot(_Record):
    """One real root, identified by a squarefree witness and an interval.

    The witness has exactly one real root in ``[lo, hi]``.  When
    ``lo == hi`` the root is the rational ``lo``; otherwise the witness
    changes sign on the interval and neither endpoint is a root.
    """

    __slots__ = ("witness", "lo", "hi")

    def _check(self) -> None:
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


def _content_free(values: list[int]) -> tuple[int, ...]:
    """Without trailing zeros, divided by the positive content."""
    while values and not values[-1]:
        values.pop()
    content = math.gcd(*values)
    return tuple(v // content for v in values) if content > 1 else tuple(values)


def _negated_remainder(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """A content-free positive multiple of -(a mod b), for integer a and
    b: pseudo-division, each step scaled by b's leading coefficient."""
    rem = list(a)
    lead, low = b[-1], b[:-1]
    negate = True
    for shift in range(len(rem) - len(b), -1, -1):
        f = rem.pop()
        if f:
            if lead != 1:
                rem = [lead * v for v in rem]
                negate ^= lead < 0
            for j, c in enumerate(low, shift):
                rem[j] -= f * c
    return _content_free([-v for v in rem] if negate else rem)


def poly_gcd(p: Polynomial, q: Polynomial) -> Polynomial:
    """Monic greatest common divisor (Euclid on integer coefficients)."""
    a, b = p.primitive(), q.primitive()
    while b:
        a, b = b, _negated_remainder(a, b)
    return Polynomial(Fraction(c, a[-1]) for c in a)


def cauchy_root_bound(p: Polynomial) -> Fraction:
    """A rational B with every real root of p strictly inside (-B, B)."""
    if p.degree < 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(p.leading_coefficient)
    bound = 1 + max(abs(c) for c in p.coefficients[:-1]) / lead
    return bound + 1


def series_inverse(p: Polynomial, order: int) -> tuple[Fraction, ...]:
    """Truncated multiplicative inverse, its coefficients of t^0 to
    t^order: (p * result) == 1 mod t**(order+1)."""
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
    return tuple(out)


def _int_value(coeffs: Sequence[int], a: int, b: int) -> int:
    """b^d q(a/b) for q of degree d with integer ``coeffs``, by Horner's
    rule in integers."""
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * a + c * scale
        scale *= b
    return acc


def _int_sign(coeffs: Sequence[int], a: int, b: int) -> int:
    """Sign of b^d q(a/b), so of q(a/b) when b > 0."""
    acc = _int_value(coeffs, a, b)
    return (acc > 0) - (acc < 0)


def _sign_at(p: Polynomial, x: Fraction) -> int:
    """Sign of p(x) by the integer kernel."""
    return _int_sign(p.primitive(), x.numerator, x.denominator)


def _sturm_chain(p: Polynomial) -> list[tuple[int, ...]]:
    """p, p' and Euclid's negated remainders, each as a content-free
    positive multiple, so with the signs of the rational chain; the
    last member is gcd(p, p') up to a constant factor."""
    a = p.primitive()
    b = _content_free([k * c for k, c in enumerate(a)][1:])
    chain = [a]
    while b:
        chain.append(b)
        a, b = b, _negated_remainder(a, b)
    return chain


def _squarefree_chain(p: Polynomial) -> tuple[Polynomial, list[tuple[int, ...]]]:
    """The squarefree part of nonzero p and its Sturm chain, kept on p
    and on the part."""
    if p._squarefree is None:
        q, chain = p, _sturm_chain(p)
        if len(chain[-1]) > 1:
            g = chain[-1]
            q, rem = poly_divmod(p, Polynomial(Fraction(c, g[-1]) for c in g))
            if not rem.is_zero:
                raise AssertionError("gcd does not divide its argument")
            chain = _squarefree_chain(q)[1]
        p._squarefree = (q, chain)
    return p._squarefree


def _variations(values: Iterable[int]) -> int:
    """Sign changes along the sequence, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _variations_at(chain: Sequence[Sequence[int]], a: int, b: int) -> int:
    return _variations(_int_sign(f, a, b) for f in chain)


def _count_half_open(chain: Sequence[Sequence[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct roots of the squarefree chain head in (lo, hi]; needs
    head(lo) != 0, and a root at hi is counted."""
    return _variations_at(chain, lo.numerator, lo.denominator) - _variations_at(
        chain, hi.numerator, hi.denominator
    )


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
    if _sign_at(p, a) == 0 or _sign_at(p, b) == 0:
        raise EndpointRoot(f"polynomial vanishes at an endpoint of ({a}, {b})")
    return _count_half_open(_squarefree_chain(p)[1], a, b)


def _descartes(coeffs: Sequence[int], hi: Fraction) -> int:
    """Sign variations of (1+s)^d p(hi/(1+s)), p of degree d with
    integer coefficients ``coeffs``.

    s -> hi/(1+s) maps (0, inf) onto (0, hi), so by Descartes' rule of
    signs this bounds the number of roots of p in (0, hi), counted with
    multiplicity, and has its parity; zero variations certify that
    there is none (the test of Collins-Akritas bisection).  Needs
    hi > 0.  The coefficients are shifted by one in integers.
    """
    d = len(coeffs) - 1
    a, b = hi.numerator, hi.denominator
    # Coefficient k of p times hi^k * b^d multiplies y^(d-k), so shifted
    # lists the coefficients of y^0..y^d; then y = 1 + s.
    shifted = [c * a**k * b ** (d - k) for k, c in enumerate(coeffs)][::-1]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            shifted[j] += shifted[j + 1]
    return _variations(shifted)


def _descartes_root_free(coeffs: Sequence[int], hi: Fraction) -> bool | None:
    """Whether the polynomial with integer coefficients ``coeffs``, not
    0 at 0, has no root in (0, hi], hi > 0: False when it vanishes at
    hi, True when Descartes' rule certifies (0, hi) root-free, and None
    when only a Sturm count can decide (complex roots near the
    interval)."""
    if _int_sign(coeffs, hi.numerator, hi.denominator) == 0:
        return False
    return True if _descartes(coeffs, hi) == 0 else None


def simplest_rational_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational with smallest denominator in [lo, hi]; needs lo > 0."""
    if not 0 < lo <= hi:
        raise ValueError("requires 0 < lo <= hi")
    # Continued-fraction walk on integer pairs a = an/ad, b = bn/bd: an
    # integer in range ends the descent.
    terms: list[int] = []
    an, ad, bn, bd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    while True:
        floor_a = an // ad
        ceil_a = -(-an // ad)
        if ceil_a * bd <= bn:
            terms.append(ceil_a)
            break
        terms.append(floor_a)
        an, ad, bn, bd = bd, bn - floor_a * bd, ad, an - floor_a * ad
    num, den = terms.pop(), 1
    for term in reversed(terms):
        num, den = term * num + den, num
    return Fraction(num, den)


def isolate_first_root(p: Polynomial) -> AlgebraicRoot | None:
    """Smallest real root of p in (0, inf), isolated coarsely, or None.

    Sturm bisection of (0, B] on the squarefree part stops as soon as
    (lo, hi] holds one root, which is exact if a bisection point hit it.
    The result is kept on p.
    """
    if p.is_zero:
        raise ValueError("zero polynomial has every point as a root")
    if p.constant_term == 0:
        raise ZeroAtOrigin("polynomial vanishes at the origin")
    if p._first_root is None:
        p._first_root = (_isolate_first_root(p),)
    return p._first_root[0]


def _isolate_first_root(p: Polynomial) -> AlgebraicRoot | None:
    q, chain = _squarefree_chain(p)
    if q.degree < 1:
        return None
    bound = cauchy_root_bound(q)
    # (lo, hi] is (lo / den, hi / den], den = denominator(B) * 2^k.
    lo, hi, den = 0, bound.numerator, bound.denominator
    v_lo = _variations_at(chain, lo, den)
    count = v_lo - _variations_at(chain, hi, den)
    if count == 0:
        return None
    while count > 1:
        mid, lo, hi, den = lo + hi, 2 * lo, 2 * hi, 2 * den
        signs = [_int_sign(f, mid, den) for f in chain]
        v_mid = _variations(signs)
        left = v_lo - v_mid
        if left == 0:
            lo, v_lo = mid, v_mid
        elif left == 1 and signs[0] == 0:
            point = Fraction(mid, den)
            return AlgebraicRoot(q, point, point)
        else:
            hi, count = mid, left
    # hi is no root: B bounds the roots strictly, and a bisection point
    # that is one and leaves a single root in (lo, hi] returned above.
    return AlgebraicRoot(q, Fraction(lo, den), Fraction(hi, den))


class _Bisection:
    """The isolating interval (lo/den, hi/den) of a root, a point when
    the root is rational, halved in integers: one step by ``halve``, or
    down to width 2**-_PROBE_BITS by ``narrow``."""

    __slots__ = ("witness", "coeffs", "lo", "hi", "den", "sign_lo")

    def __init__(self, root: AlgebraicRoot):
        self.witness = root.witness
        self.coeffs = root.witness.primitive()
        lo, hi = root.lo, root.hi
        self.den = den = math.lcm(lo.denominator, hi.denominator)
        self.lo = lo.numerator * (den // lo.denominator)
        self.hi = hi.numerator * (den // hi.denominator)
        self.sign_lo = _int_sign(self.coeffs, self.lo, den)

    def halve(self) -> None:
        """One bisection step; the cell becomes a point at a root."""
        mid = self.lo + self.hi
        self.lo, self.hi, self.den = 2 * self.lo, 2 * self.hi, 2 * self.den
        sign = _int_sign(self.coeffs, mid, self.den)
        if sign == 0:
            self.lo = self.hi = mid
        elif sign == self.sign_lo:
            self.lo = mid
        else:
            self.hi = mid

    def narrow(self) -> None:
        """Halve until the cell is at most 2**-_PROBE_BITS wide and does
        not start at 0, in few steps; the cell holds an irrational root.

        m halvings leave the one of 2^m equal parts that holds the root,
        or the grid point that is the root, met as a midpoint.  So
        quadratic interval refinement (Abbott, arXiv:1203.1227) searches
        the grid of the least level m with parts that narrow: a secant
        proposes one of the current part's 2^e sub-parts, and the signs
        at its ends accept it (e doubles) or reject it (one halving, and
        e halves).  The guess only chooses where to look; the cell is
        certified by exact integer values.
        """
        width = self.hi - self.lo
        m = (((width << _PROBE_BITS) - 1) // self.den).bit_length()
        base, den, coeffs = self.lo << m, self.den << m, self.coeffs
        values: dict[int, int] = {}

        def at(k: int) -> int:  # the value at grid point k, times den^d
            if k not in values:
                values[k] = _int_value(coeffs, base + k * width, den)
            return values[k]

        # The root lies in part (j, j + n) of the grid, or is point j if n == 0.
        j, n, e = 0, 1 << m, 1
        while n > 1:
            e = min(e, n.bit_length() - 1)
            f0, f1 = at(j), at(j + n)
            u = n >> e
            a = j + (f0 << e) // (f0 - f1) * u
            fa, fb = at(a), at(a + u)
            if not fa or not fb:
                j, n = (a if not fa else a + u), 0
            elif (fa > 0) != (fb > 0):
                j, n, e = a, u, 2 * e
            else:
                n, e = n >> 1, max(1, e >> 1)
                fm = at(j + n)
                if not fm:
                    j, n = j + n, 0
                elif (fm > 0) == (f0 > 0):
                    j += n
        self.lo, self.hi, self.den = base + j * width, base + (j + n) * width, den
        while self.lo == 0:
            self.halve()

    def root(self) -> AlgebraicRoot:
        return AlgebraicRoot(self.witness, Fraction(self.lo, self.den), Fraction(self.hi, self.den))


def first_positive_root(p: Polynomial) -> AlgebraicRoot | None:
    """Smallest real root of p in (0, inf), or None.

    Works on the squarefree part, so multiple roots collapse.  Rational
    roots (denominator below 2**64) are returned exactly; otherwise the
    isolating interval has width at most 2**-128.  Refines the coarse
    isolation kept by ``isolate_first_root`` to the cell that halving
    reaches, in few steps (``_Bisection.narrow``).
    """
    root = isolate_first_root(p)
    if root is None or root.is_rational:
        return root
    cell = _Bisection(root)
    cell.narrow()
    # A grid point at the root left a point, which the probe returns.
    root = cell.root()
    candidate = simplest_rational_between(root.lo, root.hi)
    if _sign_at(root.witness, candidate) == 0:
        return AlgebraicRoot(root.witness, candidate, candidate)
    return root


def compare_roots(a: AlgebraicRoot, b: AlgebraicRoot) -> int:
    """Exact three-way comparison: -1, 0, or 1.

    The wider interval is halved until the two are disjoint.  Overlap
    is decided by the other witness's sign at a rational root, or
    through a common root of gcd(witness_a, witness_b) in the overlap.
    """
    x, y = _Bisection(a), _Bisection(b)
    shared: list[tuple[int, ...]] | None = None
    while True:
        below = x.hi * y.den <= y.lo * x.den
        above = y.hi * x.den <= x.lo * y.den
        if below or above:
            return above - below  # both: the same rational root
        if x.lo == x.hi or y.lo == y.hi:
            point, other = (x, y) if x.lo == x.hi else (y, x)
            if _int_sign(other.coeffs, point.lo, point.den) == 0:
                return 0
        else:
            if shared is None:
                g = poly_gcd(a.witness, b.witness)
                # A witness of g's degree is g times a constant: the same
                # sign variations, from the chain the witness keeps.
                g = next((w for w in (a.witness, b.witness) if w.degree == g.degree), g)
                shared = _squarefree_chain(g)[1] if g.degree >= 1 else []
            # Witness endpoints are never roots, so g is nonzero at the
            # ends of the overlap.
            lo = x if x.lo * y.den >= y.lo * x.den else y
            hi = x if x.hi * y.den <= y.hi * x.den else y
            if shared and _variations_at(shared, lo.lo, lo.den) - _variations_at(
                shared, hi.hi, hi.den
            ):
                return 0
        wider = x if (x.hi - x.lo) * y.den >= (y.hi - y.lo) * x.den else y
        wider.halve()


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


def _enclosures(p: Polynomial, root: AlgebraicRoot) -> Iterator[tuple[Fraction, Fraction]]:
    """Bounds on p over the root's isolating interval, then over each
    halving of it, without end.  One cell is halved in place; once it
    is a point (a rational root), the bounds are p's exact value."""
    cell = _Bisection(root)
    while True:
        yield evaluate_on_interval(p, Fraction(cell.lo, cell.den), Fraction(cell.hi, cell.den))
        cell.halve()


def sign_at_root(p: Polynomial, root: AlgebraicRoot) -> int:
    """Certified sign of p at the root: -1, 0, or 1.

    Zero at an irrational root is decided exactly through gcd(p,
    witness); otherwise the interval is refined under interval
    evaluation until the bounds share a sign or are one exact value.
    """
    g = poly_gcd(p, root.witness)
    if g.degree >= 1 and _count_half_open(_squarefree_chain(g)[1], root.lo, root.hi):
        return 0
    for lo, hi in _enclosures(p, root):
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        if lo == hi:
            return 0


#: Decimal digits converted at once between integers and strings: below
#: 640, the least limit CPython lets a program or the environment set on
#: such conversions, so no setting of that limit changes a report.
_PIECE = 600
_PIECE_BOUND = 10**_PIECE


def _decimal(value: int) -> str:
    """``str(value)``, converted in pieces of at most ``_PIECE`` digits."""
    if -_PIECE_BOUND < value < _PIECE_BOUND:
        return str(value)
    if value < 0:
        return "-" + _decimal(-value)
    k = _PIECE
    while 10 ** (2 * k) <= value:
        k *= 2
    high, low = divmod(value, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _integer(digits: str) -> int:
    """``int(digits)`` for ASCII digits after an optional minus sign,
    converted in pieces of at most ``_PIECE`` digits."""
    if len(digits) <= _PIECE:
        return int(digits)
    if digits[0] == "-":
        return -_integer(digits[1:])
    k = len(digits) // 2
    return _integer(digits[:-k]) * 10**k + _integer(digits[-k:])


def format_rational(x: Fraction) -> str:
    """Render as "num" or "num/den", whatever the interpreter's limit on
    converting integers to strings (see ``_decimal``)."""
    num, den = x.numerator, x.denominator
    if -_PIECE_BOUND < num < _PIECE_BOUND and den < _PIECE_BOUND:
        return str(num) if den == 1 else f"{num}/{den}"
    return _decimal(num) if den == 1 else f"{_decimal(num)}/{_decimal(den)}"


def parse_rational(text: str) -> Fraction:
    """Any form ``Fraction`` reads.  A plain ``[+-]digits[/digits]`` is
    read by ``_integer``, so its length meets no interpreter limit."""
    body = text.strip()
    numerator, slash, denominator = body.partition("/")
    digits = numerator[1:] if numerator[:1] in ("+", "-") else numerator
    denominator = denominator if slash else "1"
    try:
        if all(part.isascii() and part.isdigit() for part in (digits, denominator)):
            value = _integer(digits)
            return Fraction(-value if numerator[0] == "-" else value, _integer(denominator))
        return Fraction(body)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


def poly_to_strings(p: Polynomial) -> list[str]:
    return [format_rational(c) for c in p.coefficients]


