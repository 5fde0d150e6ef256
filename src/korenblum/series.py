"""Squared Bergman norms of the pair from their Taylor coefficients.

With normalized area measure on the unit disk a monomial satisfies
||z^m||^2 = 1/(m+1), and distinct powers are orthogonal.  Expanding the
shared factor 1/(2 - a w) as a geometric series in w = z^n gives

    f(z) = a/2 + sum_{k>=1} a^(k-1) (a^2 + 2) / 2^(k+1) * z^(n k)
    g(z) = z/2 + sum_{k>=1} 3 a^k / 2^(k+1)          * z^(n k + 1)

so the squared norms are

    ||f||^2 = sum_k c_k^2 / (n k + 1)
    ||g||^2 = sum_k d_k^2 / (n k + 2).

Consecutive coefficients shrink by the factor a/2 from k = 1 on, which
gives a closed form bound for the truncated remainder: every dropped
weight 1/(n k + 1) is at most the first dropped one, and the remaining
squares form a geometric series with ratio (a/2)^2.  Hence

    0 <= ||f||^2 - S_K(f) <= c_{K+1}^2 / ((1 - (a/2)^2) (n (K+1) + 1))

and the analogous bound for g with weight 1/(n (K+1) + 2).

Both norms have one shape.  With x = (a/2)^2 and s the exponent offset,

    S_K = c_0^2 / s + c_1^2 * sum_{k=1..K} x^(k-1) / (n k + s)
    tail = c_1^2 x^K / ((1 - x) (n (K+1) + s))

where f has s = 1, c_0 = a/2, c_1 = (a^2 + 2)/4 and g has s = 2,
c_0 = 1/2, c_1 = 3a/4.  One routine encloses both.

Exact mode writes a = p/q, so x = P/D with P = p^2 and D = 4 q^2, and
puts the whole sum over one common denominator, with m_k = n k + s:

    sum_{k=1..K} x^(k-1) / m_k = N / (D^(K-1) m_1 m_2 ... m_K),
    N = sum_{k=1..K} P^(k-1) D^(K-k) prod_{j != k} m_j.

The integer N is built in plain Python ints by binary splitting: each
half of the index range returns its numerator, its product of m_k and
its powers of P and D, and two halves combine with a few products.  The
tail over the same denominator is one more integer term, so the lower
end and the upper end are each one ``Fraction(numerator, denominator)``,
one gcd normalisation each, where adding the K + 1 terms as fractions
normalises after every term.  A ``Fraction`` is always in lowest terms,
so both routes give the same numerators and denominators; only the
time differs.

Float mode evaluates the same formulas in double precision for speed:
the coefficients by the ratio a/2 recurrence, the partial sum with
``math.fsum``.  Exact mode gives rigorous enclosures; float mode does not
round outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Literal, Tuple, Union

from .family import Params

Mode = Literal["float", "exact"]
Scalar = Union[Fraction, float]

DEFAULT_TERMS = 64
MAX_TERMS = 8192
# Adaptive mode stops doubling K once the gap enclosure is this narrow
# relative to its midpoint.
ADAPTIVE_WIDTH = 1e-3


def power_series_norm_sq(terms: Iterable[Tuple[int, Union[Fraction, int]]]) -> Fraction:
    """Exact squared norm of a finite power series sum v_m z^m.

    ``terms`` yields (exponent, coefficient) pairs with distinct
    exponents; orthogonality turns the norm into a weighted sum of
    squares with ||z^m||^2 = 1/(m + 1).
    """
    total = Fraction(0)
    for exponent, value in terms:
        if exponent < 0:
            raise ValueError("monomial exponent must be nonnegative")
        v = Fraction(value)
        total += v * v / (exponent + 1)
    return total


def f_coefficient(params: Params, k: int) -> Fraction:
    """Exact coefficient of z^(n k) in f."""
    if k < 0:
        raise ValueError("coefficient index must be nonnegative")
    a = params.a
    if k == 0:
        return a / 2
    return a ** (k - 1) * (a * a + 2) / 2 ** (k + 1)


def g_coefficient(params: Params, k: int) -> Fraction:
    """Exact coefficient of z^(n k + 1) in g."""
    if k < 0:
        raise ValueError("coefficient index must be nonnegative")
    a = params.a
    if k == 0:
        return Fraction(1, 2)
    return 3 * a ** k / 2 ** (k + 1)


@dataclass(frozen=True)
class NormEnclosure:
    """Two-sided enclosure of a squared norm.

    ``lower`` is the partial sum through index ``truncation_index`` and
    ``upper`` adds the closed form tail bound.  Exact mode carries
    Fractions, float mode carries floats.
    """

    lower: Scalar
    upper: Scalar
    truncation_index: int
    mode: Mode

    @property
    def width(self) -> Scalar:
        return self.upper - self.lower

    @property
    def midpoint(self) -> Scalar:
        return (self.lower + self.upper) / 2


@dataclass(frozen=True)
class DifferenceResult:
    """Enclosure of the norm gap delta = ||f||^2 - ||g||^2."""

    delta_lower: Scalar
    delta_upper: Scalar
    truncation_index: int
    mode: Mode

    @property
    def width(self) -> Scalar:
        return self.delta_upper - self.delta_lower

    @property
    def midpoint(self) -> Scalar:
        return (self.delta_lower + self.delta_upper) / 2

    @property
    def certifies(self) -> bool:
        """True when the whole enclosure is positive, i.e. ||f|| > ||g||."""
        return self.delta_lower > 0


def enclose_difference(nf: NormEnclosure, ng: NormEnclosure) -> DifferenceResult:
    """Enclose ||f||^2 - ||g||^2 from enclosures of the two norms."""
    return DifferenceResult(
        nf.lower - ng.upper, nf.upper - ng.lower, nf.truncation_index, nf.mode
    )


def _check_terms(K: int) -> None:
    if K < 1:
        raise ValueError(f"truncation index must be at least 1, got {K}")


def _mode_value(params: Params, mode: Mode) -> Scalar:
    """The coefficient a in the arithmetic of ``mode``."""
    if mode == "exact":
        return params.a
    if mode == "float":
        return params.a_float
    raise ValueError(f"unknown mode {mode!r}")


def norm_sq_f(params: Params, K: int = DEFAULT_TERMS, mode: Mode = "float") -> NormEnclosure:
    """Enclose ||f||^2 by the partial sum through k = K plus tail bound."""
    a = _mode_value(params, mode)
    return _enclose_norm_sq(a, params.n, K, mode, 1, a / 2, (a * a + 2) / 4)


def norm_sq_g(params: Params, K: int = DEFAULT_TERMS, mode: Mode = "float") -> NormEnclosure:
    """Enclose ||g||^2 by the partial sum through k = K plus tail bound."""
    a = _mode_value(params, mode)
    # a ** 0 / 2 is one half as a Fraction or a float, whichever a is.
    return _enclose_norm_sq(a, params.n, K, mode, 2, a ** 0 / 2, 3 * a / 4)


def _enclose_norm_sq(
    a: Scalar, n: int, K: int, mode: Mode, s: int, c0: Scalar, c1: Scalar
) -> NormEnclosure:
    """Enclose c0^2/s + c1^2 sum_{k>=1} (a/2)^(2(k-1)) / (n k + s).

    The partial sum runs through k = K and the upper end adds the
    closed form tail; see the module docstring.
    """
    _check_terms(K)
    if mode == "exact":
        lower, upper = _exact_sum(a, n, K, s, c0, c1)
        return NormEnclosure(lower, upper, K, mode)
    ratio = a / 2.0
    coeffs = [c0]
    value = c1
    for _ in range(K + 1):
        coeffs.append(value)
        value *= ratio
    partial = math.fsum(coeffs[k] * coeffs[k] / (n * k + s) for k in range(K + 1))
    tail = coeffs[K + 1] ** 2 / ((1.0 - ratio * ratio) * (n * (K + 1) + s))
    return NormEnclosure(partial, partial + tail, K, mode)


def _exact_sum(
    a: Fraction, n: int, K: int, s: int, c0: Fraction, c1: Fraction
) -> Tuple[Fraction, Fraction]:
    """Exact lower and upper ends of the enclosure, each one normalisation."""
    P, D = a.numerator ** 2, 4 * a.denominator ** 2  # x = (a/2)^2 = P / D

    def split(lo: int, hi: int) -> Tuple[int, int, int, int]:
        # For k in [lo, hi): sum P^(k-lo) D^(hi-1-k) / (n k + s) = N / M,
        # returned with M = prod (n k + s), P^(hi-lo) and D^(hi-lo).
        if hi - lo == 1:
            return 1, n * lo + s, P, D
        mid = (lo + hi) // 2
        n1, m1, p1, d1 = split(lo, mid)
        n2, m2, p2, d2 = split(mid, hi)
        return n1 * d2 * m2 + n2 * p1 * m1, m1 * m2, p1 * p2, d1 * d2

    N, M, P_K, D_K = split(1, K + 1)
    common = D_K // D * M  # sum_{k=1..K} x^(k-1) / (n k + s) = N / common
    u0, v0, u1, v1 = c0.numerator, c0.denominator, c1.numerator, c1.denominator
    weight = s * v0 * v0 * u1 * u1
    numerator = u0 * u0 * v1 * v1 * common + weight * N
    denominator = s * v0 * v0 * v1 * v1 * common
    # tail / c1^2 = x^K / ((1 - x) (n (K+1) + s)) = P_K M / (common r)
    r = (D - P) * (n * (K + 1) + s)
    lower = Fraction(numerator, denominator)
    upper = Fraction(numerator * r + weight * P_K * M, denominator * r)
    return lower, upper


def norm_difference(
    params: Params,
    K: int = DEFAULT_TERMS,
    mode: Mode = "float",
    adaptive: bool = False,
) -> DifferenceResult:
    """Enclose delta = ||f||^2 - ||g||^2 from the two norm enclosures.

    With ``adaptive`` set, the truncation index doubles until the
    enclosure width drops below ADAPTIVE_WIDTH times the midpoint
    magnitude (or MAX_TERMS is reached), so callers get a relative
    resolution of the gap without guessing K.  The enclosure stays
    valid at every stage; escalation only tightens it.
    """
    _check_terms(K)
    while True:
        result = enclose_difference(norm_sq_f(params, K, mode), norm_sq_g(params, K, mode))
        if not adaptive or K >= MAX_TERMS:
            return result
        mid = result.midpoint
        if result.width <= ADAPTIVE_WIDTH * abs(mid):
            return result
        K = min(2 * K, MAX_TERMS)
