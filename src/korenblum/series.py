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

and the analogous bound for g with weight 1/(n (K+1) + 2).  In exact
mode everything is rational arithmetic and the resulting enclosures are
mathematically rigorous; float mode evaluates the same formulas in
double precision for speed.
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


def bergman_weight(exponent: int) -> Fraction:
    """Exact squared norm of the monomial z^exponent."""
    if exponent < 0:
        raise ValueError("monomial exponent must be nonnegative")
    return Fraction(1, exponent + 1)


def power_series_norm_sq(terms: Iterable[Tuple[int, Union[Fraction, int]]]) -> Fraction:
    """Exact squared norm of a finite power series sum v_m z^m.

    ``terms`` yields (exponent, coefficient) pairs with distinct
    exponents; orthogonality turns the norm into a weighted sum of
    squares.
    """
    total = Fraction(0)
    for exponent, value in terms:
        v = Fraction(value)
        total += v * v * bergman_weight(exponent)
    return total


@dataclass(frozen=True)
class CoefficientTerm:
    """One Taylor term: index k, monomial exponent, exact coefficient."""

    k: int
    exponent: int
    value: Fraction


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


def f_term(params: Params, k: int) -> CoefficientTerm:
    return CoefficientTerm(k, params.n * k, f_coefficient(params, k))


def g_term(params: Params, k: int) -> CoefficientTerm:
    return CoefficientTerm(k, params.n * k + 1, g_coefficient(params, k))


def _f_coefficients_float(a: float, count: int) -> list:
    # Same closed form as f_coefficient, evaluated by the ratio a/2
    # recurrence in double precision.
    coeffs = [a / 2.0]
    if count > 1:
        value = (a * a + 2.0) / 4.0
        for _ in range(1, count):
            coeffs.append(value)
            value *= a / 2.0
    return coeffs[:count]


def _g_coefficients_float(a: float, count: int) -> list:
    coeffs = [0.5]
    if count > 1:
        value = 3.0 * a / 4.0
        for _ in range(1, count):
            coeffs.append(value)
            value *= a / 2.0
    return coeffs[:count]


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


def norm_sq_f(params: Params, K: int = DEFAULT_TERMS, mode: Mode = "float") -> NormEnclosure:
    """Enclose ||f||^2 by the partial sum through k = K plus tail bound."""
    _check_terms(K)
    n = params.n
    if mode == "exact":
        partial = power_series_norm_sq(
            (n * k, f_coefficient(params, k)) for k in range(K + 1)
        )
        nxt = f_coefficient(params, K + 1)
        q = params.a / 2
        tail = nxt * nxt / ((1 - q * q) * (n * (K + 1) + 1))
    elif mode == "float":
        a = params.a_float
        coeffs = _f_coefficients_float(a, K + 2)
        partial = math.fsum(
            coeffs[k] * coeffs[k] / (n * k + 1) for k in range(K + 1)
        )
        q = a / 2.0
        tail = coeffs[K + 1] ** 2 / ((1.0 - q * q) * (n * (K + 1) + 1))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return NormEnclosure(partial, partial + tail, K, mode)


def norm_sq_g(params: Params, K: int = DEFAULT_TERMS, mode: Mode = "float") -> NormEnclosure:
    """Enclose ||g||^2 by the partial sum through k = K plus tail bound."""
    _check_terms(K)
    n = params.n
    if mode == "exact":
        partial = power_series_norm_sq(
            (n * k + 1, g_coefficient(params, k)) for k in range(K + 1)
        )
        nxt = g_coefficient(params, K + 1)
        q = params.a / 2
        tail = nxt * nxt / ((1 - q * q) * (n * (K + 1) + 2))
    elif mode == "float":
        a = params.a_float
        coeffs = _g_coefficients_float(a, K + 2)
        partial = math.fsum(
            coeffs[k] * coeffs[k] / (n * k + 2) for k in range(K + 1)
        )
        q = a / 2.0
        tail = coeffs[K + 1] ** 2 / ((1.0 - q * q) * (n * (K + 1) + 2))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return NormEnclosure(partial, partial + tail, K, mode)


def norm_difference(
    params: Params,
    K: int = DEFAULT_TERMS,
    mode: Mode = "float",
    adaptive: bool = False,
    width_factor: float = 1e-3,
    max_terms: int = MAX_TERMS,
) -> DifferenceResult:
    """Enclose delta = ||f||^2 - ||g||^2 from the two norm enclosures.

    With ``adaptive`` set, the truncation index doubles until the
    enclosure width drops below ``width_factor`` times the midpoint
    magnitude (or ``max_terms`` is reached), so callers get a relative
    resolution of the gap without guessing K.  The enclosure stays
    valid at every stage; escalation only tightens it.
    """
    _check_terms(K)
    while True:
        result = enclose_difference(norm_sq_f(params, K, mode), norm_sq_g(params, K, mode))
        if not adaptive or K >= max_terms:
            return result
        mid = result.midpoint
        if result.width <= width_factor * abs(mid):
            return result
        K = min(2 * K, max_terms)
