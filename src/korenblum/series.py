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
half of the index range returns its numerator and its product of m_k,
and two halves combine with a few products.  A leaf sums up to
SPLIT_LEAF terms in a loop.  The powers P^L and D^L are shared by length
within one call; each level of the tree has at most two lengths, and
P^K and D^K come from the same table.  The tail over the same
denominator is one more integer term.

Each end is then put in lowest terms without a gcd of two full-size
integers.  Its denominator is big * small with big = D^(K-1) and
small = s v0^2 v1^2 m_1 ... m_K (times the tail's cofactor): 12,370 and
~2,550 bits for the gap at a = 0.6666757, n = 10, K = 256.  The shared
2s come off by shifts, the other primes of D by gcds against
D^GCD_POWER (one or two rounds at the pair above, where up to ~11
powers of D cancel), and the rest of the gcd divides small.  The
reduced pair becomes a ``Fraction`` with no second gcd.  A ``Fraction``
is always in lowest terms, so this gives the numerators and
denominators that adding the K + 1 terms as fractions gives; only the
time differs.

The gap subtracts an end of ||g||^2 from an end of ||f||^2; at the same
a and K both norms have the same big.  Each end keeps how it was
reduced: its denominator is (big / cut) * rest, with cut the part of
big that cancelled (49 to 517 bits at the pair above) and rest what
stayed of small (~1,550 bits).  Two ends subtract over
big * lcm(rest_1, rest_2), and the difference is reduced the same way:
2s by shifts, the primes of D by gcds against D^GCD_POWER, the rest by
one gcd against the short lcm.  ``Fraction`` subtraction would take its
gcds over the two ~13,900-bit denominators instead.

Float mode evaluates the same formulas in double precision for speed,
for an array of coefficients a in one pass (``float_norms_sq``); a
scalar call goes through the same pass as a one-element array.  Row k
of a (K + 2)-row table holds c_k for every a: row 0 is c_0, and rows
1..K+1 are one cumulative product down [c_1, a/2, a/2, ...], which
rounds exactly as multiplying by a/2 one step at a time.  The K + 1
weighted squares of each coefficient's column are summed by
``math.fsum``, which rounds once whatever the order, and the tail is
added per coefficient.  So element i of an array call equals the scalar
call at a[i] bit for bit.  Exact mode gives rigorous enclosures; float
mode does not round outward.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, List, Literal, NamedTuple, Optional, Sequence, Tuple, Union

# numpy is imported inside the functions that use it, so exact-only commands never load it.

from .family import Params, _twos

Mode = Literal["float", "exact"]
Scalar = Union[Fraction, float]

DEFAULT_TERMS = 64
MAX_TERMS = 8192
# Adaptive mode stops doubling K once the gap enclosure is this narrow
# relative to its midpoint.
ADAPTIVE_WIDTH = 1e-3
# Cells of one float pass's table, K + 2 per coefficient: 64 KiB of
# doubles, so memory stays bounded for any number of coefficients and the
# table stays below glibc's 128 KiB mmap threshold.  At K = 64 one pass
# takes 124 coefficients.
FLOAT_BLOCK_CELLS = 1 << 13
# Terms that one leaf of the exact splitting tree sums in a loop.
SPLIT_LEAF = 8
# Exact mode divides the primes of D = 4 q^2 out of a numerator up to
# D^GCD_POWER at a time.
GCD_POWER = 8


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
    Fractions, float mode carries floats, or arrays of floats (one per
    coefficient) from ``float_norms_sq``.
    """

    lower: Scalar
    upper: Scalar
    truncation_index: int
    mode: Mode
    # How exact mode reduced the two ends, for ``enclose_difference``.
    _split: Optional[_Split] = field(default=None, init=False, repr=False, compare=False)

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
    # How ``enclose_difference`` reduced the two ends, as in ``NormEnclosure``.
    _split: Optional[_Split] = field(default=None, init=False, repr=False, compare=False)

    @property
    def width(self) -> Scalar:
        return self.delta_upper - self.delta_lower

    @property
    def midpoint(self) -> Scalar:
        return (self.delta_lower + self.delta_upper) / 2

    @property
    def certifies(self) -> bool:
        """True for a positive exact enclosure; a float one is not rounded outward."""
        return self.mode == "exact" and self.delta_lower > 0


def enclose_difference(nf: NormEnclosure, ng: NormEnclosure) -> DifferenceResult:
    """Enclose ||f||^2 - ||g||^2 from enclosures of the two norms.

    Exact enclosures built over the same ``big`` (at the same a and K)
    subtract with no full-size gcd; see the module docstring.  Any other
    pair subtracts as ``Fraction``s or floats.
    """
    sf, sg = nf._split, ng._split
    split = None
    if sf and sg and sf.big == sg.big:
        lower, lower_end = _subtract(nf.lower, sf.lower, ng.upper, sg.upper, sf.base, sf.big)
        upper, upper_end = _subtract(nf.upper, sf.upper, ng.lower, sg.lower, sf.base, sf.big)
        split = sf._replace(lower=lower_end, upper=upper_end)
    else:
        lower, upper = nf.lower - ng.upper, nf.upper - ng.lower
    result = DifferenceResult(lower, upper, nf.truncation_index, nf.mode)
    object.__setattr__(result, "_split", split)  # a frozen field outside __init__
    return result


def _check_terms(K: int) -> None:
    if K < 1:
        raise ValueError(f"truncation index must be at least 1, got {K}")


def norm_sq_f(params: Params, K: int = DEFAULT_TERMS, mode: Mode = "float") -> NormEnclosure:
    """Enclose ||f||^2 by the partial sum through k = K plus tail bound."""
    return _enclose_norm_sq(params, K, mode, _f_shape)


def norm_sq_g(params: Params, K: int = DEFAULT_TERMS, mode: Mode = "float") -> NormEnclosure:
    """Enclose ||g||^2 by the partial sum through k = K plus tail bound."""
    return _enclose_norm_sq(params, K, mode, _g_shape)


def float_norms_sq(
    a: Sequence[float], n: int, K: int = DEFAULT_TERMS
) -> Tuple[NormEnclosure, NormEnclosure]:
    """Float enclosures of ||f||^2 and ||g||^2 at every coefficient in ``a``.

    One pass per norm over each block of coefficients; ``lower`` and
    ``upper`` are arrays whose element i equals, bit for bit, the float
    ``norm_sq_f`` and ``norm_sq_g`` at ``Params(a[i], n)``.  The
    coefficients are used as given, without the ``Params`` check that
    0 <= a < 1.
    """
    import numpy as np

    _check_terms(K)
    a = np.asarray(a, dtype=float)
    step = max(1, FLOAT_BLOCK_CELLS // (K + 2))
    enclosures = []
    for shape in (_f_shape, _g_shape):
        lower: List[float] = []
        upper: List[float] = []
        for start in range(0, a.size, step):
            block = a[start:start + step]
            block_lower, block_upper = _float_sums(block, n, K, *shape(block))
            lower += block_lower
            upper += block_upper
        enclosures.append(NormEnclosure(np.array(lower), np.array(upper), K, "float"))
    return enclosures[0], enclosures[1]


def _f_shape(a):
    """Exponent offset s, c_0 and c_1 of ||f||^2, in the arithmetic of a."""
    return 1, a / 2, (a * a + 2) / 4


def _g_shape(a):
    """Exponent offset s, c_0 and c_1 of ||g||^2, in the arithmetic of a."""
    # a ** 0 / 2 is one half as a Fraction, a float or an array, whichever a is.
    return 2, a ** 0 / 2, 3 * a / 4


def _enclose_norm_sq(params: Params, K: int, mode: Mode, shape) -> NormEnclosure:
    """Enclose c0^2/s + c1^2 sum_{k>=1} (a/2)^(2(k-1)) / (n k + s).

    ``shape`` gives s, c0 and c1 from a.  The partial sum runs through
    k = K and the upper end adds the closed form tail; see the module
    docstring.
    """
    _check_terms(K)
    split = None
    if mode == "exact":
        lower, upper, split = _exact_sum(params.a, params.n, K, *shape(params.a))
    elif mode == "float":
        a = params.a_float
        (lower,), (upper,) = _float_sums([a], params.n, K, *shape(a))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    enclosure = NormEnclosure(lower, upper, K, mode)
    object.__setattr__(enclosure, "_split", split)  # a frozen field outside __init__
    return enclosure


def _float_sums(
    a: Sequence[float], n: int, K: int, s: int, c0, c1
) -> Tuple[List[float], List[float]]:
    """Float lower and upper ends at each coefficient in ``a``.

    Row k of ``coeffs`` holds the coefficient c_k of every a, one column
    per coefficient; rows 1..K+1 are one cumulative product down
    [c1, ratio, ratio, ...], the same sequence of roundings as
    multiplying by the ratio K times.  ``math.fsum`` rounds each column's
    sum once, whatever the order of its terms.  The tail squares with
    ``**``, which rounds through libm pow and differs from ``c * c`` in
    about one case in a thousand, so it stays one Python expression per
    coefficient.
    """
    import numpy as np

    a = np.asarray(a, dtype=float)
    ratio = a / 2.0
    coeffs = np.empty((K + 2, a.size))
    coeffs[0] = c0
    coeffs[1] = c1
    coeffs[2:] = ratio
    np.multiply.accumulate(coeffs[1:], axis=0, out=coeffs[1:])
    head = coeffs[:-1]
    terms = head * head / np.arange(s, n * (K + 1) + s, n, dtype=float)[:, None]
    lower = [math.fsum(column) for column in terms.T.tolist()]
    last = n * (K + 1) + s
    upper = [
        partial + c ** 2 / ((1.0 - r * r) * last)
        for partial, c, r in zip(lower, coeffs[-1].tolist(), ratio.tolist())
    ]
    return lower, upper


def _exact_sum(
    a: Fraction, n: int, K: int, s: int, c0: Fraction, c1: Fraction
) -> Tuple[Fraction, Fraction, _Split]:
    """Exact lower and upper ends of the enclosure, reduced without a full-size gcd."""
    P, D = a.numerator ** 2, 4 * a.denominator ** 2  # x = (a/2)^2 = P / D
    powers = {1: (P, D)}  # length L -> (P^L, D^L), for this call only

    def power(length: int) -> Tuple[int, int]:
        pair = powers.get(length)
        if pair is None:
            (p1, d1), (p2, d2) = power(length // 2), power(length - length // 2)
            pair = powers[length] = (p1 * p2, d1 * d2)
        return pair

    def split(lo: int, hi: int) -> Tuple[int, int]:
        # For k in [lo, hi): sum P^(k-lo) D^(hi-1-k) / (n k + s) = N / M,
        # returned with M = prod (n k + s).
        if hi - lo <= SPLIT_LEAF:
            N, M, p = 0, 1, 1
            for k in range(lo, hi):
                m = n * k + s
                N, M, p = N * D * m + p * M, M * m, p * P
            return N, M
        mid = (lo + hi) // 2
        n1, m1 = split(lo, mid)
        n2, m2 = split(mid, hi)
        return n1 * power(hi - mid)[1] * m2 + n2 * power(mid - lo)[0] * m1, m1 * m2

    N, M = split(1, K + 1)
    P_K, D_K = power(K)
    big = D_K // D  # sum_{k=1..K} x^(k-1) / (n k + s) = N / (big M)
    u0, v0, u1, v1 = c0.numerator, c0.denominator, c1.numerator, c1.denominator
    weight = s * v0 * v0 * u1 * u1
    numerator = u0 * u0 * v1 * v1 * M * big + weight * N
    small = s * v0 * v0 * v1 * v1 * M  # the denominator is big * small
    # tail / c1^2 = x^K / ((1 - x) (n (K+1) + s)) = P_K M / (big M r)
    r = (D - P) * (n * (K + 1) + s)
    lower, lower_split = _lowest_terms(numerator, big, D, small)
    upper, upper_split = _lowest_terms(numerator * r + weight * P_K * M, big, D, small * r)
    return lower, upper, _Split(D, K - 1, big, lower_split, upper_split)


class _Split(NamedTuple):
    """How the two ends of an exact enclosure or gap were put in lowest terms.

    Both came from num / (big * small), with ``big`` = ``base`` **
    ``exponent``.  Each end's pair ``(cut, rest)`` gives its denominator
    as (big / cut) * rest: ``cut`` is the part of ``big`` that
    cancelled, ``rest`` the part of ``small`` that stayed.  A gap end
    that is 0 has no pair.  ``certificate`` reads ``base``, ``exponent``
    and the pairs to print each denominator.
    """

    base: int
    exponent: int
    big: int
    lower: Optional[Tuple[int, int]]
    upper: Optional[Tuple[int, int]]


def _lowest_terms(num: int, big: int, base: int, small: int) -> Tuple[Fraction, Tuple[int, int]]:
    """``Fraction(num, big * small)`` and its ``(cut, rest)`` (see ``_Split``).

    ``num`` is nonzero and ``big`` a power of ``base``.

    It takes no gcd of two full-size integers: ``big`` is long and
    ``small`` short.  The shared 2s come off by shifts.  The other primes
    of ``base`` come off by gcds of ``num`` with base^GCD_POWER, which is
    short, cut down to what ``big`` still holds; each round then tries
    the last common factor again, until none is left.  What remains of
    the gcd divides ``small``.
    """
    twos = min(_twos(num), _twos(big) + _twos(small))
    from_big = min(twos, _twos(big))
    num, big, small = num >> twos, big >> from_big, small >> (twos - from_big)
    cut = 1 << from_big
    g = math.gcd(num, base**GCD_POWER, big)
    while g > 1:
        num, big, cut = num // g, big // g, cut * g
        g = math.gcd(num, g, big)
    g = math.gcd(num, small)
    rest = small // g
    return Fraction(_Coprime(num // g, big * rest)), (cut, rest)


def _subtract(
    x: Fraction, x_split: Tuple[int, int], y: Fraction, y_split: Tuple[int, int],
    base: int, big: int,
) -> Tuple[Fraction, Optional[Tuple[int, int]]]:
    """``x - y`` and its ``(cut, rest)``, for two ends reduced from the
    same ``big``, a power of ``base``; no pair if x = y.

    With x's denominator (big / cx) * rx and y's (big / cy) * ry, the
    difference is t / (big * lcm(rx, ry)) and goes through ``_lowest_terms``.
    """
    (cx, rx), (cy, ry) = x_split, y_split
    g = math.gcd(rx, ry)
    t = x.numerator * cx * (ry // g) - y.numerator * cy * (rx // g)
    if not t:
        return Fraction(0), None
    return _lowest_terms(t, big, base, rx * (ry // g))


class _Coprime:
    """A numerator and a positive denominator with no common factor.

    ``Fraction(x)`` copies ``numerator`` and ``denominator`` from any
    ``numbers.Rational`` without taking their gcd, so a ``_Coprime``
    becomes a ``Fraction`` in lowest terms at no cost.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int) -> None:
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_Coprime)


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
