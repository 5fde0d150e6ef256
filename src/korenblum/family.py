"""Parameters and evaluation of the competing pair of disk functions.

The pair under study is

    f(z) = (a + z^n) / (2 - a z^n)
    g(z) = z (1 + a z^n) / (2 - a z^n)

for a coefficient ``a`` in [0, 1) and an integer frequency ``n >= 1``.
The shared denominator vanishes only at |z| = (2/a)^(1/n) > 1, and the
zeros of g other than the origin sit at |z| = (1/a)^(1/n) > 1, so both
functions are analytic on the closed unit disk and the quotient f/g is
analytic on any annulus c <= |z| <= 1 with c > 0.

``Params`` deliberately accepts the degenerate edges a = 0 and n = 1,
which are useful as exactly solvable sanity cases.  The layers that
certify an actual bound (search, CLI) insist on 0 < a < 1 and n >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

Coefficient = Union[Fraction, int, float, str]

# Parameter pair certifying the 0.677905 radius (n = 10 family member).
REFERENCE_A = "0.6666714"
REFERENCE_N = 10


def as_fraction(value: Coefficient) -> Fraction:
    """Convert a user supplied coefficient to an exact rational.

    Strings are parsed as exact decimals ("0.6666714" -> 6666714/10^7).
    Floats go through their shortest repr, so 0.1 becomes 1/10 rather
    than the 53-bit binary neighbour.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        return Fraction(str(value))
    return Fraction(value)


@dataclass(frozen=True)
class Params:
    """Coefficient a (exact rational) and frequency n of the pair."""

    a: Fraction
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_fraction(self.a))
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise ValueError("n must be an integer")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 0 <= self.a < 1:
            raise ValueError(f"a must lie in [0, 1), got {self.a}")

    @property
    def a_float(self) -> float:
        return float(self.a)

    def describe(self) -> str:
        return f"a={fraction_to_decimal(self.a)}, n={self.n}"


def reference_params() -> Params:
    return Params(Fraction(REFERENCE_A), REFERENCE_N)


def eval_f(params: Params, z):
    """Evaluate f(z) = (a + z^n) / (2 - a z^n).

    Plain arithmetic only, so z may be a float, a complex number or a
    numpy array; the coefficient is used in double precision.
    """
    a = params.a_float
    zn = z ** params.n
    return (a + zn) / (2.0 - a * zn)


def eval_g(params: Params, z):
    """Evaluate g(z) = z (1 + a z^n) / (2 - a z^n).

    The product is written (1 + a z^n) * z because complex
    multiplication is not bitwise commutative: for large arrays numpy
    reuses the temporary 1 + a z^n and evaluates z * (1 + a z^n) in that
    order anyway, so only this order gives the same bits at every size.
    """
    a = params.a_float
    zn = z ** params.n
    return (1.0 + a * zn) * z / (2.0 - a * zn)


def fraction_to_decimal(x: Fraction) -> str:
    """Render a rational exactly, as a finite decimal when one exists."""
    num, den = x.numerator, x.denominator
    twos, fives, odd = _valuations(den)
    if odd != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * 10 ** digits // den
    if digits == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"


# 5^(2^j) for j = 0..13; ``_fives`` squares further for an integer with more than 16383 5s.
_FIVE_POWERS = tuple(5 ** (1 << j) for j in range(14))


def _twos(x: int) -> int:
    """Exponent of 2 in a nonzero integer."""
    return (x & -x).bit_length() - 1


def _fives(x: int, limit: Optional[int] = None) -> Tuple[int, int]:
    """Exponent e of 5 in a nonzero integer, or ``limit`` if e is larger,
    and x without that many 5s.

    The powers 5^(2^j) are divided out by binary descent over j, from the
    largest j that the count could reach.  The count is at most ``limit``,
    at most the bound that the length of x sets (5^e <= |x| < 2^b gives
    e < 7 b / 16), and with no ``limit``, below 64 if 5^64 does not divide
    x.  So an integer with few 5s takes only short divisions, and one with
    many takes each long division once.
    """
    bound = x.bit_length() * 7 // 16
    if limit is None:
        limit = 63 if x % _FIVE_POWERS[6] else bound
    limit = min(limit, bound)
    top = limit.bit_length()
    powers = _FIVE_POWERS
    while len(powers) < top:
        powers += (powers[-1] ** 2,)
    count = 0
    for j in reversed(range(top)):
        if count + (1 << j) <= limit:
            quotient, remainder = divmod(x, powers[j])
            if not remainder:
                x, count = quotient, count + (1 << j)
    return count, x


def _valuations(x: int) -> Tuple[int, int, int]:
    """Exponents of 2 and 5 in a nonzero integer, and its part prime to 10."""
    twos = _twos(x)
    fives, rest = _fives(x >> twos)
    return twos, fives, rest


def _decimal_form(twos: int, fives: int, odd: int) -> Tuple[int, int]:
    """``(head, zeros)`` with head * 10^zeros = 2^twos 5^fives odd, for an odd ``odd``.

    zeros = min(twos, fives).  head is not a multiple of 10 if ``odd`` is
    prime to 5 or if fives >= twos.
    """
    if fives > twos:
        return odd * 5 ** (fives - twos), twos
    return odd << (twos - fives), fives
