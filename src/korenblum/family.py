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
from typing import Union

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


def eval_abs_ratio(params: Params, z, zn):
    """|f(z)| / |g(z)| from z and a given zn = z^n, with 2 - a z^n formed once.

    With zn = z ** n, bit for bit abs(eval_f(params, z)) / abs(eval_g(params, z)).
    """
    a = params.a_float
    azn = a * zn
    den = 2.0 - azn
    return abs((a + zn) / den) / abs((1.0 + azn) * z / den)


def fraction_to_decimal(x: Fraction) -> str:
    """Render a rational exactly, as a finite decimal when one exists."""
    num, den = x.numerator, x.denominator
    twos = fives = 0
    d = den
    while d % 2 == 0:
        d //= 2
        twos += 1
    while d % 5 == 0:
        d //= 5
        fives += 1
    if d != 1:
        return f"{num}/{den}"
    digits = max(twos, fives)
    scaled = num * 10 ** digits // den
    if digits == 0:
        return str(scaled)
    sign = "-" if scaled < 0 else ""
    text = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
