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


def eval_abs_ratio(params: Params, z, zn, workspace=None):
    """|f(z)| / |g(z)| from z and a given zn = z^n, with 2 - a z^n formed once.

    With zn = z ** n, bit for bit abs(eval_f(params, z)) / abs(eval_g(params, z))
    on the arrays that the domination grid passes, rows of N >= 16
    samples; the tests check rows of 2, 3 and 17 samples too.  Not for a
    Python complex scalar or a one-element array: at w = 0.8 + 0.1j,
    a = 0.6666714 the last bits differ for 13 of n = 2..20 as a scalar
    and for 5 of them as an array [w].

    Each step is one ufunc of |(a + z^n) / (2 - a z^n)| / |(1 + a z^n) z /
    (2 - a z^n)| in that order, written into ``workspace``: five arrays of
    the broadcast shape of z and zn, three complex ones (a z^n, 2 - a z^n,
    scratch) and two real ones.  The ratio is returned in the fourth.
    Without ``workspace`` the five arrays are allocated.

    zn may also be one period wide: its last axis P divides z's last
    axis N, and column j of z^n is zn[..., j mod P].  Then the steps that
    read z^n alone (a z^n, 2 - a z^n, |f| and 1 + a z^n) run on P
    columns, in tables at the front of workspace arrays that are free
    until later (two in the a z^n array, one in the scratch array and
    one in the second real array), and 2 - a z^n, |f| and 1 + a z^n are
    copied to every repeat.  Every value goes through the same ufuncs,
    with the same operands, as in the full-width call, so the bits do
    not depend on the period.  The workspace is the same five arrays,
    of the full shape.
    """
    import numpy as np

    z_shape, zn_shape = getattr(z, "shape", ()), getattr(zn, "shape", ())
    reps = z_shape[-1] // zn_shape[-1] if z_shape and zn_shape else 1
    if reps > 1:
        p = zn_shape[-1]
        if reps * p != z_shape[-1]:
            raise ValueError(f"z^n is {p} wide, which does not divide z's {z_shape[-1]}")
        zn_shape = zn_shape[:-1] + z_shape[-1:]
    if workspace is None:
        shape = np.broadcast_shapes(z_shape, zn_shape)
        workspace = tuple(np.empty(shape, t) for t in (complex,) * 3 + (float,) * 2)
    a = params.a_float
    azn, den, scratch, ratio, abs_g = workspace
    if reps > 1:
        # No copy lands on these tables: the full a z^n is never needed,
        # and scratch and abs_g are written whole only after the copies
        # that read them.
        cells, table = den.size // reps, den.shape[:-1] + (p,)
        azn, den_p = azn.reshape(-1)[:2 * cells].reshape((2,) + table)
        g_p = scratch.reshape(-1)[:cells].reshape(table)
        ratio_p = abs_g.reshape(-1)[:cells].reshape(table)
        tiled = den.shape[:-1] + (reps, p)
    else:
        den_p, g_p, ratio_p = den, scratch, ratio
    np.multiply(a, zn, out=azn)
    np.subtract(2.0, azn, out=den_p)
    np.add(a, zn, out=g_p)
    np.divide(g_p, den_p, out=g_p)
    np.abs(g_p, out=ratio_p)
    if reps > 1:
        np.copyto(den.reshape(tiled), den_p[..., None, :])
        np.copyto(ratio.reshape(tiled), ratio_p[..., None, :])
        # 1 + a z^n goes where 2 - a z^n was, now copied in full.
        g_p = den_p
    np.add(1.0, azn, out=g_p)
    if reps > 1:
        np.copyto(scratch.reshape(tiled), g_p[..., None, :])
    np.multiply(scratch, z, out=scratch)
    np.divide(scratch, den, out=scratch)
    np.abs(scratch, out=abs_g)
    return np.divide(ratio, abs_g, out=ratio)


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
