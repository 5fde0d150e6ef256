"""Independent high-precision oracles for the test-suite.

The package derives Taylor coefficients by series algebra; this module
recovers them numerically instead, by sampling the generating functions

    F(w) = (a + w) / (2 - a w)        coefficients c_k of f at z^(n k)
    G(w) = (1 + a w) / (2 - a w)      coefficients d_k of g at z^(n k + 1)

on the circle |w| = 3/4 and projecting with a discrete Fourier sum in
50-digit arithmetic.  With 512 samples the aliasing error of bin m is
of order |coeff_{m+512}| * (3/4)^512, far below every comparison
tolerance used in the tests.

``exact_norm_sq`` is the exact counterpart for the norm enclosures: it
adds the K + 1 squared coefficients one ``Fraction`` at a time, each
with its Bergman weight, and adds the closed form tail at the end.
``float_norm_sq_loop`` is the float counterpart: one coefficient at a
time by the ratio a/2 recurrence, the rounding sequence that the array
pass of the series engine must reproduce bit for bit.
Nothing here shares code with the series engine.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, Tuple

from mpmath import mp


def mp_fraction(x: Fraction):
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


class TaylorOracle:
    """DFT extraction of Taylor coefficients of F or G at a given a."""

    def __init__(self, a: Fraction, kind: str, samples: int = 512, dps: int = 50):
        if kind not in ("f", "g"):
            raise ValueError(f"kind must be 'f' or 'g', got {kind!r}")
        self.samples = samples
        self.dps = dps
        with mp.workdps(dps):
            a_mp = mp_fraction(a)
            radius = mp.mpf(3) / 4
            if kind == "f":
                fn = lambda w: (a_mp + w) / (2 - a_mp * w)
            else:
                fn = lambda w: (1 + a_mp * w) / (2 - a_mp * w)
            # e^(2 pi i j / M) for j = 0..M-1, reused for every bin.
            self._radius = radius
            self._roots: List = [mp.expjpi(mp.mpf(2 * j) / samples) for j in range(samples)]
            self._values: List = [fn(radius * root) for root in self._roots]

    def coefficient(self, m: int):
        """Coefficient of w^m, as a 50-digit real."""
        if m < 0:
            raise ValueError("coefficient index must be nonnegative")
        M = self.samples
        with mp.workdps(self.dps):
            acc = mp.mpc(0)
            for j in range(M):
                # e^(-2 pi i m j / M) is the conjugate root at index (m*j) mod M
                acc += self._values[j] * mp.conj(self._roots[(m * j) % M])
            return (acc / M / self._radius ** m).real


def _exact_coefficient(a: Fraction, kind: str, k: int) -> Fraction:
    """Coefficient of z^(n k) in f or of z^(n k + 1) in g, closed form."""
    if kind == "f":
        return a / 2 if k == 0 else a ** (k - 1) * (a * a + 2) / 2 ** (k + 1)
    return Fraction(1, 2) if k == 0 else 3 * a ** k / 2 ** (k + 1)


def exact_norm_sq(a: Fraction, n: int, K: int, kind: str) -> Tuple[Fraction, Fraction]:
    """Term-by-term exact enclosure (lower, upper) of ||f||^2 or ||g||^2.

    The lower end sums c_k^2 / (exponent + 1) over k = 0..K; the upper
    end adds c_{K+1}^2 / ((1 - (a/2)^2) (n (K+1) + s)), where s is 1 for
    f and 2 for g.
    """
    if kind not in ("f", "g"):
        raise ValueError(f"kind must be 'f' or 'g', got {kind!r}")
    s = 1 if kind == "f" else 2
    lower = Fraction(0)
    for k in range(K + 1):
        c = _exact_coefficient(a, kind, k)
        lower += c * c / (n * k + s)
    nxt = _exact_coefficient(a, kind, K + 1)
    q = a / 2
    return lower, lower + nxt * nxt / ((1 - q * q) * (n * (K + 1) + s))


def float_norm_sq_loop(a: float, n: int, K: int, kind: str) -> Tuple[float, float]:
    """Float enclosure (lower, upper) of ||f||^2 or ||g||^2 by a scalar loop.

    Each coefficient is the previous one times a/2, the squared terms
    are summed by ``math.fsum`` and the tail is the closed form bound.
    """
    if kind not in ("f", "g"):
        raise ValueError(f"kind must be 'f' or 'g', got {kind!r}")
    if kind == "f":
        s, c0, c1 = 1, a / 2, (a * a + 2) / 4
    else:
        s, c0, c1 = 2, 0.5, 3 * a / 4
    ratio = a / 2.0
    coeffs = [c0]
    value = c1
    for _ in range(K + 1):
        coeffs.append(value)
        value *= ratio
    partial = math.fsum(coeffs[k] * coeffs[k] / (n * k + s) for k in range(K + 1))
    tail = coeffs[K + 1] ** 2 / ((1.0 - ratio * ratio) * (n * (K + 1) + s))
    return partial, partial + tail


def relative_gap(value, target) -> float:
    """|value - target| / |target| in high precision, as a float."""
    with mp.workdps(60):
        t = mp.mpf(target) if not isinstance(target, Fraction) else mp_fraction(target)
        v = mp.mpf(value) if not isinstance(value, Fraction) else mp_fraction(value)
        if t == 0:
            return float(abs(v))
        return float(abs(v - t) / abs(t))
