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
``mp_norm_sq`` sums the same closed-form coefficients in mpmath to full
working precision, for checks of the quadrature against the true norm.
``mp_abs_ratio`` evaluates |f|/|g| in 50-digit complex arithmetic at
given doubles, for checks of the domination grid's real components.
``trapezoid_circle_mean`` is the N-point trapezoid mean over the angle
of |f|^2 and |g|^2 / r^2 as functions of r^n and cos(n theta), and
``tensor_norm_sq`` the two-dimensional rule built on it (Gauss-Legendre
in the radius), for checks of the quadrature's closed-form circle mean.
``bisect_oracle`` is the plain bisection of the sign change of delta(a),
one scalar ``delta_of_a`` call per midpoint, for checks of the batched
rounds of ``search.critical_a``.
Apart from ``bisect_oracle``, which calls ``search.delta_of_a`` and
checks only the loop around it, nothing here shares code with the
series engine.
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


def mp_norm_sq(a: Fraction, n: int, kind: str, dps: int = 40):
    """||f||^2 or ||g||^2 as a ``dps``-digit mpmath real.

    The terms fall at least like 4^-k, so 2 dps terms leave a truncation
    error far below the working precision.
    """
    s = 1 if kind == "f" else 2
    with mp.workdps(dps):
        return mp.fsum(
            mp_fraction(_exact_coefficient(a, kind, k)) ** 2 / (n * k + s)
            for k in range(2 * dps)
        )


def mp_abs_ratio(a: float, zx: float, zy: float, x: float, y: float, dps: int = 50) -> float:
    """|f(z)| / |g(z)| at z = zx + i zy with z^n = x + i y, as a float.

    The inputs are taken as the exact doubles they are, and f and g are
    formed as complex quotients, (a + w) / (2 - a w) and z (1 + a w) /
    (2 - a w) with w = x + i y.
    """
    with mp.workdps(dps):
        a, z, w = mp.mpf(a), mp.mpc(zx, zy), mp.mpc(x, y)
        f = (a + w) / (2 - a * w)
        g = z * (1 + a * w) / (2 - a * w)
        return float(abs(f) / abs(g))


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


def grid_oracle(params, c: float, radial_samples: int, angular_samples: int):
    """(grid_max_ratio, angular_peak_offset) of the domination grid, from every cell.

    Takes ``domination.grid_ratio_sq`` on the whole grid at once, with
    no screen and no blocks, and applies the rule of
    ``verify_domination``: the largest ratio, and over the rows the
    largest distance, in grid steps, from the nearest angle with
    n theta = 0 (mod 2 pi) of the nearest sample within a relative
    1e-13 of its row's maximum (inf for a row with a NaN).  The formula
    is the package's; this checks the loop that reduces it.
    """
    import numpy as np

    from korenblum.domination import grid_ratio_sq

    radii = np.linspace(c, 1.0, radial_samples)
    ratio = np.sqrt(grid_ratio_sq(params, radii, angular_samples))
    row_max = ratio.max(axis=1)
    k = params.n * np.arange(angular_samples) % angular_samples
    dist = np.minimum(k, angular_samples - k) / params.n
    near = ratio >= (row_max * (1.0 - 1e-13))[:, None]
    return float(row_max.max()), float(np.where(near, dist, np.inf).min(axis=1).max())


def circle_kernel(a: float, which: str, rho, cos_phi):
    """|f|^2, or |g|^2 / r^2, at rho = r^n and cos_phi = cos(n theta), in floats."""
    cross = 2.0 * a * rho * cos_phi
    num = (a * a + cross + rho * rho) if which == "f" else (1.0 + cross + (a * rho) ** 2)
    return num / (4.0 - 2.0 * cross + (a * rho) ** 2)


# Angular nodes of the trapezoid oracle.
TRAPEZOID_NODES = 256


def trapezoid_circle_mean(a: float, which: str, rho):
    """Mean of ``circle_kernel`` over phi_k = 2 pi k / N, k = 0..N-1, for each rho.

    The kernel is periodic and analytic in phi, with its nearest pole at
    cos phi >= 5/4 for 0 <= a, rho <= 1, so the error falls like 2^-N and
    is below rounding at N = TRAPEZOID_NODES = 256 (Trefethen and
    Weideman, SIAM Review 2014).
    """
    import numpy as np

    cos_phi = np.cos((2.0 * np.pi / TRAPEZOID_NODES) * np.arange(TRAPEZOID_NODES))
    return circle_kernel(a, which, np.asarray(rho, dtype=float)[..., None], cos_phi).mean(axis=-1)


def tensor_norm_sq(params, which: str, radial_nodes: int, coords: str) -> float:
    """||f||^2 or ||g||^2 by Gauss-Legendre in the radius times the trapezoid rule in phi.

    ``original``: 2 int_0^1 mean(r^n) r dr, with r^3 in place of r for g.
    ``substituted`` (u = r^2): int_0^1 mean(u^(n/2)) du, with u du for g.
    """
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(radial_nodes)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    a, n = params.a_float, params.n
    if coords == "original":
        values = 2.0 * trapezoid_circle_mean(a, which, u ** n)
        values *= u if which == "f" else u ** 3
    else:
        values = trapezoid_circle_mean(a, which, u ** (n / 2.0))
        if which == "g":
            values *= u
    return float(np.dot(w, values))


def bisect_oracle(n: int, bracket: Tuple[float, float]):
    """``search.critical_a`` as one scalar ``delta_of_a`` call per midpoint.

    Reads ``search.delta_of_a`` at call time, so a stand-in patched there
    is used too.  Returns the same ``CriticalPoint`` and raises the same
    exceptions, with the same messages, as ``critical_a`` must.
    """
    from korenblum import search

    def sign(a: float) -> int:
        d = search.delta_of_a(n, a)
        if d.delta_lower > 0:
            return 1
        if d.delta_upper < 0:
            return -1
        raise search.AmbiguousSign(
            f"float enclosure of delta does not exclude zero at a = {a!r}, n = {n}"
        )

    a_lo, a_hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < a_lo < a_hi < 1.0:
        raise ValueError(f"bracket must satisfy 0 < lo < hi < 1, got {bracket}")
    s_lo = sign(a_lo)
    s_hi = sign(a_hi)
    if s_lo == s_hi:
        raise search.InvalidBracket(
            f"float estimates of delta have sign {s_lo:+d} at both ends of {bracket} "
            f"for n = {n}"
        )
    while a_hi - a_lo > search.BRACKET_TOL:
        mid = 0.5 * (a_lo + a_hi)
        if sign(mid) == s_lo:
            a_lo = mid
        else:
            a_hi = mid
    return search.CriticalPoint(
        n=n, a_star=0.5 * (a_lo + a_hi), bracket=(a_lo, a_hi), rising=s_lo < 0
    )
