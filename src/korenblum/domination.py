"""Critical radius and hypothesis checks for annulus domination.

On the circle |z| = r the quotient satisfies

    |f/g|^2 = (a^2 + 2 a r^n t + r^(2n)) / (r^2 (1 + 2 a r^n t + a^2 r^(2n)))

with t = cos(n theta).  The derivative of the right-hand side in t has
the sign of 2 a r^n (1 - a^2) (1 - r^(2n)) >= 0, so the maximum over the
circle is attained at t = 1, where z^n is real positive.  That gives the
closed form angular envelope

    h(r) = max_{|z|=r} |f(z)/g(z)| = (a + r^n) / (r (1 + a r^n)).

h(1) = 1 identically, and the interior crossing of h(r) = 1 is the
critical radius c.  Clearing denominators, c is the root in (0, 1) of

    p(r) = r + a r^(n+1) - a - r^n,

a polynomial that always has the uninteresting root r = 1.  On the
annulus c <= |z| <= 1 the quotient f/g is analytic (the only zero of g
inside the disk is z = 0), |f/g| <= 1 on both boundary circles, and the
maximum principle extends the domination |f| <= |g| to the interior.

Lemma: p has exactly one root in (0, 1) iff 0 < (n + 1) a < n - 1.
The deflated q(r) = p(r) / (r - 1) has the coefficients (a, a - 1, ...,
a - 1, a).  For 0 < a < 1 they change sign twice, so by Descartes' rule
q has 0 or 2 positive roots counted with multiplicity; they are
palindromic, so the roots pair as r and 1/r, and q has at most one root
in (0, 1).  It has one when q(0) = a > 0 > q(1) = (n + 1) a - (n - 1).
If q(1) = 0, then q'(1) = n q(1) / 2 = 0 and r = 1 is a double root that
uses up both.  If q(1) > 0, the roots in (0, 1) are even in number and
with their mirror images would exceed two.  Under the condition p < 0
below the root and p > 0 between it and 1, so the sign of p at one
rational point tells on which side of the root that point lies.

critical_root reads those signs exactly, so its c lies at or above the
true root.  The rest is not taken on faith either: the envelope
maximality, the boundary identities, the pole and zero locations and
the pointwise domination are all sampled on grids and reported, with
violations raised as exceptions rather than absorbed.

The domination grid samples |f|/|g| at z = r e^(i theta_j), theta_j =
2 pi j / N, in real components.  With z = zx + i zy and z^n = x + i y,

    |f|^2 = ((a + x)^2 + y^2) / ((2 - a x)^2 + (a y)^2),
    |g|^2 = ((1 + a x)^2 + (a y)^2) / ((2 - a x)^2 + (a y)^2) (zx^2 + zy^2).

z^n = r^n (cos theta_k, sin theta_k) with k = n j mod N reduced exactly,
so it is accurate at every n.  k has period P = N / gcd(n, N), so the
terms in z^n alone are formed on P columns and broadcast over the N / P
repeats; zx = r cos theta_j and zy = r sin theta_j give |z|^2 at every
sample.  f and g are thus sampled, not the t = cos(n theta) form of the
envelope, so the grid is evidence independent of it.  sqrt is correctly
rounded and monotone, so the square root of a row's largest |f|^2/|g|^2
is the row's largest ratio.  r^n is a fixed chain of multiplies, not **,
and the cosines and sines come from math.cos and math.sin once per N, so
the grid uses only real +, -, *, / and sqrt, which IEEE 754 rounds
correctly: its bits are the same on every SIMD target of numpy, whose
complex multiply, complex abs, ** and trig loops round per target.  The
screen below adds only comparisons, maxima, slices and index gathers,
which every target computes alike.

Most cells cannot hold their row's maximum, and the grid skips most of
them.  The cells j = k + m P of a row share the numerators num_f =
(a + x)^2 + y^2 and num_g = (1 + a x)^2 + (a y)^2 of reduced column k,
so a block of rows first forms q = num_f / num_g on the P columns.
With u = 2^-53, the ratio_sq that the grid computes at every cell of
column k is

    ratio_sq = q / r^2 (1 + d),  |d| <= 13 u + O(u^2) < 14 u.

Five roundings separate ratio_sq from q / |z|^2: num_f / den, num_g /
den, their product with |z|^2, the quotient, and q's own divide; den is
the same double in both divides and cancels.  And |z|^2 = zx^2 + zy^2 =
r^2 (1 + e) with |e| <= 8 u + O(u^2): math.cos and math.sin are within
one ulp (2 u), as glibc's are, the products with r add u, squaring
doubles both, the sum adds u, and cos^2 + sin^2 = 1 holds exactly for
the rounded angle.  Over the 17 certified pairs at N = 1024, 300 and
301, the largest |e| is 4.3 u and the largest |d| 6.3 u.

A row whose q at every k > 0 lies below q_max (1 - GRID_SCREEN_CUT),
q_max its largest q, is alone: its q_max lies at k = 0, and only the
N / P repeats of k = 0 are evaluated.  A cell of any other column has
ratio_sq < q_max (1 - 1e-12)(1 + 16 u) / r^2, counting the rounding of
the cut, while the cells of k = 0 have ratio_sq >= q_max (1 - 14 u) /
r^2.  So every skipped cell lies below the row's maximum by more than a
relative 0.99e-12, and its ratio by more than 4.9e-13: below the 1e-13
peak band with a margin of 3.9e-13, some 3500 u.  An alone row's
maximum and band thus lie in column 0, and its maximum, the maximum
over k = 0 and the band are the whole row's, bit for bit; its offset
is 0.  A cut of 30 u would already keep the row maximum, and one of
2.1e-13 the band; 1e-12 leaves a margin over both.  The screen reads
only the grid's own sampled numerators, no closed form and not h(r),
so the grid stays independent evidence.

Every other row is evaluated in full, at all N angles.  That is a row
whose maximum may lie off k = 0: a flat row, as at r = 1, where |f/g|
is 1 on the whole circle, or at large n, where r^n is negligible, and
a near tie away from k = 0, which the 17 pairs do not produce.  The
bound is relative, so it holds only away from the subnormal range: at
large n, r^n underflows, and with a tiny or zero a, q is subnormal, its
rounding is absolute, and a row's q can differ from column to column
by more than the cut though the row is flat.  So a row is not alone
when q_max or r^2 is below 2^-800 (above it every quantity of the
argument is normal for a < 1, and a subnormal cell errs by under
2^-960, far below the cut), nor when q_max is NaN or inf, as it is
whenever a NaN or inf lies among the row's P-wide values, since num_g
overflows only with num_f for |a| < 1.  On the 17 pairs every row but
r = 1 is alone, because the envelope lemma puts the peak at t = 1.

The q screen runs on blocks of about GRID_BLOCK_CELLS P-wide values.
Each call allocates four block buffers once, and every block forms its
numerators and q in them with the same sequence of real operations as
grid_ratio_sq, so the screen makes no other block-sized array.  The
alone rows, then the others, are evaluated in chunks of about as many
cells, so the whole grid is never held in memory: a 256x1024 grid peaks
near 390 KiB, 450 KiB at n = 16 (tracemalloc).  The bits depend neither
on the block height nor on the period.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

# numpy is imported inside the functions that use it, so exact-only commands never load it.

from .family import Params
# Not called here; kept so that ``domination.eval_f`` and
# ``domination.eval_g`` stay names that bench/tracing.py can wrap.
from .family import eval_f, eval_g  # noqa: F401

Radius = Union[Fraction, int, float]

# Float residual |p(c)| that critical_root checks of its exact answer.
ROOT_TOL = 1e-14
# h(c) must lie this close to 1 for c to count as the critical radius.
BOUNDARY_TOL = 1e-9
# A domination grid sample fails when |f|/|g| exceeds 1 + GRID_TOL.
GRID_TOL = 1e-12
# Blocks of the domination grid.  The screen runs on max(1,
# GRID_BLOCK_CELLS // P) radii at a time, in four P-wide buffers of about
# 8192 doubles, 64 KiB each: 8 rows at odd n and N = 1024, 16 at n = 10,
# 128 at n = 16.  Rows are evaluated in chunks of as many cells: 8 rows at
# all 1024 angles.  Over the 17 default grids, blocks of 2048, 4096, 8192,
# 16384 and 32768 cells took 2.20, 1.66, 1.48, 1.36 and 1.07 ms per grid
# (median of five runs on a shared 2-core VM), and one grid at n = 17
# peaked at 183, 247, 389, 645 and 1158 KiB (tracemalloc).
GRID_BLOCK_CELLS = 8192
# A row whose q lies below this share of its largest at every reduced
# column but k = 0 is evaluated at k = 0 alone (module docstring).
GRID_SCREEN_CUT = 1e-12


class NoInteriorRoot(ArithmeticError):
    """The envelope equation h(r) = 1 has no root in (0, 1)."""


class DominationViolated(AssertionError):
    """A sampled point on the annulus has |f| > |g| beyond tolerance."""


class HypothesisViolated(AssertionError):
    """A structural hypothesis (boundary identity, pole/zero location) failed."""


def ratio_envelope(params: Params, r: Radius):
    """Angular maximum h(r) of |f/g| on the circle |z| = r.

    Exact rational inputs (Fraction or int) are evaluated in rational
    arithmetic, floats in double precision.  Only 0 < r <= 1 makes
    sense: h has a pole at r = 0 and the envelope derivation assumes
    the closed disk.
    """
    if r <= 0 or r > 1:
        raise ValueError(f"radius must lie in (0, 1], got {r}")
    exact = isinstance(r, (Fraction, int))
    a = params.a if exact else params.a_float
    rn = r ** params.n
    return (a + rn) / (r * (1 + a * rn))


def critical_polynomial(params: Params, r):
    """p(r) = r + a r^(n+1) - a - r^n; p < 0 iff h(r) > 1.

    Accepts Fractions, floats or numpy arrays, with the coefficient
    matched to the input kind.
    """
    n = params.n
    a = params.a if isinstance(r, (Fraction, int)) else params.a_float
    return r + a * r ** (n + 1) - a - r ** n


def critical_root(params: Params) -> float:
    """Smallest double c at or above the interior root of p, so h(c) <= 1.

    Raises NoInteriorRoot unless 0 < (n + 1) a < n - 1 (the lemma in the
    module docstring), or when the root lies within one ulp of 1.
    Otherwise bisects [0, 1] on double midpoints, reading every sign of
    p exactly in integers, until the bracket holds two neighbouring
    doubles; the answer is the upper one, where p >= 0 exactly.  Raises
    ArithmeticError if the float residual |p(c)| is not below ROOT_TOL.
    """
    n, a = params.n, params.a
    if not 0 < (n + 1) * a < n - 1:
        raise NoInteriorRoot(
            f"h(r) = 1 has no root in (0, 1) for {params.describe()}"
        )
    u, v = a.numerator, a.denominator
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        # p(r) = (r - a) - r^n (1 - a r) at r = m / 2^k, times v 2^(k (n+1)).
        m, d = mid.as_integer_ratio()
        k = d.bit_length() - 1
        if (v * m - (u << k) << k * n) >= m ** n * ((v << k) - u * m):
            hi = mid
        else:
            lo = mid
    if hi == 1.0:
        raise NoInteriorRoot(
            f"the root of h(r) = 1 in (0, 1) lies within one ulp of 1 "
            f"for {params.describe()}"
        )
    residual = abs(critical_polynomial(params, hi))
    if not residual < ROOT_TOL:
        raise ArithmeticError(
            f"|p(c)| = {residual!r} at c = {hi!r} is not below {ROOT_TOL:g} "
            f"for {params.describe()}"
        )
    return hi


def pole_zero_radii(params: Params) -> Tuple[float, float]:
    """Moduli of the nearest denominator zero and the nonzero zeros of g.

    The denominator 2 - a z^n vanishes at |z| = (2/a)^(1/n); the factor
    1 + a z^n of g vanishes at |z| = (1/a)^(1/n).  Both are infinite at
    a = 0.  The domination argument needs both radii > 1, which holds
    for every a < 1.
    """
    if params.a == 0:
        return float("inf"), float("inf")
    a = params.a_float
    return (2.0 / a) ** (1.0 / params.n), (1.0 / a) ** (1.0 / params.n)


@dataclass(frozen=True)
class DominationReport:
    """Sampled evidence for |f| <= |g| on the annulus c <= |z| <= 1."""

    params: Params
    c: float
    h_at_c: float
    h_at_1: float
    h_at_1_exact: bool
    pole_radius: float
    zero_radius: float
    grid_max_ratio: float
    angular_peak_offset: float
    radial_samples: int
    angular_samples: int
    tol: float
    verdict: str


def verify_domination(
    params: Params,
    c: float,
    radial_samples: int = 256,
    angular_samples: int = 1024,
) -> DominationReport:
    """Check the domination hypotheses on a polar grid of the annulus.

    Raises HypothesisViolated if a pole or zero radius fails to clear
    the unit circle or if h(c) is not within BOUNDARY_TOL of 1, that is
    if c is not the critical radius; raises DominationViolated if any
    grid sample has |f|/|g| > 1 + GRID_TOL.

    The report also records how far each radius's angular maximum sits
    from the nearest angle with n*theta = 0 (mod 2 pi), measured in
    angular grid steps; the verdict fails if any maximum strays by more
    than one step.
    """
    if not 0.0 < c < 1.0:
        raise ValueError(f"inner radius must lie in (0, 1), got {c}")
    if radial_samples < 16 or angular_samples < 16:
        raise ValueError("need at least 16 samples in each direction")

    pole_radius, zero_radius = pole_zero_radii(params)
    if min(pole_radius, zero_radius) <= 1.0:
        raise HypothesisViolated(
            f"pole radius {pole_radius:.6f} or zero radius {zero_radius:.6f} "
            "does not clear the closed unit disk"
        )

    h_at_1_exact = ratio_envelope(params, Fraction(1)) == 1
    if not h_at_1_exact:
        raise HypothesisViolated("h(1) != 1 in exact arithmetic")
    h_at_c = float(ratio_envelope(params, float(c)))
    if abs(h_at_c - 1.0) > BOUNDARY_TOL:
        raise HypothesisViolated(
            f"h(c) = {h_at_c!r} is not within {BOUNDARY_TOL:g} of 1; "
            "is c the critical radius?"
        )

    grid_max, peak_offset = _sample_grid(params, c, radial_samples, angular_samples)
    verdict = "pass" if peak_offset <= 1.0 + 1e-9 else "fail"

    return DominationReport(
        params=params,
        c=float(c),
        h_at_c=h_at_c,
        h_at_1=1.0,
        h_at_1_exact=bool(h_at_1_exact),
        pole_radius=pole_radius,
        zero_radius=zero_radius,
        grid_max_ratio=grid_max,
        angular_peak_offset=peak_offset,
        radial_samples=radial_samples,
        angular_samples=angular_samples,
        tol=GRID_TOL,
        verdict=verdict,
    )


@functools.lru_cache(maxsize=16)
def _angle_tables(angular_samples: int):
    """theta_j = 2 pi j / N and its cosines and sines, read-only.

    The cosines and sines come from math.cos and math.sin, which do not
    depend on numpy's SIMD target.
    """
    import numpy as np

    theta = np.linspace(0.0, 2.0 * np.pi, angular_samples, endpoint=False)
    tables = theta, np.array([math.cos(t) for t in theta]), np.array([math.sin(t) for t in theta])
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=64)
def _power_angle_tables(angular_samples: int, n: int):
    """cos and sin of n theta_j = theta_k, k = n j mod N, for j < N / gcd(n, N); read-only."""
    _, cos, sin = _angle_tables(angular_samples)
    k = [n * j % angular_samples for j in range(angular_samples // math.gcd(n, angular_samples))]
    tables = cos[k], sin[k]
    for table in tables:
        table.flags.writeable = False
    return tables


def _power(x, n: int):
    """x^n by binary powering: a fixed chain of real multiplies."""
    result = None
    while n:
        if n & 1:
            result = x if result is None else result * x
        x, n = x * x, n >> 1
    return result


def _power_terms(a: float, rn, cos_n, sin_n, out):
    """The terms of |f|^2 and |g|^2 that read z^n = x + i y = rn (cos_n + i sin_n) alone.

    Writes into the four arrays of out, each of the broadcast shape of rn
    and cos_n, and returns them: (a + x)^2 + y^2 and (1 + a x)^2 + (a y)^2,
    the numerators of |f|^2 and |g|^2 / |z|^2, then a x and (a y)^2, which
    make their common denominator (2 - a x)^2 + (a y)^2.  Every value is
    one fixed sequence of real operations on its own rn, cos_n and sin_n.
    """
    import numpy as np

    x, y, f, g = out
    np.multiply(rn, cos_n, out=x)
    np.multiply(rn, sin_n, out=y)
    np.multiply(y, y, out=f)
    np.multiply(y, a, out=g)
    np.multiply(g, g, out=g)
    np.add(x, a, out=y)
    np.multiply(y, y, out=y)
    np.add(y, f, out=f)
    np.multiply(x, a, out=x)
    np.add(x, 1.0, out=y)
    np.multiply(y, y, out=y)
    np.add(y, g, out=y)
    return f, y, x, g


def grid_ratio_sq(params: Params, radii, angular_samples: int, columns=slice(None)):
    """|f|^2 / |g|^2 at z = r e^(i theta_j) for each radius r and the selected angles.

    columns, a slice of the P reduced columns k, selects the angles
    j = m P + k at all their N / P repeats m.  Returns an array of shape
    (len(radii), N / P * len(k)), each row in increasing j, whose every
    value, and so every bit, is a function of its own r and j alone, in
    real arithmetic (module docstring).  The default is all N angles.
    """
    import numpy as np

    _, cos, sin = _angle_tables(angular_samples)
    cos_n, sin_n = _power_angle_tables(angular_samples, params.n)
    period = len(cos_n)
    # The z^n terms run on the selected reduced columns k and broadcast
    # over the repeats m, the middle axis.
    cos_k, sin_k = cos_n[columns], sin_n[columns]
    num_f, num_g, ax, ay_sq = _power_terms(
        params.a_float, _power(radii, params.n)[:, None, None], cos_k, sin_k,
        np.empty((4, len(radii), 1, len(cos_k))),
    )
    den_re = 2.0 - ax
    den = den_re * den_re + ay_sq
    f_sq, g_sq = num_f / den, num_g / den
    r = radii[:, None, None]
    zx = r * cos.reshape(-1, period)[:, columns]
    zy = r * sin.reshape(-1, period)[:, columns]
    ratio_sq = f_sq / (g_sq * (zx * zx + zy * zy))
    return ratio_sq.reshape(len(radii), -1)


def _sample_grid(params: Params, c: float, radial_samples: int, angular_samples: int):
    """Largest |f|/|g| on the grid and the angular peak offset.

    Raises DominationViolated if the largest ratio exceeds 1 + GRID_TOL.
    """
    import numpy as np

    theta, _, _ = _angle_tables(angular_samples)
    cos_n, sin_n = _power_angle_tables(angular_samples, params.n)
    period = len(cos_n)
    repeats = angular_samples // period
    radii = np.linspace(c, 1.0, radial_samples)

    def row_ratio(i):
        # One row by itself; the same bits as in its chunk.
        return np.sqrt(grid_ratio_sq(params, radii[i:i + 1], angular_samples)[0])

    block_rows = max(1, GRID_BLOCK_CELLS // period)
    # The screen's four block buffers, in one allocation per call; every
    # block forms its numerators and q in them.  Four 64 KiB allocations
    # would, once freed, leave more than glibc's 128 KiB trim threshold at
    # the heap top, which the next grid faults in again (64 minor faults per
    # 256x1024 grid at n = 17); freeing one 256 KiB block raises glibc's
    # thresholds above its size, so later grids reuse the heap.
    buffers = np.empty((4, min(block_rows, radial_samples), period))
    alone = np.empty(radial_samples, dtype=bool)
    for start in range(0, radial_samples, block_rows):
        block = radii[start:start + block_rows]
        num_f, num_g, _, _ = _power_terms(
            params.a_float, _power(block, params.n)[:, None], cos_n, sin_n,
            buffers[:, :len(block)],
        )
        q = np.divide(num_f, num_g, out=num_f)
        rest = np.maximum.reduce(q[:, 1:], axis=1, initial=-np.inf)
        q_max = np.maximum(q[:, 0], rest)
        # A NaN or inf anywhere in a row's P-wide values reaches q_max, and a
        # row near the subnormal range is outside the error bound: both are
        # evaluated in full, like a row whose maximum may lie off k = 0.
        alone[start:start + block_rows] = (
            (rest < q_max * (1.0 - GRID_SCREEN_CUT))
            & np.isfinite(q_max)
            & (np.minimum(q_max, block * block) >= 2.0**-800)
        )

    # Alone rows at k = 0, the columns with n*theta = 0 (mod 2 pi), and the
    # other rows at all P columns, in chunks of about GRID_BLOCK_CELLS cells.
    # Both start at k = 0, so every width-th cell is one of its repeats.
    row_max, zero_max = np.empty(radial_samples), np.empty(radial_samples)
    for rows, width in ((np.flatnonzero(alone), 1), (np.flatnonzero(~alone), period)):
        chunk = max(1, GRID_BLOCK_CELLS // (repeats * width))
        for start in range(0, len(rows), chunk):
            part = rows[start:start + chunk]
            # |1 + a z^n| >= 1 - a > 0 on the disk, so the quotient is finite.
            ratio_sq = grid_ratio_sq(params, radii[part], angular_samples, slice(0, width))
            row_max[part] = np.maximum.reduce(ratio_sq, axis=1)
            zero_max[part] = np.maximum.reduce(ratio_sq[:, ::width], axis=1)
    row_max, zero_max = np.sqrt(row_max), np.sqrt(zero_max)

    grid_max = float(row_max.max())
    if grid_max > 1.0 + GRID_TOL:
        i = int(row_max.argmax())
        # Only the message needs the angle, so re-evaluate the failing row.
        j = int(row_ratio(i).argmax())
        raise DominationViolated(
            f"|f|/|g| = {grid_max!r} at r = {radii[i]:.12f}, "
            f"theta = {theta[j]:.12f} exceeds 1 + {GRID_TOL:g}"
        )
    # Angular maxima should sit where n*theta = 0 (mod 2 pi); a row's offset
    # is the distance from there, in grid steps, of its nearest sample
    # within a relative 1e-13 of its maximum (ties: flat rows at a = 0).
    # It is 0 when a sample at n*theta = 0 lies in that band; only other
    # rows are re-evaluated, to find their nearest one.
    # A row with a NaN has no sample in its band, so its offset is inf.
    band = row_max * (1.0 - 1e-13)
    strays = np.flatnonzero(~(zero_max >= band))
    peak_offset = 0.0
    if strays.size:
        k = params.n * np.arange(angular_samples) % angular_samples
        dist = np.minimum(k, angular_samples - k) / params.n
        peak_offset = max(
            float(np.where(row_ratio(i) >= band[i], dist, np.inf).min()) for i in strays
        )
    return grid_max, peak_offset
