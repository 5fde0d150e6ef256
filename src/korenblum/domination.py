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

Nothing here is taken on faith: the envelope maximality, the boundary
identities, the pole and zero locations and the pointwise domination
are all sampled on grids and reported, with violations raised as
exceptions rather than absorbed.

The domination grid is evaluated GRID_BLOCK_ROWS radii at a time and
each block is reduced at once to its row maxima, their positions and
their angular offsets, so the whole grid is never held in memory.  The
blocks sample exactly the values a single whole-grid evaluation of
|eval_f| / |eval_g| gives, bit for bit, whatever the block height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .family import Params, eval_abs_ratio
# Not called here; kept so that ``domination.eval_f`` and
# ``domination.eval_g`` stay names that bench/tracing.py can wrap.
from .family import eval_f, eval_g  # noqa: F401

Radius = Union[Fraction, int, float]

ROOT_TOL = 1e-14
SCAN_CELLS = 1024
# The bracketing scan deliberately stops short of both endpoints: r = 1
# is always a root of p and r = 0 is outside the domain of h.
SCAN_LO = 1e-3
SCAN_HI = 1.0 - 1e-3
# Closest approach to r = 1 of the fallback scan of q = p / (r - 1).
SCAN_TOP_GAP = 1e-15
# h(c) must lie this close to 1 for c to count as the critical radius.
BOUNDARY_TOL = 1e-9
# Radial rows per block of the domination grid: 4 rows of 1024 angles
# are 64 KiB per complex temporary, half glibc's default 128 KiB mmap
# threshold.  With 8 rows the temporaries sit on that threshold, and
# whether each block's ~0.7 MiB of them was page-faulted in afresh after
# a heap trim depended on the heap layout: 0 to ~5000 faults per grid.
GRID_BLOCK_ROWS = 4


class NoInteriorRoot(ArithmeticError):
    """The envelope equation h(r) = 1 has no root inside the scan range."""


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


def critical_polynomial_derivative(params: Params, r):
    n = params.n
    a = params.a_float
    return 1.0 + a * (n + 1) * r ** n - n * r ** (n - 1)


def bisect_sign_change(
    fn: Callable[[float], float], lo: float, hi: float, steps: int
) -> Tuple[float, float]:
    """Halve a sign-change bracket ``steps`` times.

    Requires fn(lo) and fn(hi) of opposite (nonzero) sign; each step
    exactly halves the bracket width.
    """
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0 or fhi == 0.0 or (flo > 0) == (fhi > 0):
        raise ValueError("bisection requires a strict sign change")
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            half = 0.25 * (hi - lo)
            return mid - half, mid + half
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo, hi


def newton_polish(
    fn: Callable[[float], float],
    dfn: Callable[[float], float],
    x: float,
    tol: float,
) -> Tuple[float, int]:
    """Newton iteration from a good initial guess until |fn(x)| < tol."""
    for iteration in range(25):
        residual = fn(x)
        if abs(residual) < tol:
            return x, iteration
        slope = dfn(x)
        if slope == 0.0:
            break
        x = x - residual / slope
    raise ArithmeticError(f"Newton polish did not reach |p| < {tol:g}")


def deflated_polynomial(params: Params, r):
    """q(r) = p(r) / (r - 1) = a sum_{k=0..n} r^k - sum_{k=1..n-1} r^k.

    Dividing out the root r = 1 leaves the sign change of an interior
    root next to 1 clear, where p itself is tiny on both sides.  q is
    evaluated as a polynomial in t = 1 - r whose coefficients are formed
    exactly from a = u/v and rounded once: near r = 1 the coefficients
    in r cancel to rounding noise, which would show sign changes that q
    does not have (at a = 1/2, n = 3, q = (1 - r)^2 (1 + r) / 2 > 0).
    """
    n, u, v = params.n, params.a.numerator, params.a.denominator
    c = [u] + [u - v] * (n - 1) + [u]  # v times the coefficients of q in r
    shifted = [
        (-1) ** j * sum(c[k] * math.comb(k, j) for k in range(j, n + 1)) / v
        for j in range(n, -1, -1)
    ]
    return np.polyval(shifted, 1.0 - r)


def critical_root(params: Params, tol: float = ROOT_TOL) -> float:
    """Interior root c of h(r) = 1, via scan + bisection + Newton polish.

    Scans p on [SCAN_LO, SCAN_HI] with SCAN_CELLS cells for a sign
    change and bisects the first bracket found.  Only when that scan
    finds none, it scans the deflated polynomial q = p / (r - 1) on
    SCAN_CELLS + 1 points from SCAN_HI to 1 - SCAN_TOP_GAP, spaced
    geometrically in 1 - r so that a root within 1e-6 of r = 1 still
    falls between two of them, and bisects q's first sign change
    instead.  Either way it then polishes on p until the residual
    satisfies |p(c)| < tol.
    Raises NoInteriorRoot when neither scan finds a sign change (for
    example n = 1, or a = 0, where h < 1 throughout the interior, or
    a = 9/11 at n = 10, where the root has merged into r = 1).
    """
    c0 = _scan_and_bisect(
        lambda r: critical_polynomial(params, r),
        np.linspace(SCAN_LO, SCAN_HI, SCAN_CELLS + 1),
        steps=20,
    )
    if c0 is None:
        # Next to r = 1, p = (r - 1) q is below tol before Newton starts,
        # so the bisection alone has to bring c0 to full precision.
        c0 = _scan_and_bisect(
            lambda r: deflated_polynomial(params, r),
            1.0 - np.geomspace(1.0 - SCAN_HI, SCAN_TOP_GAP, SCAN_CELLS + 1),
            steps=60,
        )
    if c0 is None:
        raise NoInteriorRoot(
            f"h(r) = 1 has no root in [{SCAN_LO}, 1) for {params.describe()}"
        )
    p = lambda r: critical_polynomial(params, float(r))
    dp = lambda r: critical_polynomial_derivative(params, float(r))
    c, _ = newton_polish(p, dp, c0, tol)
    return float(c)


def _scan_and_bisect(fn: Callable, xs: np.ndarray, steps: int) -> Optional[float]:
    """Newton start point from the first root of ``fn`` seen on ``xs``.

    A sample where fn is exactly zero wins; otherwise the first sign
    change between neighbours is bisected ``steps`` times and its
    midpoint returned.  None when fn keeps one sign on all of ``xs``.
    """
    signs = np.sign(fn(xs))
    hits = np.nonzero(signs == 0.0)[0]
    if hits.size:
        return float(xs[hits[0]])
    changes = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if not changes.size:
        return None
    i = int(changes[0])
    lo, hi = bisect_sign_change(
        lambda r: fn(float(r)), float(xs[i]), float(xs[i + 1]), steps=steps
    )
    return 0.5 * (lo + hi)


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
    tol: float = 1e-12,
    require_boundary_identity: bool = True,
) -> DominationReport:
    """Check the domination hypotheses on a polar grid of the annulus.

    Raises HypothesisViolated if a pole or zero radius fails to clear
    the unit circle or (with ``require_boundary_identity``) if h(c) is
    not within BOUNDARY_TOL of 1; raises DominationViolated if any
    grid sample has |f|/|g| > 1 + tol.  The boundary identity check is
    meant for c produced by critical_root; pass
    ``require_boundary_identity=False`` to audit a conservative inner
    radius that is not a root of h = 1.

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
    if require_boundary_identity and abs(h_at_c - 1.0) > BOUNDARY_TOL:
        raise HypothesisViolated(
            f"h(c) = {h_at_c!r} is not within {BOUNDARY_TOL:g} of 1; "
            "is c the critical radius?"
        )

    radii = np.linspace(c, 1.0, radial_samples)
    theta = np.linspace(0.0, 2.0 * np.pi, angular_samples, endpoint=False)
    circle = np.exp(1j * theta)
    # Angular maxima should sit where n*theta = 0 (mod 2 pi), i.e. at
    # multiples of angular_samples / n grid steps.  Ties within a
    # relative 1e-13 band count as maxima (flat rows at a = 0).
    period = angular_samples / params.n
    idx = np.arange(angular_samples, dtype=float)
    dist = np.abs((idx + 0.5 * period) % period - 0.5 * period)

    row_max = np.empty(radial_samples)
    offsets = np.empty(radial_samples)
    for start in range(0, radial_samples, GRID_BLOCK_ROWS):
        rows = slice(start, start + GRID_BLOCK_ROWS)
        # |1 + a z^n| >= 1 - a > 0 on the disk, so the quotient is finite.
        ratio = eval_abs_ratio(params, radii[rows, None] * circle)
        row_max[rows] = ratio.max(axis=1)
        near = ratio >= row_max[rows, None] * (1.0 - 1e-13)
        offsets[rows] = np.where(near, dist, np.inf).min(axis=1)

    grid_max = float(row_max.max())
    if grid_max > 1.0 + tol:
        i = int(row_max.argmax())
        # Only the message needs the angle, so re-evaluate the failing row.
        j = int(eval_abs_ratio(params, radii[i] * circle).argmax())
        raise DominationViolated(
            f"|f|/|g| = {grid_max!r} at r = {radii[i]:.12f}, "
            f"theta = {theta[j]:.12f} exceeds 1 + {tol:g}"
        )
    peak_offset = float(offsets.max())
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
        tol=tol,
        verdict=verdict,
    )
