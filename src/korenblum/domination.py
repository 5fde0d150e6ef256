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

On the angles theta_j = 2 pi j / N the domination grid forms z^n as
r^n e^(i theta_k), k = n j mod N reduced exactly in integers, so z^n is
accurate at every n.  It is evaluated GRID_BLOCK_ROWS radii at a time, each block reduced
at once to its row maxima and their angular offsets, so the whole grid
is never held in memory; the bits do not depend on the block height.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

# numpy is imported inside the functions that use it, so exact-only commands never load it.

from .family import Params, eval_abs_ratio
# Not called here; kept so that ``domination.eval_f`` and
# ``domination.eval_g`` stay names that bench/tracing.py can wrap.
from .family import eval_f, eval_g  # noqa: F401

Radius = Union[Fraction, int, float]

# Float residual |p(c)| that critical_root asserts of its exact answer.
ROOT_TOL = 1e-14
# h(c) must lie this close to 1 for c to count as the critical radius.
BOUNDARY_TOL = 1e-9
# A domination grid sample fails when |f|/|g| exceeds 1 + GRID_TOL.
GRID_TOL = 1e-12
# Radial rows per block of the domination grid: 4 rows of 1024 angles
# are 64 KiB per complex temporary, half glibc's default 128 KiB mmap
# threshold.  With 8 rows the temporaries sit on that threshold, and
# whether each block's ~0.7 MiB of them was page-faulted in afresh after
# a heap trim depended on the heap layout: 0 to ~5000 faults per grid.
GRID_BLOCK_ROWS = 4


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
    doubles; the answer is the upper one, where p >= 0 exactly.
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
    assert abs(critical_polynomial(params, hi)) < ROOT_TOL
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

    import numpy as np

    radii = np.linspace(c, 1.0, radial_samples)
    theta = np.linspace(0.0, 2.0 * np.pi, angular_samples, endpoint=False)
    circle = np.exp(1j * theta)
    # z^n = r^n e^(i n theta_j) = r^n circle[k_j], with n j reduced mod N exactly.
    k = params.n * np.arange(angular_samples) % angular_samples
    rn, circle_n = radii ** params.n, circle[k]
    # Angular maxima should sit where n*theta = 0 (mod 2 pi); dist is the
    # distance from there in grid steps.  Ties within a relative 1e-13
    # band count as maxima (flat rows at a = 0).
    dist = np.minimum(k, angular_samples - k) / params.n

    row_max = np.empty(radial_samples)
    offsets = np.empty(radial_samples)
    for start in range(0, radial_samples, GRID_BLOCK_ROWS):
        rows = slice(start, start + GRID_BLOCK_ROWS)
        # |1 + a z^n| >= 1 - a > 0 on the disk, so the quotient is finite.
        ratio = eval_abs_ratio(params, radii[rows, None] * circle, rn[rows, None] * circle_n)
        row_max[rows] = ratio.max(axis=1)
        near = ratio >= row_max[rows, None] * (1.0 - 1e-13)
        offsets[rows] = np.where(near, dist, np.inf).min(axis=1)

    grid_max = float(row_max.max())
    if grid_max > 1.0 + GRID_TOL:
        i = int(row_max.argmax())
        # Only the message needs the angle, so re-evaluate the failing row.
        j = int(eval_abs_ratio(params, radii[i] * circle, rn[i] * circle_n).argmax())
        raise DominationViolated(
            f"|f|/|g| = {grid_max!r} at r = {radii[i]:.12f}, "
            f"theta = {theta[j]:.12f} exceeds 1 + {GRID_TOL:g}"
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
        tol=GRID_TOL,
        verdict=verdict,
    )
