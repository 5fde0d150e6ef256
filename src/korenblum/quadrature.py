"""Quadrature cross-check of the series norms: a radial rule, the angle in closed form.

Both squared norms are integrals over the unit disk with respect to
normalized area measure dA = (1/pi) r dr dtheta.  |f|^2 and |g|^2 / r^2
depend on the angle only through t = cos(n theta), as

    Kf(a, rho, t) = (a^2 + 2 a rho t + rho^2) / (4 - 4 a rho t + a^2 rho^2)
    Kg(a, rho, t) = (1 + 2 a rho t + a^2 rho^2) / (4 - 4 a rho t + a^2 rho^2)

with rho = r^n, so their mean over the circle |z| = r is the mean over
one turn of phi = n theta.  The denominator is gamma - delta t with
gamma = 4 + a^2 rho^2 and delta = 4 a rho, and gamma^2 - delta^2 = s^2
with s = 4 - a^2 rho^2 > 0.  Over one turn 1 / (gamma - delta t) has mean
1 / s and t / (gamma - delta t) has mean (gamma - s) / (delta s) =
a rho / (2 s), so

    Mf(rho^2) = mean of |f|^2       = (a^2 + rho^2 + a^2 rho^2) / (4 - a^2 rho^2)
    Mg(rho^2) = mean of |g|^2 / r^2 = (1 + 2 a^2 rho^2) / (4 - a^2 rho^2)

and each norm is one integral in the radius.  Two coordinate systems
are supported:

* ``original``: ||f||^2 = 2 int_0^1 Mf(r^(2n)) r dr and
  ||g||^2 = 2 int_0^1 Mg(r^(2n)) r^3 dr.  The integrands are smooth but,
  for large n, concentrated near r = 1.
* ``substituted``: u = r^2 gives

      ||f||^2 = int_0^1 Mf(u^n) du,   ||g||^2 = int_0^1 Mg(u^n) u du.

  The means depend on rho^2 = u^n alone, so both integrands are analytic
  in u for every n, odd n included.

Each integral takes the Gauss-Legendre rule on [0, 1], whose node count
is the route's only setting; the rule is an eigen-solve, done once per
count and cached.

The route shares no code with the Taylor-series engine, and it reaches
the norms through an integral in r, not through Parseval's identity on
the coefficients, so their agreement checks the coefficient formula and
the weights 1/(n k + 1) of the series.  It is one analytic step closer
to the series than a two-dimensional rule would be: expanding
1/(4 - a^2 rho^2) in powers of rho^2 gives the series' terms back.
``tests/oracles.py`` keeps the two-dimensional rule, Gauss-Legendre in
r times the trapezoid rule in phi, as the oracle of the closed form.

``cross_check`` takes its four quadrature values from ``norm_sq_quad``,
so the certificate's numbers and the norm function share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal

# numpy is imported inside the functions that use it, so exact-only commands never load it.

from .family import Params

Coords = Literal["original", "substituted"]
Which = Literal["f", "g"]

CONVERGENCE_TOL = 1e-8
# The radial Gauss-Legendre rule is an eigen-solve (~5 s at 4096 nodes),
# and the node count is outside input (--grid, library callers).
MAX_RADIAL_NODES = 4096
# Above this n, cross_check's default rule has 256 radial nodes, not 128:
# the original-coordinate integrand gathers near r = 1 as n grows.  At
# a = (n - 1)/(n + 1) - 1e-4, 128 nodes miss the series by 1.1e-13 at
# n = 256, 1.3e-10 at n = 500 and 1.8e-8 at n = 1000 (over
# CONVERGENCE_TOL); 256 nodes miss it by 2.4e-14 at n = 1000.
FINE_CROSS_CHECK_N = 256


class QuadratureNotConverged(RuntimeError):
    """Doubling the radial nodes moved the value by more than the convergence tolerance."""


def check_radial_nodes(count: int) -> int:
    """``count`` if it is a radial node count in 8..MAX_RADIAL_NODES, else ValueError."""
    if count < 8:
        raise ValueError("need at least 8 radial nodes")
    if count > MAX_RADIAL_NODES:
        raise ValueError(f"grid must have at most {MAX_RADIAL_NODES} radial nodes")
    return count


@lru_cache(maxsize=8)
def gauss_legendre_nodes(count: int):
    """Gauss-Legendre nodes and weights on [0, 1], solved once per count.

    The arrays are shared by every caller, so they are read-only.  A
    cross-check needs one count and a convergence-checked norm two, so a
    few entries suffice and odd counts cannot grow the cache unbounded.
    """
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(count)
    u, wu = 0.5 * (x + 1.0), 0.5 * w
    u.flags.writeable = wu.flags.writeable = False
    return u, wu


def _circle_mean(a: float, which: Which, rho_sq):
    """Mf or Mg (module docstring) at ``rho_sq`` = rho^2, elementwise."""
    a_sq_rho_sq = (a * a) * rho_sq
    num = (a * a + rho_sq + a_sq_rho_sq) if which == "f" else (1.0 + 2.0 * a_sq_rho_sq)
    return num / (4.0 - a_sq_rho_sq)


def _radial_value(params: Params, which: Which, radial_nodes: int, coords: Coords) -> float:
    import numpy as np

    u, wu = gauss_legendre_nodes(radial_nodes)
    n = params.n
    if coords == "original":
        values = _circle_mean(params.a_float, which, u ** (2 * n))
        values *= u if which == "f" else u ** 3
        prefactor = 2.0
    else:
        values = _circle_mean(params.a_float, which, u ** n)
        if which == "g":
            values *= u
        prefactor = 1.0
    return float(prefactor * np.dot(wu, values))


def norm_sq_quad(
    params: Params,
    which: Which = "f",
    radial_nodes: int = 128,
    coords: Coords = "original",
    check_convergence: bool = True,
) -> float:
    """Squared norm of f or g by radial quadrature of the exact circle mean.

    With ``check_convergence`` the ``radial_nodes`` are doubled once; a
    change above CONVERGENCE_TOL raises QuadratureNotConverged instead
    of returning a dubious value.  Both counts are checked first.
    """
    if which not in ("f", "g"):
        raise ValueError(f"which must be 'f' or 'g', got {which!r}")
    if coords not in ("original", "substituted"):
        raise ValueError(f"unknown coordinates {coords!r}")
    check_radial_nodes(radial_nodes)
    if check_convergence:  # before the first rule is solved
        check_radial_nodes(2 * radial_nodes)
    value = _radial_value(params, which, radial_nodes, coords)
    if check_convergence:
        refined = _radial_value(params, which, 2 * radial_nodes, coords)
        if abs(refined - value) > CONVERGENCE_TOL:
            raise QuadratureNotConverged(
                f"norm_sq_quad({which}, {coords}) moved by "
                f"{abs(refined - value):.3e} under grid doubling "
                f"(tol {CONVERGENCE_TOL:.1e}); refine the grid"
            )
        value = refined
    return value


@dataclass(frozen=True)
class CrossCheckReport:
    """Series and quadrature values for both norms, with discrepancies."""

    series_f: float
    quad_f_original: float
    quad_f_substituted: float
    series_g: float
    quad_g_original: float
    quad_g_substituted: float
    delta_quad: float
    max_discrepancy: float
    tol: float
    radial_nodes: int
    passed: bool


def cross_check(params: Params, radial_nodes: int | None = None) -> CrossCheckReport:
    """Compare the series norms against both quadrature routes.

    The series values are the float enclosures at ``series.DEFAULT_TERMS``,
    where each has zero width.

    The report fails (``passed`` False) if any pairwise discrepancy
    within the f values or within the g values exceeds CONVERGENCE_TOL.
    The node count is not doubled: the three-way agreement is the
    evidence.  Without ``radial_nodes`` the radial rule has 128 nodes, or
    256 when n exceeds FINE_CROSS_CHECK_N; the report records the count.
    """
    from .series import norm_sq_f, norm_sq_g

    if radial_nodes is None:
        radial_nodes = 256 if params.n > FINE_CROSS_CHECK_N else 128
    sf = norm_sq_f(params, mode="float")
    sg = norm_sq_g(params, mode="float")
    series_f = float(sf.midpoint)
    series_g = float(sg.midpoint)
    qf_orig, qf_subs, qg_orig, qg_subs = (
        norm_sq_quad(params, which, radial_nodes, coords, check_convergence=False)
        for which in ("f", "g")
        for coords in ("original", "substituted")
    )
    f_values = (series_f, qf_orig, qf_subs)
    g_values = (series_g, qg_orig, qg_subs)
    disc_f = max(abs(x - y) for x in f_values for y in f_values)
    disc_g = max(abs(x - y) for x in g_values for y in g_values)
    disc = max(disc_f, disc_g)
    return CrossCheckReport(
        series_f=series_f,
        quad_f_original=qf_orig,
        quad_f_substituted=qf_subs,
        series_g=series_g,
        quad_g_original=qg_orig,
        quad_g_substituted=qg_subs,
        delta_quad=qf_orig - qg_orig,
        max_discrepancy=disc,
        tol=CONVERGENCE_TOL,
        radial_nodes=radial_nodes,
        passed=disc <= CONVERGENCE_TOL,
    )
