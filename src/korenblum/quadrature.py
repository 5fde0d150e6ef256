"""Tensor-product quadrature cross-check of the series norms.

Both squared norms are integrals over the unit disk with respect to
normalized area measure dA = (1/pi) r dr dtheta.  The integrands depend
on the angle only through n*theta, so averaging over theta equals
averaging the reduced angle phi = n*theta over one full turn:

    ||f||^2 = (1/pi) int_0^{2 pi} int_0^1 Kf(a, r^n, cos phi) r dr dphi

Two coordinate systems are supported:

* ``original``: integrate Kf(a, r^n, cos phi) * r over (r, phi).  The
  integrand is smooth but, for large n, concentrated near r = 1.
* ``substituted``: substitute rho = r^n and then flatten the resulting
  endpoint weight rho^(2/n - 1) (for f; rho^(4/n - 1) for g) with a
  second substitution u = rho^(2/n) (resp. u = rho^(4/n)), giving

      ||f||^2 = 1/(2 pi) int_0^{2 pi} int_0^1 Kf(a, u^(n/2), cos phi) du dphi
      ||g||^2 = 1/(4 pi) int_0^{2 pi} int_0^1 Kg(a, u^(n/4), cos phi) du dphi

  where Kf(a, rho, t) = (a^2 + 2 a rho t + rho^2) / (4 - 4 a rho t + a^2 rho^2)
  and Kg is the same with numerator 1 + 2 a rho t + a^2 rho^2.

The two routes share no code with the Taylor-series engine, so their
agreement is a genuine consistency check on both.

The radial variable uses Gauss-Legendre on [0, 1]; the reduced angle
phi uses the equal-weight trapezoid rule phi_k = 2 pi k / N.  The
integrand is periodic and analytic in phi: its only singularity sits
where the denominator vanishes, at cos phi = (4 + a^2 rho^2) / (4 a rho),
which is at least 5/4 for 0 <= a, rho <= 1.  So the trapezoid error falls
geometrically, roughly like 2^(-N), and reaches rounding at the default
N = 256 for every a < 1 (Trefethen and Weideman, SIAM Review 2014).  It
needs no eigen-solve, so the only rule to solve is the radial
Gauss-Legendre rule, once per node count, and it is cached.

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
# A grid holds float64 temporaries of one value per cell, and its radial
# Gauss-Legendre rule is solved as an eigenproblem (~5 s at 4096 nodes).
MAX_GRID_CELLS = 1 << 22
MAX_RADIAL_NODES = 4096


class QuadratureNotConverged(RuntimeError):
    """Grid doubling moved the value by more than the convergence tolerance."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor product rule: Gauss-Legendre radially, trapezoid angularly."""

    radial_nodes: int = 128
    angular_nodes: int = 256

    def __post_init__(self) -> None:
        if self.radial_nodes < 8:
            raise ValueError("need at least 8 radial nodes")
        if self.angular_nodes < 16:
            raise ValueError("need at least 16 angular nodes")
        cells = self.radial_nodes * self.angular_nodes
        if self.radial_nodes > MAX_RADIAL_NODES or cells > MAX_GRID_CELLS:
            raise ValueError(
                f"grid must have at most {MAX_RADIAL_NODES} radial nodes and {MAX_GRID_CELLS} cells"
            )

    def doubled(self) -> "QuadratureGrid":
        return QuadratureGrid(2 * self.radial_nodes, 2 * self.angular_nodes)


@lru_cache(maxsize=8)
def _legendre_rule(count: int):
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per count.

    The arrays are shared by every caller, so they are read-only.  A
    cross-check needs one count and a convergence-checked norm two, so a
    few entries suffice and odd grids cannot grow the cache unbounded.
    """
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_nodes(count: int):
    """Gauss-Legendre nodes and weights mapped to [0, 1]."""
    x, w = _legendre_rule(count)
    return 0.5 * (x + 1.0), 0.5 * w


def _kernel_f(a: float, rho, cos_phi):
    num = a * a + 2.0 * a * rho * cos_phi + rho * rho
    den = 4.0 - 4.0 * a * rho * cos_phi + (a * rho) ** 2
    return num / den


def _kernel_g(a: float, rho, cos_phi):
    num = 1.0 + 2.0 * a * rho * cos_phi + (a * rho) ** 2
    den = 4.0 - 4.0 * a * rho * cos_phi + (a * rho) ** 2
    return num / den


def _tensor_value(params: Params, which: Which, grid: QuadratureGrid, coords: Coords) -> float:
    # The trapezoid weights in phi are all 2 pi / N, so the angular
    # integral is 2 pi times a row mean; each prefactor below is the
    # docstring's 1/pi, 1/(2 pi) or 1/(4 pi) with that 2 pi folded in.
    import numpy as np

    u, wu = gauss_legendre_nodes(grid.radial_nodes)
    phi = (2.0 * np.pi / grid.angular_nodes) * np.arange(grid.angular_nodes)
    cos_phi = np.cos(phi)[None, :]
    a = params.a_float
    n = params.n
    if coords == "original":
        r = u[:, None]
        if which == "f":
            values = _kernel_f(a, r ** n, cos_phi) * r
        else:
            values = _kernel_g(a, r ** n, cos_phi) * r ** 3
        prefactor = 2.0
    elif which == "f":
        rho = (u ** (n / 2.0))[:, None]
        values = _kernel_f(a, rho, cos_phi)
        prefactor = 1.0
    else:
        rho = (u ** (n / 4.0))[:, None]
        values = _kernel_g(a, rho, cos_phi)
        prefactor = 0.5
    return float(prefactor * np.dot(wu, values.mean(axis=1)))


def norm_sq_quad(
    params: Params,
    which: Which = "f",
    grid: QuadratureGrid | None = None,
    coords: Coords = "original",
    check_convergence: bool = True,
) -> float:
    """Squared norm of f or g by tensor-product quadrature.

    With ``check_convergence`` the grid is doubled once in both
    directions; a change above CONVERGENCE_TOL raises
    QuadratureNotConverged instead of returning a dubious value.
    """
    if which not in ("f", "g"):
        raise ValueError(f"which must be 'f' or 'g', got {which!r}")
    if coords not in ("original", "substituted"):
        raise ValueError(f"unknown coordinates {coords!r}")
    if grid is None:
        grid = QuadratureGrid()
    # Doubling first refuses a grid too large to double before any rule is solved.
    finer = grid.doubled() if check_convergence else None
    value = _tensor_value(params, which, grid, coords)
    if finer is not None:
        refined = _tensor_value(params, which, finer, coords)
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
    passed: bool


def cross_check(
    params: Params,
    grid: QuadratureGrid | None = None,
    K: int = 64,
) -> CrossCheckReport:
    """Compare the series norms against both quadrature routes.

    The report fails (``passed`` False) if any pairwise discrepancy
    within the f values or within the g values exceeds CONVERGENCE_TOL.
    The grid is not doubled: the three-way agreement is the evidence.
    """
    from .series import norm_sq_f, norm_sq_g

    sf = norm_sq_f(params, K=K, mode="float")
    sg = norm_sq_g(params, K=K, mode="float")
    series_f = float(sf.midpoint)
    series_g = float(sg.midpoint)
    qf_orig, qf_subs, qg_orig, qg_subs = (
        norm_sq_quad(params, which, grid, coords, check_convergence=False)
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
        passed=disc <= CONVERGENCE_TOL,
    )
