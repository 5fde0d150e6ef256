"""Tensor Gauss-Legendre cross-check of the series norms.

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

Each Gauss-Legendre rule is solved once per node count and cached, and
``cross_check`` builds one tensor rule per grid that its four integrals
share.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Literal, NamedTuple

import numpy as np

from .family import Params

Coords = Literal["original", "substituted"]
Which = Literal["f", "g"]

CONVERGENCE_TOL = 1e-8


class QuadratureNotConverged(RuntimeError):
    """Grid doubling moved the value by more than the convergence tolerance."""


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor product rule: Gauss-Legendre radially and angularly."""

    radial_nodes: int = 128
    angular_nodes: int = 256
    scheme: str = "gauss-legendre"

    def __post_init__(self) -> None:
        if self.radial_nodes < 8:
            raise ValueError("need at least 8 radial nodes")
        if self.angular_nodes < 16:
            raise ValueError("need at least 16 angular nodes")
        if self.scheme != "gauss-legendre":
            raise ValueError(f"unsupported scheme {self.scheme!r}")

    def doubled(self) -> "QuadratureGrid":
        return replace(
            self,
            radial_nodes=2 * self.radial_nodes,
            angular_nodes=2 * self.angular_nodes,
        )


@lru_cache(maxsize=8)
def _legendre_rule(count: int):
    """Gauss-Legendre nodes and weights on [-1, 1], solved once per count.

    The arrays are shared by every caller, so they are read-only.  A
    cross-check needs two counts and a convergence-checked norm three, so
    a few entries suffice and odd grids cannot grow the cache unbounded.
    """
    x, w = np.polynomial.legendre.leggauss(count)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gauss_legendre_nodes(count: int, lo: float = 0.0, hi: float = 1.0):
    """Gauss-Legendre nodes and weights mapped to [lo, hi]."""
    x, w = _legendre_rule(count)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


def _kernel_f(a: float, rho, cos_phi):
    num = a * a + 2.0 * a * rho * cos_phi + rho * rho
    den = 4.0 - 4.0 * a * rho * cos_phi + (a * rho) ** 2
    return num / den


def _kernel_g(a: float, rho, cos_phi):
    num = 1.0 + 2.0 * a * rho * cos_phi + (a * rho) ** 2
    den = 4.0 - 4.0 * a * rho * cos_phi + (a * rho) ** 2
    return num / den


def integrand_f(params: Params, r, phi):
    """|f|^2 at radius r and reduced angle phi = n*theta, times the
    polar area factor r.  Accepts scalars or numpy arrays."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError("radius samples must lie in [0, 1]")
    a = params.a_float
    return _kernel_f(a, r ** params.n, np.cos(phi)) * r


def integrand_g(params: Params, r, phi):
    """|g|^2 at radius r and reduced angle phi = n*theta, times r."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0) or np.any(r > 1.0):
        raise ValueError("radius samples must lie in [0, 1]")
    a = params.a_float
    return _kernel_g(a, r ** params.n, np.cos(phi)) * r * r * r


class _TensorRule(NamedTuple):
    """Radial nodes, cos of the angular nodes and the tensor weights."""

    u: np.ndarray
    cos_phi: np.ndarray
    weights: np.ndarray


def _tensor_rule(grid: QuadratureGrid) -> _TensorRule:
    u, wu = gauss_legendre_nodes(grid.radial_nodes)
    phi, wphi = gauss_legendre_nodes(grid.angular_nodes, 0.0, 2.0 * np.pi)
    return _TensorRule(u, np.cos(phi)[None, :], np.outer(wu, wphi))


def _tensor_value(params: Params, which: Which, rule: _TensorRule, coords: Coords) -> float:
    a = params.a_float
    n = params.n
    u, cos_phi = rule.u, rule.cos_phi
    if coords == "original":
        r = u[:, None]
        if which == "f":
            values = _kernel_f(a, r ** n, cos_phi) * r
        else:
            values = _kernel_g(a, r ** n, cos_phi) * r ** 3
        prefactor = 1.0 / np.pi
    elif which == "f":
        rho = (u ** (n / 2.0))[:, None]
        values = _kernel_f(a, rho, cos_phi)
        prefactor = 1.0 / (2.0 * np.pi)
    else:
        rho = (u ** (n / 4.0))[:, None]
        values = _kernel_g(a, rho, cos_phi)
        prefactor = 1.0 / (4.0 * np.pi)
    return float(prefactor * np.sum(rule.weights * values))


def norm_sq_quad(
    params: Params,
    which: Which = "f",
    grid: QuadratureGrid | None = None,
    coords: Coords = "original",
    check_convergence: bool = True,
    convergence_tol: float = CONVERGENCE_TOL,
) -> float:
    """Squared norm of f or g by tensor Gauss-Legendre quadrature.

    With ``check_convergence`` the grid is doubled once in both
    directions; a change above ``convergence_tol`` raises
    QuadratureNotConverged instead of returning a dubious value.
    """
    if which not in ("f", "g"):
        raise ValueError(f"which must be 'f' or 'g', got {which!r}")
    if coords not in ("original", "substituted"):
        raise ValueError(f"unknown coordinates {coords!r}")
    if grid is None:
        grid = QuadratureGrid()
    value = _tensor_value(params, which, _tensor_rule(grid), coords)
    if check_convergence:
        refined = _tensor_value(params, which, _tensor_rule(grid.doubled()), coords)
        if abs(refined - value) > convergence_tol:
            raise QuadratureNotConverged(
                f"norm_sq_quad({which}, {coords}) moved by "
                f"{abs(refined - value):.3e} under grid doubling "
                f"(tol {convergence_tol:.1e}); refine the grid"
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
    tol: float = CONVERGENCE_TOL,
    K: int = 64,
) -> CrossCheckReport:
    """Compare the series norms against both quadrature routes.

    The report fails (``passed`` False) if any pairwise discrepancy
    within the f values or within the g values exceeds ``tol``.
    """
    from .series import norm_sq_f, norm_sq_g

    if grid is None:
        grid = QuadratureGrid()
    sf = norm_sq_f(params, K=K, mode="float")
    sg = norm_sq_g(params, K=K, mode="float")
    series_f = float(sf.midpoint)
    series_g = float(sg.midpoint)
    rule = _tensor_rule(grid)
    qf_orig = _tensor_value(params, "f", rule, "original")
    qf_subs = _tensor_value(params, "f", rule, "substituted")
    qg_orig = _tensor_value(params, "g", rule, "original")
    qg_subs = _tensor_value(params, "g", rule, "substituted")
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
        tol=tol,
        passed=disc <= tol,
    )
