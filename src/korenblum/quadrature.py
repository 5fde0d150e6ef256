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

The integrand is evaluated a block of radii at a time into three tables
allocated once per value, the kernel's numerator and denominator and a
table for the radial columns, each of at most ``series.FLOAT_BLOCK_CELLS``
doubles (64 KiB, below glibc's mmap threshold) unless one angular row is
longer; cos phi is tiled to the block's height once per value.  Every
step writes into those tables, and each row's mean goes into one vector
of radial means, so no temporary of the grid's size is made and the heap
is not trimmed and regrown from one value to the next.  Each column
(2 a rho, 4 a rho, (a rho)^2, rho^2, the weight) is copied into a table
before the ufunc that reads it, so no ufunc has a broadcast operand:
numpy 2.4 allocates 64 KiB of iterator buffers for each such operand,
and they took about half of a block's time.  The steps are the
formula's operations in the order written, so the value equals that of
the whole table at once, bit for bit.

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
# The cells are evaluated a block of radii at a time, so the cap bounds
# time, not memory: ~7 ms per million cells (2-core Xeon VM), and the
# radial Gauss-Legendre rule is an eigen-solve (~5 s at 4096 nodes).  It
# stays because the grid is outside input (--grid, library callers).
MAX_GRID_CELLS = 1 << 22
MAX_RADIAL_NODES = 4096
# Above this n, cross_check's default grid has 256 radial nodes, not 128:
# the original-coordinate integrand gathers near r = 1 as n grows.  At
# a = (n - 1)/(n + 1) - 1e-4, 128 nodes miss the series by 1.1e-13 at
# n = 256, 1.3e-10 at n = 500 and 1.8e-8 at n = 1000 (over
# CONVERGENCE_TOL); 256 nodes miss it by 2.4e-14 at n = 1000.
FINE_CROSS_CHECK_N = 256


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


def _kernel(a: float, which: Which, rho, cos_phi, tables):
    """Kf or Kg (module docstring) at radii ``rho`` (a column) and ``cos_phi``.

    ``cos_phi`` is a row, or that row tiled to the table's shape.  The value
    is written into the first of ``tables``, three arrays of the broadcast
    shape, and returned; the second is scratch for the denominator and the
    third takes each column of ``rho`` terms before the ufunc that adds it.
    With a tiled ``cos_phi`` no ufunc has a broadcast operand, for which
    numpy would allocate iterator buffers.  Each step is one ufunc in the
    order of the formula as written, so the value does not depend on which
    rows are evaluated together.
    """
    import numpy as np

    num, den, column = tables
    a_rho_sq = (a * rho) ** 2
    np.copyto(column, a_rho_sq)
    # 4 - 4 a rho t + a^2 rho^2
    np.copyto(den, (4.0 * a) * rho)
    np.multiply(den, cos_phi, out=den)
    np.subtract(4.0, den, out=den)
    np.add(den, column, out=den)
    # f: a^2 + 2 a rho t + rho^2;  g: 1 + 2 a rho t + a^2 rho^2
    if which == "f":
        np.copyto(column, rho * rho)
    np.copyto(num, (2.0 * a) * rho)
    np.multiply(num, cos_phi, out=num)
    np.add(a * a if which == "f" else 1.0, num, out=num)
    np.add(num, column, out=num)
    return np.divide(num, den, out=num)


def _tensor_value(params: Params, which: Which, grid: QuadratureGrid, coords: Coords) -> float:
    # The trapezoid weights in phi are all 2 pi / N, so the angular
    # integral is 2 pi times a row mean; each prefactor below is the
    # docstring's 1/pi, 1/(2 pi) or 1/(4 pi) with that 2 pi folded in.
    import numpy as np

    from .series import FLOAT_BLOCK_CELLS

    u, wu = gauss_legendre_nodes(grid.radial_nodes)
    phi = (2.0 * np.pi / grid.angular_nodes) * np.arange(grid.angular_nodes)
    a = params.a_float
    n = params.n
    weight = None
    if coords == "original":
        rho = u ** n
        weight = u if which == "f" else u ** 3
        prefactor = 2.0
    elif which == "f":
        rho = u ** (n / 2.0)
        prefactor = 1.0
    else:
        rho = u ** (n / 4.0)
        prefactor = 0.5
    rows = min(max(1, FLOAT_BLOCK_CELLS // grid.angular_nodes), grid.radial_nodes)
    cos_phi = np.tile(np.cos(phi), (rows, 1))
    tables = tuple(np.empty((rows, grid.angular_nodes)) for _ in range(3))
    means = np.empty(grid.radial_nodes)
    for start in range(0, grid.radial_nodes, rows):
        block = slice(start, start + rows)
        rho_b = rho[block, None]
        if len(rho_b) < rows:
            cos_phi = cos_phi[: len(rho_b)]
            tables = tuple(t[: len(rho_b)] for t in tables)
        values = _kernel(a, which, rho_b, cos_phi, tables)
        if weight is not None:
            column = tables[2]
            np.copyto(column, weight[block, None])
            np.multiply(values, column, out=values)
        np.add.reduce(values, axis=1, out=means[block])
    # the row means, divided as values.mean(axis=1) divides its sums
    means /= grid.angular_nodes
    return float(prefactor * np.dot(wu, means))


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


def cross_check(params: Params, grid: QuadratureGrid | None = None) -> CrossCheckReport:
    """Compare the series norms against both quadrature routes.

    The series values are the float enclosures at ``series.DEFAULT_TERMS``,
    where each has zero width.

    The report fails (``passed`` False) if any pairwise discrepancy
    within the f values or within the g values exceeds CONVERGENCE_TOL.
    The grid is not doubled: the three-way agreement is the evidence.
    Without ``grid`` it is 128x256, or 256x256 when n exceeds
    FINE_CROSS_CHECK_N.
    """
    from .series import norm_sq_f, norm_sq_g

    if grid is None:
        grid = QuadratureGrid(radial_nodes=256 if params.n > FINE_CROSS_CHECK_N else 128)
    sf = norm_sq_f(params, mode="float")
    sg = norm_sq_g(params, mode="float")
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
