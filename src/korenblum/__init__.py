"""Certified numerical upper bounds for Korenblum's constant.

Korenblum's maximum principle on the Bergman space A^2 of the unit disk
says there is a largest constant kappa such that |f| <= |g| on the
annulus kappa < |z| < 1 forces ||f|| <= ||g||.  A pair (f, g) that is
dominated on c < |z| < 1 yet has ||f|| > ||g|| therefore proves
kappa < c.  This package builds such pairs from the family

    f(z) = (a + z^n) / (2 - a z^n),   g(z) = z (1 + a z^n) / (2 - a z^n),

computes the critical inner radius c where the domination starts, and
certifies the norm gap in exact rational arithmetic.  At the reference
parameters a = 0.6666714, n = 10 the certified radius is c < 0.677905,
below the previously best bound 0.67795.
"""

__version__ = "0.1.0"

from .family import Params, reference_params
from .series import (
    f_coefficient,
    g_coefficient,
    norm_difference,
    norm_sq_f,
    norm_sq_g,
    power_series_norm_sq,
)
from .quadrature import norm_sq_quad
from .domination import critical_root, pole_zero_radii, ratio_envelope, verify_domination
from .search import best_bound, critical_a, delta_of_a, scan

__all__ = [
    "__version__",
    "Params",
    "reference_params",
    "f_coefficient",
    "g_coefficient",
    "norm_difference",
    "norm_sq_f",
    "norm_sq_g",
    "power_series_norm_sq",
    "norm_sq_quad",
    "critical_root",
    "pole_zero_radii",
    "ratio_envelope",
    "verify_domination",
    "best_bound",
    "critical_a",
    "delta_of_a",
    "scan",
]
