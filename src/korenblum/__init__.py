"""Certified numerical upper bounds for Korenblum's constant.

Korenblum's maximum principle on the Bergman space A^2 of the unit disk
says there is a largest constant kappa such that |f| <= |g| on the
annulus kappa < |z| < 1 forces ||f|| <= ||g||.  A pair (f, g) that is
dominated on c < |z| < 1 yet has ||f|| > ||g|| therefore proves
kappa < c.  This package builds such pairs from the family

    f(z) = (a + z^n) / (2 - a z^n),   g(z) = z (1 + a z^n) / (2 - a z^n),

computes the critical inner radius c where the domination starts, and
certifies the norm gap in exact rational arithmetic.  At the reference
parameters a = 0.6666714, n = 10 the radius is c < 0.677905,
below the previously best bound 0.67795.

The names below load on first use (PEP 562): ``import korenblum``
imports none of the submodules, and ``korenblum.scan`` imports
``korenblum.search`` the first time it is read.  So a program that
needs only the exact series never loads the domination grid, the
quadrature or the search.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_SOURCES = {
    "Params": "family",
    "reference_params": "family",
    "f_coefficient": "series",
    "g_coefficient": "series",
    "norm_difference": "series",
    "norm_sq_f": "series",
    "norm_sq_g": "series",
    "power_series_norm_sq": "series",
    "norm_sq_quad": "quadrature",
    "critical_root": "domination",
    "pole_zero_radii": "domination",
    "ratio_envelope": "domination",
    "verify_domination": "domination",
    "best_bound": "search",
    "critical_a": "search",
    "delta_of_a": "search",
    "scan": "search",
}

__all__ = ["__version__", *_SOURCES]


def __getattr__(name: str):
    source = _SOURCES.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{source}", __name__), name)
    globals()[name] = value  # later reads skip this function
    return value


def __dir__():
    return sorted({*globals(), *_SOURCES})
