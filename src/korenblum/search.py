"""Search over the coefficient a and the frequency n.

For fixed n the norm gap delta(a) = ||f||^2 - ||g||^2 is negative for
small a (at a = 0 it equals 1/(4(n+1)) - 1/8, which is -9/88 for
n = 10) and positive as a approaches 1, with a sign change at some a0
in between.  Coefficients above a0 give a certifiable gap, and the
critical radius c(a) grows with a, so the strongest bound comes from
certifying just above the sign change: the safety margin trades a
sliver of bound quality for a gap that is comfortably positive in
exact arithmetic.

The localization runs in double precision at the default truncation
index.  Its enclosures are float estimates that nothing rounds outward,
so the signs it reads are not proved.  More terms would not change
them: at K = 64 the tail bound is below 2e-41, under half an ulp of
either norm for every a < 1 and n <= 1000, so each float enclosure has
zero width.  Only the final
gap at the backed off coefficient is a proof: it is recomputed in exact
rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple

from .domination import (
    DominationReport,
    DominationViolated,
    HypothesisViolated,
    NoInteriorRoot,
    critical_root,
    verify_domination,
)
from .family import Coefficient, Params, as_fraction
from .series import (
    DEFAULT_TERMS,
    DifferenceResult,
    enclose_difference,
    float_norms_sq,
    norm_difference,
)

# Best previously published upper bound for Korenblum's constant that
# this construction is measured against.
WANG_UPPER_BOUND = 0.67795
DEFAULT_SAFETY = 5e-6
# Certified coefficients are reported on a fixed decimal lattice so the
# certificate parameter stays a short exact decimal.
QUANTIZE_DECIMALS = 7
# Width at which critical_a stops bisecting the sign change of delta(a).
BRACKET_TOL = 1e-10
# Coefficients at which coarse_scan samples delta(a).
COARSE_GRID = tuple(i / 100 for i in range(1, 100))


class InvalidBracket(ValueError):
    """The norm gap's float enclosures give one sign at both bracket ends."""


class AmbiguousSign(ArithmeticError):
    """A float enclosure of the norm gap does not exclude zero."""


class CertificationFailed(ArithmeticError):
    """The exact-mode gap at the candidate coefficient is not positive."""


def delta_of_a(
    n: int,
    a: Coefficient,
    K: int = DEFAULT_TERMS,
    mode: str = "float",
) -> DifferenceResult:
    """Norm gap enclosure at coefficient a and frequency n.

    Float mode reads only the double of a, so a float a in [0, 1) enters
    as its exact binary value and skips the parse of its decimal repr.
    Any other a goes through ``as_fraction``, range errors included.
    """
    if mode == "float" and isinstance(a, float) and 0 <= a < 1:
        a = Fraction(a)
    return norm_difference(Params(as_fraction(a), n), K=K, mode=mode)


def _float_sign(n: int, a: float) -> int:
    """Sign of delta(a) read from its float enclosure.

    The enclosure is not rounded outward, so the sign is an estimate,
    not a proof.  An enclosure that does not exclude zero raises
    AmbiguousSign.
    """
    d = delta_of_a(n, a)
    if d.delta_lower > 0:
        return 1
    if d.delta_upper < 0:
        return -1
    raise AmbiguousSign(
        f"float enclosure of delta does not exclude zero at a = {a!r}, n = {n}"
    )


@dataclass(frozen=True)
class CoarseScan:
    """Float samples of delta over an a grid, with sign-change cells."""

    n: int
    a_values: Tuple[float, ...]
    deltas: Tuple[float, ...]
    sign_changes: Tuple[Tuple[float, float], ...]


def coarse_scan(n: int) -> CoarseScan:
    """Sample delta(a) on COARSE_GRID and record every sign-change cell.

    The float enclosures of ||f||^2 and ||g||^2 are formed once each,
    over the whole grid in one pass (``series.float_norms_sq``), and
    each sample is the midpoint of the gap enclosure: bit for bit what
    ``delta_of_a(n, a)`` gives at that grid point, since every grid
    float survives ``as_fraction`` unchanged.  All sign changes are
    recorded rather than assuming there is exactly one; downstream code
    picks the rising change it can certify from.
    """
    grid = COARSE_GRID
    values = enclose_difference(*float_norms_sq(grid, n)).midpoint.tolist()
    changes = []
    for i in range(len(values) - 1):
        if values[i] == 0.0 or (values[i] > 0) != (values[i + 1] > 0):
            changes.append((grid[i], grid[i + 1]))
    return CoarseScan(
        n=n,
        a_values=grid,
        deltas=tuple(values),
        sign_changes=tuple(changes),
    )


@dataclass(frozen=True)
class CriticalPoint:
    """Localized sign change of delta(a) at fixed n."""

    n: int
    a_star: float
    bracket: Tuple[float, float]
    rising: bool


def critical_a(n: int, bracket: Tuple[float, float]) -> CriticalPoint:
    """Bisect a sign change of delta(a) inside ``bracket``.

    Signs are read from float enclosures that are not rounded outward,
    so a* is a float estimate, not a certified value.  Both endpoints
    must have opposite signs, else InvalidBracket.  An endpoint or
    midpoint whose enclosure does not exclude zero (at the default
    truncation index: whose estimate is exactly zero) raises
    AmbiguousSign.
    """
    a_lo, a_hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < a_lo < a_hi < 1.0:
        raise ValueError(f"bracket must satisfy 0 < lo < hi < 1, got {bracket}")
    s_lo = _float_sign(n, a_lo)
    s_hi = _float_sign(n, a_hi)
    if s_lo == s_hi:
        raise InvalidBracket(
            f"float estimates of delta have sign {s_lo:+d} at both ends of {bracket} "
            f"for n = {n}"
        )
    while a_hi - a_lo > BRACKET_TOL:
        mid = 0.5 * (a_lo + a_hi)
        s_mid = _float_sign(n, mid)
        if s_mid == s_lo:
            a_lo = mid
        else:
            a_hi = mid
    return CriticalPoint(
        n=n,
        a_star=0.5 * (a_lo + a_hi),
        bracket=(a_lo, a_hi),
        rising=s_lo < 0,
    )


@dataclass(frozen=True)
class BoundCandidate:
    """A certified upper bound candidate: parameters, radius, evidence."""

    params: Params
    c: float
    delta_lower: Fraction
    certified: bool
    improves_wang: bool
    a_star: Optional[float]
    domination: DominationReport


def _quantize_up(value: float, decimals: int) -> Fraction:
    scale = 10 ** decimals
    return Fraction(math.ceil(value * scale), scale)


def best_bound(
    n: int,
    safety: float = DEFAULT_SAFETY,
    a: Optional[Coefficient] = None,
) -> BoundCandidate:
    """Best certified radius for frequency n.

    Unless ``a`` is forced, locates the sign change a* of delta(a),
    backs off to the certified coefficient ceil((a* + safety) * 10^d) /
    10^d (rounding away from the sign change keeps the gap positive and
    the decimal short), then recomputes the gap in exact rational
    arithmetic, finds the critical radius and verifies domination on
    the annulus.  CertificationFailed reports a nonpositive exact gap;
    root and domination failures propagate from their modules.
    """
    if n < 2:
        raise ValueError(f"frequency must be at least 2, got {n}")
    if not 0 < safety < 1:
        raise ValueError(f"safety margin must lie strictly between 0 and 1, got {safety}")

    a_star: Optional[float] = None
    if a is not None:
        a_cert = as_fraction(a)
    else:
        scan = coarse_scan(n)
        rising = None
        for lo, hi in scan.sign_changes:
            point = critical_a(n, (lo, hi))
            if point.rising:
                rising = point
                break
        if rising is None:
            raise CertificationFailed(
                f"no rising sign change of delta(a) detected for n = {n}"
            )
        a_star = rising.a_star
        a_cert = _quantize_up(a_star + safety, QUANTIZE_DECIMALS)
    if not 0 < a_cert < 1:
        raise CertificationFailed(
            f"certified coefficient {a_cert} escaped the open unit interval"
        )

    params = Params(a_cert, n)
    delta = norm_difference(params, mode="exact", adaptive=True)
    if not delta.certifies:
        raise CertificationFailed(
            f"exact norm gap at {params.describe()} is not positive: "
            f"delta_lower = {float(delta.delta_lower):.3e}"
        )
    c = critical_root(params)
    report = verify_domination(params, c)
    return BoundCandidate(
        params=params,
        c=c,
        delta_lower=delta.delta_lower,
        certified=True,
        improves_wang=c < WANG_UPPER_BOUND - 1e-9,
        a_star=a_star,
        domination=report,
    )


@dataclass(frozen=True)
class ScanRow:
    """One frequency's outcome: a candidate or the failure that stopped it."""

    n: int
    candidate: Optional[BoundCandidate]
    error: Optional[str]


@dataclass(frozen=True)
class ScanResult:
    """Certified candidates across frequencies.

    ``table`` orders successful rows by radius, largest first, with
    failed rows at the end; the strongest certified upper bound is the
    smallest radius, exposed as ``best``.
    """

    rows: Tuple[ScanRow, ...]

    def table(self) -> Tuple[ScanRow, ...]:
        done = [r for r in self.rows if r.candidate is not None]
        failed = [r for r in self.rows if r.candidate is None]
        done.sort(key=lambda r: r.candidate.c, reverse=True)
        return tuple(done + failed)

    @property
    def best(self) -> Optional[BoundCandidate]:
        candidates = [r.candidate for r in self.rows if r.candidate is not None]
        if not candidates:
            return None
        return min(candidates, key=lambda cand: cand.c)


def scan(n_values: Iterable[int], safety: float = DEFAULT_SAFETY) -> ScanResult:
    """Run best_bound for each n, recording per-row failures and moving on."""
    rows = []
    for n in n_values:
        try:
            candidate = best_bound(n, safety=safety)
            rows.append(ScanRow(n=n, candidate=candidate, error=None))
        except (
            NoInteriorRoot,
            DominationViolated,
            HypothesisViolated,
            CertificationFailed,
            AmbiguousSign,
            ValueError,
        ) as exc:
            rows.append(ScanRow(n=n, candidate=None, error=f"{type(exc).__name__}: {exc}"))
    return ScanResult(rows=tuple(rows))
