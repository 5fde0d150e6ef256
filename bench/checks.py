"""Output checks computed apart from the program.

Nothing here imports ``korenblum``.  The squared norms come from a
50-digit mpmath sum of the closed-form Taylor coefficients

    f(z) = a/2 + sum_{k>=1} a^(k-1) (a^2 + 2) / 2^(k+1) z^(n k)
    g(z) = z/2 + sum_{k>=1} 3 a^k / 2^(k+1) z^(n k + 1)

with ||z^m||^2 = 1/(m + 1), and the critical radius is checked on
p(r) = r + a r^(n+1) - a - r^n in exact rationals.  Each check returns a
list of error strings; an empty list means the output is correct.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Tuple

import mpmath

DIGITS = 50
# A 50-digit sum of fewer than 200 terms is good to far better than this,
# so an enclosure "contains" the mpmath value when it does after widening
# by MP_SLACK on both sides.
MP_SLACK = mpmath.mpf("1e-45")
QUAD_TOL = 1e-9
ROOT_STEP = Fraction(1, 10 ** 12)
SEARCH_STEP = Fraction(1, 10 ** 5)
WANG_UPPER_BOUND = 0.67795


def _mp(x: Fraction) -> mpmath.mpf:
    return mpmath.mpf(x.numerator) / x.denominator


def mp_norms(a: Fraction, n: int) -> Tuple[mpmath.mpf, mpmath.mpf, mpmath.mpf]:
    """(||f||^2, ||g||^2, ||f||^2 - ||g||^2) to DIGITS digits."""
    with mpmath.workdps(DIGITS + 10):
        am = _mp(a)
        nf = (am / 2) ** 2
        ng = mpmath.mpf(1) / 4 / 2
        c = (am * am + 2) / 4  # f coefficient of z^(n k) at k = 1
        d = 3 * am / 4  # g coefficient of z^(n k + 1) at k = 1
        q = am / 2
        eps = mpmath.mpf(10) ** -(DIGITS + 8)
        k = 1
        while True:
            tf = c * c / (n * k + 1)
            tg = d * d / (n * k + 2)
            nf += tf
            ng += tg
            if tf < eps and tg < eps:
                break
            c *= q
            d *= q
            k += 1
        return nf, ng, nf - ng


def _fraction(encoded: Dict[str, str]) -> Fraction:
    return Fraction(int(encoded["numerator"]), int(encoded["denominator"]))


def _enclosure(label: str, lower: Fraction, upper: Fraction, value, errors: List[str]) -> None:
    with mpmath.workdps(DIGITS + 10):
        if not (_mp(lower) - MP_SLACK <= value <= _mp(upper) + MP_SLACK and lower <= upper):
            errors.append(
                f"{label}: 50-digit value {mpmath.nstr(value, 20)} lies outside "
                f"[{float(lower)!r}, {float(upper)!r}]"
            )


def critical_polynomial(a: Fraction, n: int, r: Fraction) -> Fraction:
    return r + a * r ** (n + 1) - a - r ** n


def _root(a: Fraction, n: int, c: float, errors: List[str]) -> None:
    r = Fraction(c)
    lo = critical_polynomial(a, n, r - ROOT_STEP)
    hi = critical_polynomial(a, n, r + ROOT_STEP)
    if not lo < 0 < hi:
        errors.append(f"c = {c!r} does not bracket a sign change of p at +-1e-12")
    if n == 10 and not c < WANG_UPPER_BOUND:
        errors.append(f"n = 10 gives c = {c!r}, not below {WANG_UPPER_BOUND}")


def _params(payload: Dict, n: int, a: Fraction, errors: List[str]) -> None:
    if payload.get("n") != n or Fraction(payload.get("a", "-1")) != a:
        errors.append(f"output is for a = {payload.get('a')}, n = {payload.get('n')}")


def check_verify(n: int, a: Fraction, cert: Dict) -> List[str]:
    errors: List[str] = []
    _params(cert["params"], n, a, errors)
    if cert["passed"] is not True or cert["failed_check"] is not None:
        errors.append(f"certificate did not pass: {cert['failed_check']}")
        return errors
    _root(a, n, cert["critical_radius"]["value"], errors)
    gap = cert["norm_gap"]
    if gap["mode"] != "exact" or gap["certified"] is not True:
        errors.append("norm gap is not an exact certified enclosure")
    lower, upper = _fraction(gap["lower"]), _fraction(gap["upper"])
    if not lower > 0:
        errors.append("exact gap lower bound is not positive")
    nf, ng, delta = mp_norms(a, n)
    _enclosure("norm_gap", lower, upper, delta, errors)
    xc = cert["cross_check"]
    for key, ref in (("quad_f_original", nf), ("quad_f_substituted", nf),
                     ("quad_g_original", ng), ("quad_g_substituted", ng)):
        if not abs(xc[key] - float(ref)) <= QUAD_TOL:
            errors.append(f"{key} = {xc[key]!r} is {abs(xc[key] - float(ref)):.2e} "
                          f"from the 50-digit norm")
    if cert["domination"]["verdict"] != "pass":
        errors.append("domination verdict is not pass")
    return errors


def check_search(n: int, cand: Dict) -> List[str]:
    errors: List[str] = []
    if cand.get("n") != n:
        errors.append(f"output is for n = {cand.get('n')}")
    if cand["certified"] is not True or cand["domination_verdict"] != "pass":
        errors.append("candidate is not certified")
    a = Fraction(cand["a"])
    delta = mp_norms(a, n)[2]
    if not delta > 0:
        errors.append(f"50-digit delta({cand['a']}) is not positive")
    if not mp_norms(a - SEARCH_STEP, n)[2] < 0:
        errors.append(f"50-digit delta({cand['a']} - 1e-5) is not negative")
    lower = _fraction(cand["delta_lower"])
    if not lower > 0:
        errors.append("exact gap lower bound is not positive")
    with mpmath.workdps(DIGITS + 10):
        if not _mp(lower) - MP_SLACK <= delta:
            errors.append("exact gap lower bound exceeds the 50-digit gap")
    _root(a, n, cand["c"], errors)
    if (cand["c"] < WANG_UPPER_BOUND) != cand["improves_wang"]:
        errors.append("improves_wang disagrees with c")
    return errors


def check_gap(n: int, a: Fraction, terms: int, out: Dict) -> List[str]:
    errors: List[str] = []
    _params(out["params"], n, a, errors)
    nf, ng, delta_ref = mp_norms(a, n)
    for key, ref in (("norm_sq_f", nf), ("norm_sq_g", ng)):
        enc = out[key]
        if enc["mode"] != "exact" or enc["truncation_index"] != terms:
            errors.append(f"{key} is not an exact {terms}-term enclosure")
        _enclosure(key, _fraction(enc["lower"]), _fraction(enc["upper"]), ref, errors)
    delta = out["delta"]
    if delta["certified"] is not True or delta["truncation_index"] != terms:
        errors.append("delta is not a certified enclosure at the requested K")
    _enclosure("delta", _fraction(delta["lower"]), _fraction(delta["upper"]), delta_ref, errors)
    return errors


def check_output(workload: str, n: int, a: str, terms: int, text: str) -> List[str]:
    """Errors in one job's captured standard output (empty when correct)."""
    try:
        payload = json.loads(text)
        if workload == "verify":
            return check_verify(n, Fraction(a), payload)
        if workload == "search":
            return check_search(n, payload)
        return check_gap(n, Fraction(a), terms, payload)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
