"""Verification certificates: proved and sampled evidence, labelled apart.

A certificate records the full chain of evidence behind one parameter
pair: the critical radius with its residual, the norm gap enclosure
(exact rationals serialized as integer strings so nothing is lost), the
sampled domination report and the quadrature cross-check.  Sampled
checks are labelled as such.  Two statements are proof-grade: the gap,
always enclosed exactly, and the radius, which exact signs of p place at
or above the interior root.  ``certified`` is still set from the gap
alone, because the envelope lemma, the domination grid and the pole and
zero clearance are sampled, not machine-checked.
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from . import __version__
from .family import Params, fraction_to_decimal
from .series import DifferenceResult, Scalar, _twos, norm_difference

if TYPE_CHECKING:
    from .domination import DominationReport
    from .quadrature import CrossCheckReport, QuadratureGrid

SCHEMA = "korenblum.certificate.v1"

# 5^(2^j) for j = 0..13: enough to find up to 16383 trailing zeros.
_FIVES = tuple(5 ** (1 << j) for j in range(14))
# 10^(2^j) = 5^(2^j) 2^(2^j), the split points of ``_digits``.
_TENS = tuple(five << (1 << j) for j, five in enumerate(_FIVES))
# Integers of at most this many digits go to str() whole.  Integers of
# more than _SPLIT_MAX digits go to str() too: _TENS has no larger split.
_LEAF_DIGITS = 768
_SPLIT_MAX = 1 << 14
_LOG10_2 = math.log10(2)
# The int-to-str digit limit; Python 3.10 before 3.10.7 has none.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)


def encode_fraction(x: Fraction) -> Dict[str, Any]:
    """Lossless JSON encoding of a rational, with a float rendering.

    The integers are printed as ``str()`` prints them, but a long one is
    split in halves over powers of ten first (``_int_str``), and a
    denominator's trailing zeros are not converted (``_positive_str``).
    Anything that might pass the interpreter's int-to-str digit limit
    goes to ``str()``, which raises the interpreter's own ``ValueError``.
    """
    return {
        "numerator": _int_str(x.numerator),
        "denominator": _positive_str(x.denominator),
        "float": float(x),
    }


def _int_str(x: int) -> str:
    """``str(x)``, printing a long integer by halves.

    ``str()`` takes time quadratic in the length.  Dividing by 10^m with
    m about half the length, and printing both parts, costs less, since
    CPython's long division does less work per digit than its decimal
    conversion (Brent and Zimmermann, *Modern Computer Arithmetic*,
    section 1.7).  At ~4,200 digits this takes about a fifth off.
    """
    size = int(x.bit_length() * _LOG10_2) + 1  # at least the number of digits
    limit = _max_str_digits()
    if size <= _LEAF_DIGITS or size > _SPLIT_MAX or (limit and size > limit):
        return str(x)
    return "-" + _digits(-x, 0) if x < 0 else _digits(x, 0)


def _digits(x: int, pad: int) -> str:
    """The digits of x >= 0, zero-filled on the left to ``pad`` of them.

    The split point 10^(2^j) has 2^j between 3/8 and 3/4 of the length,
    so at the top, where ``pad`` is 0, the high part is never 0.
    """
    size = int(x.bit_length() * _LOG10_2) + 1
    if size <= _LEAF_DIGITS:
        return str(x).zfill(pad)
    j = (3 * size // 4).bit_length() - 1
    high, low = divmod(x, _TENS[j])
    return _digits(high, pad - (1 << j)) + _digits(low, 1 << j)


def _positive_str(x: int) -> str:
    """``str(x)`` for x >= 1, printing its trailing zeros without converting them.

    The t zeros, t = min(v2, v5), come off as x // 10^t, with v5 found by
    descent over 5^(2^j) and capped at v2; only the rest is converted, by
    ``_int_str``.  A result longer than the interpreter's digit limit is
    left to ``str(x)``, which raises the interpreter's own ``ValueError``.
    """
    twos = _twos(x)
    odd = x >> twos
    zeros = 0
    for j in reversed(range(len(_FIVES))):
        if zeros + (1 << j) <= twos:
            quotient, remainder = divmod(odd, _FIVES[j])
            if not remainder:
                odd, zeros = quotient, zeros + (1 << j)
    if not zeros:
        return _int_str(x)
    head = _int_str(odd << (twos - zeros))
    limit = _max_str_digits()
    if limit and len(head) + zeros > limit:
        return str(x)
    return head + "0" * zeros


def decode_fraction(d: Dict[str, Any]) -> Fraction:
    return Fraction(int(d["numerator"]), int(d["denominator"]))


def encode_scalar(x: Scalar) -> Any:
    """JSON value of an enclosure end: a Fraction losslessly, a float as is."""
    if isinstance(x, Fraction):
        return encode_fraction(x)
    return float(x)


def _fields_dict(record, skip: str = "") -> Dict[str, Any]:
    """Shallow dict of a dataclass's fields, in declaration order."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name != skip}


def _domination_dict(report: DominationReport) -> Dict[str, Any]:
    return {"sampled_only": True, **_fields_dict(report, skip="params")}


def _norm_gap_dict(delta: DifferenceResult) -> Dict[str, Any]:
    return {
        "mode": delta.mode,
        "truncation_index": delta.truncation_index,
        "lower": encode_scalar(delta.delta_lower),
        "upper": encode_scalar(delta.delta_upper),
        "certified": bool(delta.certifies),
    }


@dataclass(kw_only=True)
class Certificate:
    """JSON-shaped verification record; all fields are plain data.

    The field order is the key order of the JSON form.
    """

    schema: str = SCHEMA
    version: str = __version__
    params: Dict[str, Any]
    critical_radius: Optional[Dict[str, Any]]
    norm_gap: Optional[Dict[str, Any]]
    domination: Optional[Dict[str, Any]]
    cross_check: Optional[Dict[str, Any]]
    checks: List[Dict[str, Any]]
    passed: bool
    failed_check: Optional[str]
    wall_time_s: float

    def to_dict(self) -> Dict[str, Any]:
        return _fields_dict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Certificate":
        return cls(**{f.name: data[f.name] for f in fields(cls)})

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_dict(json.loads(text))

    def delta_lower_fraction(self) -> Optional[Fraction]:
        """Exact lower gap bound, when the certificate carries one."""
        if not self.norm_gap or self.norm_gap["mode"] != "exact":
            return None
        return decode_fraction(self.norm_gap["lower"])


# run_verification calls its domination and quadrature steps through these
# module-level names, which import their module on first call: encoding a
# norm gap then loads neither, and the steps stay names that a caller can
# wrap (bench/tracing.py does).
def critical_root(params: Params) -> float:
    """``domination.critical_root``."""
    from .domination import critical_root

    return critical_root(params)


def verify_domination(params: Params, c: float) -> DominationReport:
    """``domination.verify_domination`` at its default grid."""
    from .domination import verify_domination

    return verify_domination(params, c)


def cross_check(
    params: Params, grid: Optional[QuadratureGrid] = None, K: int = 64
) -> CrossCheckReport:
    """``quadrature.cross_check``."""
    from .quadrature import cross_check

    return cross_check(params, grid=grid, K=K)


def run_verification(
    params: Params,
    terms: int = 64,
    grid: Optional[QuadratureGrid] = None,
) -> Certificate:
    """Run the full verification chain and assemble a certificate.

    Checks run in a fixed order (critical root, domination, norm gap,
    quadrature cross-check) and stop at the first failure, which is
    recorded by name.
    """
    from .domination import DominationViolated, HypothesisViolated, ROOT_TOL, critical_polynomial

    start = time.perf_counter()
    checks: List[Dict[str, Any]] = []
    failed: Optional[str] = None

    c_dict = None
    gap_dict = None
    dom_dict = None
    xc_dict = None

    c = None
    try:
        c = critical_root(params)
        c_dict = {
            "value": c,
            "residual": abs(float(critical_polynomial(params, c))),
            "tol": ROOT_TOL,
        }
        checks.append({"name": "critical_root", "passed": True})
    except ArithmeticError as exc:
        checks.append({"name": "critical_root", "passed": False, "error": str(exc)})
        failed = "critical_root"

    if failed is None:
        try:
            report = verify_domination(params, c)
            dom_dict = _domination_dict(report)
            ok = report.verdict == "pass"
            checks.append({"name": "domination", "passed": ok})
            if not ok:
                failed = "domination"
        except (DominationViolated, HypothesisViolated) as exc:
            checks.append({"name": "domination", "passed": False, "error": str(exc)})
            failed = "domination"

    if failed is None:
        delta = norm_difference(params, K=terms, mode="exact", adaptive=True)
        gap_dict = _norm_gap_dict(delta)
        ok = delta.certifies
        checks.append({"name": "norm_gap", "passed": ok})
        if not ok:
            failed = "norm_gap"

    if failed is None:
        xc = cross_check(params, grid=grid, K=terms)
        xc_dict = _fields_dict(xc)
        checks.append({"name": "cross_check", "passed": xc.passed})
        if not xc.passed:
            failed = "cross_check"

    return Certificate(
        params={"a": fraction_to_decimal(params.a), "n": params.n},
        critical_radius=c_dict,
        norm_gap=gap_dict,
        domination=dom_dict,
        cross_check=xc_dict,
        checks=checks,
        passed=failed is None,
        failed_check=failed,
        wall_time_s=time.perf_counter() - start,
    )
