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
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from . import __version__
from .family import Params, _twos, fraction_to_decimal
from .series import DEFAULT_TERMS, Scalar, _Split, norm_difference

if TYPE_CHECKING:
    from .domination import DominationReport
    from .quadrature import CrossCheckReport, QuadratureGrid

SCHEMA = "korenblum.certificate.v1"

# 10^(2^j) for j = 0..13, the split points of ``_digits``.
_TENS = tuple(10 ** (1 << j) for j in range(14))
# Integers of at most this many digits go to str() whole.  Integers of
# more than _SPLIT_MAX digits go to str() too: _TENS has no larger split.
_LEAF_DIGITS = 768
_SPLIT_MAX = 1 << 14
_LOG10_2 = math.log10(2)
# The int-to-str digit limit; Python 3.10 before 3.10.7 has none.
_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
# 5^(2^j) for j = 0..13; ``_fives`` squares further for an integer with more than 16383 5s.
_FIVE_POWERS = tuple(5 ** (1 << j) for j in range(14))


def encode_fraction(
    x: Fraction, _decimal: Optional[Tuple[int, int]] = None
) -> Dict[str, Any]:
    """Lossless JSON encoding of a rational, with a float rendering.

    The integers are printed as ``str()`` prints them, but a long one is
    split in halves over powers of ten first (``_int_str``).  ``_decimal``
    is the denominator as ``(head, zeros)``, head * 10^zeros, which
    ``encode_ends`` passes for each exact end that ``series`` reduced:
    then the trailing zeros are not converted (``_positive_str``).
    Anything that might pass the interpreter's int-to-str digit limit
    goes to ``str()``, which raises the interpreter's own ``ValueError``.
    """
    return {
        "numerator": _int_str(x.numerator),
        "denominator": _positive_str(x.denominator, _decimal),
        "float": float(x),
    }


def encode_ends(lower: Scalar, upper: Scalar, split: Optional[_Split]) -> Tuple[Any, Any]:
    """JSON values of an enclosure's two ends: Fractions losslessly, floats as they are.

    ``split`` is the ``_split`` of the enclosure or gap, or None; from it
    ``_end_decimal`` gives ``encode_fraction`` each exact end's
    denominator.  The lower end is encoded first.
    """
    ends = (split.lower, split.upper) if split else (None, None)
    return tuple(
        encode_fraction(x, _end_decimal(split, end)) if isinstance(x, Fraction) else float(x)
        for x, end in zip((lower, upper), ends)
    )


def _end_decimal(split: _Split, end: Optional[Tuple[int, int]]) -> Optional[Tuple[int, int]]:
    """The denominator (big / cut) * rest of an exact end as ``(head, zeros)``.

    head * 10^zeros is the denominator, with zeros = min(v2, v5) and head
    not a multiple of 10; None if there is no ``end`` pair ``(cut, rest)``.
    The exponents v2 and v5 add up from those of ``split.base``, cut and
    rest, with big = base^exponent.  head is the rest of the
    factorization: the part of rest prime to 10, times the part of
    big / cut prime to 10 (1 when q has no prime but 2 and 5, as for
    every decimal a), times the 2s or 5s left over.  Only these short
    integers are divided.  At a = 0.6666757, n = 10, K = 256 each
    denominator of the gap has ~3,600 trailing zeros and a head of
    ~1,950 bits.
    """
    if end is None:
        return None
    cut, rest = end
    exponent = split.exponent
    b2, b5, b = _valuations(split.base)
    c2, c5, c = _valuations(cut)
    r2, r5, r = _valuations(rest)
    twos, fives = b2 * exponent - c2 + r2, b5 * exponent - c5 + r5
    odd = r if b == 1 else b ** exponent // c * r
    if fives > twos:
        return odd * 5 ** (fives - twos), twos
    return odd << (twos - fives), fives


def _fives(x: int) -> Tuple[int, int]:
    """Exponent of 5 in a nonzero integer, and x without its 5s.

    The powers 5^(2^j) are divided out by binary descent over j, from the
    largest j that the count could reach: below 64 if 5^64 does not
    divide x, else the bound that the length of x sets (5^e <= |x| < 2^b
    gives e < 7 b / 16).  So an integer with few 5s takes only short
    divisions, and one with many takes each long division once.
    """
    limit = x.bit_length() * 7 // 16
    if x % _FIVE_POWERS[6]:
        limit = min(limit, 63)
    top = limit.bit_length()
    powers = _FIVE_POWERS
    while len(powers) < top:
        powers += (powers[-1] ** 2,)
    count = 0
    for j in reversed(range(top)):
        if count + (1 << j) <= limit:
            quotient, remainder = divmod(x, powers[j])
            if not remainder:
                x, count = quotient, count + (1 << j)
    return count, x


def _valuations(x: int) -> Tuple[int, int, int]:
    """Exponents of 2 and 5 in a nonzero integer, and its part prime to 10."""
    twos = _twos(x)
    fives, rest = _fives(x >> twos)
    return twos, fives, rest


def _digit_bound(x: int) -> int:
    """At least the number of decimal digits of x."""
    return int(x.bit_length() * _LOG10_2) + 1


def _int_str(x: int) -> str:
    """``str(x)``, printing a long integer by halves.

    ``str()`` takes time quadratic in the length.  Dividing by 10^m with
    m about half the length, and printing both parts, costs less, since
    CPython's long division does less work per digit than its decimal
    conversion (Brent and Zimmermann, *Modern Computer Arithmetic*,
    section 1.7).
    """
    size = _digit_bound(x)
    limit = _max_str_digits()
    if size <= _LEAF_DIGITS or size > _SPLIT_MAX or (limit and size > limit):
        return str(x)
    return "-" + _digits(-x, 0) if x < 0 else _digits(x, 0)


def _digits(x: int, pad: int) -> str:
    """The digits of x >= 0, zero-filled on the left to ``pad`` of them.

    The split point 10^(2^j) has 2^j between 3/8 and 3/4 of the length,
    so at the top, where ``pad`` is 0, the high part is never 0.
    """
    size = _digit_bound(x)
    if size <= _LEAF_DIGITS:
        return str(x).zfill(pad)
    j = (3 * size // 4).bit_length() - 1
    high, low = divmod(x, _TENS[j])
    return _digits(high, pad - (1 << j)) + _digits(low, 1 << j)


def _positive_str(x: int, decimal: Optional[Tuple[int, int]] = None) -> str:
    """``str(x)`` for x >= 1.

    With x as ``decimal``, ``(head, zeros)`` for head * 10^zeros, only the
    head is converted, by ``_int_str``, and the zeros are appended; without
    it, x is converted like a numerator.  A result longer than the digit
    limit is left to ``str(x)``, which raises the interpreter's own
    ``ValueError``.
    """
    head, zeros = decimal or (x, 0)
    if not zeros:
        return _int_str(x)
    text = _int_str(head)
    limit = _max_str_digits()
    if limit and len(text) + zeros > limit:
        return str(x)
    return text + "0" * zeros


def decode_fraction(d: Dict[str, Any]) -> Fraction:
    return Fraction(int(d["numerator"]), int(d["denominator"]))


def _fields_dict(record, skip: str = "") -> Dict[str, Any]:
    """Shallow dict of a dataclass's fields, in declaration order."""
    return {f.name: getattr(record, f.name) for f in fields(record) if f.name != skip}


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


def cross_check(params: Params, grid: Optional[QuadratureGrid] = None) -> CrossCheckReport:
    """``quadrature.cross_check``."""
    from .quadrature import cross_check

    return cross_check(params, grid=grid)


def run_verification(
    params: Params,
    terms: int = DEFAULT_TERMS,
    grid: Optional[QuadratureGrid] = None,
) -> Certificate:
    """Run the full verification chain and assemble a certificate.

    Checks run in a fixed order (critical root, domination, norm gap,
    quadrature cross-check) and stop at the first failure: its name is
    ``failed_check``, and the sections of the checks after it are None.
    A check fails when its step reports so, or when it raises one of its
    listed exceptions, whose message becomes the check's ``error``:
    ArithmeticError for the root, DominationViolated or
    HypothesisViolated for the domination grid.  Any other exception
    propagates.  The command line exits 1 on a failed certificate.
    ``terms`` is the exact gap's starting truncation index; the
    cross-check reads the float series at ``DEFAULT_TERMS``.
    """
    from .domination import DominationViolated, HypothesisViolated, ROOT_TOL, critical_polynomial

    start = time.perf_counter()
    # Each step returns its section and whether its check passed.  The
    # steps call critical_root, verify_domination, norm_difference and
    # cross_check through this module's names, read when they run.
    sections: Dict[str, Dict[str, Any]] = {}

    def root() -> Tuple[Dict[str, Any], bool]:
        c = critical_root(params)
        residual = abs(float(critical_polynomial(params, c)))
        return {"value": c, "residual": residual, "tol": ROOT_TOL}, True

    def domination() -> Tuple[Dict[str, Any], bool]:
        report = verify_domination(params, sections["critical_root"]["value"])
        section = {"sampled_only": True, **_fields_dict(report, skip="params")}
        return section, report.verdict == "pass"

    def norm_gap() -> Tuple[Dict[str, Any], bool]:
        delta = norm_difference(params, K=terms, mode="exact", adaptive=True)
        lower, upper = encode_ends(delta.delta_lower, delta.delta_upper, delta._split)
        section = {
            "mode": delta.mode,
            "truncation_index": delta.truncation_index,
            "lower": lower,
            "upper": upper,
            "certified": bool(delta.certifies),
        }
        return section, delta.certifies

    def quadrature() -> Tuple[Dict[str, Any], bool]:
        report = cross_check(params, grid=grid)
        return _fields_dict(report), report.passed

    checks: List[Dict[str, Any]] = []
    failed: Optional[str] = None
    for name, step, errors in (
        ("critical_root", root, ArithmeticError),
        ("domination", domination, (DominationViolated, HypothesisViolated)),
        ("norm_gap", norm_gap, ()),
        ("cross_check", quadrature, ()),
    ):
        try:
            sections[name], passed = step()
        except errors as exc:
            check = {"name": name, "passed": False, "error": str(exc)}
        else:
            check = {"name": name, "passed": passed}
        checks.append(check)
        if not check["passed"]:
            failed = name
            break

    return Certificate(
        params={"a": fraction_to_decimal(params.a), "n": params.n},
        critical_radius=sections.get("critical_root"),
        norm_gap=sections.get("norm_gap"),
        domination=sections.get("domination"),
        cross_check=sections.get("cross_check"),
        checks=checks,
        passed=failed is None,
        failed_check=failed,
        wall_time_s=time.perf_counter() - start,
    )
