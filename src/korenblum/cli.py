"""Command line front end.

Exit codes: 0 success, 1 verification failure or computational error,
2 usage error (bad flags or parameter values).

The domination, quadrature and search modules are imported by the
commands that use them, so ``norms``, ``--help`` and usage errors load
none of them and ``root`` loads only the domination module.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Tuple, Type

from .certificate import encode_ends, encode_fraction, run_verification
from .family import Params, fraction_to_decimal
from .series import (DEFAULT_TERMS, MAX_TERMS, enclose_difference, float_norms_sq,
                     norm_sq_f, norm_sq_g)
# Not called here; kept so that ``cli.norm_difference`` stays a name that
# bench/tracing.py can wrap.
from .series import norm_difference  # noqa: F401

if TYPE_CHECKING:
    from .search import BoundCandidate

# critical_root reads signs of p exactly in integers of about 53 n bits, so
# its time grows superlinearly: ~0.02 s at n = 1000, ~0.5 s at n = 10^4.
MAX_FREQUENCY = 1000
MAX_POINTS = 100_000  # plot-data writes each row from a Python loop


def _compute_errors() -> Tuple[Type[BaseException], ...]:
    """The exceptions that main maps to exit 1; any other propagates out of main.

    They are ArithmeticError (which covers NoInteriorRoot, AmbiguousSign
    and CertificationFailed), DominationViolated, HypothesisViolated and
    InvalidBracket.  The last three are looked up only in the modules
    loaded so far: a module that was never imported raised none of them.
    """
    errors = [ArithmeticError]
    domination = sys.modules.get(f"{__package__}.domination")
    if domination is not None:
        errors += (domination.DominationViolated, domination.HypothesisViolated)
    search = sys.modules.get(f"{__package__}.search")
    if search is not None:
        errors.append(search.InvalidBracket)
    return tuple(errors)


def _coefficient(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse coefficient {text!r}")
    if not 0 < value < 1:
        raise argparse.ArgumentTypeError("coefficient a must lie strictly between 0 and 1")
    return value


def _bounded_int(noun: str, lo: int, hi: Optional[int] = None):
    """Argument parser of an integer in lo..hi, or at least lo if hi is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"cannot parse {noun} {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"{noun} must be at least {lo}")
        if hi is not None and value > hi:
            raise argparse.ArgumentTypeError(f"{noun} must be at most {hi}")
        return value

    return parse


_frequency = _bounded_int("frequency n", 2, MAX_FREQUENCY)
# Exact enclosures grow superlinearly in K: refuse at once what would
# otherwise run for minutes.
_terms = _bounded_int("term count", 1, MAX_TERMS)
_points = _bounded_int("point count", 2, MAX_POINTS)


def _grid(text: str) -> int:
    if "x" in text.lower():
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}: give the radial node count R alone (e.g. 128); "
            "the angular mean is exact, so there are no angular nodes"
        )
    from .quadrature import check_radial_nodes

    try:
        return check_radial_nodes(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r} (expected R, e.g. 128): {exc}")


def _safety(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse {text!r} as a number")
    if not 0 < value < 1:  # also refuses nan and inf
        raise argparse.ArgumentTypeError("safety margin must lie strictly between 0 and 1")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="korenblum",
        description=(
            "Certified upper bounds for Korenblum's constant from the "
            "two-function family f = (a + z^n)/(2 - a z^n), "
            "g = z (1 + a z^n)/(2 - a z^n)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_params(p: argparse.ArgumentParser) -> None:
        p.add_argument("--a", type=_coefficient, required=True,
                       help="coefficient a as an exact decimal in (0, 1)")
        p.add_argument("--n", type=_frequency, required=True,
                       help=f"frequency n in 2..{MAX_FREQUENCY}")

    p_verify = sub.add_parser("verify", help="run the full verification chain")
    add_params(p_verify)
    p_verify.add_argument("--terms", type=_terms, default=DEFAULT_TERMS,
                          help="starting truncation index K of the exact gap, which "
                               "doubles it until resolved (default %(default)s)")
    p_verify.add_argument("--exact", action="store_true",
                          help="accepted for existing command lines; the gap is always exact")
    p_verify.add_argument("--grid", type=_grid, default=None, metavar="R",
                          help="radial Gauss-Legendre nodes of the quadrature "
                               "cross-check, e.g. 128")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--out", default=None, help="write the certificate here")
    p_verify.set_defaults(func=cmd_verify)

    p_root = sub.add_parser("root", help="critical radius c solving h(c) = 1")
    add_params(p_root)
    p_root.add_argument("--json", action="store_true")
    p_root.set_defaults(func=cmd_root)

    p_norms = sub.add_parser("norms", help="norm enclosures and their gap")
    add_params(p_norms)
    p_norms.add_argument("--terms", type=_terms, default=DEFAULT_TERMS,
                         help="truncation index K of the enclosures (default %(default)s)")
    p_norms.add_argument("--exact", action="store_true")
    p_norms.add_argument("--json", action="store_true")
    p_norms.set_defaults(func=cmd_norms)

    # 5e-6 is search.DEFAULT_SAFETY, written out so that cli need not import search.
    p_search = sub.add_parser("search", help="locate and certify the best a for one n")
    p_search.add_argument("--n", type=_frequency, required=True)
    p_search.add_argument("--safety", type=_safety, default=5e-6)
    p_search.add_argument("--json", action="store_true")
    p_search.set_defaults(func=cmd_search)

    p_scan = sub.add_parser("scan", help="run the search across a frequency range")
    p_scan.add_argument("--n-min", type=_frequency, default=2)
    p_scan.add_argument("--n-max", type=_frequency, default=20)
    p_scan.add_argument("--safety", type=_safety, default=5e-6)
    p_scan.add_argument("--json", action="store_true")
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(func=cmd_scan)

    p_plot = sub.add_parser("plot-data", help="CSV data for plots")
    add_params(p_plot)
    p_plot.add_argument("--kind", choices=("envelope", "delta"), default="envelope")
    p_plot.add_argument("--points", type=_points, default=256)
    p_plot.add_argument("--a-min", type=_coefficient, default=Fraction("0.6"))
    p_plot.add_argument("--a-max", type=_coefficient, default=Fraction("0.7"))
    p_plot.add_argument("--out", default=None)
    p_plot.set_defaults(func=cmd_plot_data)

    return parser


def _enclosure_dict(enc) -> dict:
    lower, upper = encode_ends(enc.lower, enc.upper, enc._split)
    return {
        "lower": lower,
        "upper": upper,
        "truncation_index": enc.truncation_index,
        "mode": enc.mode,
    }


def cmd_verify(args: argparse.Namespace) -> int:
    params = Params(args.a, args.n)
    cert = run_verification(params, terms=args.terms, radial_nodes=args.grid)
    if args.json or args.out:
        text = cert.to_json()
        _emit(text, args.out)
        if args.out and not args.json:
            print(f"certificate written to {args.out}")
    if not args.json:
        print(f"params: {params.describe()}")
        for check in cert.checks:
            status = "ok" if check["passed"] else "FAIL"
            line = f"  {check['name']}: {status}"
            if "error" in check:
                line += f"  ({check['error']})"
            print(line)
        if cert.critical_radius:
            print(f"critical radius c = {cert.critical_radius['value']:.12f}")
        if cert.norm_gap:
            lo = cert.norm_gap["lower"]["float"]
            print(f"exact norm gap lower bound = {lo:.6e}")
        print("PASS" if cert.passed else f"FAIL: {cert.failed_check}")
    return 0 if cert.passed else 1


def cmd_root(args: argparse.Namespace) -> int:
    from .domination import critical_root

    params = Params(args.a, args.n)
    c = critical_root(params)
    if args.json:
        print(json.dumps({"a": fraction_to_decimal(params.a), "n": params.n, "c": c}))
    else:
        print(f"{c:.12f}")
    return 0


def cmd_norms(args: argparse.Namespace) -> int:
    params = Params(args.a, args.n)
    mode = "exact" if args.exact else "float"
    nf = norm_sq_f(params, K=args.terms, mode=mode)
    ng = norm_sq_g(params, K=args.terms, mode=mode)
    delta = enclose_difference(nf, ng)
    if args.json:
        # f, then g, then the gap: an end past the digit limit raises at the
        # first such end in this order.
        norm_f, norm_g = _enclosure_dict(nf), _enclosure_dict(ng)
        lower, upper = encode_ends(delta.delta_lower, delta.delta_upper, delta._split)
        print(json.dumps({
            "params": {"a": fraction_to_decimal(params.a), "n": params.n},
            "norm_sq_f": norm_f,
            "norm_sq_g": norm_g,
            "delta": {
                "lower": lower,
                "upper": upper,
                "certified": delta.certifies,
                "mode": mode,
                "truncation_index": delta.truncation_index,
            },
        }))
    else:
        print(f"params: {params.describe()}  (K = {args.terms}, {mode} mode)")
        print(f"||f||^2 in [{float(nf.lower):.15f}, {float(nf.upper):.15f}]")
        print(f"||g||^2 in [{float(ng.lower):.15f}, {float(ng.upper):.15f}]")
        print(f"delta   in [{float(delta.delta_lower):.6e}, {float(delta.delta_upper):.6e}]")
        print(f"gap {'certified' if args.exact else 'estimated'} positive: "
              f"{'yes' if delta.delta_lower > 0 else 'no'}")
    return 0


def _candidate_dict(candidate) -> dict:
    return {
        "a": fraction_to_decimal(candidate.params.a),
        "n": candidate.params.n,
        "c": candidate.c,
        "a_star": candidate.a_star,
        "delta_lower": encode_fraction(candidate.delta_lower),
        "certified": candidate.certified,
        "improves_wang": candidate.improves_wang,
        "domination_verdict": candidate.domination.verdict,
    }


def best_bound(n: int, safety: float) -> BoundCandidate:
    """``search.best_bound``, imported on first call (and a name that
    bench/tracing.py can wrap)."""
    from .search import best_bound

    return best_bound(n, safety=safety)


def cmd_search(args: argparse.Namespace) -> int:
    from .search import WANG_UPPER_BOUND

    candidate = best_bound(args.n, safety=args.safety)
    if args.json:
        print(json.dumps(_candidate_dict(candidate)))
    else:
        print(f"n = {candidate.params.n}")
        if candidate.a_star is not None:
            print(f"sign change of delta(a) near a* = {candidate.a_star:.10f}")
        print(f"certified coefficient a = {fraction_to_decimal(candidate.params.a)}")
        print(f"exact gap lower bound   = {float(candidate.delta_lower):.6e}")
        print(f"critical radius c       = {candidate.c:.12f}")
        print(f"improves {WANG_UPPER_BOUND}: {'yes' if candidate.improves_wang else 'no'}")
    return 0


def cmd_scan(args: argparse.Namespace) -> int:
    if args.n_max < args.n_min:
        print("error: --n-max must be at least --n-min", file=sys.stderr)
        return 2
    from .search import scan

    result = scan(range(args.n_min, args.n_max + 1), safety=args.safety)
    if args.json or args.out:
        rows = []
        for row in result.table():
            if row.candidate is not None:
                rows.append({"n": row.n, **_candidate_dict(row.candidate)})
            else:
                rows.append({"n": row.n, "error": row.error})
        best = result.best
        payload = json.dumps({
            "rows": rows,
            "best": _candidate_dict(best) if best else None,
        }, indent=2)
        _emit(payload, args.out)
        if args.out and not args.json:
            print(f"scan written to {args.out}")
    if not args.json:
        header = f"{'n':>3}  {'a':>11}  {'c':>16}  {'delta_lower':>12}  flags"
        print(header)
        for row in result.table():
            if row.candidate is None:
                print(f"{row.n:>3}  {'-':>11}  {'-':>16}  {'-':>12}  {row.error}")
                continue
            cand = row.candidate
            flags = []
            if cand.certified:
                flags.append("certified")
            if cand.improves_wang:
                flags.append("improves-0.67795")
            print(
                f"{row.n:>3}  {fraction_to_decimal(cand.params.a):>11}  "
                f"{cand.c:>16.12f}  {float(cand.delta_lower):>12.4e}  "
                f"{','.join(flags)}"
            )
        best = result.best
        if best is not None:
            print(
                f"best: n = {best.params.n}, a = {fraction_to_decimal(best.params.a)}, "
                f"c = {best.c:.12f}"
            )
        else:
            print("best: none certified")
    return 0


def cmd_plot_data(args: argparse.Namespace) -> int:
    import csv

    params = Params(args.a, args.n)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    if args.kind == "envelope":
        from .domination import critical_root, ratio_envelope

        c = critical_root(params)
        writer.writerow(["r", "h"])
        for i in range(args.points):
            r = c + (1.0 - c) * i / (args.points - 1)
            writer.writerow([repr(r), repr(float(ratio_envelope(params, r)))])
    else:
        a_lo, a_hi = float(args.a_min), float(args.a_max)
        if a_hi <= a_lo:
            print("error: --a-max must exceed --a-min", file=sys.stderr)
            return 2
        writer.writerow(["a", "delta_lower", "delta_upper"])
        a_values = [a_lo + (a_hi - a_lo) * i / (args.points - 1) for i in range(args.points)]
        d = enclose_difference(*float_norms_sq(a_values, args.n))
        for row in zip(a_values, d.delta_lower.tolist(), d.delta_upper.tolist()):
            writer.writerow([repr(x) for x in row])
    _emit(buffer.getvalue().rstrip("\n"), args.out)
    return 0


@functools.lru_cache(maxsize=1)
def _main_parser() -> argparse.ArgumentParser:
    # Building the parser costs ~2 ms; in-process callers of main (tests,
    # the benchmark worker, library users) pay it once.  parse_args
    # leaves the parser unchanged, so one instance serves every call.
    return build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _main_parser().parse_args(argv)
    try:
        return args.func(args)
    except _compute_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
