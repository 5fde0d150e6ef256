"""Spans and counts around the public functions of each korenblum module.

A traced pass replaces module attributes with wrappers, at the names the
callers look up (``search.norm_difference``, ``domination.eval_f``,
``quadrature.gauss_legendre_nodes``, ...), and restores them afterwards.
Each call records one span ``[name, start, end, parent, job]`` in memory;
a layer's self time is its spans' duration minus the part their child
spans cover.  Counts are taken at the same boundaries.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

LOG10_2 = math.log10(2)


def _digits(x) -> int:
    """Decimal digits of the larger of numerator and denominator.

    Uses bit lengths: converting a huge integer to a string is exactly
    what the program's encoder fails at past 4300 digits.
    """
    return int(max(x.numerator.bit_length(), x.denominator.bit_length()) * LOG10_2) + 1


def _series_span(args, kwargs) -> str:
    """``series.exact`` or ``series.float``, from the call's ``mode``."""
    return "series." + kwargs.get("mode", args[2] if len(args) > 2 else "float")


def _norm_sq_counts(args, kwargs, result, counts) -> None:
    counts["series.norm_sq_calls"] += 1
    if result.mode == "exact":
        counts["series.exact_calls"] += 1
        counts["series.exact_terms"] += result.truncation_index + 1
        counts["series.exact_digits_sum"] += _digits(result.lower)
    else:
        counts["series.float_calls"] += 1


def _eval_counts(args, kwargs, result, counts) -> None:
    counts["family.points"] += getattr(args[1], "size", 1)


def _gl_counts(args, kwargs, result, counts) -> None:
    counts["quadrature.gl_nodes_calls"] += 1


def _encode_counts(args, kwargs, result, counts) -> None:
    counts["certificate.encode_digits"] += _digits(args[0])


def _sign_eval_counts(args, kwargs, result, counts) -> None:
    counts["search.sign_evals"] += 1


Counter = Callable[[tuple, dict, Any, Dict[str, float]], None]

# (module, attribute, span name or None for a count only, counter)
PATCHES: Tuple[Tuple[str, str, Any, Optional[Counter]], ...] = (
    ("cli", "main", "cli.main", None),
    ("cli", "run_verification", "certificate.run_verification", None),
    ("cli", "encode_fraction", "certificate.encode", _encode_counts),
    ("certificate", "encode_fraction", "certificate.encode", _encode_counts),
    ("cli", "best_bound", "search.best_bound", None),
    ("search", "coarse_scan", "search.coarse_scan", None),
    ("search", "critical_a", "search.critical_a", None),
    ("search", "delta_of_a", None, _sign_eval_counts),
    ("certificate", "critical_root", "domination.critical_root", None),
    ("search", "critical_root", "domination.critical_root", None),
    ("certificate", "verify_domination", "domination.verify_domination", None),
    ("search", "verify_domination", "domination.verify_domination", None),
    ("domination", "eval_f", "family.eval", _eval_counts),
    ("domination", "eval_g", "family.eval", _eval_counts),
    ("certificate", "cross_check", "quadrature.cross_check", None),
    ("quadrature", "gauss_legendre_nodes", "quadrature.gl_nodes", _gl_counts),
    ("cli", "norm_sq_f", _series_span, _norm_sq_counts),
    ("cli", "norm_sq_g", _series_span, _norm_sq_counts),
    ("series", "norm_sq_f", _series_span, _norm_sq_counts),
    ("series", "norm_sq_g", _series_span, _norm_sq_counts),
    ("cli", "norm_difference", _series_span, None),
    ("search", "norm_difference", _series_span, None),
    ("certificate", "norm_difference", _series_span, None),
)

# Per-layer metric -> span name whose self time it reports, in ms per job.
SELF_TIME_METRICS = {
    "cli.main_ms": "cli.main",
    "certificate.run_verification_ms": "certificate.run_verification",
    "certificate.encode_ms": "certificate.encode",
    "search.best_bound_ms": "search.best_bound",
    "search.coarse_scan_ms": "search.coarse_scan",
    "search.critical_a_ms": "search.critical_a",
    "domination.critical_root_ms": "domination.critical_root",
    "domination.verify_domination_ms": "domination.verify_domination",
    "family.eval_ms": "family.eval",
    "quadrature.cross_check_ms": "quadrature.cross_check",
    "quadrature.gl_nodes_ms": "quadrature.gl_nodes",
    "series.exact_ms": "series.exact",
    "series.float_ms": "series.float",
}

# Per-layer counts, per job.
COUNT_METRICS = (
    "quadrature.gl_nodes_calls",
    "family.points",
    "series.norm_sq_calls",
    "series.exact_calls",
    "series.exact_terms",
    "series.float_calls",
    "search.sign_evals",
    "certificate.encode_digits",
)


class Tracer:
    """In-memory span and count recorder for traced passes."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.job: int = -1
        self._stack: List[int] = []

    def _wrap(self, fn: Callable, name: Any, counter: Optional[Counter]) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        if name is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counter(args, kwargs, result, counts)
                return result
            return counted

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counter is not None:
                counter(args, kwargs, result, counts)
            return result
        return traced

    @contextmanager
    def patched(self) -> Iterator[None]:
        """Install every wrapper for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in PATCHES:
                module = importlib.import_module("korenblum." + module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self) -> Dict[str, float]:
        """Total self time in seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += end - start - child[i]
        return totals

    def layer_metrics(self, jobs: int, scale: float = 1.0) -> Dict[str, float]:
        """Per-job self times (ms, multiplied by ``scale``) and counts over
        ``jobs`` traced jobs."""
        totals = self.self_times()
        out = {metric: 1e3 * scale * totals.get(span, 0.0) / jobs
               for metric, span in SELF_TIME_METRICS.items()}
        for metric in COUNT_METRICS:
            out[metric] = self.counts.get(metric, 0.0) / jobs
        exact_calls = self.counts.get("series.exact_calls", 0.0)
        out["series.exact_digits"] = (
            self.counts.get("series.exact_digits_sum", 0.0) / exact_calls if exact_calls else 0.0
        )
        return out
