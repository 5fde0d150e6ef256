"""Benchmark of the korenblum command line: certificates, search, exact gaps.

    python3 bench/run.py --workload verify --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --quick

Each workload is a fixed list of ``korenblum`` jobs (see ``jobs.py``) run
in whole passes, one job at a time, in a fresh interpreter started for
the run (``worker.py``).  The seed only permutes the jobs inside each pass.
Job and set-up times are scaled to a fixed machine speed measured by a
kernel that does not call the program (``calibrate.py``).
Every distinct output is checked against computations made apart from
the program (``checks.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  ``--quick`` runs only the warm-up job of
each workload, with every check, and no timed passes.

Results and traces are written to ``bench/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import checks  # noqa: E402
import jobs as joblib  # noqa: E402

# Set-up is measured in fresh interpreters: this many before the timed
# worker, the timed worker itself, and this many after it.  The median of
# the samples is reported; spreading them over the run averages out slow
# spells of the machine.
SETUP_PROBES_EACH_SIDE = 3
# One run, set-up included, ends within this many seconds or fails.
RUN_DEADLINE_S = 170.0
# numpy's leggauss calls OpenBLAS, which would otherwise start a second
# thread on this two-core class of machine; one thread keeps the load to
# exactly one busy core.
BLAS_THREADS = "1"
# The only failure a correct run may hold: gap jobs whose exact bounds
# exceed Python's 4300-digit int/str limit in certificate.encode_fraction.
KNOWN_FAULT = ("gap", "ValueError", "Exceeds the limit (4300 digits)")


class BenchError(RuntimeError):
    """A worker could not run to its end."""


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    # Python's default limit on int/str conversion, so the known encoder
    # fault shows the same way on every machine.
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    return env


def spawn(args: argparse.Namespace, workload: str, deadline: float, *extra: str):
    """Run worker.py to its end; return (start time, its JSON result)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker did not finish before the run deadline")
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload: str, result: dict) -> list:
    """Errors in a worker's outputs and failures; empty when all is correct."""
    by_argv = {tuple(argv): (n, a) for n, a, argv in joblib.job_list(workload)}
    errors = []
    for item in result["outputs"]:
        n, a = by_argv[tuple(item["argv"])]
        for err in checks.check_output(workload, n, a, joblib.GAP_TERMS, item["stdout"]):
            errors.append(f"n = {n}: {err}")
    for item in result["failures"]:
        kind = (workload, item["exception"], item["message"][:len(KNOWN_FAULT[2])])
        if kind != KNOWN_FAULT:
            errors.append(f"{' '.join(item['argv'])}: {item['exception']}: {item['message']}")
    return errors


def reference_percentile(samples: list):
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    best = None
    if len(samples) >= 40:
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        for q in (90, 95, 99, 99.9):
            if len(samples) * (1 - q / 100) >= 10:
                best = (q, cuts[round(q * 10) - 1])
    return best


def run_workload(args: argparse.Namespace, workload: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    setups = []

    def probe() -> None:
        start, ready = spawn(args, workload, deadline, "--setup-only")
        setups.append((ready["ready"] - start) * ready["setup_scale"])

    probes = 0 if args.trace else SETUP_PROBES_EACH_SIDE
    for _ in range(probes):
        probe()
    OUT.mkdir(exist_ok=True)
    trace_out = ("--trace-out", str(OUT / f"trace-{workload}-seed{args.seed}.json"))
    start, result = spawn(args, workload, deadline, *(trace_out if args.trace else ()))
    setups.append((result["ready"] - start) * result["setup_scale"])
    for _ in range(probes):
        probe()

    errors = check(workload, result)
    for err in errors:
        print(f"{workload}: INCORRECT: {err}", file=sys.stderr)
    tag = f"{workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in sorted(result["layers"].items())}
    else:
        passes = result["passes"]
        job_ms = [t * k for t, k in zip(result["job_ms"], result["job_scale"])]
        metrics = {
            "jobs_per_s": {"value": len(job_ms) / (1e-3 * sum(job_ms)), "unit": "1/s"},
            "job_p50_ms": {"value": statistics.median(job_ms), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        tail = reference_percentile(job_ms)
        print(f"{workload}: {len(job_ms)} jobs in {len(passes)} passes, "
              f"p50 {metrics['job_p50_ms']['value']:.1f} ms"
              + (f", p{tail[0]:g} {tail[1]:.1f} ms (reference only)" if tail else "")
              + f", BLAS threads {BLAS_THREADS}")
    summary = {
        "correct": not errors,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps({
        **summary,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "setup_samples_s": setups,
        "passes": result["passes"],
        "raw_job_ms": result.get("job_ms"),
        "job_scale": result.get("job_scale"),
        "errors": errors,
        "failures": result["failures"],
    }, indent=1))
    return summary


UNITS = {"_ms": "ms", "_pct": "%", "_digits": "digits", "_bytes": "bytes",
         "_per_wall": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def quick(args: argparse.Namespace) -> int:
    """One job per workload, every check, no timing."""
    errors = []
    for workload in joblib.WORKLOADS:
        _, result = spawn(args, workload, time.monotonic() + RUN_DEADLINE_S, "--setup-only")
        found = check(workload, result)
        print(f"quick {workload}: {'ok' if not found else 'INCORRECT'}")
        errors += [f"{workload}: {err}" for err in found]
    for err in errors:
        print(err, file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": len(joblib.WORKLOADS),
                      "failed": 0, "metrics": {}}))
    return 0 if not errors else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=joblib.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="run one job per workload with every check, untimed")
    args = parser.parse_args()
    if not (ROOT / "src" / "korenblum" / "cli.py").is_file():
        print(f"error: no korenblum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.quick:
            return quick(args)
        if args.workload != "all":
            summary = run_workload(args, args.workload)
            print(json.dumps(summary))
            return 0 if summary["correct"] else 1
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in joblib.WORKLOADS:
            summary = run_workload(args, workload)
            print(json.dumps({"workload": workload, **summary}))
            combined["correct"] &= summary["correct"]
            combined["attempted"] += summary["attempted"]
            combined["failed"] += summary["failed"]
            for name, metric in summary["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0 if combined["correct"] else 1
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
