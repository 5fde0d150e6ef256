"""One workload in a fresh interpreter: set-up, then timed passes.

Started by ``run.py``; not meant to be run by hand.  Prints one JSON
object as its last line of standard output.  Set-up ends when the
untimed warm-up job returns; the time of that moment, on the system-wide
monotonic clock, is reported as ``ready`` so that the parent can measure
set-up from the moment it started this interpreter.

Each job calls ``korenblum.cli.main`` in-process with standard output and
standard error captured.  Only that call is timed.  Distinct outputs and
failures are handed back for checking, so that the checks cost nothing
inside the timed passes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _import_cli():
    """Import the program from this checkout's sources, and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    from korenblum import cli

    if Path(cli.__file__).resolve().parents[1] != ROOT / "src":
        raise SystemExit(f"korenblum was imported from {cli.__file__}, not from {ROOT / 'src'}")
    return cli


class Runner:
    """Runs jobs through ``cli.main`` and keeps their timings and outputs."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.outputs = {}  # (argv, stdout) -> count
        self.failures = {}  # (argv, exception, message) -> count

    def run(self, argv):
        """Run one job; return (wall s, cpu s, stdout bytes, failed)."""
        out, err = io.StringIO(), io.StringIO()
        failure = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:  # a failed job, counted and reported
                failure = (type(exc).__name__, str(exc)[:300])
            t1, c1 = time.perf_counter(), time.process_time()
        if failure is None and code != 0:
            failure = ("exit", f"exit code {code}: {err.getvalue()[-300:]}")
        if failure is None:
            key = (tuple(argv), out.getvalue())
            self.outputs[key] = self.outputs.get(key, 0) + 1
        else:
            key = (tuple(argv),) + failure
            self.failures[key] = self.failures.get(key, 0) + 1
        return t1 - t0, c1 - c0, len(out.getvalue()), failure is not None

    def report(self):
        """Every distinct output and failure, warm-up included, for checking."""
        return {
            "outputs": [{"argv": list(k[0]), "stdout": k[1], "count": v}
                        for k, v in self.outputs.items()],
            "failures": [{"argv": list(k[0]), "exception": k[1], "message": k[2], "count": v}
                         for k, v in self.failures.items()],
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after the warm-up job, reporting its output")
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="with --trace 1, write the spans here")
    args = parser.parse_args()

    cli = _import_cli()
    sys.path.insert(0, str(BENCH))
    import jobs as joblib

    jobs = joblib.job_list(args.workload)
    rng = random.Random(args.seed)
    runner = Runner(cli)
    runner.run(joblib.warmup_job(args.workload)[2])
    ready = _clock()
    import calibrate

    setup_scale = calibrate.speed_scale()
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_scale": setup_scale, **runner.report()}))
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()

    job_ms, job_scale, passes = [], [], []
    cpu = {False: 0.0, True: 0.0}
    wall = {False: 0.0, True: 0.0}
    scaled = {False: 0.0, True: 0.0}
    count = {False: 0, True: 0}
    output_bytes = failed = 0
    kernel_before = calibrate.kernel_s()
    start = time.perf_counter()
    while True:
        # With tracing, passes alternate untraced / traced, untraced first.
        traced = bool(tracer) and len(passes) % 2 == 1
        order = joblib.pass_order(jobs, rng)
        pass_wall = 0.0
        with tracer.patched() if traced else contextlib.nullcontext():
            for _, _, argv in order:
                if traced:
                    tracer.job += 1
                dt, dcpu, nbytes, job_failed = runner.run(argv)
                # The machine's speed around this job, from the kernel
                # runs just before and just after it.
                kernel_after = calibrate.kernel_s()
                scale = 2.0 * calibrate.REF_KERNEL_S / (kernel_before + kernel_after)
                kernel_before = kernel_after
                failed += job_failed
                pass_wall += dt
                wall[traced] += dt
                scaled[traced] += dt * scale
                cpu[traced] += dcpu
                count[traced] += 1
                if traced:
                    output_bytes += nbytes
                else:
                    job_ms.append(1e3 * dt)
                    job_scale.append(scale)
        passes.append({"jobs": len(order), "wall_s": pass_wall, "traced": traced})
        # Stop at the pass boundary nearest to the requested run length.
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / len(passes) >= args.seconds and (
                not tracer or len(passes) % 2 == 0):
            break

    result = {
        "ready": ready,
        "attempted": sum(p["jobs"] for p in passes),
        "failed": failed,
        "passes": passes,
        "setup_scale": setup_scale,
        "job_ms": job_ms,
        "job_scale": job_scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **runner.report(),
    }
    if tracer:
        layers = tracer.layer_metrics(count[True], scale=scaled[True] / wall[True])
        layers["cli.output_bytes"] = output_bytes / count[True]
        layers["process.cpu_per_wall"] = cpu[False] / wall[False]
        untraced_rate = count[False] / scaled[False]
        traced_rate = count[True] / scaled[True]
        layers["trace.overhead_pct"] = 100.0 * (untraced_rate - traced_rate) / untraced_rate
        result["layers"] = layers
        if args.trace_out:
            args.trace_out.write_text(json.dumps({
                "fields": ["name", "start_s", "end_s", "parent", "job"],
                "spans": tracer.spans,
            }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
