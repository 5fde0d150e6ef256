"""Job lists of the benchmark workloads.

Every workload is a fixed list of ``korenblum`` command lines, one per
frequency.  The inputs are the 17 certified pairs that
``korenblum scan --n-min 4 --n-max 20`` reports: they are written out
here, so that a change to the search cannot change what the other
workloads run.  The workload seed only permutes the order of the jobs
inside each pass.
"""

from __future__ import annotations

import random
from typing import List, Tuple

# (n, a) as printed by `korenblum scan --n-min 4 --n-max 20`.
PAIRS: Tuple[Tuple[int, str], ...] = (
    (4, "0.5898501"),
    (5, "0.6167154"),
    (6, "0.6340504"),
    (7, "0.6460616"),
    (8, "0.6548247"),
    (9, "0.6614735"),
    (10, "0.6666757"),
    (11, "0.6708482"),
    (12, "0.6742636"),
    (13, "0.6771072"),
    (14, "0.6795093"),
    (15, "0.6815637"),
    (16, "0.6833396"),
    (17, "0.6848893"),
    (18, "0.6862529"),
    (19, "0.6874616"),
    (20, "0.6885401"),
)

WORKLOADS = ("verify", "search", "gap")

# Truncation index of the gap workload: one large K shared by every job.
GAP_TERMS = 256

# The untimed warm-up job (and the single job of the short mode) is the
# n = 10 pair whatever the seed, so set-up does the same work on every run.
WARMUP_N = 10

Job = Tuple[int, str, List[str]]  # (n, a, argv)


def argv_for(workload: str, n: int, a: str) -> List[str]:
    if workload == "verify":
        return ["verify", "--a", a, "--n", str(n), "--exact", "--json"]
    if workload == "search":
        return ["search", "--n", str(n), "--json"]
    if workload == "gap":
        return ["norms", "--a", a, "--n", str(n), "--exact",
                "--terms", str(GAP_TERMS), "--json"]
    raise ValueError(f"unknown workload {workload!r}")


def job_list(workload: str) -> List[Job]:
    return [(n, a, argv_for(workload, n, a)) for n, a in PAIRS]


def warmup_job(workload: str) -> Job:
    return next(job for job in job_list(workload) if job[0] == WARMUP_N)


def pass_order(jobs: List[Job], rng: random.Random) -> List[Job]:
    """One pass: every job once, in an order drawn from ``rng``."""
    order = list(jobs)
    rng.shuffle(order)
    return order
