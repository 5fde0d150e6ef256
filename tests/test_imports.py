"""Which commands load numpy, each checked in a fresh interpreter.

The exact commands (``root``, ``norms --exact``), ``--help`` and usage
errors compute with Python integers and ``Fraction`` only, so they must
start without importing numpy.  The pytest process has numpy loaded
already, so every case runs in its own subprocess with ``src`` on the
path and reports ``sys.modules`` at its end.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .test_cli import GOLDEN_NORMS_SHA256

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs cli.main on the argv given as JSON (none: import only) and writes
# the exit code and the array modules loaded as the last line of stderr.
SCRIPT = """
import json, sys
import korenblum, korenblum.cli
argv = json.loads(sys.argv[1])
try:
    code = korenblum.cli.main(argv) if argv is not None else 0
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
loaded = [name for name in ("numpy", "scipy") if name in sys.modules]
sys.stderr.write("\\n" + json.dumps({"code": code, "loaded": loaded}) + "\\n")
"""


def run_fresh(argv):
    """Run SCRIPT in a new interpreter; return (exit code, loaded, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stderr.strip().splitlines()[-1])
    return report["code"], report["loaded"], proc.stdout


@pytest.mark.parametrize(
    "argv, code",
    [
        (None, 0),
        (["root", "--a", "0.6666714", "--n", "10"], 0),
        (["norms", "--a", "0.5", "--n", "1", "--exact"], 2),
        (["--help"], 0),
    ],
    ids=["import", "root", "usage-error", "help"],
)
def test_exact_paths_leave_numpy_unloaded(argv, code):
    assert run_fresh(argv)[:2] == (code, [])


def test_exact_norms_leave_numpy_unloaded_and_print_the_golden_bytes():
    argv = ["norms", "--a", "0.6666757", "--n", "10", "--exact", "--terms", "256", "--json"]
    code, loaded, out = run_fresh(argv)
    assert (code, loaded) == (0, [])
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_NORMS_SHA256


def test_verify_loads_numpy():
    # Control: the domination grid and the quadrature build arrays.
    assert run_fresh(["verify", "--a", "0.6666714", "--n", "10"])[:2] == (0, ["numpy"])
