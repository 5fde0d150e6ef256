"""Which modules each command loads, each checked in a fresh interpreter.

The exact commands (``root``, ``norms --exact``), ``--help`` and usage
errors compute with Python integers and ``Fraction`` only, so they must
start without importing numpy.  ``norms``, ``--help`` and usage errors
load none of the domination, quadrature and search modules either, and
``root`` loads only the domination module.  The pytest process has
every module loaded already, so every case runs in its own subprocess
with ``src`` on the path and reports ``sys.modules`` at its end.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import korenblum

from .test_cli import GOLDEN_NORMS_SHA256

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Runs cli.main on the argv given as JSON (none: import only) and writes
# the exit code, the array modules and the korenblum modules loaded as
# the last line of stderr.
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
modules = sorted(name for name in sys.modules if name.startswith("korenblum."))
sys.stderr.write("\\n" + json.dumps({"code": code, "loaded": loaded, "modules": modules}) + "\\n")
"""

# The modules that only some commands need.
OPTIONAL_MODULES = {"korenblum.domination", "korenblum.quadrature", "korenblum.search"}

GOLDEN_NORMS_ARGV = ["norms", "--a", "0.6666757", "--n", "10", "--exact", "--terms", "256", "--json"]


def fresh_report(argv, script=SCRIPT):
    """Run ``script`` in a new interpreter; return (its last stderr line as JSON, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1]), proc.stdout


def run_fresh(argv):
    """Run SCRIPT in a new interpreter; return (exit code, loaded, stdout)."""
    report, stdout = fresh_report(argv)
    return report["code"], report["loaded"], stdout


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
    code, loaded, out = run_fresh(GOLDEN_NORMS_ARGV)
    assert (code, loaded) == (0, [])
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_NORMS_SHA256


def test_verify_loads_numpy():
    # Control: the domination grid and the quadrature build arrays.
    assert run_fresh(["verify", "--a", "0.6666714", "--n", "10"])[:2] == (0, ["numpy"])


@pytest.mark.parametrize(
    "argv, code, optional",
    [
        (None, 0, set()),
        (GOLDEN_NORMS_ARGV, 0, set()),
        (["--help"], 0, set()),
        (["norms", "--a", "0.5", "--n", "1", "--exact"], 2, set()),
        (["root", "--a", "0.6666714", "--n", "10"], 0, {"korenblum.domination"}),
        # Control: the certificate runs the grid and the quadrature, not the search.
        (["verify", "--a", "0.6666714", "--n", "10"], 0,
         {"korenblum.domination", "korenblum.quadrature"}),
    ],
    ids=["import", "golden-norms", "help", "usage-error", "root", "verify"],
)
def test_commands_load_only_the_modules_they_call(argv, code, optional):
    report, _ = fresh_report(argv)
    assert report["code"] == code
    assert set(report["modules"]) & OPTIONAL_MODULES == optional


# Reads the package's names in a fresh interpreter: what dir() lists and
# what is bound before any name is read, then the same after one is read.
SURFACE_SCRIPT = """
import json, sys
import korenblum
listed = dir(korenblum)
bound = sorted(name for name in korenblum.__all__ if name in vars(korenblum))
before = sorted(name for name in sys.modules if name.startswith("korenblum."))
korenblum.scan
after = sorted(name for name in sys.modules if name.startswith("korenblum."))
sys.stderr.write("\\n" + json.dumps(
    {"listed": listed, "bound": bound, "before": before, "after": after}) + "\\n")
"""


class TestPackageSurface:
    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from korenblum import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(korenblum.__all__)
        assert len(korenblum.__all__) == 18  # __version__ and 17 re-exported names
        for name, value in namespace.items():
            if name != "__version__":
                source = importlib.import_module("korenblum." + korenblum._SOURCES[name])
                assert value is getattr(source, name)

    def test_dir_lists_every_name_before_any_is_read(self):
        report, _ = fresh_report(None, SURFACE_SCRIPT)
        assert set(korenblum.__all__) <= set(report["listed"])
        assert report["bound"] == ["__version__"]
        assert report["before"] == []  # import korenblum loads no submodule
        # Reading one name loads its module (and what that module imports).
        assert report["after"] == ["korenblum.domination", "korenblum.family",
                                   "korenblum.search", "korenblum.series"]

    def test_unknown_attribute_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            korenblum.no_such_name
        assert not hasattr(korenblum, "no_such_name")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_bench_tracing", ROOT / "bench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_module_attribute():
    """The benchmark's traced run wraps these names in place, so each must
    stay a module-level function of the module it names."""
    patches = _load_tracing().PATCHES
    assert patches
    for module_name, attr, _, _ in patches:
        module = importlib.import_module("korenblum." + module_name)
        assert callable(getattr(module, attr, None)), f"korenblum.{module_name}.{attr}"
