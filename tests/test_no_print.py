"""The library never prints: only the command line writes to stdout.

Every module of the package except ``cli.py`` is parsed and searched for
a call to ``print``.  Diagnostics go through ``logging`` instead.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import korenblum

PACKAGE_DIR = Path(korenblum.__file__).parent
LIBRARY_MODULES = sorted(p for p in PACKAGE_DIR.glob("*.py") if p.name != "cli.py")


def print_calls(path: Path):
    """Line numbers of the ``print(...)`` calls in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "print"
    ]


def test_modules_found():
    names = {p.name for p in LIBRARY_MODULES}
    assert {"__init__.py", "quadrature.py", "series.py"} <= names
    assert "cli.py" not in names


@pytest.mark.parametrize("path", LIBRARY_MODULES, ids=lambda p: p.name)
def test_library_module_never_prints(path):
    assert print_calls(path) == [], f"{path.name} calls print"


def test_detector_sees_a_print_call(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import sys\n\ndef f():\n    print('x', file=sys.stderr)\n")
    assert print_calls(source) == [4]
