"""The package's line budget: the same behaviour from less code is a design aim,
so the count is checked rather than remembered."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import precut

LINE_CEILING = 3377


def test_package_stays_within_its_line_budget():
    # the count of `cat src/precut/*.py src/precut/instances/*.py | wc -l`
    package = Path(precut.__file__).resolve().parent
    files = sorted(package.glob("*.py")) + sorted(package.glob("instances/*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    assert len(files) > 10
    assert lines <= LINE_CEILING, f"{lines} lines in src/precut, above {LINE_CEILING}"


def test_every_test_module_imports():
    # a module that fails to import is only dropped from a run that continues
    # on collection errors: name it here as a failure
    for path in sorted(Path(__file__).parent.glob("test_*.py")):
        spec = importlib.util.spec_from_file_location(f"imported_{path.stem}", path)
        try:
            spec.loader.exec_module(importlib.util.module_from_spec(spec))
        except Exception as exc:
            pytest.fail(f"{path.name} does not import: {exc!r}")


def test_traced_benchmark_finds_every_name_it_wraps():
    # perfbench/tracing.py wraps its FUNCTIONS, fock.canonical_form and
    # fock.check_intertwined by name: install it in a fresh interpreter, as a
    # `--trace` job does, so that moving one of them breaks this test too
    root = Path(__file__).resolve().parents[1]
    script = "import precut.cli, tracing; tracing.install(tracing.Tracer())"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
