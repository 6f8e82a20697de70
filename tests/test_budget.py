"""The package's line budget: the same behaviour from less code is a design aim,
so the count is checked rather than remembered."""

import importlib.util
from pathlib import Path

import pytest

import precut

LINE_CEILING = 3350


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
