"""The package's line budget: the same behaviour from less code is a design aim,
so the count is checked rather than remembered."""

from pathlib import Path

import precut

LINE_CEILING = 3500


def test_package_stays_within_its_line_budget():
    # the count of `cat src/precut/*.py src/precut/instances/*.py | wc -l`
    package = Path(precut.__file__).resolve().parent
    files = sorted(package.glob("*.py")) + sorted(package.glob("instances/*.py"))
    lines = sum(f.read_bytes().count(b"\n") for f in files)
    assert len(files) > 10
    assert lines <= LINE_CEILING, f"{lines} lines in src/precut, above {LINE_CEILING}"
