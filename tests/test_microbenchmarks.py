"""The microbenchmarks (`tests/bench_*.py`) are not collected by the default
test run, so an API change could break them unseen. This runs each of them
once, untimed."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_microbenchmarks_run():
    pytest.importorskip("pytest_benchmark")
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("bench_*.py"))
    assert files
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--benchmark-disable", *files],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
