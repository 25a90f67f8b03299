"""The benchmark harness's own checks (``perfbench/selftest.py``).

The tracer patches engine internals by name and the gate pins exact
backtrack counts, so a change under ``src/`` can break the benchmark
without failing any other test.  Running the self-test here makes such
a change fail the test suite, not a later benchmark run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    r = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stdout + r.stderr
