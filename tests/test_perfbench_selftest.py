"""The benchmark's own self-test must pass on the current source tree.

``perfbench/selftest.py`` runs every workload at smoke size, untraced and
traced, and checks the printed metrics, the workloads' output checks
(feasibility, monotone traces, the results schema) and the traced names.
Running it here makes a refactor that breaks one of them fail the suite.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
