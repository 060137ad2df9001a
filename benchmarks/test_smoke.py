"""Self-test of the benchmark: every workload at minimal size, traced and untraced.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest benchmarks/test_smoke.py
"""

import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def test_smoke_every_workload_reports_declared_metrics():
    proc = subprocess.run(
        [sys.executable, RUN, "--smoke"], capture_output=True, text=True, timeout=600, check=False
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
