"""Self-test of the benchmark: `pytest perfbench` (takes about ten seconds)."""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def test_smoke_reports_every_metric_and_checks_outputs():
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--smoke",
         "--seconds", "0"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
