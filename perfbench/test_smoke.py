"""The benchmark's own test: its smoke mode must pass."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_smoke():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke", "--seed", "3"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
