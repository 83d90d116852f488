import subprocess
import sys
from pathlib import Path


def test_benchmark_selftest_passes():
    # The benchmark reads the engine's route bookkeeping (``BatchResult``
    # fields and ``details["fast_path"]``); its self-tests fail when an
    # engine change breaks that contract.
    root = Path(__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "benchmarks/selftest.py"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr
