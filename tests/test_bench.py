import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_layer_benchmarks_run(tmp_path):
    """Every `bench/` case runs once, untimed, against the current API, so a
    change that breaks a layer benchmark fails here and not at the next
    measurement."""
    pytest.importorskip("pytest_benchmark")
    env = dict(os.environ, VERIML_CACHE_DIR=str(tmp_path))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "bench", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-2000:]
