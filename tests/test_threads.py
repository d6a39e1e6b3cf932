"""Processes and threads: the package pins numpy's OpenBLAS pool to one
thread unless the caller chose a number, in its own process and in each
worker of its pool.  OpenBLAS reads the variable when numpy loads, so each
case runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                                reason="threads are counted in Linux's /proc/self/task")

# Prints the variable and this process's thread count after importing modwave.
_IMPORT = """
import json, os
import modwave
print(json.dumps([os.environ.get("OPENBLAS_NUM_THREADS"), len(os.listdir("/proc/self/task"))]))
"""

# Prints the thread count of each of two pool workers, after each has done
# BLAS work large enough for OpenBLAS to share it among its threads.  The
# package loads first, as in the modwave command.
_POOL = """
import json, os
from modwave.campaigns import _pool_map
import numpy as np

def threads(cell, config):
    a = np.ones((512, 512))
    a @ a
    return len(os.listdir("/proc/self/task"))

if __name__ == "__main__":
    counts, _ = _pool_map(threads, [0, 1], None)
    print(json.dumps(counts))
"""


def _fresh(tmp_path, script, **env):
    """The JSON that script prints, run by a fresh interpreter on the
    package's sources, with OPENBLAS_NUM_THREADS unset unless given."""
    path = tmp_path / "script.py"
    path.write_text(script)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    done = subprocess.run([sys.executable, str(path)], capture_output=True, text=True,
                          check=True, env={**base, "PYTHONPATH": str(SRC), **env})
    return json.loads(done.stdout)


def test_import_pins_openblas_to_one_thread(tmp_path):
    assert _fresh(tmp_path, _IMPORT) == ["1", 1]


def test_import_keeps_the_callers_thread_count(tmp_path):
    value, _ = _fresh(tmp_path, _IMPORT, OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_each_pool_worker_runs_one_thread(tmp_path):
    assert _fresh(tmp_path, _POOL, MODWAVE_THREADS="2") == [1, 1]
