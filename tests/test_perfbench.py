"""The benchmark's traced replay still runs against this source tree.

perfbench/tracer.py patches package functions by name, so renaming or
removing one of them breaks the per-layer benchmark; this runs one traced
op of each workload so such a break shows up in the test suite.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@pytest.mark.parametrize("workload", ["pbad-mc", "attack-sampled", "exact-circuit"])
def test_traced_replay_runs(tmp_path, workload):
    # a checkout-shaped root whose scratch files land in tmp_path
    root = tmp_path / "root"
    root.mkdir()
    for name in ("src", "docs"):
        (root / name).symlink_to(ROOT / name)
    (root / ".perfbench" / "tmp").mkdir(parents=True)
    trace = tmp_path / "trace.json"
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", "1", "--root", str(root), "--mode", "replay",
         "--spawned", str(time.time()), "--ops", "1", "--trace-out", str(trace)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert len(result["ops"]) == 1
    assert sum(result["trace"]["calls"].values()) > 0
    assert trace.exists()
