"""The benchmark's traced replay still runs against this source tree, and
its ops still return what they returned.

perfbench/tracer.py patches package functions by name, so renaming or
removing one of them breaks the per-layer benchmark; this runs one traced
op of each workload so such a break shows up in the test suite. A kernel
change that is meant to keep every output bit shows here if it does not:
the digests of two untraced ops are pinned.
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


def _replay(tmp_path, workload, ops, *extra):
    """Run child.py's replay of `ops` ops at seed 1; returns its result line."""
    # a checkout-shaped root whose scratch files land in tmp_path
    root = tmp_path / "root"
    root.mkdir()
    for name in ("src", "docs"):
        (root / name).symlink_to(ROOT / name)
    (root / ".perfbench" / "tmp").mkdir(parents=True)
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
         "--seed", "1", "--root", str(root), "--mode", "replay",
         "--spawned", str(time.time()), "--ops", str(ops), *extra],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["problems"] == []
    assert len(result["ops"]) == ops
    return result


@pytest.mark.parametrize("workload", ["pbad-mc", "attack-sampled", "exact-circuit"])
def test_traced_replay_runs(tmp_path, workload):
    trace = tmp_path / "trace.json"
    result = _replay(tmp_path, workload, 1, "--trace-out", str(trace))
    assert sum(result["trace"]["calls"].values()) > 0
    assert trace.exists()


# Digests of the first two ops' outputs at seed 1, recorded before the
# guide-table draws and max-pivot rank kernel went in (attack-sampled's
# before cipher families were drawn at their first read): a kernel change
# that moves a bit of what the benchmark's ops return shows here.
REPLAY_DIGESTS = {
    "attack-sampled": "8fdc43d2df912672fa5007d60fb0fac2b9e29298fd70fc6d7dc12d56f8d2b553",
    "pbad-mc": "ee593171e95999215eb296948529085abdd3b644c2e583ad6b1311ab1f511b43",
    "exact-circuit": "7bf8a4e1cdea2191861834d3954645a40b4ec56394b56f3c4e3548b0027d3d8b",
}


@pytest.mark.parametrize("workload", sorted(REPLAY_DIGESTS))
def test_replay_outputs_are_pinned(tmp_path, workload):
    assert _replay(tmp_path, workload, 2)["digest"] == REPLAY_DIGESTS[workload]
