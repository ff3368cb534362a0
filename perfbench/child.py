"""One workload run in its own process; started by run.py, not by hand.

Modes:
  setup   build the inputs, report the set-up time, exit;
  run     time ops for --seconds, closed loop, one client;
  replay  run exactly --ops ops (the traced replay of a `run`).

Prints one JSON line with the raw measurements on stdout.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--mode", choices=("setup", "run", "replay"), required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    root = Path(args.root)

    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import offline_simon
    from offline_simon import qsim

    if not Path(offline_simon.__file__).resolve().is_relative_to((root / "src").resolve()):
        print(f"error: offline_simon imported from {offline_simon.__file__}, "
              f"not from {root / 'src'}", file=sys.stderr)
        return 2
    import reference
    from workloads import WORKLOADS, digest

    workload = WORKLOADS[args.workload](args.seed, root, root / ".perfbench" / "tmp")
    setup_s = time.time() - args.spawned
    baseline_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "setup_s": setup_s,
        "setup_ref_s": sorted(reference.timed() for _ in range(3))[1],
        "baseline_rss_kb": baseline_kb,
        "env": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "qubit_cap": qsim.qubit_cap(),
        },
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace_out:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)

    # ref_s[i] and ref_s[i + 1] are the reference kernel's times around op i.
    ops, blobs, problems, ref_s = [], [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        ref_s.append(reference.timed())
        op_args = workload.prepare(i)
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            out = workload.call(op_args)
            error = None
        except Exception:
            error = traceback.format_exc()
        dt = time.perf_counter() - t0
        if error is None:
            try:
                outcome = workload.check(i, op_args, out)
            except Exception:
                error = traceback.format_exc()
        if error is not None:
            print(f"op {i} failed:\n{error}", file=sys.stderr)
            ops.append([dt, False, 0.0, None, 0, 0])
            blobs.append(b"error")
            problems.append(f"op {i}: {error.strip().splitlines()[-1]}")
        else:
            ok = not outcome.problems
            ops.append([dt, ok, outcome.verified, outcome.trial_s, outcome.redraws,
                        outcome.trials])
            blobs.append(outcome.digest)
            problems += [f"op {i}: {p}" for p in outcome.problems]
        i += 1
        if args.mode == "replay":
            if i >= args.ops:
                break
        elif time.perf_counter() - start >= args.seconds:
            break

    ref_s.append(reference.timed())
    result.update({
        "ops": ops,
        "ref_s": ref_s,
        "digest": digest(blobs),
        "problems": problems[:20],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "state_bytes": workload.state_bytes,
        "scaled": workload.scaled,
    })
    if tracer is not None:
        tracer.write(args.trace_out)
        result["trace"] = tracer.summary()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
