#!/usr/bin/env python3
"""Steadiness self-check of the benchmark.

Runs run.py --trace 0 for every workload in BENCHMARK.json over two sets of
ten seeds (the same code both times), then once on a held-out seed kept for
later claims. For every end-to-end metric it reports the spread of each
set, the distance between the first and third quartile as a share of the
median, and how far the second set's median lies from the first's, both
against the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py

Exit code 0 when every run was correct and every figure is within its bound.
Results go to .perfbench/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SET_SEEDS = (range(1, 1 + RUNS), range(1001, 1001 + RUNS))
HOLDOUT_SEED = 90001


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: run.py exited with {proc.returncode}")
    return json.loads(lines[-1])


def _summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    report, ok = {}, True
    for workload in (w["name"] for w in bench["workloads"]):
        sets = []
        for seeds in SET_SEEDS:
            results = [_run(workload, seed, seconds) for seed in seeds]
            ok &= all(r["correct"] and r["failed"] == 0 for r in results)
            sets.append({name: _summary([r["metrics"][name]["value"] for r in results])
                         for name in metrics})
        holdout = _run(workload, HOLDOUT_SEED, seconds)
        ok &= holdout["correct"]
        report[workload] = {"sets": sets, "holdout": holdout}
        print(f"{workload}")
        for name, m in metrics.items():
            bound, line = m["bound"], f"  {name:14s} bound {m['bound']:.2f}"
            for k, by_metric in enumerate(sets):
                s = by_metric[name]
                good = s["spread"] <= bound
                ok &= good
                line += (f" | set{k + 1} median {s['median']:10.4g} spread {s['spread']:.3f}"
                         f"{'' if good else ' OVER'}")
            a, b = sets[0][name]["median"], sets[1][name]["median"]
            drift = abs(b - a) / a
            ok &= drift <= bound
            line += f" | drift {drift:.3f}{'' if drift <= bound else ' OVER'}"
            line += f" | holdout {holdout['metrics'][name]['value']:.4g}"
            print(line)
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"ok": ok, "seconds": seconds, "runs": RUNS,
                               "workloads": report}, indent=2) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
