#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of offline_simon.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload attack-sampled --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py for why each was chosen): attack-sampled,
exact-circuit, pbad-mc. One client drives the program in a closed loop, in
a child process of its own with numpy's thread pools at one thread.

--trace 0 measures the end-to-end metrics: set-up time (median over several
set-ups in fresh processes), ops per second, median op latency and peak RSS.
It also prints, above the result line, p90 latency where at least ten ops
lie beyond it, the error and verified rates and, on attack-sampled, the
median trial time of each attack kind.

Times are scaled to a nominal machine speed by a reference kernel timed
next to every op (reference.py), because this host's interpreter speed
drifts by up to 2x within minutes; exact-circuit op times, which do not
follow that drift, stay unscaled (workloads.py). Set-up times are scaled on
every workload. The unscaled figures are printed as raw.* beside them.

--trace 1 measures the per-layer metrics: an untraced run for half of
--seconds, then a traced replay of exactly the same ops with the package's
public functions wrapped from outside (tracer.py). The two runs must give
byte-identical op outputs; their wall-time ratio is trace.overhead. Layer
times and counts are per op.

Every op's output is checked: attack and search reports against
docs/report-schema.json and the README counter contract, p_bad estimates
for range and trial count. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Results, including the
environment, are also written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import NOMINAL_S
from tracer import LAYERS
from workloads import KINDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# Set-up time is the median over the run child and this many set-up-only
# children: one set-up time alone spread 0.27-0.46 between seeds.
SETUP_PROBES = 8
BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _child(workload: str, seed: int, mode: str, deadline: float, seconds: float = 0.0,
           ops: int = 0, trace_out: Path | None = None) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", workload,
           "--seed", str(seed), "--root", str(ROOT),
           "--mode", mode, "--seconds", repr(seconds), "--ops", str(ops)]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before a child could start")
    spawned = time.time()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], stdout=subprocess.PIPE,
                              env=env, cwd=ROOT, timeout=timeout, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} child exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} child printed no result")
    return json.loads(lines[-1])


def _scales(res: dict) -> list[float]:
    """Per-op factor that scales a measured time to the nominal machine
    speed: NOMINAL_S over the median of the reference kernel's times
    nearest the op, which follows the host's drift but not one sample's
    jitter. 1 on workloads whose times are not scaled."""
    ref = res["ref_s"]
    if not res["scaled"]:
        return [1.0] * len(res["ops"])
    return [NOMINAL_S / statistics.median(ref[max(0, i - 2):i + 4])
            for i in range(len(res["ops"]))]


def _op_stats(res: dict) -> dict:
    """Untraced figures of one run child, shared by both modes; None where a
    figure does not apply. Times are scaled to the nominal machine speed."""
    ops = res["ops"]
    scales = _scales(res)
    raw = [op[0] for op in ops]
    durs = [d * f for d, f in zip(raw, scales)]
    ok = [op for op in ops if op[1]]
    by_kind = {k: [op[3][k] * f for op, f in zip(ops, scales) if op[3]] for k in KINDS}
    return {
        "raw.ops_per_s": len(raw) / sum(raw),
        "raw.op_ms_p50": statistics.median(raw) * 1e3,
        "ref_ms_p50": statistics.median(res["ref_s"]) * 1e3,
        "ops_per_s": len(durs) / sum(durs),
        "op_ms_p50": statistics.median(durs) * 1e3,
        # Only where at least ten ops lie beyond it.
        "op_ms_p90": statistics.quantiles(durs, n=10)[8] * 1e3 if len(durs) >= 100 else None,
        "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        "error_rate": (len(ops) - len(ok)) / len(ops),
        "verified_rate": sum(op[2] for op in ok) / len(ops),
        **{f"trial_ms_p50.{k}": statistics.median(v) * 1e3 if v else None
           for k, v in by_kind.items()},
    }


END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MiB"}
REPORTED_UNITS = {"op_ms_p90": "ms", "error_rate": "ratio", "verified_rate": "ratio",
                  **{f"trial_ms_p50.{k}": "ms" for k in KINDS}}
# Printed and kept in the results file only: the figures before scaling.
RAW_UNITS = {"raw.setup_s": "s", "raw.ops_per_s": "1/s", "raw.op_ms_p50": "ms",
             "ref_ms_p50": "ms"}


def measure_end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    children = [_child(workload, seed, "setup", deadline) for _ in range(SETUP_PROBES)]
    res = _child(workload, seed, "run", deadline, seconds=seconds)
    children.append(res)
    setups = [c["setup_s"] * NOMINAL_S / c["setup_ref_s"] for c in children]
    stats = {**_op_stats(res), "setup_s": statistics.median(setups),
             "raw.setup_s": statistics.median(c["setup_s"] for c in children)}
    metrics = {k: {"value": stats[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    reported = {k: {"value": stats[k], "unit": u}
                for k, u in {**REPORTED_UNITS, **RAW_UNITS}.items() if stats[k] is not None}
    detail = {"samples": len(res["ops"]), "setup_samples": setups, "reported": reported,
              "op_s": [op[0] for op in res["ops"]],
              "env": res["env"], "problems": res["problems"], "digest": res["digest"]}
    failed = sum(1 for op in res["ops"] if not op[1])
    return metrics, len(res["ops"]), failed, detail


PER_LAYER_UNITS = {
    **{f"{layer}.self_ms": "ms/op" for layer in LAYERS},
    "attacks.calls": "calls/op",
    "attacks.redraws_per_trial": "ratio",
    "primitives.calls": "calls/op",
    "search.screen.ms": "ms/op",
    "search.screen.calls": "calls/op",
    "search.screens_per_search": "ratio",
    "simon.sample.ms": "ms/op",
    "simon.sample.calls": "calls/op",
    "simon.distribution.ms": "ms/op",
    "simon.distribution.calls": "calls/op",
    "simon.p_bad_estimate.self_ms": "ms/op",
    "analysis.collision_probabilities.ms": "ms/op",
    "analysis.collision_probabilities.calls": "calls/op",
    "gf2.rank.ms": "ms/op",
    "gf2.rank.calls": "calls/op",
    "gf2.rank.vectors": "vectors/op",
    "gf2.solve_period.ms": "ms/op",
    "gf2.solve_period.calls": "calls/op",
    "gf2.fwht.ms": "ms/op",
    "gf2.fwht.calls": "calls/op",
    "gf2.fwht.elements": "elements/op",
    "qsim.apply_h.ms": "ms/op",
    "qsim.apply_h.calls": "calls/op",
    "qsim.apply_h.bytes_computed": "bytes/op",
    "qsim.apply_oracle_xor.ms": "ms/op",
    "qsim.apply_oracle_xor.calls": "calls/op",
    "qsim.other.ms": "ms/op",
    "qsim.rss_over_state": "ratio",
    **{f"{layer}.errors": "errors/op" for layer in LAYERS},
    "trace.overhead": "ratio",
    "trace.op_ms": "ms/op",
    # From the untraced half of the run; its p90 rarely has ten ops beyond it.
    **{k: u for k, u in REPORTED_UNITS.items() if k != "op_ms_p90"},
}

# Metric name -> tracer family whose outermost calls it reports.
FAMILIES = {
    "attacks": "attacks.attack",
    "primitives": "primitives.build",
    "search.screen": "search.screen",
    "simon.sample": "simon.sample",
    "simon.distribution": "simon.distribution",
    "analysis.collision_probabilities": "analysis.collision_probabilities",
    "gf2.rank": "gf2.rank",
    "gf2.solve_period": "gf2.solve_period",
    "gf2.fwht": "gf2.fwht",
    "qsim.apply_h": "qsim.apply_h",
    "qsim.apply_oracle_xor": "qsim.oracle",
    "qsim.other": "qsim.other",
}


def measure_per_layer(workload: str, seed: int, seconds: float, deadline: float):
    # Half the window untraced, then the same ops traced, which take longer.
    plain = _child(workload, seed, "run", deadline, seconds=seconds / 2)
    n = len(plain["ops"])
    trace_path = OUT / "trace" / f"{workload}-seed{seed}.json"
    traced = _child(workload, seed, "replay", deadline, ops=n, trace_out=trace_path)
    tr = traced["trace"]
    outer = {k: tr["outer"].get(fam, [0, 0.0]) for k, fam in FAMILIES.items()}
    traced_s = sum(op[0] for op in traced["ops"])
    # Layer times are scaled like op times, by the traced run's median factor.
    scale = statistics.median(_scales(traced))
    ms = 1e3 * scale / n
    values = {f"{layer}.self_ms": tr["layer_self_s"][layer] * ms for layer in LAYERS}
    for key, (calls, total_s) in outer.items():
        values[f"{key}.ms"] = total_s * ms
        values[f"{key}.calls"] = calls / n
    searches = tr["outer"].get("search.alg", [0, 0.0])[0]
    trials = sum(op[5] for op in traced["ops"])
    values.update({
        "attacks.redraws_per_trial":
            sum(op[4] for op in traced["ops"]) / trials if trials else 0.0,
        "search.screens_per_search":
            outer["search.screen"][0] / searches if searches else 0.0,
        "simon.p_bad_estimate.self_ms":
            tr["self_s"].get("simon.p_bad_estimate", 0.0) * ms,
        "gf2.rank.vectors": tr["calls"].get("gf2.Gf2Basis.insert", 0) / n,
        "gf2.fwht.elements": tr["counts"].get("gf2.fwht", 0) / n,
        "qsim.apply_h.bytes_computed": tr["counts"].get("qsim.apply_h", 0) / n,
        "qsim.rss_over_state":
            ((plain["peak_rss_kb"] - plain["baseline_rss_kb"]) * 1024 / plain["state_bytes"]
             if plain["state_bytes"] else 0.0),
        **{f"{layer}.errors": tr["layer_errors"][layer] / n for layer in LAYERS},
        "trace.overhead": (sum(op[0] * f for op, f in zip(traced["ops"], _scales(traced)))
                           / sum(op[0] * f for op, f in zip(plain["ops"], _scales(plain)))),
        "trace.op_ms": traced_s * ms,
    })
    values.update({k: v or 0.0 for k, v in _op_stats(plain).items()})
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}

    problems = list(traced["problems"])
    if traced["digest"] != plain["digest"]:
        problems.append(f"traced outputs differ from untraced ones: "
                        f"{traced['digest']} != {plain['digest']}")
    self_sum = sum(tr["layer_self_s"].values())
    if abs(self_sum - traced_s) > 0.01 * traced_s:
        problems.append(f"layer self times sum to {self_sum:.4f} s, traced ops took "
                        f"{traced_s:.4f} s")
    failed = sum(1 for op in traced["ops"] if not op[1])
    detail = {"samples": n, "digest": plain["digest"], "digest_traced": traced["digest"],
              "self_sum_s": self_sum, "traced_op_s": traced_s,
              "env": plain["env"], "problems": problems, "trace_file": str(trace_path)}
    return metrics, n, failed, detail


def _git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _host() -> dict:
    """Machine description; the 21-qubit state fits in a large L3, so qsim
    bytes are reported as computed and no bandwidth ratio is claimed."""
    model, l3 = None, None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(cache.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                l3 = (index / "size").read_text().strip()
    except OSError:
        pass
    return {"git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": model, "l3_size": l3}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 60:
        ap.error("need --seed >= 0 and 0 < --seconds <= 60")
    for need in (ROOT / "src" / "offline_simon" / "__init__.py",
                 ROOT / "docs" / "report-schema.json"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} is missing; run from a checkout of "
                  f"the repository", file=sys.stderr)
            return 2
    for sub in ("tmp", "trace", "results"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)

    deadline = time.monotonic() + BUDGET_S
    measure = measure_per_layer if args.trace else measure_end_to_end
    try:
        metrics, attempted, failed, detail = measure(args.workload, args.seed,
                                                     args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    problems = detail["problems"]
    correct = failed == 0 and not problems
    env = {**_host(), **detail.pop("env")}

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} ops={attempted} failed={failed}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, m in {**metrics, **detail.get("reported", {})}.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    for p in problems:
        print(f"  problem: {p}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics, "env": env, **detail}
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
