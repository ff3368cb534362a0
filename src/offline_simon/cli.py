"""Batch front door: run attacks, print cost estimates, verify bounds,
generate seeded instance files.

Reports are deterministic in (config, seed): rerunning the same command
writes byte-identical output, regardless of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, attacks, qaa, qsim, search, simon
from .gf2 import MAX_WIDTH
from .primitives import (
    BeetleToyInstance,
    ChaskeyToyInstance,
    EvenMansourInstance,
    FxInstance,
    IterFxInstance,
    RelatedKeyOracle,
    instance_to_json,
    random_cipher_family,
    random_permutation,
    save_function_table,
    save_permutation,
)

ATTACK_KINDS = tuple(attacks.TARGETS)
GEN_KINDS = ("permutation", "function-table", "em", "fx", "ifx", "chaskey",
             "beetle", "related-key")

# Every branch table an attack materializes must fit comfortably in memory;
# 2^22 words of family is the ceiling for a toy run.
TABLE_ENTRY_CAP_LOG2 = 22


class CliError(Exception):
    """Bad configuration or capacity problem, reported as exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters of one CLI invocation."""

    subcommand: str
    kind: str | None = None
    n: int | None = None
    m: int | None = None
    l: int | None = None
    u: int | None = None
    c: int | None = None
    rate: int | None = None
    capacity: int | None = None
    rounds: int = 3
    backend: str = "sampled"
    seed: int = 0
    trials: int = 100
    workers: int = 1
    preset: str | None = None
    data_limit: int | None = None
    out: str | None = None
    fmt: str = "json"


def _attack_parameters(cfg: RunConfig) -> dict:
    """Attack parameters with the target's toy defaults filled in. Rejects
    parameter sets whose tables or simulations cannot fit, before any
    instance is drawn."""
    target = attacks.TARGETS.get(cfg.kind)
    if target is None:
        raise CliError(f"unknown attack kind {cfg.kind!r}")
    p = {"seed": cfg.seed, "backend": cfg.backend, "c": cfg.c, **target.defaults(cfg)}
    dim, m_search, l, widths = target.shape(p)
    p["l"] = l
    for w in widths:
        if not 1 <= w <= MAX_WIDTH:
            raise CliError(f"width {w} outside [1, {MAX_WIDTH}]")
    if dim > search.MAX_SIM_N:
        raise CliError(f"search dimension {dim} exceeds the simulable {search.MAX_SIM_N}")
    if m_search + dim > TABLE_ENTRY_CAP_LOG2:
        raise CliError(
            f"family table needs 2^{m_search + dim} entries, cap is 2^{TABLE_ENTRY_CAP_LOG2}")
    if p["backend"] == "exact-circuit":
        footprint = target.footprint(p)
        if footprint > qsim.qubit_cap():
            raise CliError(f"exact backend needs {footprint} qubits, cap is {qsim.qubit_cap()}")
    return p


def _attack_trial(kind: str, p: dict, trial: int) -> dict:
    """Build a fresh seeded instance and run the attack once. Instances that
    fail the degeneracy screen are redrawn from the same stream."""
    target = attacks.TARGETS[kind]
    # looked up at call time, so wrappers installed on attacks.attack_<kind> see it
    attack = getattr(attacks, target.entry)
    rng = np.random.default_rng([p["seed"], trial])
    screened = 0
    for _ in range(50):
        try:
            report = attack(*target.draw(p, rng), p["c"], p["backend"], rng)
            break
        except attacks.DegenerateInstanceError:
            screened += 1
    else:
        raise CliError(f"{kind}: 50 consecutive instances failed the screen")
    row = report.as_dict()
    row["trial"] = trial
    row["screened_instances"] = screened
    return row


def cmd_attack(cfg: RunConfig) -> int:
    if cfg.trials < 1:
        raise CliError("trials must be at least 1")
    if cfg.workers < 1:
        raise CliError("workers must be at least 1")
    p = _attack_parameters(cfg)
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(pool.map(_attack_trial, [cfg.kind] * cfg.trials,
                                 [p] * cfg.trials, range(cfg.trials)))
    else:
        rows = [_attack_trial(cfg.kind, p, t) for t in range(cfg.trials)]
    verified = sum(r["verified"] for r in rows)
    doc = {
        "command": "attack",
        "kind": cfg.kind,
        "parameters": {k: v for k, v in sorted(p.items())},
        "trials": rows,
        "summary": {
            "runs": cfg.trials,
            "verified": verified,
            "success_rate": verified / cfg.trials,
            "planted_match": sum(bool(r["planted_match"]) for r in rows),
            "screened_instances": sum(r["screened_instances"] for r in rows),
        },
    }
    if cfg.fmt == "csv":
        text = _attack_csv(rows)
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    _emit(text, cfg.out)
    return 0


_CSV_COLUMNS = ("trial", "verified", "planted_match", "D", "T", "Q", "M",
                "condition_violated", "screened_instances")


def _attack_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS + ("keys",))
    for r in rows:
        keys = r.get("recovered")
        writer.writerow([r.get(col) for col in _CSV_COLUMNS]
                        + [json.dumps(keys, sort_keys=True)])
    return buf.getvalue()


def cmd_estimate(cfg: RunConfig) -> int:
    if cfg.preset:
        record = attacks.estimate_costs(preset=cfg.preset)
    else:
        if cfg.n is None or cfg.m is None:
            raise CliError("estimate needs --preset or both --n and --m")
        record = attacks.estimate_costs(cfg.n, cfg.m, cfg.data_limit)
    if cfg.fmt == "json":
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    elif cfg.fmt == "csv":
        flat = sorted(_flatten(record).items())
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["field", "value"])
        writer.writerows(flat)
        text = buf.getvalue()
    else:
        lines = [f"{k} = {v}" for k, v in sorted(_flatten(record).items())]
        text = "\n".join(lines) + "\n"
    _emit(text, cfg.out)
    return 0


def _flatten(record: dict, prefix: str = "") -> dict:
    flat: dict = {}
    for k, v in record.items():
        name = f"{prefix}{k}"
        if isinstance(v, dict):
            flat.update(_flatten(v, name + "."))
        else:
            flat[name] = v
    return flat


def cmd_verify_bounds(cfg: RunConfig) -> int:
    if cfg.trials < 1:
        raise CliError("trials must be at least 1")
    rng = np.random.default_rng(cfg.seed)
    checks: list[dict] = []

    # False-positive rate of the period test on aperiodic functions versus
    # the analytic bound, Monte Carlo slack included.
    n_bad, c_bad = 6, 3
    for i in range(5):
        table = rng.integers(0, 1 << n_bad, size=1 << n_bad, dtype=np.int64)
        if analysis.find_periods(table, n_bad):
            continue
        est = simon.p_bad_estimate(table, c_bad, cfg.trials, rng, n_bad)
        sigma = math.sqrt(max(est.estimate * (1 - est.estimate), 1e-12) / est.trials)
        checks.append({
            "name": f"p-bad-vs-bound[{i}]",
            "measured": est.estimate,
            "bound": est.analytic_bound,
            "eps": est.eps,
            "ok": est.estimate <= est.analytic_bound + 3 * sigma,
        })

    # Period-recovery rate on periodic functions versus the success floor.
    n_run, c_run = (cfg.n or 8), (cfg.c or 3)
    lower = analysis.simon_success_lower(n_run, c_run * n_run)
    flags = []
    if c_run * n_run < math.ceil(n_run / analysis.LOG2_4_3):
        flags.append("c-too-small")
    hits = 0
    runs = max(50, min(cfg.trials, 500))
    for i in range(runs):
        period = int(rng.integers(1, 1 << n_run))
        table = simon.random_periodic_function(n_run, n_run, period, rng)
        res = simon.run(table, c_run, rng, n_run)
        hits += res.kind == "period" and res.period == period
    rate = hits / runs
    sigma = math.sqrt(max(lower * (1 - lower), 1e-12) / runs) if lower > 0 else 0.0
    checks.append({
        "name": "period-recovery-rate",
        "measured": rate,
        "bound": lower,
        "flags": flags,
        "sufficient_condition_holds": lower > 0,
        "ok": rate >= max(0.0, lower) - 3 * sigma,
        "note": ("bound is vacuous at this c; the floor is violated as a "
                 "sufficient condition, not as a theorem"
                 if lower <= 0 else "floor holds with Monte Carlo slack"),
    })

    # Amplification: exact runs match the closed form, noisy checks stay
    # inside the accumulated-error interval.
    for m in (2, 4):
        a = 2.0**-m
        run = qaa.build_and_run_grover(m, 0, rng)
        ideal = qaa.ideal_success(a, run.spec.r)
        checks.append({
            "name": f"qaa-exact[a=1/{1 << m}]",
            "measured": run.success,
            "bound": ideal,
            "ok": abs(run.success - ideal) <= 1e-9,
        })
    beta = 0.05
    eps = qaa.bit_flip_error(beta)
    worst = 0.0
    ok = True
    for j in range(1, 9):
        got = qaa.run_grover_noisy(3, 5, beta, j)
        dev = abs(got - qaa.ideal_success(2.0**-3, j))
        worst = max(worst, dev - 4 * j * eps)
        ok = ok and dev <= 4 * j * eps + 1e-12
    checks.append({
        "name": "qaa-noisy-interval",
        "measured": worst,
        "bound": 0.0,
        "ok": ok,
    })

    lines = []
    for chk in checks:
        status = "PASS" if chk["ok"] else "FAIL"
        lines.append(f"{status} {chk['name']}: measured={chk['measured']:.6g} "
                     f"bound={chk['bound']:.6g}"
                     + (f" flags={chk['flags']}" if chk.get("flags") else ""))
    doc = {"command": "verify-bounds", "seed": cfg.seed, "trials": cfg.trials,
           "checks": checks, "all_ok": all(c["ok"] for c in checks)}
    if cfg.out:
        _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg.out)
    print("\n".join(lines))
    return 0


def cmd_gen(cfg: RunConfig) -> int:
    if not cfg.out:
        raise CliError("gen needs --out")
    rng = np.random.default_rng(cfg.seed)
    kind = cfg.kind
    try:
        if kind == "permutation":
            save_permutation(cfg.out, random_permutation(cfg.n or 8, rng))
        elif kind == "function-table":
            n, l = cfg.n or 8, cfg.l or cfg.n or 8
            table = rng.integers(0, 1 << l, size=1 << n, dtype=np.int64)
            save_function_table(cfg.out, n, l, table)
        else:
            text = _gen_instance_json(kind, cfg, rng)
            Path(cfg.out).write_text(text + "\n")
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return 0


def _gen_instance_json(kind: str, cfg: RunConfig, rng: np.random.Generator) -> str:
    """Instance descriptors; tables rebuild from the stored seed, so the
    permutation/family draw happens first, mirroring the loader."""
    if kind == "em":
        n = cfg.n or 9
        inst = EvenMansourInstance(n, random_permutation(n, rng),
                                   int(rng.integers(1 << n)), int(rng.integers(1 << n)))
        return instance_to_json("even-mansour", cfg.seed, inst)
    if kind == "fx":
        n, m = cfg.n or 6, cfg.m or 3
        fam = random_cipher_family(m, n, rng)
        inst = FxInstance(n, m, fam, int(rng.integers(1 << m)),
                          int(rng.integers(2, 1 << n)), int(rng.integers(1 << n)))
        return instance_to_json("fx", cfg.seed, inst)
    if kind == "ifx":
        n, m = cfg.n or 6, cfg.m or 3
        fam = random_cipher_family(m, n, rng)
        inst = IterFxInstance(n, m, fam, int(rng.integers(1 << n)),
                              int(rng.integers(1 << m)), cfg.rounds)
        return instance_to_json("iterated-fx", cfg.seed, inst)
    if kind == "chaskey":
        n = cfg.n or 8
        inst = ChaskeyToyInstance(n, random_permutation(n, rng),
                                  int(rng.integers(1 << n)), int(rng.integers(1 << n)))
        return instance_to_json("chaskey-toy", cfg.seed, inst)
    if kind == "beetle":
        rate, cpty = cfg.rate or 6, cfg.capacity or 4
        inst = BeetleToyInstance(rate, cpty, random_permutation(rate + cpty, rng),
                                 int(rng.integers(1 << rate)), int(rng.integers(1 << cpty)))
        return instance_to_json("beetle-toy", cfg.seed, inst)
    if kind == "related-key":
        n = cfg.n or 9
        u = cfg.u or round(n / 3)
        fam = random_cipher_family(n, n, rng)
        key = int(rng.integers(1 << (n - u), 1 << n))
        oracle = RelatedKeyOracle(fam, key, int(rng.integers(1 << n)))
        return instance_to_json("related-key", cfg.seed, oracle)
    raise CliError(f"unknown gen kind {kind!r}")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="offline-simon",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, backend=False):
        sp.add_argument("--n", type=int)
        sp.add_argument("--m", type=int)
        sp.add_argument("--l", type=int)
        sp.add_argument("--u", type=int)
        sp.add_argument("--c", type=int)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out")
        if backend:
            sp.add_argument("--backend", choices=("sampled", "exact-circuit",
                                                  "structured"), default="sampled")

    sp = sub.add_parser("attack", help="run one attack over seeded trials")
    sp.add_argument("kind", choices=ATTACK_KINDS)
    common(sp, backend=True)
    sp.add_argument("--rate", type=int)
    sp.add_argument("--capacity", type=int)
    sp.add_argument("--rounds", type=int, default=3)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    sp = sub.add_parser("estimate", help="cost tables for standard targets")
    sp.add_argument("--preset", choices=attacks.ESTIMATE_PRESETS)
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--data-limit", dest="data_limit", type=int)
    sp.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                    default="text")
    sp.add_argument("--out")

    sp = sub.add_parser("verify-bounds", help="statistical bound suites")
    common(sp)
    sp.add_argument("--trials", type=int, default=2000)

    sp = sub.add_parser("gen", help="write seeded permutation/instance files")
    sp.add_argument("kind", choices=GEN_KINDS)
    common(sp)
    sp.add_argument("--rate", type=int)
    sp.add_argument("--capacity", type=int)
    sp.add_argument("--rounds", type=int, default=3)

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    return RunConfig(**fields)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = config_from_args(args)
    handlers = {
        "attack": cmd_attack,
        "estimate": cmd_estimate,
        "verify-bounds": cmd_verify_bounds,
        "gen": cmd_gen,
    }
    try:
        return handlers[cfg.subcommand](cfg)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
