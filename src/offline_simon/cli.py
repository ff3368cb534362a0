"""Batch front door: run attacks, print cost estimates, verify bounds,
generate seeded instance files.

Reports are deterministic in (config, seed): rerunning the same command
writes byte-identical output, regardless of the worker count.

The parser is the one declaration of options and handlers: each subcommand
declares its flags and names its handler, which reads the parsed namespace.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, attacks, gf2, primitives, search, simon
from .primitives import instance_to_json, save_function_table, save_permutation

ATTACK_KINDS = tuple(attacks.TARGETS)
# gen instance kind -> the attack record that draws it
GEN_TARGETS = {
    "em": "em-q1",
    "fx": "fx-q2",
    "ifx": "slide-ifx",
    "chaskey": "chaskey",
    "beetle": "beetle",
    "related-key": "related-key",
}
# the size flags each table kind of `gen` reads (a record kind reads its
# record's defaults)
GEN_TABLE_SIZES = {"permutation": ("n",), "function-table": ("n", "l")}
GEN_KINDS = (*GEN_TABLE_SIZES, *GEN_TARGETS)
# Size flags must be at least 1 when given: the records' defaults read
# `a.n or 9`, so a 0 would silently run the toy size. A subcommand that does
# not declare a flag reads it as None.
_SIZE_FLAGS = ("n", "m", "l", "u", "c", "rate", "capacity", "rounds")


class CliError(Exception):
    """Bad configuration, reported as exit code 2 (as are the ValueError of a
    failed width or capacity check and the OSError of an unwritable --out)."""


def _reject_unread_sizes(cfg: argparse.Namespace, reads) -> None:
    """A size flag that the kind does not read is an error, not a no-op."""
    for flag in _SIZE_FLAGS:
        if getattr(cfg, flag, None) is not None and flag not in reads:
            raise CliError(f"{cfg.subcommand} {cfg.kind} does not read --{flag}")


def _attack_parameters(cfg: argparse.Namespace) -> dict:
    """Attack parameters with the target's toy defaults filled in. Rejects
    parameter sets whose tables or simulations cannot fit, before any
    instance is drawn."""
    target = attacks.TARGETS[cfg.kind]
    _reject_unread_sizes(cfg, {"c", *target.defaults(cfg)})
    p = {"seed": cfg.seed, "backend": cfg.backend, "c": cfg.c, **target.defaults(cfg)}
    shape = _shape(target, p)
    p["l"] = shape.l
    search.check_capacity(shape.n, shape.m, shape.l,
                          target.copies(p["c"], shape.n, shape.m, shape.l), p["backend"])
    return p


def _shape(target: attacks.Target, p: dict) -> attacks.Shape:
    """The target's search shape at sizes p, once its windows and every
    primitive width they imply are in range."""
    shape = target.shape(p)
    for w in shape.widths:
        gf2._check_width(w)
    return shape


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


def cmd_attack(cfg: argparse.Namespace) -> int:
    if cfg.trials < 1:
        raise CliError("trials must be at least 1")
    if cfg.workers < 1:
        raise CliError("workers must be at least 1")
    p = _attack_parameters(cfg)
    # the pool starts all its workers at once: never more than can be busy
    workers = min(cfg.workers, cfg.trials, os.cpu_count() or 1)
    if workers > 1:
        # imported here: a single-process run does not pay for the pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
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


def cmd_estimate(cfg: argparse.Namespace) -> int:
    if not cfg.preset and (cfg.n is None or cfg.m is None):
        raise CliError("estimate needs --preset or both --n and --m")
    record = analysis.estimate_costs(cfg.n, cfg.m, cfg.data_limit, cfg.preset)
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


def cmd_verify_bounds(cfg: argparse.Namespace) -> int:
    if cfg.trials < 1:
        raise CliError("trials must be at least 1")
    if (cfg.n or 0) > simon.MAX_N:
        # checked before the period-recovery loop builds 2^n-word tables
        raise CliError(f"--n {cfg.n} exceeds the simulable {simon.MAX_N}")
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
    if c_run * n_run < analysis.query_count(n_run):
        flags.append("c-too-small")
    hits = 0
    runs = max(50, min(cfg.trials, 500))
    for i in range(runs):
        period = int(rng.integers(1, 1 << n_run))
        table = simon.random_periodic_function(n_run, n_run, period, rng)
        hits += simon.recover(table, c_run * n_run, rng, n_run).period == period
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
        r = analysis.grover_iterations(m)
        success = analysis.run_grover(m, 0, 0.0, r)
        ideal = analysis.amplified_success(2.0**-m, r)
        checks.append({
            "name": f"qaa-exact[a=1/{1 << m}]",
            "measured": success,
            "bound": ideal,
            "ok": abs(success - ideal) <= 1e-9,
        })
    beta = 0.05
    eps = analysis.bit_flip_error(beta)
    worst = 0.0
    ok = True
    for j in range(1, 9):
        got = analysis.run_grover(3, 5, beta, j)
        dev = abs(got - analysis.amplified_success(2.0**-3, j))
        bound = analysis.qaa_deviation_bound(j, eps)
        worst = max(worst, dev - bound)
        ok = ok and dev <= bound + 1e-12
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


def cmd_gen(cfg: argparse.Namespace) -> int:
    if not cfg.out:
        raise CliError("gen needs --out")
    if cfg.kind in GEN_TABLE_SIZES:
        _reject_unread_sizes(cfg, GEN_TABLE_SIZES[cfg.kind])
    else:
        target = attacks.TARGETS[GEN_TARGETS[cfg.kind]]
        _reject_unread_sizes(cfg, target.defaults(cfg))
        # the sizes `attack` accepts, checked before the instance is drawn
        _shape(target, target.defaults(cfg))
    rng = np.random.default_rng(cfg.seed)
    if cfg.kind == "permutation":
        save_permutation(cfg.out, primitives.random_permutation(cfg.n or 8, rng))
    elif cfg.kind == "function-table":
        n, l = cfg.n or 8, cfg.l or cfg.n or 8
        # the loader's width rule, checked before 2^n values are drawn
        gf2._check_width(n)
        gf2._check_width(l, "output width")
        table = rng.integers(0, 1 << l, size=1 << n, dtype=np.int64)
        save_function_table(cfg.out, n, l, table)
    else:
        inst = target.draw(target.defaults(cfg), rng)[0]
        Path(cfg.out).write_text(instance_to_json(cfg.seed, inst) + "\n")
    return 0


def _check_out(out: str | None) -> None:
    """Raise now the OSError that writing `out` after the run would raise,
    creating and truncating nothing: a file already there is only opened."""
    if not out:
        return
    try:
        os.close(os.open(out, os.O_WRONLY))
    except FileNotFoundError:
        if not Path(out).parent.is_dir():
            raise


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing keeps no
    state in it, so every call to `main` can share it."""
    parser = argparse.ArgumentParser(prog="offline-simon",
                                     description=__doc__.splitlines()[0])
    # Subcommands take no abbreviations, so that a flag one does not read
    # cannot resolve to one it does (`gen --c` to `--capacity`).
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp, sizes):
        """The size flags the subcommand reads, plus --seed and --out."""
        for size in sizes:
            sp.add_argument(f"--{size}", type=int)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--out")

    sp = sub.add_parser("attack", help="run one attack over seeded trials",
                        allow_abbrev=False)
    sp.set_defaults(run=cmd_attack)
    sp.add_argument("kind", choices=ATTACK_KINDS)
    common(sp, ("n", "m", "u", "c"))
    sp.add_argument("--backend", choices=search.BACKENDS, default="sampled")
    sp.add_argument("--rate", type=int)
    sp.add_argument("--capacity", type=int)
    sp.add_argument("--rounds", type=int)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")

    sp = sub.add_parser("estimate", help="cost tables for standard targets",
                        allow_abbrev=False)
    sp.set_defaults(run=cmd_estimate)
    sp.add_argument("--preset", choices=tuple(analysis.published_figures()))
    sp.add_argument("--n", type=int)
    sp.add_argument("--m", type=int)
    sp.add_argument("--data-limit", dest="data_limit", type=int)
    sp.add_argument("--format", dest="fmt", choices=("text", "csv", "json"),
                    default="text")
    sp.add_argument("--out")

    sp = sub.add_parser("verify-bounds", help="statistical bound suites",
                        allow_abbrev=False)
    sp.set_defaults(run=cmd_verify_bounds)
    common(sp, ("n", "c"))
    sp.add_argument("--trials", type=int, default=2000)

    sp = sub.add_parser("gen", help="write seeded permutation/instance files",
                        allow_abbrev=False)
    sp.set_defaults(run=cmd_gen)
    sp.add_argument("kind", choices=GEN_KINDS)
    common(sp, ("n", "m", "l", "u"))
    sp.add_argument("--rate", type=int)
    sp.add_argument("--capacity", type=int)
    sp.add_argument("--rounds", type=int)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flag in _SIZE_FLAGS:
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise CliError(f"--{flag} must be at least 1, got {value}")
        if getattr(args, "seed", 0) < 0:
            raise CliError(f"--seed must be at least 0, got {args.seed}")
        _check_out(args.out)
        return args.run(args)
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
