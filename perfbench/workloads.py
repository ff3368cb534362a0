"""The three benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the seed in `__init__` (that is set-up
time), says whether its op times are scaled by the reference kernel
(reference.py), then serves ops by index: `prepare(i)` makes the op's arguments
outside the timed region, `call(args)` is the timed call into the program,
and `check(i, args, out)` verifies the output outside the timed region.

  attack-sampled  the seven `offline-simon attack` kinds round-robin through
                  cli.main, one trial each at the CLI defaults (sampled
                  backend): the command users run; bypasses qsim.
  exact-circuit   search.alg_poly_q2 on the exact state-vector backend at 21
                  qubits (a 32 MiB state): qsim.apply_h and the oracle index
                  arrays dominate; bypasses attacks, primitives and the
                  sampled shot.
  pbad-mc         simon.p_bad_estimate at the acceptance size (n=6, c=3,
                  10^4 trials): one large batch of GF(2) rank tests, the
                  other use of the rank kernel; bypasses qsim and attacks.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

KINDS = ("em-q1", "fx-q2", "fx-q1", "chaskey", "beetle", "related-key", "slide-ifx")
# Op seeds are drawn once at set-up; a run longer than this cycles through them.
OP_SEEDS = 1 << 14


@dataclass
class Outcome:
    """What the benchmark learned from one op's output."""

    digest: bytes
    verified: float  # share of the op's results that the check accepts as verified
    problems: list[str] = field(default_factory=list)
    trial_s: dict[str, float] | None = None
    redraws: int = 0
    trials: int = 0


class _Schema:
    """Validators for the report formats in docs/report-schema.json. Built at
    the first check, so that set-up time covers only the program's work."""

    def __init__(self, root: Path):
        import jsonschema

        schema = json.loads((root / "docs" / "report-schema.json").read_text())
        self._validators = {
            name: jsonschema.Draft202012Validator(
                {"$ref": f"#/$defs/{name}", "$defs": schema["$defs"]})
            for name in ("searchReport", "attackRunFile")
        }

    def problems(self, name: str, doc) -> list[str]:
        return [f"schema {name}: {err.message}"
                for err in self._validators[name].iter_errors(doc)]


def _counter_problems(rep: dict, online_n: int) -> list[str]:
    """The README counter contract of one search or attack report."""
    cnt, copies = rep["counters"], rep["c"]
    out = []
    if rep["acquisition"] == "q2-superposition-queries":
        if cnt["quantum_online"] != copies or cnt["classical_online"] != 0:
            out.append(f"Q2 counters {cnt} with copies={copies}")
    elif rep["acquisition"] == "q1-classical-codebook":
        if cnt["classical_online"] != 1 << online_n or cnt["quantum_online"] != 0:
            out.append(f"Q1 counters {cnt} with n={online_n}")
    else:
        out.append(f"unknown acquisition {rep['acquisition']!r}")
    if cnt["f_queries"] != 2 * copies * cnt["grover_iterations"]:
        out.append(f"f_queries {cnt['f_queries']} != 2*{copies}*{cnt['grover_iterations']}")
    return out


class AttackSampled:
    """One op is one round over the seven kinds, one trial each: the median
    of single trials falls between the kinds' clusters and is unsteady,
    while a round's time is one well-behaved figure. Trials are also timed
    one by one, for the per-kind medians."""

    name = "attack-sampled"
    state_bytes = 0
    scaled = True

    def __init__(self, seed: int, root: Path, scratch: Path):
        from offline_simon import cli

        self.cli = cli
        self.root = root
        self.outs = [scratch / f"attack-{seed}-{kind}.json" for kind in KINDS]
        self.seeds = np.random.default_rng([seed, 1]).integers(0, 2**31 - 1, size=OP_SEEDS)
        self._schema = None

    def prepare(self, i: int):
        return [["attack", kind, "--trials", "1", "--workers", "1",
                 "--seed", str(int(self.seeds[(i * len(KINDS) + k) % OP_SEEDS])),
                 "--out", str(out)]
                for k, (kind, out) in enumerate(zip(KINDS, self.outs))]

    def call(self, argvs):
        codes, times = [], []
        for argv in argvs:
            t0 = perf_counter()
            codes.append(self.cli.main(argv))
            times.append(perf_counter() - t0)
        return codes, times

    def check(self, i: int, argvs, out) -> Outcome:
        if self._schema is None:
            self._schema = _Schema(self.root)
        codes, times = out
        blobs, problems, verified, redraws = [], [], 0, 0
        for kind, path, code in zip(KINDS, self.outs, codes):
            if code != 0:
                path.unlink(missing_ok=True)
                blobs.append(f"exit {code}".encode())
                problems.append(f"{kind}: exit code {code}")
                continue
            raw = path.read_bytes()
            path.unlink()
            blobs.append(raw)
            doc = json.loads(raw)
            problems += [f"{kind}: {p}" for p in self._schema.problems("attackRunFile", doc)]
            (trial,) = doc["trials"]
            if doc["kind"] != kind or doc["summary"]["runs"] != 1:
                problems.append(f"{kind}: run file does not describe the requested run")
            # The slide attack's online object is the n-bit cipher codebook,
            # while its search domain is n+1 bits wide.
            online_n = doc["parameters"]["n"] if kind == "slide-ifx" else trial["n"]
            problems += [f"{kind}: {p}" for p in _counter_problems(trial, online_n)]
            verified += bool(trial["verified"])
            redraws += int(trial["screened_instances"])
        return Outcome(b"".join(blobs), verified / len(KINDS), problems,
                       dict(zip(KINDS, times)), redraws, len(KINDS))


class ExactCircuit:
    name = "exact-circuit"
    N, M, L, COPIES = 3, 2, 3, 3
    POOL = 8
    # m + copies*(n + l) + 1 = 21 qubits of complex128 amplitudes.
    state_bytes = 16 << (M + COPIES * (N + L) + 1)
    # Its time goes to numpy passes over 32 MiB arrays and their page faults,
    # which do not follow the host's swings in interpreter speed: scaling by
    # the reference kernel, or by butterfly passes over 4 or 32 MiB arrays,
    # left its spread between runs no smaller and sometimes twice as large.
    scaled = False

    def __init__(self, seed: int, root: Path, scratch: Path):
        from offline_simon import search

        self.search = search
        self.root = root
        rng = np.random.default_rng([seed, 2])
        self.pool = [search.random_instance(self.N, self.M, self.L, rng)
                     for _ in range(self.POOL)]
        self.seeds = rng.integers(0, 2**31 - 1, size=OP_SEEDS)
        self._schema = None

    def prepare(self, i: int):
        return self.pool[i % self.POOL], np.random.default_rng(int(self.seeds[i % OP_SEEDS]))

    def call(self, args):
        inst, rng = args
        return self.search.alg_poly_q2(inst, copies=self.COPIES, backend="exact-circuit",
                                       rng=rng)

    def check(self, i: int, args, out) -> Outcome:
        inst = args[0]
        if self._schema is None:
            self._schema = _Schema(self.root)
        i_hat, report = out
        rep = report.as_dict()
        text = json.dumps(rep, sort_keys=True)
        problems = self._schema.problems("searchReport", rep)
        problems += _counter_problems(rep, inst.n)
        if rep["backend"] != "exact-circuit" or rep["c"] != self.COPIES:
            problems.append("report does not describe the requested run")
        if not (0 <= i_hat < 1 << inst.m) or rep["measured_index"] != i_hat:
            problems.append(f"measured index {i_hat} inconsistent with the report")
        return Outcome(f"{i_hat}:{text}".encode(), float(rep["correct"] is True), problems)


class PBadMC:
    name = "pbad-mc"
    N, C, TRIALS = 6, 3, 10**4
    POOL = 16
    state_bytes = 0
    scaled = True

    def __init__(self, seed: int, root: Path, scratch: Path):
        from offline_simon import analysis, simon

        self.simon = simon
        rng = np.random.default_rng([seed, 3])
        self.pool = []
        while len(self.pool) < self.POOL:
            table = rng.integers(0, 1 << self.N, size=1 << self.N, dtype=np.int64)
            if not analysis.find_periods(table, self.N):
                self.pool.append(table)
        self.seeds = rng.integers(0, 2**31 - 1, size=OP_SEEDS)

    def prepare(self, i: int):
        return self.pool[i % self.POOL], np.random.default_rng(int(self.seeds[i % OP_SEEDS]))

    def call(self, args):
        table, rng = args
        return self.simon.p_bad_estimate(table, self.C, self.TRIALS, rng, self.N)

    def check(self, i: int, args, est) -> Outcome:
        problems = []
        if not 0.0 <= est.estimate <= 1.0:
            problems.append(f"estimate {est.estimate} outside [0, 1]")
        if est.trials != self.TRIALS:
            problems.append(f"estimate over {est.trials} trials, asked for {self.TRIALS}")
        bad = est.estimate * self.TRIALS
        if abs(bad - round(bad)) > 1e-6:
            problems.append(f"estimate {est.estimate} is not a count over {self.TRIALS}")
        # The same slack the verify-bounds command allows.
        sigma = math.sqrt(max(est.estimate * (1 - est.estimate), 1e-12) / est.trials)
        verified = est.estimate <= est.analytic_bound + 3 * sigma
        text = repr((est.estimate, est.half_width_95, est.analytic_bound,
                     est.union_bound, est.eps, est.trials))
        return Outcome(text.encode(), float(verified), problems)


WORKLOADS = {w.name: w for w in (AttackSampled, ExactCircuit, PBadMC)}


def digest(outcomes_bytes: list[bytes]) -> str:
    h = hashlib.sha256()
    for b in outcomes_bytes:
        h.update(hashlib.sha256(b).digest())
    return h.hexdigest()
