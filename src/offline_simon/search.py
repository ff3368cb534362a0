"""Asymmetric period search: find the one family index whose branch shares a
period with the online function, spending online queries only once.

The online function g is compressed into a reusable database (superposition
copies in the Q2 setting, the plain codebook in Q1); the offline phase
amplifies over the family index with a checking oracle that tests the branch
f_i xor g for a period against that database and never queries g again.

Three backends share one report shape:
  exact-circuit  full state-vector run, ground truth at tiny widths;
  sampled        per-iteration Monte Carlo of the checking oracle at the
                 index-amplitude level (each check draws fresh rank samples);
  structured     no simulation, just the analytic error budget and exact
                 branch classification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import analysis, gf2, qsim, simon
from .gf2 import batch_rank, rank_of, solve_period

BACKENDS = ("exact-circuit", "structured", "sampled")
MAX_SIM_N = 20
Q2_ACQUISITION = "q2-superposition-queries"
Q1_ACQUISITION = "q1-classical-codebook"


# ---------------------------------------------------------------------------
# Instances and screening
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchInstance:
    """A family of 2^m candidate branches plus the online function.

    family has shape (2^m, 2^n); branch i of the search is family[i] ^ g.
    planted_index/planted_period carry the ground truth when known so runs
    can report correctness; u records the data-split width for attack-shaped
    instances (None for pure period-search instances).
    """

    n: int
    m: int
    l: int
    family: np.ndarray
    g: np.ndarray
    planted_index: int | None = None
    planted_period: int | None = None
    u: int | None = None

    def __post_init__(self):
        fam = np.asarray(self.family, dtype=np.int64)
        g = np.asarray(self.g, dtype=np.int64)
        if fam.shape != (1 << self.m, 1 << self.n):
            raise ValueError(f"family must have shape (2^{self.m}, 2^{self.n})")
        if g.shape != (1 << self.n,):
            raise ValueError(f"g must have 2^{self.n} entries")
        object.__setattr__(self, "family", fam)
        object.__setattr__(self, "g", g)

    def branch(self, i: int) -> np.ndarray:
        return self.family[i] ^ self.g

    @cached_property
    def screened(self) -> "ScreenResult":
        """The instance's screen, computed on first use and kept: the
        attacks' degeneracy check and the search itself share one."""
        return screen(self)


@dataclass(frozen=True)
class ScreenResult:
    """Exact branch classification of an instance."""

    periodic_indices: tuple[int, ...]
    branch_periods: tuple[tuple[int, ...], ...]
    branch_eps: np.ndarray
    eps: float
    condition_violated: bool
    multi_marked: bool


def screen(instance: SearchInstance) -> ScreenResult:
    """Classify every branch: periods, per-branch collision maxima, and the
    condition value (the largest off-branch collision probability)."""
    periodic = []
    periods = []
    eps_branch = np.zeros(1 << instance.m)
    for i in range(1 << instance.m):
        table = instance.branch(i)
        probs = analysis.collision_probabilities(table, instance.n)
        nonzero = probs[1:]
        branch_periods = tuple(int(t) for t in np.nonzero(probs == 1.0)[0] if t != 0)
        eps_branch[i] = float(nonzero[nonzero < 1.0].max()) if (nonzero < 1.0).any() else 0.0
        if branch_periods:
            periodic.append(i)
        periods.append(branch_periods)
    aperiodic = [i for i in range(1 << instance.m) if i not in periodic]
    eps = float(max((eps_branch[i] for i in aperiodic), default=0.0))
    return ScreenResult(
        periodic_indices=tuple(periodic),
        branch_periods=tuple(periods),
        branch_eps=eps_branch,
        eps=eps,
        condition_violated=(eps > 0.5) or len(periodic) != 1,
        multi_marked=len(periodic) > 1,
    )


# ---------------------------------------------------------------------------
# Error budget
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBudget:
    """The analytic noise accounting for one full search run."""

    n: int
    m: int
    copies: int
    eps: float
    r: int
    a: float
    delta_bound: float
    ideal_success: float
    success_lower: float

    @property
    def per_iteration(self) -> float:
        """Phase-flip form of the per-call error (the doubled budget)."""
        return 2.0 * self.delta_bound

    def accumulated(self, j: int) -> float:
        """Output-probability deviation bound after j iterations."""
        return 4.0 * j * self.delta_bound

    def interval(self) -> tuple[float, float]:
        """Two-sided band around the ideal success."""
        dev = self.accumulated(self.r)
        return (max(0.0, self.ideal_success - dev), min(1.0, self.ideal_success + dev))


def error_budget(n: int, m: int, copies: int, eps: float) -> ErrorBudget:
    r = analysis.grover_iterations(m)
    a = 1.0 if m == 0 else 2.0**-m
    delta = analysis.restoration_bound(n, copies, eps)
    ideal = analysis.grover_ideal_success(m, r)
    lower = max(0.0, min(1.0, max(1.0 - a, a) - 4.0 * r * delta))
    return ErrorBudget(n, m, copies, eps, r, a, delta, ideal, lower)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Counters:
    classical_online: int = 0
    quantum_online: int = 0
    f_queries: int = 0
    grover_iterations: int = 0

    def as_dict(self) -> dict:
        return {
            "classical_online": self.classical_online,
            "quantum_online": self.quantum_online,
            "f_queries": self.f_queries,
            "grover_iterations": self.grover_iterations,
        }


@dataclass
class Report:
    """Serializable record of one search run (shared by all backends)."""

    backend: str
    n: int
    m: int
    l: int
    c: int
    u: int | None
    counters: Counters
    eps: float
    delta_bound: float
    ideal_success: float
    success_lower: float
    recovered: dict | None
    correct: bool | None
    condition_violated: bool
    flags: list[str] = field(default_factory=list)
    acquisition: str | None = None
    measured_index: int | None = None
    recovery_queries: int = 0
    shots: int = 1
    success_rate: float | None = None

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "n": self.n,
            "m": self.m,
            "l": self.l,
            "c": self.c,
            "u": self.u,
            "counters": self.counters.as_dict(),
            "eps": self.eps,
            "delta_bound": self.delta_bound,
            "ideal_success": self.ideal_success,
            "success_lower": self.success_lower,
            "recovered": self.recovered,
            "correct": self.correct,
            "condition_violated": self.condition_violated,
            "flags": list(self.flags),
            "acquisition": self.acquisition,
            "measured_index": self.measured_index,
            "recovery_queries": self.recovery_queries,
            "shots": self.shots,
            "success_rate": self.success_rate,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# The checking oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _rank_predicate(n: int, copies: int) -> np.ndarray:
    """Truth table over the 2^(n*copies) packed inputs: 1 when the
    concatenated sample words do not span F_2^n (the branch looks
    periodic). Built once per (n, copies) and read-only."""
    size = 1 << (n * copies)
    shifts = np.arange(copies, dtype=np.int64) * n
    mask = (1 << n) - 1
    table = np.empty(size, dtype=np.int64)
    block = max(1, gf2._RANK_BLOCK_CELLS // copies)
    for start in range(0, size, block):
        packed = np.arange(start, min(size, start + block), dtype=np.int64)
        words = (packed[:, None] >> shifts) & mask
        table[start:start + block] = batch_rank(words, n) < n
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class TestResult:
    outcome: int | None
    periodic: bool | None
    p_bad: float | None
    restoration_distance: float | None


def _exact_layout(n: int, l: int, copies: int, m: int = 0) -> qsim.RegisterLayout:
    regs = []
    if m > 0:
        regs.append(("idx", m))
    for k in range(copies):
        regs.append((f"x{k}", n))
        regs.append((f"y{k}", l))
    regs.append(("b", 1))
    return qsim.RegisterLayout(*regs)


def qubit_footprint(m: int, copies: int, n: int, l: int) -> int:
    """Qubits of a full exact run: the m-qubit index, `copies` (x, y)
    register pairs of n + l qubits, and the output bit."""
    return m + copies * (n + l) + 1


def _prepare_database(state: qsim.QState, table, copies: int) -> None:
    for k in range(copies):
        qsim.apply_h(state, f"x{k}")
        qsim.apply_oracle_xor(state, table, f"x{k}", f"y{k}")


def _apply_rank_xor(state: qsim.QState, n: int, copies: int) -> None:
    xs = [f"x{k}" for k in range(copies)]
    for name in xs:
        qsim.apply_h(state, name)
    qsim.apply_oracle_xor(state, _rank_predicate(n, copies), xs, "b")
    for name in xs:
        qsim.apply_h(state, name)


def test(instance: SearchInstance, i: int, copies: int, backend: str = "sampled",
         rng: np.random.Generator | None = None, b: int = 0) -> TestResult:
    """Run the period check for one branch on the chosen backend.

    exact-circuit: prepares the branch database, applies the check and
    measures the output bit; also reports the Euclidean distance between the
    database registers before and after (the restoration damage).
    sampled: draws `copies` fresh samples and applies the rank test.
    structured: returns the exact classification and the branch's p_bad.
    """
    table = instance.branch(i)
    n, l = instance.n, instance.l
    if backend == "structured":
        periods = analysis.find_periods(table, n)
        if periods:
            return TestResult(outcome=b ^ 1, periodic=True, p_bad=None, restoration_distance=None)
        probs = analysis.collision_probabilities(table, n)
        p_bad = analysis.p_bad_union_bound(probs, copies)
        return TestResult(outcome=None, periodic=False, p_bad=p_bad, restoration_distance=None)
    if backend == "sampled":
        if rng is None:
            raise ValueError("sampled backend needs an rng")
        draws = simon.sample(table, copies, rng, n)
        fired = rank_of([w.value for w in draws], n) < n
        return TestResult(outcome=b ^ (1 if fired else 0), periodic=None, p_bad=None, restoration_distance=None)
    if backend != "exact-circuit":
        raise ValueError(f"unknown backend {backend!r}")
    if rng is None:
        raise ValueError("exact backend needs an rng")
    layout = _exact_layout(n, l, copies)
    state = qsim.init_zero(layout)
    _prepare_database(state, table, copies)
    if b:
        qsim.apply_x(state, "b")
    before = state.copy()
    _apply_rank_xor(state, n, copies)
    ideal_bit = b ^ (1 if analysis.find_periods(table, n) else 0)
    ideal = before.copy()
    if ideal_bit != b:
        qsim.apply_x(ideal, "b")
    restoration = qsim.distance(state, ideal)
    outcome, _ = qsim.measure(state, "b", rng)
    return TestResult(outcome=outcome.value, periodic=None, p_bad=None, restoration_distance=restoration)


def restoration_distance(table, n: int, l: int, copies: int) -> float:
    """Exact database damage of one check on the given branch table."""
    layout = _exact_layout(n, l, copies)
    state = qsim.init_zero(layout)
    _prepare_database(state, table, copies)
    before = state.copy()
    _apply_rank_xor(state, n, copies)
    ideal_bit = 1 if analysis.find_periods(table, n) else 0
    if ideal_bit:
        qsim.apply_x(before, "b")
    return qsim.distance(state, before)


def _flags(m: int, copies: int, scr: ScreenResult) -> list[str]:
    """Run warnings: too few copies for the index width, or more than one
    periodic branch."""
    flags = []
    if m > 0 and copies < math.ceil(m / analysis.LOG2_4_3):
        flags.append("c-too-small")
    if scr.multi_marked:
        flags.append("multi-marked")
    return flags


# ---------------------------------------------------------------------------
# Structured prediction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchStat:
    index: int
    periodic: bool
    eps: float
    p_bad_mc: float | None
    p_bad_union: float | None


@dataclass(frozen=True)
class StructuredPrediction:
    budget: ErrorBudget
    branches: tuple[BranchStat, ...]
    flags: tuple[str, ...]
    condition_violated: bool

    @property
    def success_lower(self) -> float:
        return self.budget.success_lower

    @property
    def ideal_success(self) -> float:
        return self.budget.ideal_success

    def interval(self) -> tuple[float, float]:
        return self.budget.interval()


def structured_predict(instance: SearchInstance, copies: int,
                       trials: int = 2048, rng: np.random.Generator | None = None) -> StructuredPrediction:
    """Analytic run prediction: exact branch classification, Monte Carlo
    p_bad per aperiodic branch with the union-bound cross-check, and the
    amplification error budget."""
    if copies < 1:
        raise ValueError("copies must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    scr = instance.screened
    budget = error_budget(instance.n, instance.m, copies, scr.eps)
    stats = []
    for i in range(1 << instance.m):
        table = instance.branch(i)
        if scr.branch_periods[i]:
            stats.append(BranchStat(i, True, float(scr.branch_eps[i]), None, None))
            continue
        probs = analysis.collision_probabilities(table, instance.n)
        union = analysis.p_bad_union_bound(probs, copies)
        dist = simon.distribution(table, instance.n)
        draws = rng.choice(1 << instance.n, size=(trials, copies), p=dist.weights)
        bad = int((batch_rank(draws, instance.n) < instance.n).sum())
        stats.append(BranchStat(i, False, float(scr.branch_eps[i]), bad / trials, union))
    return StructuredPrediction(
        budget=budget,
        branches=tuple(stats),
        flags=tuple(_flags(instance.m, copies, scr)),
        condition_violated=scr.condition_violated,
    )


# ---------------------------------------------------------------------------
# Backend runners
# ---------------------------------------------------------------------------


def _exact_index_distribution(instance: SearchInstance, copies: int, r: int) -> np.ndarray:
    """Final index marginal of the full circuit (deterministic)."""
    n, l, m = instance.n, instance.l, instance.m
    layout = _exact_layout(n, l, copies, m)
    state = qsim.init_zero(layout)
    _prepare_database(state, instance.g, copies)
    qsim.apply_h(state, "idx")
    qsim.apply_x(state, "b")
    qsim.apply_h(state, "b")
    for _ in range(r):
        for k in range(copies):
            qsim.apply_indexed_oracle(state, instance.family, "idx", f"x{k}", f"y{k}")
        _apply_rank_xor(state, n, copies)
        for k in range(copies):
            qsim.apply_indexed_oracle(state, instance.family, "idx", f"x{k}", f"y{k}")
        qsim.apply_h(state, "idx")
        qsim.apply_reflection_about_zero(state, "idx")
        qsim.apply_h(state, "idx")
        state.scale(-1.0)
    return qsim.marginal(state, "idx")


def _sampled_index_shot(instance: SearchInstance, copies: int, r: int,
                        dists: list, rng: np.random.Generator) -> int:
    """One sampled-backend shot: evolve the index amplitudes with fresh rank
    draws for every aperiodic branch at every iteration.

    All draws come first, iteration by iteration in branch order, and one
    batched rank test decides every sign."""
    n = instance.n
    size = 1 << instance.m
    periodic = np.array([p for p, _ in dists], dtype=bool)
    aperiodic = np.nonzero(~periodic)[0]
    draws = np.empty((r, len(aperiodic), copies), dtype=np.int64)
    for j in range(r):
        for slot, i in enumerate(aperiodic):
            draws[j, slot] = rng.choice(1 << n, size=copies, p=dists[i][1])
    fired = batch_rank(draws.reshape(r * len(aperiodic), copies), n) < n
    fired = fired.reshape(r, len(aperiodic))
    amp = np.full(size, 1.0 / math.sqrt(size))
    for j in range(r):
        signs = np.where(periodic, -1.0, 1.0)
        signs[aperiodic[fired[j]]] = -1.0
        amp = amp * signs
        amp = 2.0 * amp.mean() - amp
    probs = amp * amp
    probs = probs / probs.sum()
    return int(rng.choice(size, p=probs))


def _recover_period(instance: SearchInstance, i: int, copies: int,
                    rng: np.random.Generator) -> tuple[int | None, int]:
    """Fresh-sample period recovery on the measured branch."""
    table = instance.branch(i)
    draws = simon.sample(table, copies, rng, instance.n)
    sol = solve_period([w.value for w in draws], instance.n)
    period = sol.period if sol.kind == "unique" else None
    return period, copies


def _run_offline(instance: SearchInstance, copies: int | None, backend: str,
                 rng: np.random.Generator, acquisition: str, shots: int,
                 online_counts: tuple[int, int] | None = None) -> tuple[int | None, Report]:
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if instance.n > MAX_SIM_N:
        raise ValueError(f"n must be at most {MAX_SIM_N}")
    if copies is None:
        copies = analysis.default_copies(instance.m, instance.n)
    scr = instance.screened
    budget = error_budget(instance.n, instance.m, copies, scr.eps)
    # Both acquisitions yield the same offline database (the codebook fixes
    # the superposition state exactly); only the online counters differ.
    if online_counts is None:
        online_counts = (1 << instance.n, 0) if acquisition == Q1_ACQUISITION else (0, copies)
    classical_online, quantum_online = online_counts
    counters = Counters(
        classical_online=classical_online,
        quantum_online=quantum_online,
        f_queries=2 * copies * budget.r,
        grover_iterations=budget.r,
    )
    flags = _flags(instance.m, copies, scr)

    if backend == "structured":
        report = Report(
            backend=backend, n=instance.n, m=instance.m, l=instance.l, c=copies,
            u=instance.u, counters=counters, eps=scr.eps, delta_bound=budget.delta_bound,
            ideal_success=budget.ideal_success, success_lower=budget.success_lower,
            recovered=None, correct=None, condition_violated=scr.condition_violated,
            flags=flags, acquisition=acquisition, shots=0,
        )
        good = scr.periodic_indices[0] if len(scr.periodic_indices) == 1 else None
        return good, report

    if backend == "exact-circuit":
        needed = qubit_footprint(instance.m, copies, instance.n, instance.l)
        cap = qsim.qubit_cap()
        if needed > cap:
            raise ValueError(f"exact backend needs {needed} qubits, cap is {cap}")
        if instance.m == 0:
            index_probs = np.array([1.0])
        else:
            index_probs = _exact_index_distribution(instance, copies, budget.r)
        outcomes = rng.choice(len(index_probs), size=shots, p=index_probs / index_probs.sum())
    else:
        dists = []
        for i in range(1 << instance.m):
            table = instance.branch(i)
            if scr.branch_periods[i]:
                dists.append((True, None))
            else:
                dists.append((False, simon.distribution(table, instance.n).weights))
        outcomes = np.array([
            _sampled_index_shot(instance, copies, budget.r, dists, rng) for _ in range(shots)
        ])

    recovery_total = 0
    first_index = int(outcomes[0])
    first_recovered: dict | None = None
    first_correct: bool | None = None
    hits = 0
    for shot, i_hat in enumerate(outcomes):
        i_hat = int(i_hat)
        period, spent = _recover_period(instance, i_hat, copies, rng)
        recovery_total += spent
        if instance.planted_index is not None and i_hat == instance.planted_index:
            hits += 1
        if shot == 0:
            first_recovered = {"index": f"0x{i_hat:x}"}
            if period is not None:
                first_recovered["period"] = f"0x{period:x}"
            if instance.planted_index is not None:
                first_correct = (
                    i_hat == instance.planted_index
                    and period == instance.planted_period
                )
    success_rate = hits / shots if instance.planted_index is not None else None
    report = Report(
        backend=backend, n=instance.n, m=instance.m, l=instance.l, c=copies,
        u=instance.u, counters=counters, eps=scr.eps, delta_bound=budget.delta_bound,
        ideal_success=budget.ideal_success, success_lower=budget.success_lower,
        recovered=first_recovered, correct=first_correct,
        condition_violated=scr.condition_violated, flags=flags,
        acquisition=acquisition, measured_index=first_index,
        recovery_queries=recovery_total, shots=shots, success_rate=success_rate,
    )
    return first_index, report


def alg_poly_q2(instance: SearchInstance, copies: int | None = None,
                backend: str = "sampled", rng: np.random.Generator | None = None,
                shots: int = 1,
                online_counts: tuple[int, int] | None = None) -> tuple[int | None, Report]:
    """Search with superposition access to g: the database costs `copies`
    quantum online queries and the offline phase never queries g again.

    online_counts overrides the reported (classical, quantum) online query
    counts for callers whose online object is not g itself (for example a
    codebook the family tables were derived from).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return _run_offline(instance, copies, backend, rng, Q2_ACQUISITION, shots, online_counts)


def alg_exp_q1(instance: SearchInstance, copies: int | None = None,
               backend: str = "sampled", rng: np.random.Generator | None = None,
               shots: int = 1,
               online_counts: tuple[int, int] | None = None) -> tuple[int | None, Report]:
    """Search with classical access to g: the whole codebook is collected
    (2^n classical queries), the offline phase is identical to the Q2 run."""
    if rng is None:
        rng = np.random.default_rng(0)
    return _run_offline(instance, copies, backend, rng, Q1_ACQUISITION, shots, online_counts)


@dataclass(frozen=True)
class SimQ1Result:
    period: int | None
    rank: int
    classical_online: int
    samples: int


def sim_q1(f, g, c: int, rng: np.random.Generator, n: int | None = None) -> SimQ1Result:
    """Plain Q1 period finding on f xor g: collect the codebook, draw c*n
    samples, and accept only a clean rank-(n-1) solution."""
    f = np.asarray(f, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    if n is None:
        n = int(f.shape[0]).bit_length() - 1
    table = f ^ g
    draws = simon.sample(table, c * n, rng, n)
    sol = solve_period([w.value for w in draws], n)
    period = sol.period if sol.kind == "unique" else None
    return SimQ1Result(period=period, rank=sol.rank, classical_online=1 << n, samples=c * n)


def random_instance(n: int, m: int, l: int, rng: np.random.Generator,
                    period: int | None = None, planted_index: int | None = None,
                    max_tries: int = 200) -> SearchInstance:
    """Random search instance: one branch hides a planted period, the rest
    are aperiodic. Re-rolls until the screen confirms exactly one periodic
    branch with the off-branch collision condition satisfied."""
    if period is None:
        period = int(rng.integers(1, 1 << n))
    if planted_index is None:
        planted_index = int(rng.integers(0, 1 << m))
    for _ in range(max_tries):
        g = rng.integers(0, 1 << l, size=1 << n).astype(np.int64)
        family = rng.integers(0, 1 << l, size=(1 << m, 1 << n)).astype(np.int64)
        periodic = simon.random_periodic_function(n, l, period, rng)
        family[planted_index] = periodic ^ g
        instance = SearchInstance(
            n=n, m=m, l=l, family=family, g=g,
            planted_index=planted_index, planted_period=period,
        )
        scr = instance.screened
        if scr.periodic_indices == (planted_index,) and not scr.condition_violated:
            return instance
    raise RuntimeError("could not build a clean instance; try a larger l")
