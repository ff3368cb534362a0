"""Asymmetric period search: find the one family index whose branch shares a
period with the online function, spending online queries only once.

The online function g is compressed into a reusable database (superposition
copies in the Q2 setting, the plain codebook in Q1); the offline phase
amplifies over the family index with a checking oracle that tests the branch
f_i xor g for a period against that database and never queries g again.

Three backends share one report shape:
  exact-circuit  exact index marginal of the full circuit, ground truth at
                 tiny widths; the check's output bit sits in |-> and acts
                 only as a phase, and in its Hadamard basis each y register
                 holds a label v that every query (-1)^(v . f(x)) leaves
                 unchanged, so the run holds one real state on the index
                 and x registers per multiset of the copies' labels; a
                 copy whose label is 0 takes no phase and always samples
                 the word 0, so each state holds only its other copies;
  sampled        per-iteration Monte Carlo of the checking oracle at the
                 index-amplitude level (each check draws fresh rank samples);
  structured     no simulation, just the analytic error budget and exact
                 branch classification.
Every backend then recovers the period of the one branch it returns (the
first measured shot, or the screen's one periodic branch), once per search.

``check_capacity`` holds every limit a search is checked against, the
exact run's qubit budget (``qubit_cap``, which ``qsim``'s layouts read
too) among them.

Every backend starts from the instance's screen, which takes all 2^m
branch tables through one ``simon.distributions`` pass and keeps the
branches' Simon laws and collision spectra as the two (2^m, 2^n) stacks it
returns. The pass counts each branch's equal-value pairs and transforms
the count once, so a branch of 2^n inputs costs sum_a min(|C_a|^2, 2^n)
over its output classes C_a: at most 2^(3n/2), and a few times 2^n for the
near-injective branches of a cipher.
A sampled shot draws its rank samples from the rows of the aperiodic
branches and rank-tests them through ``simon.misses_rank``, the kernel of
the p_bad Monte Carlo too: one call per shot, over that one gather.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache

import numpy as np

from . import analysis, gf2, simon

BACKENDS = ("sampled", "exact-circuit", "structured")
Q2_ACQUISITION = "q2-superposition-queries"
Q1_ACQUISITION = "q1-classical-codebook"
# Every table an attack materializes must fit comfortably in memory; 2^22
# words is the ceiling for a toy run. check_capacity applies it to the branch
# family, which bounds the tables the carves read too, to within a factor of
# two: the related-key family is its oracle's 2^n-word cipher column,
# rearranged.
TABLE_ENTRY_CAP_LOG2 = 22
# A sampled shot draws r * 2^m * copies rank-sample words. It holds one
# block of them at a time (see simon.misses_rank), so the cap bounds a
# shot's draw work, not its memory.
SHOT_CELL_CAP_LOG2 = 26
# The exact backend's qubit budget, unless CAP_ENV_VAR overrides it.
DEFAULT_QUBIT_CAP = 26
CAP_ENV_VAR = "OFFLINE_SIMON_QUBIT_CAP"
# Amplitudes per chunk of the exact run's label blocks (8 MiB of float64):
# a chunk's gathered per-copy factors are no more.
_BLOCK_CELLS = 1 << 20


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
        if min(fam.min(), g.min()) < 0 or max(fam.max(), g.max()) >> self.l:
            raise ValueError(f"family and g values must be l-bit, in [0, 2^{self.l})")
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
    """Exact branch classification of an instance, with the branches' Simon
    laws and collision spectra (row i is branch i's) for the backends to reuse."""

    periodic_indices: tuple[int, ...]
    eps: float
    condition_violated: bool
    multi_marked: bool
    weights: np.ndarray
    collisions: np.ndarray


def screen(instance: SearchInstance) -> ScreenResult:
    """Classify every branch: periodic or not (a collision of 1 off t = 0
    names a period), and the condition value (the largest off-zero
    collision probability of an aperiodic branch).

    All 2^m branch tables go through ``simon.distributions`` in one call, and
    the classification is read off the (2^m, 2^n) collision stack at once."""
    weights, collisions = simon.distributions(instance.family ^ instance.g, instance.n)
    off = collisions[:, 1:]
    periodic = (off == 1.0).any(axis=1)
    eps_branch = off.max(axis=1, where=off < 1.0, initial=0.0)
    eps = float(eps_branch[~periodic].max(initial=0.0))
    periodic_indices = tuple(np.flatnonzero(periodic).tolist())
    return ScreenResult(
        periodic_indices=periodic_indices,
        eps=eps,
        condition_violated=(eps > 0.5) or len(periodic_indices) != 1,
        multi_marked=len(periodic_indices) > 1,
        weights=weights,
        collisions=collisions,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class Counters:
    classical_online: int = 0
    quantum_online: int = 0
    f_queries: int = 0
    grover_iterations: int = 0


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
    # the recovery behind `recovered`, kept for the attack; not serialized
    solution: gf2.PeriodSolution | None = None

    def as_dict(self) -> dict:
        """The report as a JSON-ready row, in field order and without
        `solution`: ``asdict`` minus that field, built without its deep
        copies, with fresh counters, flags and recovered, so a row stays
        independent of its report."""
        doc = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "solution"}
        doc["counters"] = dict(vars(self.counters))
        doc["flags"] = list(self.flags)
        if self.recovered is not None:
            doc["recovered"] = dict(self.recovered)
        return doc


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
        table[start:start + block] = gf2.batch_rank(words, n) < n
    table.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _label_blocks(l: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    """The multisets of `copies` l-bit labels, as the rows of a (blocks,
    copies) array of nondecreasing labels in lexicographic order, and the
    number of label tuples each one stands for, copies! over the product
    of its multiplicities' factorials: C(2^l + copies - 1, copies) blocks
    whose counts sum to 2^(l * copies). Built once per (l, copies), from
    itertools' combinations with replacement, and read-only; each count is
    copies! divided, column by column, by the length of the run of equal
    labels ending there: the build holds its output and two bytes a row."""
    blocks = math.comb((1 << l) + copies - 1, copies)
    rows = itertools.combinations_with_replacement(range(1 << l), copies)
    labels = np.fromiter(itertools.chain.from_iterable(rows), dtype=np.int64,
                         count=blocks * copies).reshape(blocks, copies)
    counts = np.full(blocks, math.factorial(copies), dtype=np.int64)
    run = np.ones(blocks, dtype=np.uint8)  # at most copies, and copies! fits an int64
    for k in range(1, copies):
        run *= labels[:, k] == labels[:, k - 1]
        run += 1
        counts //= run
    labels.flags.writeable = counts.flags.writeable = False
    return labels, counts


def qubit_footprint(m: int, copies: int, n: int, l: int) -> int:
    """Qubits of the whole exact circuit: the m-qubit index, `copies`
    (x, y) register pairs of n + l qubits, and the output bit. The run
    simulates no y register and no output bit: it holds one state of
    2^(m + copies * n) amplitudes per multiset of the y labels, never more
    than 2^(footprint - 1) amplitudes in all."""
    return m + copies * (n + l) + 1


def qubit_cap() -> int:
    """The qubit budget: OFFLINE_SIMON_QUBIT_CAP if set, else 26;
    ValueError naming the variable if it is not an integer."""
    value = os.environ.get(CAP_ENV_VAR, str(DEFAULT_QUBIT_CAP))
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{CAP_ENV_VAR} must be an integer, got {value!r}") from None


def check_capacity(n: int, m: int, l: int, copies: int, backend: str) -> None:
    """Raise ValueError unless `backend` is one of BACKENDS and a search over
    2^m branches of n-bit domain and l-bit output, with `copies` samples per
    database, fits the lab's limits: the simulable width, the branch
    family's table cap, and the backend's own (a sampled shot's cells, an
    exact run's qubits). The qubit cap counts the whole circuit, output bit
    and y registers included, though the run holds only its label blocks
    (see ``qubit_footprint``)."""
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if n < 1:
        raise ValueError(f"search dimension {n} must be at least 1")
    if n > simon.MAX_N:
        raise ValueError(f"search dimension {n} exceeds the simulable {simon.MAX_N}")
    if m + n > TABLE_ENTRY_CAP_LOG2:
        raise ValueError(f"family table needs 2^{m + n} entries, "
                         f"cap is 2^{TABLE_ENTRY_CAP_LOG2}")
    if backend == "sampled":
        cells = analysis.grover_iterations(m) * copies << m
        if cells > 1 << SHOT_CELL_CAP_LOG2:
            raise ValueError(f"a sampled shot needs {cells} rank-sample cells "
                             f"(iterations x 2^{m} x copies), cap is 2^{SHOT_CELL_CAP_LOG2}")
    elif backend == "exact-circuit":
        needed, cap = qubit_footprint(m, copies, n, l), qubit_cap()
        if needed > cap:
            raise ValueError(f"exact backend needs {needed} qubits, cap is {cap}")


def _parity_table(table, l: int) -> np.ndarray:
    """0/1 table over the packed (input, v) values, v an l-bit label of the
    output register's Hadamard basis: the parity of v & table[input]. In
    that basis the query y ^= table[x] is the phase (-1)^(v . table[x]).
    A 2-D family table packs as (index, x, v)."""
    table = np.asarray(table, dtype=np.int64).reshape(-1, 1)
    return (np.bitwise_count(table & np.arange(1 << l)) & 1).reshape(-1).astype(np.int64)


def _flags(m: int, copies: int, scr: ScreenResult) -> list[str]:
    """Run warnings: too few copies for the index width, or more than one
    periodic branch."""
    flags = []
    if m > 0 and copies < analysis.query_count(m):
        flags.append("c-too-small")
    if scr.multi_marked:
        flags.append("multi-marked")
    return flags


# ---------------------------------------------------------------------------
# Backend runners
# ---------------------------------------------------------------------------


def _exact_index_distribution(instance: SearchInstance, copies: int, r: int) -> np.ndarray:
    """Final index marginal of the full circuit (deterministic).

    The check's output bit sits in |-> and acts only as a phase, and every
    y register starts in |+...+>, is never measured and, in its Hadamard
    basis, only ever takes the query phase (-1)^(v . f(x)) on its label v.
    So each copy's label is fixed, and the marginal is the average over
    label tuples of a circuit on the index and x registers alone. The
    rank predicate is symmetric in the copies, so the run holds one such
    state per label multiset and weights its squared norms by its tuple
    count.

    A copy whose label is 0 takes no phase, and its x register returns to
    the sample word 0 at every check, which spans nothing. So a block with
    z zero labels (its first z, the rows being sorted) is the circuit of
    its other copies - z alone, with their rank predicate; the all-zero
    block is one cell whose rank sign is -1. The rows with z zero labels
    are one run of ``_label_blocks``, and each runs as a (blocks, 2^m,
    2^(live * n)) array of live = copies - z copies.

    The state entering the first check is a product over the copies of
    each branch's Walsh spectrum, which the run builds in the scale of the
    unnormalized transform: fwht(psi) = 2^(live * n / 2) H psi. Every
    later H layer over the x registers is an fwht too, and the rank signs
    carry the 2^-(live * n) that normalizes each check's pair of them.
    Each per-copy factor (the spectra once, a query's signs twice per
    check) goes on as two: copy 0's along the leading x axis and the
    product of the other copies' along the rest (see ``_split_factors``).

    The blocks evolve independently, so the run takes them in chunks of at
    most _BLOCK_CELLS amplitudes: what it holds beyond the cached labels
    is one chunk with its two factors and the (blocks, 2^m) squared norms
    (``_block_norms``), whatever the number of blocks."""
    counts = _label_blocks(instance.l, copies)[1]
    return counts @ _block_norms(instance, copies, r) / 2.0 ** (instance.l * copies)


def _block_norms(instance: SearchInstance, copies: int, r: int) -> np.ndarray:
    """The squared norm on each index of the final state of each label
    block, the rows of ``_label_blocks(l, copies)``: a (blocks, 2^m) array
    whose rows each sum to 1 when r >= 1 (see ``_exact_index_distribution``).
    At r = 0 no check normalizes the spectra, and a row sums to
    2^(n * live); ``_run_offline`` never asks, as r = 0 only at m = 0."""
    n, l, m = instance.n, instance.l, instance.m
    labels = _label_blocks(l, copies)[0]

    def signs(table) -> np.ndarray:
        """(-1)^(v . table[i, x]) as a C-contiguous [v, i, x] array."""
        parity = _parity_table(table, l).reshape(1 << m, 1 << n, 1 << l)
        return np.ascontiguousarray(1.0 - 2.0 * parity.transpose(2, 0, 1))

    spectra = signs(instance.family ^ instance.g)
    gf2.fwht_inplace(spectra, 1 << n)
    phases = signs(instance.family)
    predicate = _rank_predicate(n, copies)

    norms = np.empty((len(labels), 1 << m))
    stop = 0
    for live in range(copies + 1):
        # the rows with at least copies - live zero labels come first
        start, stop = stop, math.comb((1 << l) + live - 1, live)
        cells = 1 << (n * live)
        # the zero-label copies' words, all 0, are the packed inputs' top
        # bits: the live copies' predicate is the table's first entries
        rank = (1.0 - 2.0 * predicate[:cells]) / cells
        step = max(1, _BLOCK_CELLS // (cells << m))
        for b0 in range(start, stop, step):
            b1 = min(stop, b0 + step)
            _evolve_blocks(labels[b0:b1, copies - live:], spectra, phases, rank, r,
                           2.0 ** (-(m + n * live) / 2), norms[b0:b1])
    return norms


def _split_factors(table: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One factor per copy, ``table[v, i, x]`` at the copy's label v, as
    two arrays: copy 0's, (blocks, 2^m, 2^n), and the product of the
    others', (blocks, 2^m, 2^((copies - 1) * n)) with copy 1 on the
    highest bits. No copies give two factors of one cell."""
    blocks, live = labels.shape
    rows = table.shape[1]
    first = table[labels[:, 0]] if live else np.ones((blocks, rows, 1))
    rest = table[labels[:, 1]] if live > 1 else np.ones((blocks, rows, 1))
    for k in range(2, live):
        rest = np.einsum("bir,bix->birx", rest, table[labels[:, k]]).reshape(blocks, rows, -1)
    return first, rest


def _evolve_blocks(labels: np.ndarray, spectra: np.ndarray, phases: np.ndarray,
                   rank: np.ndarray, r: int, scale: float, out: np.ndarray) -> None:
    """Run r checks of the label blocks whose rows are `labels`, and write
    each block's squared norm per index into the (blocks, 2^m) `out`."""
    first, rest = _split_factors(spectra, labels)
    first *= scale
    amp = np.empty((len(labels), first.shape[1], len(rank)))
    view = amp.reshape(first.shape + rest.shape[2:])
    # the outer product in one pass, without the iterator buffers that a
    # broadcast multiply into `out` takes for each of its operands
    np.einsum("bix,bir->bixr", first, rest, out=view)
    del first, rest
    head, tail = _split_factors(phases, labels)
    head, tail = head[..., None], tail[:, :, None, :]
    for j in range(r):
        if j:
            view *= head
            view *= tail
            gf2.fwht_inplace(amp, len(rank))
        amp *= rank
        gf2.fwht_inplace(amp, len(rank))
        view *= head
        view *= tail
        mean = amp.sum(axis=1, keepdims=True)
        mean *= 2.0 / amp.shape[1]
        np.subtract(mean, amp, out=amp)
    np.einsum("bic,bic->bi", amp, amp, out=out)


def _sampled_index_shot(instance: SearchInstance, copies: int, r: int,
                        rng: np.random.Generator) -> int:
    """One sampled-backend shot: evolve the index amplitudes with fresh rank
    draws, from the screen's laws, for every aperiodic branch at every
    iteration.

    All draws come first, iteration by iteration in branch order: one
    ``simon.misses_rank`` call over the aperiodic branches' rows of the
    screen's weights draws the very words that ``rng.choice(2^n, copies,
    p=weights[i])`` would give call by call, and rank-tests them a block
    at a time, which decides every sign."""
    size = 1 << instance.m
    scr = instance.screened
    periodic = np.zeros(size, dtype=bool)
    periodic[list(scr.periodic_indices)] = True
    aperiodic = np.nonzero(~periodic)[0]
    fired = simon.misses_rank(scr.weights[aperiodic], (r, len(aperiodic), copies), rng, instance.n)
    amp = np.full(size, 1.0 / math.sqrt(size))
    for j in range(r):
        signs = np.where(periodic, -1.0, 1.0)
        signs[aperiodic[fired[j]]] = -1.0
        amp = amp * signs
        amp = 2.0 * amp.mean() - amp
    probs = amp * amp
    probs = probs / probs.sum()
    return int(rng.choice(size, p=probs))


def _run_offline(instance: SearchInstance, copies: int, backend: str,
                 rng: np.random.Generator, acquisition: str, shots: int,
                 online_counts: tuple[int, int] | None = None) -> tuple[int | None, Report]:
    if copies < 1:
        raise ValueError("copies must be at least 1")
    check_capacity(instance.n, instance.m, instance.l, copies, backend)
    if shots < 1:
        raise ValueError("shots must be at least 1")
    scr = instance.screened
    r = analysis.grover_iterations(instance.m)
    delta = analysis.restoration_bound(instance.n, copies, scr.eps)
    # Both acquisitions yield the same offline database (the codebook fixes
    # the superposition state exactly); only the online counters differ.
    if online_counts is None:
        online_counts = (1 << instance.n, 0) if acquisition == Q1_ACQUISITION else (0, copies)
    classical_online, quantum_online = online_counts
    counters = Counters(
        classical_online=classical_online,
        quantum_online=quantum_online,
        f_queries=2 * copies * r,
        grover_iterations=r,
    )

    if backend == "structured":
        shots = 0
        outcomes = scr.periodic_indices if len(scr.periodic_indices) == 1 else ()
    elif backend == "exact-circuit":
        if instance.m == 0:
            index_probs = np.array([1.0])
        else:
            index_probs = _exact_index_distribution(instance, copies, r)
        outcomes = rng.choice(len(index_probs), size=shots, p=index_probs / index_probs.sum())
    else:
        outcomes = [_sampled_index_shot(instance, copies, r, rng) for _ in range(shots)]

    index = int(outcomes[0]) if len(outcomes) else None
    solution = recovered = correct = None
    if index is not None:
        solution = simon.recover(instance.branch(index), copies, rng, instance.n)
        recovered = {"index": f"0x{index:x}"}
        if solution.period is not None:
            recovered["period"] = f"0x{solution.period:x}"
        if instance.planted_index is not None:
            correct = (index == instance.planted_index
                       and solution.period == instance.planted_period)
    hits = sum(int(i) == instance.planted_index for i in outcomes)
    success_rate = hits / shots if instance.planted_index is not None and shots else None
    report = Report(
        backend=backend, n=instance.n, m=instance.m, l=instance.l, c=copies,
        u=instance.u, counters=counters, eps=scr.eps, delta_bound=delta,
        ideal_success=analysis.amplified_success(2.0**-instance.m, r),
        success_lower=analysis.qaa_success_lower(2.0**-instance.m, r, delta),
        recovered=recovered, correct=correct,
        condition_violated=scr.condition_violated, flags=_flags(instance.m, copies, scr),
        acquisition=acquisition, measured_index=index if shots else None,
        recovery_queries=copies * shots, shots=shots, success_rate=success_rate,
        solution=solution,
    )
    return index, report


def alg_poly_q2(instance: SearchInstance, copies: int, backend: str,
                rng: np.random.Generator, shots: int = 1,
                online_counts: tuple[int, int] | None = None) -> tuple[int | None, Report]:
    """Search with superposition access to g: the database costs `copies`
    quantum online queries and the offline phase never queries g again.

    online_counts overrides the reported (classical, quantum) online query
    counts for callers whose online object is not g itself (for example a
    codebook the family tables were derived from).
    """
    return _run_offline(instance, copies, backend, rng, Q2_ACQUISITION, shots, online_counts)


def alg_exp_q1(instance: SearchInstance, copies: int, backend: str,
               rng: np.random.Generator, shots: int = 1,
               online_counts: tuple[int, int] | None = None) -> tuple[int | None, Report]:
    """Search with classical access to g: the whole codebook is collected
    (2^n classical queries), the offline phase is identical to the Q2 run."""
    return _run_offline(instance, copies, backend, rng, Q1_ACQUISITION, shots, online_counts)


def random_instance(n: int, m: int, l: int, rng: np.random.Generator) -> SearchInstance:
    """Random search instance: one random branch hides a random period, the
    rest are aperiodic. Re-rolls, at most 200 times, until the screen
    confirms exactly one periodic branch with the off-branch collision
    condition satisfied."""
    period = int(rng.integers(1, 1 << n))
    planted_index = int(rng.integers(0, 1 << m))
    for _ in range(200):
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
