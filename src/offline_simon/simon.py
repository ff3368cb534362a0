"""Period finding from measured orthogonal vectors.

The measured-u law of one quantum round on h is computed exactly: condition
on the output value a, then the u distribution inside that class is the
squared Walsh spectrum of the preimage indicator. Sampling, full period
recovery, and the false-positive (p_bad) estimator all build on that law, so
no state vectors are needed at widths up to 20 bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .gf2 import BitWord, PeriodSolution, batch_rank, fwht, parity, solve_period

MAX_N = 20
_CHUNK_CELLS = 1 << 22


def _as_table(h, n: int | None) -> tuple[np.ndarray, int]:
    table = np.asarray(h, dtype=np.int64)
    if n is None:
        n = int(table.shape[0]).bit_length() - 1
    if table.shape != (1 << n,):
        raise ValueError(f"table must have 2^{n} entries")
    if n > MAX_N:
        raise ValueError(f"n must be at most {MAX_N}")
    return table, n


@dataclass(frozen=True)
class SimonSampleDistribution:
    """Exact law of the measured vector u for one round on h."""

    n: int
    weights: np.ndarray

    def prob_orthogonal(self, t: int) -> float:
        """Pr[u . t = 0] under this law."""
        us = np.arange(1 << self.n)
        ortho = np.array([parity(int(u) & t) == 0 for u in us])
        return float(self.weights[ortho].sum())


def distribution(h, n: int | None = None) -> SimonSampleDistribution:
    """weights(u) = 2^-2n * sum_a |sum_{x: h(x)=a} (-1)^(u.x)|^2."""
    table, n = _as_table(h, n)
    size = 1 << n
    _, codes = np.unique(table, return_inverse=True)
    classes = int(codes.max()) + 1
    weights = np.zeros(size)
    chunk = max(1, _CHUNK_CELLS // size)
    for start in range(0, classes, chunk):
        stop = min(classes, start + chunk)
        rows = np.zeros((stop - start, size))
        member = (codes >= start) & (codes < stop)
        rows[codes[member] - start, np.nonzero(member)[0]] = 1.0
        spectra = fwht(rows)
        weights += (spectra * spectra).sum(axis=0)
    return SimonSampleDistribution(n, weights / float(size * size))


def sample(h, count: int, rng: np.random.Generator, n: int | None = None) -> list[BitWord]:
    """count i.i.d. draws of u; conditions on the output value first.

    Only the preimage classes actually hit get a Walsh transform, so widths
    up to 20 bits stay cheap for small sample counts.
    """
    table, n = _as_table(h, n)
    size = 1 << n
    _, codes = np.unique(table, return_inverse=True)
    xs = rng.integers(0, size, size=count)
    hit = codes[xs]
    out = np.empty(count, dtype=np.int64)
    for code in np.unique(hit):
        where = np.nonzero(hit == code)[0]
        indicator = (codes == code).astype(float)
        spectrum = fwht(indicator)
        law = spectrum * spectrum
        law /= law.sum()
        out[where] = rng.choice(size, size=len(where), p=law)
    return [BitWord(int(u), n) for u in out]


@dataclass(frozen=True)
class RunResult:
    """Outcome of a full period-recovery run."""

    kind: str  # "period" | "no-period" | "ambiguous"
    period: int | None
    rank: int
    solution: PeriodSolution


def run(h, c: int, rng: np.random.Generator, n: int | None = None) -> RunResult:
    """Draw c*n samples and solve: rank n-1 gives the period, n gives
    no-period, anything lower is surfaced as ambiguous."""
    table, n = _as_table(h, n)
    if c < 1:
        raise ValueError("c must be at least 1")
    draws = sample(table, c * n, rng, n)
    sol = solve_period([w.value for w in draws], n)
    if sol.kind == "unique":
        return RunResult("period", sol.period, sol.rank, sol)
    if sol.kind == "full-rank":
        return RunResult("no-period", None, sol.rank, sol)
    return RunResult("ambiguous", None, sol.rank, sol)


@dataclass(frozen=True)
class PBadEstimate:
    """Monte Carlo false-positive rate with its analytic companions."""

    estimate: float
    half_width_95: float
    analytic_bound: float
    union_bound: float
    eps: float
    trials: int


def p_bad_estimate(h, c: int, trials: int, rng: np.random.Generator, n: int | None = None) -> PBadEstimate:
    """Rate at which c*n samples from an aperiodic h miss full rank."""
    table, n = _as_table(h, n)
    if c < 1:
        raise ValueError("c must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if analysis.find_periods(table, n):
        raise ValueError("h is periodic; p_bad is defined for aperiodic h")
    dist = distribution(table, n)
    count = c * n
    draws = rng.choice(1 << n, size=(trials, count), p=dist.weights)
    bad = int((batch_rank(draws, n) < n).sum())
    est = bad / trials
    half = 1.96 * math.sqrt(max(est * (1.0 - est), 1e-12) / trials)
    probs = analysis.collision_probabilities(table, n)
    eps = float(probs[1:].max()) if len(probs) > 1 else 0.0
    return PBadEstimate(
        estimate=est,
        half_width_95=half,
        analytic_bound=analysis.p_bad_bound(n, count, eps),
        union_bound=analysis.p_bad_union_bound(probs, count),
        eps=eps,
        trials=trials,
    )


def random_periodic_function(n: int, l: int, period: int, rng: np.random.Generator,
                             injective: bool = True) -> np.ndarray:
    """Random table with the nonzero period `period` and no other.

    With injective=True the cosets {x, x ^ period} get pairwise distinct
    values (needs l >= n - 1), which pins the period set exactly; otherwise
    coset values are drawn freely and the table is re-rolled until the
    period set is exactly {period}.
    """
    if not 0 < period < (1 << n):
        raise ValueError("period must be a nonzero n-bit value")
    size = 1 << n
    xs = np.arange(size)
    canon = np.minimum(xs, xs ^ period)
    reps = np.nonzero(canon == xs)[0]
    slot = np.empty(size, dtype=np.int64)
    slot[reps] = np.arange(len(reps))
    slot = slot[canon]
    if injective:
        if (1 << l) < len(reps):
            raise ValueError(f"need l >= {int(len(reps)).bit_length() - 1} for injective cosets")
        values = rng.choice(1 << l, size=len(reps), replace=False)
        return values[slot].astype(np.int64)
    for _ in range(1000):
        values = rng.integers(0, 1 << l, size=len(reps))
        table = values[slot].astype(np.int64)
        if analysis.find_periods(table, n) == [period]:
            return table
    raise RuntimeError("could not hit the exact period set; widen l")
