"""Error budgets, exact Grover runs and cost tables for offline period finding.

Collision spectra come from the Simon sample law (``simon.distribution``):
by the orthogonality lemma Pr[u . t = 0] = (1 + Pr_x[h(x ^ t) = h(x)]) / 2
(Kaplan et al., CRYPTO 2016), so the spectrum t -> Pr_x[h(x ^ t) = h(x)] is
the law's unnormalized Walsh-Hadamard transform, and 2^n times it counts the
colliding x. Every value is an integer over 4^n with a numerator of at most
2^40 (n <= 20), so the transform is exact in float64.

The bounds here are the analytic ones the simulators are tested against:
the linear-algebra failure bound for plain period recovery, the
database-restoration bound for the checking oracle, and the
amplitude-amplification error propagation bound.

The Grover runs apply Q = -A S_0 A^(-1) S_chi with A = H on the m-bit index
register: S_chi flips the sign of the marked amplitudes, and -A S_0 A^(-1)
is the inversion about the mean, amp -> 2 mean - amp. The deliberately noisy
check also rotates a noise qubit by Ry(2 beta) on the marked rows, so a run
holds 2 x 2^m real amplitudes, (noise qubit, index), and no simulator state.
The check's circuit comes in a bit-flip form that XORs the predicate into an
output bit and a phase-flip form that sandwiches that bit in |->, which
doubles the per-call error; both forms, which keep that factor of two
visible, are in ``tests/reference.py``. The runs here are the phase-flip
form with its output bit folded into the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import simon

LOG2_4_3 = math.log2(4.0 / 3.0)


# ---------------------------------------------------------------------------
# Collision spectra
# ---------------------------------------------------------------------------


def collision_probabilities(table, n: int) -> np.ndarray:
    """Pr_x[h(x ^ t) = h(x)] for every t, as a length-2^n array: the Walsh
    transform of the Simon law of h (exact; see the module docstring)."""
    return simon.distribution(table, n)[1]


def find_periods(table, n: int) -> list[int]:
    """Nonzero t with h(x ^ t) = h(x) for all x (a subgroup minus zero)."""
    return list(simon._periods(simon.distribution(table, n)[1]))


# ---------------------------------------------------------------------------
# Simon / checking-oracle budgets
# ---------------------------------------------------------------------------


def simon_failure_bound(n: int, samples: int, eps: float = 0.5) -> float:
    """Pr[sampled vectors miss full rank in the period's orthogonal space];
    on an aperiodic branch, the worst-case probability that it passes the
    rank test (p_bad).

    2^n * ((1+eps)/2)^samples, capped at 1. Meaningful only for eps <= 1/2.
    """
    return min(1.0, (2.0**n) * ((1.0 + eps) / 2.0) ** samples)


def simon_success_lower(n: int, samples: int) -> float:
    return max(0.0, 1.0 - simon_failure_bound(n, samples))


def restoration_bound(n: int, copies: int, eps: float) -> float:
    """Norm bound on the database damage after one test-and-uncompute pass."""
    return (2.0 ** ((n + 1) / 2.0)) * ((1.0 + eps) / 2.0) ** (copies / 2.0)


def p_bad_union_bound(probabilities, copies: int) -> float:
    """Shift-by-shift union bound from a branch's full collision spectrum."""
    probs = np.asarray(probabilities, dtype=float)
    terms = ((1.0 + probs[1:]) / 2.0) ** copies
    return float(min(1.0, terms.sum()))


def default_copies(m: int, dim: int) -> int:
    """Database copies: the m/log2(4/3) default plus a small-instance floor.

    The floor keeps the per-branch union bound near 2^-7 so that toy-sized
    runs retain a comfortable success margin.
    """
    return max(query_count(m) if m > 0 else 1, query_count(dim + 7))


# ---------------------------------------------------------------------------
# Amplitude amplification: budgets and exact runs
# ---------------------------------------------------------------------------


def grover_iterations(m: int) -> int:
    """floor((pi/4) * 2^(m/2)) iterations for a single marked index."""
    if m == 0:
        return 0
    return int(math.floor((math.pi / 4.0) * (2.0 ** (m / 2.0))))


def amplified_success(a: float, r: int) -> float:
    """Exact success probability sin^2((2r+1) theta) of r noiseless rounds,
    theta the rotation angle per iteration: sin^2(theta) = a."""
    return math.sin((2 * r + 1) * math.asin(math.sqrt(a))) ** 2


def qaa_deviation_bound(j: int, eps: float) -> float:
    """Output-distribution deviation after j rounds with eps-noisy oracles."""
    return 4.0 * j * eps


def qaa_success_lower(a: float, r: int, eps: float) -> float:
    """max(1-a, a) minus the noise penalty, floored at zero."""
    return max(0.0, max(1.0 - a, a) - qaa_deviation_bound(r, eps))


def bit_flip_error(beta: float) -> float:
    """Per-call deviation of the deliberately noisy check: ||Ry(2b)-I|| =
    2 sin(b/2) on the marked subspace."""
    return 2.0 * abs(math.sin(beta / 2.0))


def _indicator(m: int, marked) -> np.ndarray:
    """0/1 table over the m-bit index register of the marked values;
    ValueError if none is marked or one lies outside [0, 2^m)."""
    if isinstance(marked, (int, np.integer)):
        marked = (marked,)
    values = [int(v) for v in marked]
    if not values:
        raise ValueError("the marked set is empty")
    outside = sorted(v for v in values if not 0 <= v < 1 << m)
    if outside:
        raise ValueError(f"marked values {outside} lie outside [0, {1 << m})")
    table = np.zeros(1 << m, dtype=np.int64)
    table[values] = 1
    return table


def run_grover(m: int, marked, beta: float, j: int) -> float:
    """Probability of a marked index after j iterations from the uniform
    index state, the check rotating the noise qubit by Ry(2 beta) on the
    marked rows (beta = 0: the noiseless run, sin^2((2j+1) theta)).

    marked is a value or a nonempty collection of values, each in [0, 2^m);
    ValueError otherwise. Each iteration applies -Ry(2 beta) to the marked
    rows, the sandwich's sign times the rotation, then inverts each noise
    value's amplitudes about their mean. Compare against
    amplified_success +- 4 j eps: the per-call deviation of the bit-flip
    form is bounded by bit_flip_error(beta), the phase-flip form's by twice
    that.
    """
    rows = np.flatnonzero(_indicator(m, marked))
    c, s = math.cos(beta), math.sin(beta)
    amp = np.zeros((2, 1 << m))
    amp[0] = 1.0 / math.sqrt(1 << m)
    for _ in range(j):
        a0, a1 = amp[0, rows], amp[1, rows]
        rotated = c * a0 - s * a1
        amp[1, rows] = -(s * a0 + c * a1)
        amp[0, rows] = -rotated
        np.subtract(2.0 * amp.mean(axis=1, keepdims=True), amp, out=amp)
    return float(np.einsum("ki,ki->i", amp, amp)[rows].sum())


# ---------------------------------------------------------------------------
# Cost tables
# ---------------------------------------------------------------------------


def c_rounded(m: int, n: int) -> float:
    """The headline repetition constant m / (n log2(4/3))."""
    return m / (n * LOG2_4_3)


def c_precise(m: int, n: int) -> float:
    """Integer-query form: ceil(m / log2(4/3)) / n."""
    return query_count(m) / n


def c_paper(m: int, n: int) -> float:
    """The rounded constant pushed up to the next half-integer."""
    return math.ceil(2.0 * c_rounded(m, n)) / 2.0


def c_proof_stated(m: int, n: int) -> float:
    return (m + 3.0 + 2.0 * math.log2(math.pi)) / (n * LOG2_4_3)


def c_sufficient(m: int, n: int) -> float:
    """Constant actually implied by the failure-bound inequality."""
    return (m + n + 3.0 + 2.0 * math.log2(math.pi)) / (n * LOG2_4_3)


def query_count(m: int) -> int:
    """Online queries needed to screen a 2^m family: ceil(m / log2(4/3))."""
    return math.ceil(m / LOG2_4_3)


def fx_q2_costs(n: int, m: int) -> dict:
    """Superposition-query attack on FX: cn queries, 2^(m/2+1) time, which
    counts two cipher circuits per undecorated amplification step."""
    return {
        "setting": "Q2",
        "n": n,
        "m": m,
        "online_queries": query_count(m),
        "time_log2": m / 2.0 + 1.0,
        "c_rounded": c_rounded(m, n),
        "c_precise": c_precise(m, n),
        "c_paper": c_paper(m, n),
        "c_proof_stated": c_proof_stated(m, n),
        "c_sufficient": c_sufficient(m, n),
    }


def fx_q1_costs(n: int, m: int) -> dict:
    """Classical-query attack on FX with the balanced data/time split."""
    d = math.ceil((n + m) / 3.0) + 2
    t = math.ceil((n + m - d) / 2.0 + 1.0)
    return {"setting": "Q1", "n": n, "m": m, "data_log2": d, "time_log2": t}


def chaskey_costs() -> dict:
    """Chaskey (n = 128) under its 2^48 data cap; time counts
    permutation-circuit gates, 2^19 per circuit."""
    return {
        "setting": "Q1",
        "n": 128,
        "data_log2": 48,
        "time_log2": (128 - 48) / 2.0 + 19,
    }


def balanced_costs(field: str, bits: int) -> dict:
    """Balanced Q1 split over a bits-bit secret (a sponge's state width, a
    related key): data 2^(bits/3), the rest amplified. `field` names the
    secret's size in the row."""
    u = bits // 3
    return {
        "setting": "Q1",
        field: bits,
        "data_log2": u,
        "time_log2": math.ceil((bits - u) / 2.0),
    }


def published_figures() -> dict:
    """Cost table for the standard targets, keyed by the names `estimate
    --preset` takes, all derived from the formulas."""
    return {
        "desx": {
            "q2": fx_q2_costs(64, 56),
            "q1": fx_q1_costs(64, 56),
        },
        "prince": {
            "q2": fx_q2_costs(64, 64),
            "q1": fx_q1_costs(64, 64),
        },
        "pride": {
            "q2": fx_q2_costs(64, 64),
            "q1": fx_q1_costs(64, 64),
        },
        "chaskey": {"q1": chaskey_costs()},
        "beetle-light": {"q1": balanced_costs("width", 144)},
        "beetle-secure": {"q1": balanced_costs("width", 256)},
        "saturnin16": {"q1": balanced_costs("key_bits", 256)},
    }


# Widest n or m an estimate takes: twice the widest preset (256 bits), and
# far below where 2^((n + m) / 2) iterations overflow a float (n + m > 2046).
ESTIMATE_MAX_BITS = 512


def estimate_costs(n: int | None = None, m: int | None = None,
                   data_limit_log2: int | None = None,
                   preset: str | None = None) -> dict:
    """Cost-table rows for a named target or raw (n, m) parameters.

    The generic path reports every form of the copy constant, the query
    count, and both the Q2 and (data-limited) Q1 iteration counts. A preset
    fixes its own sizes, so it takes none of n, m and data_limit_log2; n and
    m are at most ESTIMATE_MAX_BITS, and the data limit is a window of at
    most the whole 2^n domain."""
    if preset is not None:
        if (n, m, data_limit_log2) != (None, None, None):
            raise ValueError("a preset fixes its own sizes; it takes no n, m or data limit")
        figures = published_figures()
        if preset not in figures:
            raise ValueError(f"unknown preset {preset!r}; have {sorted(figures)}")
        return {"preset": preset, **figures[preset]}
    if n is None or m is None:
        raise ValueError("need n and m (or a preset)")
    for name, bits in (("n", n), ("m", m)):
        if not 1 <= bits <= ESTIMATE_MAX_BITS:
            raise ValueError(f"{name} must be in [1, {ESTIMATE_MAX_BITS}], got {bits}")
    if data_limit_log2 is not None and not 0 <= data_limit_log2 <= n:
        raise ValueError(f"data limit must be in [0, n={n}], got {data_limit_log2}")
    record = {
        "n": n,
        "m": m,
        "c_rounded": c_rounded(m, n),
        "c_precise": c_precise(m, n),
        "c_paper": c_paper(m, n),
        "c_proof_stated": c_proof_stated(m, n),
        "queries": query_count(m),
        "grover_iterations_q2": grover_iterations(m),
        "time_log2_q2": m / 2 + 1,
    }
    if data_limit_log2 is not None:
        u = data_limit_log2
        record.update({
            "u": u,
            "d_log2": u,
            "grover_iterations_q1": grover_iterations(n + m - u),
            "t_log2_q1": (n + m - u) / 2,
            "dt2_log2": u + (n + m - u),
        })
    return record


# ---------------------------------------------------------------------------
# Classical reference attacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalEmResult:
    """Outcome of the collision-based key search with a data budget."""

    status: str  # "ok", "not-found", or "budget-exhausted"
    k1: int | None
    k2: int | None
    data_used: int
    p_evaluations: int


def classical_em_attack(encrypt, perm, n: int, data_budget: int,
                        rng: np.random.Generator) -> ClassicalEmResult:
    """Whitening-key recovery with D online queries and about 2^n/D offline
    permutation evaluations (the T*D = 2^n reference point).

    Candidate keys come from pairing each data point x with each offline
    point z as k1 = x ^ z; a candidate survives if it explains a second data
    point. With full-codebook data this always succeeds.
    """
    size = 1 << n
    if data_budget <= 0:
        return ClassicalEmResult("budget-exhausted", None, None, 0, 0)
    d = min(data_budget, size)
    xs = rng.choice(size, size=d, replace=False)
    data = [(int(x), encrypt(int(x))) for x in xs]
    t = -(-size // d)
    zs = rng.choice(size, size=min(t, size), replace=False)
    p_evals = 0
    for z in zs:
        z = int(z)
        pz = perm(z)
        p_evals += 1
        for x, y in data:
            k1 = x ^ z
            k2 = y ^ pz
            witnesses = [pt for pt in data if pt[0] != x][:3]
            ok = True
            for wx, wy in witnesses:
                p_evals += 1
                if perm(wx ^ k1) ^ k2 != wy:
                    ok = False
                    break
            if ok and witnesses:
                return ClassicalEmResult("ok", k1, k2, d, p_evals)
    return ClassicalEmResult("not-found", None, None, d, p_evals)
