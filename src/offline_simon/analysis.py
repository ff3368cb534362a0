"""Error budgets and cost estimates for the offline period-finding family.

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


def simon_success_lower(n: int, samples: int, eps: float = 0.5) -> float:
    return max(0.0, 1.0 - simon_failure_bound(n, samples, eps))


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
# Amplitude amplification budgets
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


def grover_ideal_success(m: int, r: int | None = None) -> float:
    if m == 0:
        return 1.0
    if r is None:
        r = grover_iterations(m)
    return amplified_success(2.0**-m, r)


def qaa_deviation_bound(j: int, eps: float) -> float:
    """Output-distribution deviation after j rounds with eps-noisy oracles."""
    return 4.0 * j * eps


def qaa_success_lower(a: float, r: int, eps: float) -> float:
    """max(1-a, a) minus the noise penalty, floored at zero."""
    return max(0.0, max(1.0 - a, a) - qaa_deviation_bound(r, eps))


# ---------------------------------------------------------------------------
# Cost estimator
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
    """Superposition-query attack on FX: cn queries, 2^(m/2+1) time."""
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


def chaskey_costs(n: int = 128, data_cap_log2: int = 48, circuit_log2: int = 19) -> dict:
    """Chaskey under its 2^48 data cap; time counts permutation-circuit gates."""
    return {
        "setting": "Q1",
        "n": n,
        "data_log2": data_cap_log2,
        "time_log2": (n - data_cap_log2) / 2.0 + circuit_log2,
    }


def sponge_costs(width: int) -> dict:
    """Balanced split for a width-bit sponge state: data 2^(width/3)."""
    u = width // 3
    return {
        "setting": "Q1",
        "width": width,
        "data_log2": u,
        "time_log2": math.ceil((width - u) / 2.0),
    }


def related_key_costs(key_bits: int) -> dict:
    """Balanced related-key split over a key_bits-bit key."""
    u = key_bits // 3
    return {
        "setting": "Q1",
        "key_bits": key_bits,
        "data_log2": u,
        "time_log2": math.ceil((key_bits - u) / 2.0),
    }


def published_figures() -> dict:
    """Cost table for the standard targets, all derived from the formulas."""
    return {
        "desx": {
            "q2": fx_q2_costs(64, 56),
            "q1": fx_q1_costs(64, 56),
        },
        "prince-fx": {
            "q2": fx_q2_costs(64, 64),
            "q1": fx_q1_costs(64, 64),
        },
        "pride-fx": {
            "q2": fx_q2_costs(64, 64),
            "q1": fx_q1_costs(64, 64),
        },
        "chaskey": {"q1": chaskey_costs()},
        "beetle-light": {"q1": sponge_costs(144)},
        "beetle-secure": {"q1": sponge_costs(256)},
        "saturnin": {"q1": related_key_costs(256)},
    }


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
