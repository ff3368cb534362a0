"""Amplitude amplification: ideal rotation analytics, noisy-check error
propagation, and exact runs on the index amplitudes.

The amplified iteration is Q = -A S_0 A^(-1) S_chi with A = H on the m-bit
index register: S_chi flips the sign of the marked amplitudes, and
-A S_0 A^(-1) is the inversion about the mean, amp -> 2 mean - amp. The
deliberately noisy check also rotates a noise qubit by Ry(2 beta) on the
marked rows, so a run holds 2 x 2^m real amplitudes, (noise qubit, index),
and no simulator state. The check's circuit comes in a bit-flip form that
XORs the predicate into an output bit and a phase-flip form that sandwiches
that bit in |->, which doubles the per-call error; both forms, which keep
that factor of two visible, are in ``tests/reference.py``. The runs here
are the phase-flip form with its output bit folded into the sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis

_FLOOR_GUARD = 1e-9


@dataclass(frozen=True)
class QaaSpec:
    a: float
    theta: float
    r: int


def spec_for(a: float) -> QaaSpec:
    """Iteration schedule for initial success probability a.

    r is floor(pi / (4 theta)); the tiny guard keeps exact integer ratios
    (a = 1/2 gives pi/(4 theta) = 1 exactly) from rounding down.
    """
    if not 0.0 < a <= 1.0:
        raise ValueError("a must be in (0, 1]")
    theta = analysis.grover_theta(a)
    r = int(math.floor(math.pi / (4.0 * theta) + _FLOOR_GUARD))
    return QaaSpec(a, theta, r)


# ---------------------------------------------------------------------------
# Exact runs
# ---------------------------------------------------------------------------


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


def _amplified_success(table: np.ndarray, beta: float, j: int) -> float:
    """Probability of a marked index after j iterations from the uniform
    index state, the check rotating the noise qubit by Ry(2 beta) on the
    marked rows (beta = 0: the noiseless check).

    Each iteration applies -Ry(2 beta) to the marked rows, the sandwich's
    sign times the rotation, then inverts each noise value's amplitudes
    about their mean.
    """
    rows = np.flatnonzero(table)
    c, s = math.cos(beta), math.sin(beta)
    amp = np.zeros((2, len(table)))
    amp[0] = 1.0 / math.sqrt(len(table))
    for _ in range(j):
        a0, a1 = amp[0, rows], amp[1, rows]
        rotated = c * a0 - s * a1
        amp[1, rows] = -(s * a0 + c * a1)
        amp[0, rows] = -rotated
        np.subtract(2.0 * amp.mean(axis=1, keepdims=True), amp, out=amp)
    return float(np.einsum("ki,ki->i", amp, amp)[rows].sum())


@dataclass(frozen=True)
class GroverRun:
    success: float
    spec: QaaSpec


def build_and_run_grover(m: int, check) -> GroverRun:
    """Amplify for the schedule's r iterations; report the exact success.

    check is a marked value or a nonempty collection of values, each in
    [0, 2^m); ValueError otherwise.
    """
    table = _indicator(m, check)
    spec = spec_for(int(table.sum()) / float(1 << m))
    return GroverRun(_amplified_success(table, 0.0, spec.r), spec)


def bit_flip_error(beta: float) -> float:
    """Per-call deviation of the deliberately noisy check: ||Ry(2b)-I|| =
    2 sin(b/2) on the marked subspace."""
    return 2.0 * abs(math.sin(beta / 2.0))


def run_grover_noisy(m: int, marked, beta: float, j: int) -> float:
    """Success probability after j iterations with the noisy check in its
    phase-flip form; compare against analysis.amplified_success +- 4 j eps.
    The per-call deviation of the bit-flip form is bounded by
    bit_flip_error(beta), the phase-flip form's by twice that."""
    return _amplified_success(_indicator(m, marked), beta, j)
