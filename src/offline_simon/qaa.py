"""Amplitude amplification: exact runs on the index amplitudes, with and
without the noisy check. The module holds the runs only; the iteration
schedule is ``analysis.grover_iterations`` and the closed forms they are
checked against are in ``analysis``.

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

import numpy as np


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


def bit_flip_error(beta: float) -> float:
    """Per-call deviation of the deliberately noisy check: ||Ry(2b)-I|| =
    2 sin(b/2) on the marked subspace."""
    return 2.0 * abs(math.sin(beta / 2.0))


def run_grover(m: int, marked, beta: float, j: int) -> float:
    """Probability of a marked index after j iterations from the uniform
    index state, the check rotating the noise qubit by Ry(2 beta) on the
    marked rows (beta = 0: the noiseless run, sin^2((2j+1) theta)).

    marked is a value or a nonempty collection of values, each in [0, 2^m);
    ValueError otherwise. Each iteration applies -Ry(2 beta) to the marked
    rows, the sandwich's sign times the rotation, then inverts each noise
    value's amplitudes about their mean. Compare against
    analysis.amplified_success +- 4 j eps: the per-call deviation of the
    bit-flip form is bounded by bit_flip_error(beta), the phase-flip form's
    by twice that.
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
