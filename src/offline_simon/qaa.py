"""Amplitude amplification: ideal rotation analytics, noisy-check error
propagation, and exact circuit runs.

The amplified iteration is Q = -A S_0 A^(-1) S_chi with A = H on the index
register. Checking oracles come in two forms: a bit-flip form that XORs the
predicate into an ancilla, and the phase-flip form obtained by sandwiching
the ancilla in |->; the derivation doubles the per-call error, and both
forms are kept so that factor of two stays visible. The noiseless check
S_chi is ``qsim.apply_phase_oracle`` on the marked set's 0/1 table, and
every run is on real amplitudes.

Fixed register names: "idx" (search space), "b" (check output), "noise"
(deliberate-error qubit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, qsim

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
# Exact circuit runs
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


def diffusion(state: qsim.QState, register: str = "idx") -> qsim.QState:
    """-A S_0 A^(-1) on the register, A = full Hadamard."""
    qsim.apply_h(state, register)
    qsim.apply_reflection_about_zero(state, register)
    qsim.apply_h(state, register)
    return state.scale(-1.0)


def grover_state(m: int, marked, j: int) -> qsim.QState:
    """Exact state after j iterations on the index register alone."""
    table = _indicator(m, marked)
    state = qsim.init_plus(qsim.RegisterLayout(("idx", m)))
    for _ in range(j):
        qsim.apply_phase_oracle(state, table, "idx")
        diffusion(state)
    return state


@dataclass(frozen=True)
class GroverRun:
    outcome: int
    success: float
    spec: QaaSpec


def build_and_run_grover(m: int, check, rng: np.random.Generator) -> GroverRun:
    """Amplify, measure the index register once, report the exact success.

    check is a marked value or a nonempty collection of values, each in
    [0, 2^m); ValueError otherwise, before any state is built.
    """
    table = _indicator(m, check)
    spec = spec_for(int(table.sum()) / float(1 << m))
    state = grover_state(m, check, spec.r)
    success = float(qsim.marginal(state, "idx")[table == 1].sum())
    outcome, _ = qsim.measure(state, "idx", rng)
    return GroverRun(outcome, success, spec)


# ---------------------------------------------------------------------------
# Noisy checking oracles
# ---------------------------------------------------------------------------


def bit_flip_error(beta: float) -> float:
    """Per-call deviation of the deliberately noisy check: ||Ry(2b)-I|| =
    2 sin(b/2) on the marked subspace."""
    return 2.0 * abs(math.sin(beta / 2.0))


def noisy_check_bit(state: qsim.QState, marked, beta: float) -> qsim.QState:
    """Bit-flip check with injected error: XOR the predicate into "b", then
    rotate the "noise" qubit by Ry(2 beta) on marked components.

    The per-call deviation is bounded by bit_flip_error(beta); the derived
    phase-flip form carries the doubled budget 2 * bit_flip_error(beta).
    (The sandwich error is (delta_0 - delta_1)/sqrt(2) over orthogonal
    ancilla branches, so the doubled budget is a bound the tests verify,
    not a value they can saturate.)"""
    table = _indicator(state.layout.width("idx"), marked)
    qsim.apply_oracle_xor(state, table, "idx", "b")
    if beta != 0.0:
        qsim.apply_controlled_ry(state, "noise", 2.0 * beta, "idx", table)
    return state


def phase_flip_check(state: qsim.QState, marked, beta: float) -> qsim.QState:
    """Phase-flip form of the same check: |-> sandwich on "b"."""
    qsim.apply_x(state, "b")
    qsim.apply_h(state, "b")
    noisy_check_bit(state, marked, beta)
    qsim.apply_h(state, "b")
    qsim.apply_x(state, "b")
    return state


def run_grover_noisy(m: int, marked, beta: float, j: int) -> float:
    """Success probability after j iterations with the noisy check inside
    the phase-flip sandwich; compare against analysis.amplified_success
    +- 4 j eps."""
    table = _indicator(m, marked)
    layout = qsim.RegisterLayout(("idx", m), ("b", 1), ("noise", 1))
    state = qsim.init_zero(layout)
    qsim.apply_h(state, "idx")
    for _ in range(j):
        phase_flip_check(state, marked, beta)
        diffusion(state)
    return float(qsim.marginal(state, "idx")[table == 1].sum())
