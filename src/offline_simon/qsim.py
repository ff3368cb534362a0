"""Exact state-vector simulation over named bit registers.

Ground truth for every quantum claim in this package at tiny sizes: flat
complex128 amplitudes, Hadamard layers via the Walsh-Hadamard butterfly, and
classical reversible maps applied as basis permutations. The qubit budget is
capped (default 26, override with OFFLINE_SIMON_QUBIT_CAP) so a runaway
layout fails fast instead of allocating gigabytes.

Register order is significant: the first register in a layout occupies the
most significant bits of the basis index.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .gf2 import fwht

DEFAULT_QUBIT_CAP = 26
CAP_ENV_VAR = "OFFLINE_SIMON_QUBIT_CAP"


def qubit_cap() -> int:
    return int(os.environ.get(CAP_ENV_VAR, DEFAULT_QUBIT_CAP))


class RegisterLayout:
    """Ordered named registers; immutable once built."""

    def __init__(self, *registers: tuple[str, int]):
        names = [name for name, _ in registers]
        if len(set(names)) != len(names):
            raise ValueError("register names must be unique")
        for name, width in registers:
            if width < 1:
                raise ValueError(f"register {name!r} must have width >= 1")
        self.registers = tuple((name, int(width)) for name, width in registers)
        self.total = sum(width for _, width in self.registers)
        self._shift = {}
        below = self.total
        for name, width in self.registers:
            below -= width
            self._shift[name] = below

    def width(self, name: str) -> int:
        for reg, width in self.registers:
            if reg == name:
                return width
        raise KeyError(f"no register named {name!r}")

    def shift(self, name: str) -> int:
        if name not in self._shift:
            raise KeyError(f"no register named {name!r}")
        return self._shift[name]

    def value_of(self, index: int, name: str) -> int:
        return (index >> self.shift(name)) & ((1 << self.width(name)) - 1)


@dataclass
class QState:
    layout: RegisterLayout
    psi: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.psi))

    def copy(self) -> "QState":
        return QState(self.layout, self.psi.copy())

    def scale(self, phase: complex) -> "QState":
        """Multiply all amplitudes by a unit scalar (global phase tracking)."""
        self.psi *= phase
        return self


def init_zero(layout: RegisterLayout) -> QState:
    """All-qubit |0...0> state; rejects layouts over the qubit cap."""
    cap = qubit_cap()
    if layout.total > cap:
        raise ValueError(f"layout needs {layout.total} qubits, cap is {cap}")
    psi = np.zeros(1 << layout.total, dtype=np.complex128)
    psi[0] = 1.0
    return QState(layout, psi)


def _axis_view(state: QState, name: str) -> np.ndarray:
    """View of the amplitudes as (above, register, below)."""
    width = state.layout.width(name)
    shift = state.layout.shift(name)
    size = 1 << width
    right = 1 << shift
    left = len(state.psi) // (size * right)
    return state.psi.reshape(left, size, right)


def apply_h(state: QState, register: str) -> QState:
    """Hadamard on every qubit of the register."""
    view = _axis_view(state, register)
    swapped = np.ascontiguousarray(view.transpose(0, 2, 1))
    out = fwht(swapped) / math.sqrt(view.shape[1])
    state.psi = np.ascontiguousarray(out.transpose(0, 2, 1)).reshape(-1)
    return state


def apply_x(state: QState, register: str, mask: int | None = None) -> QState:
    """XOR a constant mask (default: all ones) into the register."""
    width = state.layout.width(register)
    if mask is None:
        mask = (1 << width) - 1
    view = _axis_view(state, register)
    state.psi = view[:, np.arange(1 << width) ^ mask, :].reshape(-1)
    return state


def _packed_inputs(state: QState, in_regs: tuple[str, ...]) -> np.ndarray:
    idx = np.arange(len(state.psi), dtype=np.int64)
    packed = np.zeros_like(idx)
    for name in in_regs:
        width = state.layout.width(name)
        shift = state.layout.shift(name)
        packed = (packed << width) | ((idx >> shift) & ((1 << width) - 1))
    return packed


def apply_oracle_xor(state: QState, f, in_reg, out_reg: str) -> QState:
    """Basis map |x>|y> -> |x>|y ^ f(x)>.

    in_reg may be one register name or a sequence of names; multi-register
    inputs concatenate with the first name most significant. f is the full
    truth table (array of ints) over the packed input values.
    """
    in_regs = (in_reg,) if isinstance(in_reg, str) else tuple(in_reg)
    if out_reg in in_regs:
        raise ValueError("output register cannot also be an input")
    out_width = state.layout.width(out_reg)
    out_shift = state.layout.shift(out_reg)
    packed = _packed_inputs(state, in_regs)
    outs = np.asarray(f, dtype=np.int64)[packed]
    if outs.min() < 0 or outs.max() >= (1 << out_width):
        raise ValueError(f"oracle output exceeds register width {out_width}")
    idx = np.arange(len(state.psi), dtype=np.int64)
    state.psi = state.psi[idx ^ (outs << out_shift)]
    return state


def apply_indexed_oracle(state: QState, family, idx_reg: str, in_reg: str, out_reg: str) -> QState:
    """Basis map |i>|x>|y> -> |i>|x>|y ^ F(i, x)>.

    family is a 2D table indexed [i][x].
    """
    flat = np.asarray(family, dtype=np.int64).reshape(-1)
    return apply_oracle_xor(state, flat, (idx_reg, in_reg), out_reg)


def _selector(width: int, predicate) -> np.ndarray:
    if isinstance(predicate, (int, np.integer)):
        predicate = (predicate,)
    sel = np.zeros(1 << width, dtype=bool)
    for v in predicate:
        sel[int(v)] = True
    return sel


def apply_phase_if(state: QState, register: str, predicate) -> QState:
    """Phase -1 on basis states whose register value matches the predicate.

    The predicate is a value or a collection of values; multi-register
    conditions are built by computing a flag into an ancilla, phasing on
    it, and uncomputing.
    """
    sel = _selector(state.layout.width(register), predicate)
    view = _axis_view(state, register)
    view[:, sel, :] *= -1.0
    return state


def apply_reflection_about_zero(state: QState, register: str) -> QState:
    """Phase -1 on the register's all-zero value (the S_0 reflection)."""
    view = _axis_view(state, register)
    view[:, 0, :] *= -1.0
    return state


def apply_controlled_ry(
    state: QState,
    target: str,
    angle: float,
    control: str | None = None,
    control_predicate=None,
) -> QState:
    """Ry(angle) on a 1-qubit register, optionally predicated on another
    register's value. The deliberate-noise knob for checking-error tests."""
    if state.layout.width(target) != 1:
        raise ValueError("rotation target must be a 1-qubit register")
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    t_shift = state.layout.shift(target)
    idx = np.arange(len(state.psi), dtype=np.int64)
    if control is None:
        rows = np.ones(len(state.psi), dtype=bool)
    else:
        sel = _selector(state.layout.width(control), control_predicate)
        c_shift = state.layout.shift(control)
        c_mask = (1 << state.layout.width(control)) - 1
        rows = sel[(idx >> c_shift) & c_mask]
    zero = rows & (((idx >> t_shift) & 1) == 0)
    one = rows & (((idx >> t_shift) & 1) == 1)
    a0 = state.psi[zero]
    a1 = state.psi[one]
    state.psi[zero] = c * a0 - s * a1
    state.psi[one] = s * a0 + c * a1
    return state


def marginal(state: QState, register: str) -> np.ndarray:
    """Born-rule distribution of the register's value."""
    view = _axis_view(state, register)
    return (np.abs(view) ** 2).sum(axis=(0, 2))


def prob_of(state: QState, register: str, value: int) -> float:
    return float(marginal(state, register)[value])


def measure(state: QState, register: str, rng: np.random.Generator) -> tuple[int, QState]:
    """Sample the register, collapse, renormalize."""
    probs = marginal(state, register)
    total = probs.sum()
    if total < 1e-12:
        raise ValueError("measuring a zero-norm branch")
    outcome = int(rng.choice(len(probs), p=probs / total))
    view = _axis_view(state, register)
    keep = view[:, outcome, :]
    collapsed = np.zeros_like(view)
    collapsed[:, outcome, :] = keep / math.sqrt(probs[outcome])
    state.psi = collapsed.reshape(-1)
    return outcome, state


def sample_register(state: QState, register: str, shots: int, rng: np.random.Generator) -> np.ndarray:
    """shots i.i.d. draws of the register's value, state left untouched."""
    probs = marginal(state, register)
    return rng.choice(len(probs), size=shots, p=probs / probs.sum())


def distance(s1: QState, s2: QState) -> float:
    """Euclidean norm of the amplitude difference (phase-sensitive)."""
    if s1.layout.registers != s2.layout.registers:
        raise ValueError("states live on different layouts")
    return float(np.linalg.norm(s1.psi - s2.psi))
