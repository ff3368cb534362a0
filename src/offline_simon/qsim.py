"""Exact state-vector simulation over named bit registers.

Ground truth for every quantum claim in this package at tiny sizes: flat
float64 amplitudes, Hadamard layers via the Walsh-Hadamard transform, and
classical reversible maps applied as basis permutations. Every gate here is
real (H, +-1 phases, permutations, the reflection, Ry), so amplitudes are
real only: a kernel given a complex state, or ``QState.scale`` given a
non-real factor, raises ValueError before the state is touched. The qubit
budget is capped (default 26, override with OFFLINE_SIMON_QUBIT_CAP) so a
runaway layout fails fast instead of allocating gigabytes.

A state starts as ``init_zero`` (|0...0>) or ``init_plus`` (|+...+>, every
register already through H). The kernels work in place on the state's one
amplitude array, through reshaped views of it:

* ``apply_h`` runs ``gf2.fwht_inplace``: one matrix product with a +-1
  Sylvester matrix per factor of at most five qubits, on the register's
  (rows, 2^f, below) view, tile by tile through a scratch of 32K amplitudes
  (256 KiB), then one scaling pass.
* ``apply_x``, ``apply_oracle_xor`` and ``apply_indexed_oracle`` are one
  permutation, y -> y ^ table[x], applied tile by tile: each tile of 16K
  amplitudes is copied aside and gathered back through an index built from
  the small truth table, so a call allocates well under 1 MiB whatever the
  state size and never a full-length index.
* ``apply_phase_oracle`` is the one diagonal kernel: the bit-flip oracle
  with its output bit held in |->, where the bit only ever acts as a phase,
  so one broadcast multiply of the register view by the truth table's
  signs, (-1)^f(x). With the output register in its Hadamard basis, a
  whole XOR query takes this form too, (-1)^(v . f(x)) for its label v.
* ``apply_controlled_ry`` and ``measure`` write through register views.

The exact search backend holds no ``QState``: it runs on ``search``'s label
blocks. The simulator serves ``verify-bounds`` (``qaa``'s Grover runs) and
the reference circuits the tests check that backend against.

``marginal`` sums the squares straight off the register view, so it
allocates nothing of the state's size; ``distance`` sums the squared
difference tile by tile, so it allocates one tile.

Register order is significant: the first register in a layout occupies the
most significant bits of the basis index.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .gf2 import fwht_inplace

DEFAULT_QUBIT_CAP = 26
CAP_ENV_VAR = "OFFLINE_SIMON_QUBIT_CAP"
# Amplitudes per tile of the in-place permutations: a tile, its copy and
# its int64 gather index stay under 1 MiB.
_TILE = 1 << 14


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


@dataclass
class QState:
    layout: RegisterLayout
    psi: np.ndarray

    def copy(self) -> "QState":
        return QState(self.layout, self.psi.copy())

    def scale(self, factor: float) -> "QState":
        """Multiply all amplitudes by a real factor (the -1 of the Grover
        iterate); ValueError on a non-real one, before the state is touched."""
        factor = complex(factor)
        if factor.imag:
            raise ValueError(f"amplitudes are real; cannot scale by {factor}")
        psi = _amplitudes(self)
        psi *= factor.real
        return self


def _size(layout: RegisterLayout) -> int:
    """Amplitudes of the layout's state; rejects layouts over the qubit cap
    before anything is allocated."""
    cap = qubit_cap()
    if layout.total > cap:
        raise ValueError(f"layout needs {layout.total} qubits, cap is {cap}")
    return 1 << layout.total


def init_zero(layout: RegisterLayout) -> QState:
    """All-qubit |0...0> state; rejects layouts over the qubit cap."""
    psi = np.zeros(_size(layout))
    psi[0] = 1.0
    return QState(layout, psi)


def init_plus(layout: RegisterLayout) -> QState:
    """All-qubit |+...+> state, H on every register of ``init_zero``;
    rejects layouts over the qubit cap."""
    size = _size(layout)
    return QState(layout, np.full(size, 1.0 / math.sqrt(size)))


def _register_view(state: QState, *names: str) -> np.ndarray:
    """View of the amplitudes (through ``_amplitudes``) with one axis per
    named register, in layout order, and one axis for each run of bits
    between them; with one name that is (above, register, below)."""
    layout = state.layout
    spans = sorted(((layout.shift(n), layout.width(n)) for n in names), reverse=True)
    shape, top = [], layout.total
    for shift, width in spans:
        shape += [1 << (top - shift - width), 1 << width]
        top = shift
    shape.append(1 << top)
    return _amplitudes(state).reshape(shape)


def _amplitudes(state: QState) -> np.ndarray:
    """The amplitudes as one C-contiguous, writable float64 array, which
    the in-place kernels write through their views (a copy only if not);
    ValueError on complex amplitudes, before the state is touched."""
    if np.iscomplexobj(state.psi):
        raise ValueError("amplitudes are real; got a complex state")
    state.psi = np.require(state.psi, np.float64, ("C", "W"))
    return state.psi


def apply_h(state: QState, register: str) -> QState:
    """Hadamard on every qubit of the register, in place."""
    psi = _amplitudes(state)
    size = 1 << state.layout.width(register)
    fwht_inplace(psi, size, 1 << state.layout.shift(register))
    psi *= 1.0 / math.sqrt(size)
    return state


def _packed(layout: RegisterLayout, in_regs: tuple[str, ...], index: np.ndarray) -> np.ndarray:
    """Packed input value of each basis index (an int or an int array), the
    first register most significant."""
    packed = np.zeros_like(index)
    for name in in_regs:
        width = layout.width(name)
        packed = (packed << width) | ((index >> layout.shift(name)) & ((1 << width) - 1))
    return packed


def _input_regs(in_reg) -> tuple[str, ...]:
    return (in_reg,) if isinstance(in_reg, str) else tuple(in_reg)


def _checked_table(layout: RegisterLayout, table, in_regs: tuple[str, ...],
                   out_width: int) -> np.ndarray:
    """The truth table over the packed inputs as int64, cut to its first
    2^(input bits) entries; ValueError if it is shorter or a value does not
    fit out_width bits."""
    in_bits = sum(layout.width(name) for name in in_regs)
    table = np.asarray(table, dtype=np.int64)
    if len(table) < 1 << in_bits:
        raise ValueError(f"oracle table has {len(table)} entries, inputs take {1 << in_bits}")
    table = table[:1 << in_bits]
    if table.min() < 0 or table.max() >= (1 << out_width):
        raise ValueError(f"oracle output exceeds register width {out_width}")
    return table


def _xor_table(state: QState, table, in_regs: tuple[str, ...], out_reg: str) -> QState:
    """|x>|y> -> |x>|y ^ table[x]> in place, x the packed input registers.

    The amplitudes are viewed as (above, y, below) and permuted tile by
    tile: a tile holds every y for a block of the other bits, so it maps
    onto itself. Each tile is copied aside and gathered back through a
    tile-sized index: its flat position with table[x] XORed into the y bits.
    """
    layout = state.layout
    out_width, out_shift = layout.width(out_reg), layout.shift(out_reg)
    table = _checked_table(layout, table, in_regs, out_width)
    view = _register_view(state, out_reg)
    above, ys, below = view.shape
    nb = min(below, max(1, _TILE // ys))
    na = min(above, max(1, _TILE // (ys * below)))
    a_shift = out_shift + out_width
    # Packing only moves bits, so the packed inputs of a tile are its
    # corner's OR the packed offsets within it.
    offsets = (_packed(layout, in_regs, np.arange(na)[:, None] << a_shift)
               | _packed(layout, in_regs, np.arange(nb)))
    flat = np.arange(na * ys * nb).reshape(na, ys, nb)
    idx = np.empty_like(flat)
    src = np.empty(flat.shape)
    for a0 in range(0, above, na):
        for b0 in range(0, below, nb):
            outs = table[offsets | _packed(layout, in_regs, (a0 << a_shift) | b0)]
            np.bitwise_xor(flat, (outs * nb)[:, None, :], out=idx)
            tile = view[a0:a0 + na, :, b0:b0 + nb]
            np.copyto(src, tile)
            # indices are in range by construction; mode="raise" would
            # gather into a buffer and copy that into the tile
            np.take(src, idx, out=tile, mode="clip")
    return state


def apply_x(state: QState, register: str, mask: int | None = None) -> QState:
    """XOR a constant mask (default: all ones) into the register."""
    if mask is None:
        mask = (1 << state.layout.width(register)) - 1
    return _xor_table(state, np.array([mask]), (), register)


def apply_oracle_xor(state: QState, f, in_reg, out_reg: str) -> QState:
    """Basis map |x>|y> -> |x>|y ^ f(x)>, in place.

    in_reg may be one register name or a sequence of names; multi-register
    inputs concatenate with the first name most significant. f is the full
    truth table (array of ints) over the packed input values; a value that
    does not fit the output register raises ValueError before the state is
    touched.
    """
    in_regs = _input_regs(in_reg)
    if out_reg in in_regs:
        raise ValueError("output register cannot also be an input")
    return _xor_table(state, f, in_regs, out_reg)


def apply_phase_oracle(state: QState, f, in_reg) -> QState:
    """Phase map |x> -> (-1)^f(x) |x>, in place: ``apply_oracle_xor`` into
    an output bit held in |->, which the map leaves in |-> (phase kickback),
    so the bit need not be simulated.

    in_reg and f as for ``apply_oracle_xor``, with f's values in {0, 1}; a
    short table or another value raises ValueError before the state is
    touched. The signs are reshaped onto the register axes of the state's
    view and multiplied in, so nothing of the state's size is allocated.
    """
    in_regs = _input_regs(in_reg)
    if len(set(in_regs)) != len(in_regs):
        raise ValueError("input registers must be distinct")
    layout = state.layout
    table = _checked_table(layout, f, in_regs, 1)
    signs = (1.0 - 2.0 * table).reshape([1 << layout.width(name) for name in in_regs])
    # the view's register axes follow the layout, the packing follows in_regs
    order = sorted(range(len(in_regs)), key=lambda k: -layout.shift(in_regs[k]))
    signs = signs.transpose(order)
    view = _register_view(state, *in_regs)
    shape = [1] * view.ndim
    shape[1::2] = signs.shape
    view *= signs.reshape(shape)
    return state


def apply_indexed_oracle(state: QState, family, idx_reg: str, in_reg: str, out_reg: str) -> QState:
    """Basis map |i>|x>|y> -> |i>|x>|y ^ F(i, x)>.

    family is a 2D table indexed [i][x].
    """
    flat = np.asarray(family, dtype=np.int64).reshape(-1)
    return apply_oracle_xor(state, flat, (idx_reg, in_reg), out_reg)


def apply_reflection_about_zero(state: QState, register: str) -> QState:
    """Phase -1 on the register's all-zero value (the S_0 reflection)."""
    view = _register_view(state, register)
    view[:, 0, :] *= -1.0
    return state


def apply_controlled_ry(state: QState, target: str, angle: float, control: str,
                        table) -> QState:
    """Ry(angle) on a 1-qubit register where the control register's value
    has table[value] = 1: the deliberate-noise knob for checking-error
    tests. table is a 0/1 table over the control's values; a short table or
    another value raises ValueError before the state is touched."""
    layout = state.layout
    if layout.width(target) != 1:
        raise ValueError("rotation target must be a 1-qubit register")
    if control == target:
        raise ValueError("rotation control cannot be its target")
    rows = np.flatnonzero(_checked_table(layout, table, (control,), 1))
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    view = _register_view(state, target, control)
    # the view's register axes are 1 and 3, the higher register first
    t_axis = 1 if layout.shift(target) > layout.shift(control) else 3
    zero = [slice(None)] * view.ndim
    zero[4 - t_axis] = rows
    one = list(zero)
    zero[t_axis], one[t_axis] = 0, 1
    zero, one = tuple(zero), tuple(one)
    a0, a1 = view[zero], view[one]
    rotated = c * a0 - s * a1
    view[one] = s * a0 + c * a1
    view[zero] = rotated
    return state


def marginal(state: QState, register: str) -> np.ndarray:
    """Born-rule distribution of the register's value: the squares summed
    straight off the register view, so nothing of the state's size is
    allocated."""
    view = _register_view(state, register)
    return np.einsum("aib,aib->i", view, view)


def measure(state: QState, register: str, rng: np.random.Generator) -> tuple[int, QState]:
    """Sample the register, collapse, renormalize."""
    probs = marginal(state, register)
    total = probs.sum()
    if total < 1e-12:
        raise ValueError("measuring a zero-norm branch")
    outcome = int(rng.choice(len(probs), p=probs / total))
    view = _register_view(state, register)
    view[:, :outcome, :] = 0
    view[:, outcome + 1:, :] = 0
    view[:, outcome, :] /= math.sqrt(probs[outcome])
    return outcome, state


def distance(s1: QState, s2: QState) -> float:
    """Euclidean norm of the amplitude difference (phase-sensitive), summed
    tile by tile: no state-sized difference is ever built."""
    if s1.layout.registers != s2.layout.registers:
        raise ValueError("states live on different layouts")
    a, b = s1.psi.reshape(-1), s2.psi.reshape(-1)
    total = 0.0
    for start in range(0, a.size, _TILE):
        diff = a[start:start + _TILE] - b[start:start + _TILE]
        total += float(np.dot(diff, diff))
    return math.sqrt(total)
