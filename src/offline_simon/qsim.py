"""Exact state-vector simulation over named bit registers.

Flat float64 amplitudes, Hadamard layers via the Walsh-Hadamard transform,
and classical reversible maps applied as basis permutations. Every gate
here is real (H, permutations, the reflection), so amplitudes are real
only: a kernel given a complex state, or ``QState.scale`` given a non-real
factor, raises ValueError before the state is touched. A layout wider
than ``search.qubit_cap``, the exact backend's budget, is refused before
anything is allocated.

A state starts as ``init_zero`` (|0...0>). The kernels work in place on
the state's one amplitude array, through reshaped views of it:

* ``apply_h`` runs ``gf2.fwht_inplace``: one matrix product with a +-1
  Sylvester matrix per factor of at most five qubits, on the register's
  (rows, 2^f, below) view, tile by tile through a scratch of 32K amplitudes
  (256 KiB), then one scaling pass.
* ``apply_x``, ``apply_oracle_xor`` and ``apply_indexed_oracle`` are one
  permutation, y -> y ^ table[x], applied tile by tile: each tile of 16K
  amplitudes is copied aside and gathered back through an index built from
  the small truth table, so a call allocates well under 1 MiB whatever the
  state size and never a full-length index.
* ``apply_reflection_about_zero`` writes through the register view.

No code in the package runs or imports this module: the exact search
backend runs on ``search``'s label blocks, and ``verify-bounds``' Grover
checks on the index amplitudes of ``analysis.run_grover``. What is left
here is what the benchmark's tracer patches, with its helpers; it leaves
the package once the tracer stops naming it. The tests' reference circuits
run on it, with the |+...+> start, the phase oracle, the controlled
rotation and the measurement that only they use (``tests/reference.py``).

``marginal`` sums the squares straight off the register view, so it
allocates nothing of the state's size; ``distance`` sums the squared
difference tile by tile, so it allocates one tile.

Register order is significant: the first register in a layout occupies the
most significant bits of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gf2 import fwht_inplace
from .search import qubit_cap

# Amplitudes per tile of the in-place permutations: a tile, its copy and
# its int64 gather index stay under 1 MiB.
_TILE = 1 << 14


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


def marginal(state: QState, register: str) -> np.ndarray:
    """Born-rule distribution of the register's value: the squares summed
    straight off the register view, so nothing of the state's size is
    allocated."""
    view = _register_view(state, register)
    return np.einsum("aib,aib->i", view, view)


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
