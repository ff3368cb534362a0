import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from offline_simon import analysis, qsim, search
from reference import (apply_controlled_ry, apply_phase_oracle, diffusion, fwht_error_bound,
                       init_plus, measure, register_value, stacking_fwht)


def uniform_state(*regs):
    state = qsim.init_zero(qsim.RegisterLayout(*regs))
    for name, _ in regs:
        qsim.apply_h(state, name)
    return state


def test_init_zero_and_cap(monkeypatch):
    state = qsim.init_zero(qsim.RegisterLayout(("a", 2), ("b", 1)))
    assert state.psi.shape == (8,)
    assert state.psi[0] == 1.0
    monkeypatch.setenv(search.CAP_ENV_VAR, "4")
    assert qsim.qubit_cap() == 4
    with pytest.raises(ValueError):
        qsim.init_zero(qsim.RegisterLayout(("a", 5)))


def test_init_plus_is_h_on_every_register_of_init_zero(monkeypatch):
    layout = qsim.RegisterLayout(("a", 3), ("b", 2), ("c", 1))
    want = qsim.init_zero(layout)
    for name, _ in layout.registers:
        qsim.apply_h(want, name)
    got = init_plus(layout)
    assert got.psi.dtype == np.float64
    assert np.allclose(got.psi, want.psi, rtol=0, atol=1e-15)
    monkeypatch.setenv(search.CAP_ENV_VAR, "5")
    for init in (qsim.init_zero, init_plus):
        with pytest.raises(ValueError, match="layout needs 6 qubits, cap is 5"):
            init(layout)


def test_scale_takes_a_real_factor_only():
    real = uniform_state(("a", 3))
    psi = real.psi
    real.scale(-1.0)
    real.scale(complex(0.5, 0.0))
    assert real.psi is psi and real.psi.dtype == np.float64
    assert np.array_equal(real.psi, np.full(8, -0.5 / math.sqrt(8)))
    before = psi.copy()
    for factor in (1j, complex(-1.0, 1e-300)):
        with pytest.raises(ValueError, match="real"):
            real.scale(factor)
        assert real.psi is psi
        assert np.array_equal(real.psi, before)


def test_layout_rejects_duplicates():
    with pytest.raises(ValueError):
        qsim.RegisterLayout(("a", 2), ("a", 1))
    with pytest.raises(ValueError):
        qsim.RegisterLayout(("a", 0))


def test_hadamard_involution():
    rng = np.random.default_rng(0)
    state = qsim.init_zero(qsim.RegisterLayout(("a", 3), ("b", 2)))
    state.psi = rng.standard_normal(32)
    state.psi /= np.linalg.norm(state.psi)
    before = state.psi.copy()
    qsim.apply_h(state, "a")
    assert np.linalg.norm(state.psi) == pytest.approx(1.0)
    qsim.apply_h(state, "a")
    assert np.allclose(state.psi, before, atol=1e-12)


def test_hadamard_from_zero_is_uniform():
    state = qsim.init_zero(qsim.RegisterLayout(("a", 4)))
    qsim.apply_h(state, "a")
    assert np.allclose(state.psi, np.full(16, 0.25))


def test_apply_x_flips_value():
    state = qsim.init_zero(qsim.RegisterLayout(("a", 3), ("b", 2)))
    qsim.apply_x(state, "a", mask=0b101)
    qsim.apply_x(state, "b")
    probs = np.abs(state.psi) ** 2
    idx = int(np.argmax(probs))
    assert register_value(state.layout, idx, "a") == 0b101
    assert register_value(state.layout, idx, "b") == 0b11


def test_oracle_xor_matches_table():
    n, l = 3, 2
    rng = np.random.default_rng(1)
    table = rng.integers(0, 1 << l, size=1 << n)
    state = uniform_state(("x", n))
    layout = qsim.RegisterLayout(("x", n), ("y", l))
    full = qsim.init_zero(layout)
    qsim.apply_h(full, "x")
    qsim.apply_oracle_xor(full, table, "x", "y")
    for idx, amp in enumerate(full.psi):
        x = register_value(layout, idx, "x")
        y = register_value(layout, idx, "y")
        expect = (1 / math.sqrt(1 << n)) if y == table[x] else 0.0
        assert amp == pytest.approx(expect, abs=1e-12)


def test_oracle_xor_multi_register_inputs():
    layout = qsim.RegisterLayout(("x0", 2), ("x1", 2), ("b", 1))
    state = qsim.init_zero(layout)
    qsim.apply_x(state, "x0", mask=0b10)
    qsim.apply_x(state, "x1", mask=0b11)
    # packed input is x0 * 4 + x1 = 0b1011
    table = np.zeros(16, dtype=np.int64)
    table[0b1011] = 1
    qsim.apply_oracle_xor(state, table, ["x0", "x1"], "b")
    idx = int(np.argmax(np.abs(state.psi)))
    assert register_value(layout, idx, "b") == 1


def test_indexed_oracle_selects_branch():
    family = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.int64)
    layout = qsim.RegisterLayout(("idx", 1), ("x", 2), ("y", 2))
    state = qsim.init_zero(layout)
    qsim.apply_x(state, "idx")  # select branch 1
    qsim.apply_x(state, "x", mask=0b01)
    qsim.apply_indexed_oracle(state, family, "idx", "x", "y")
    pos = int(np.argmax(np.abs(state.psi)))
    assert register_value(layout, pos, "y") == family[1, 1]


def test_phase_and_reflection():
    state = uniform_state(("a", 2))
    apply_phase_oracle(state, [0, 0, 1, 0], "a")
    assert np.array_equal(state.psi, [0.5, 0.5, -0.5, 0.5])
    state2 = uniform_state(("a", 2))
    qsim.apply_reflection_about_zero(state2, "a")
    assert state2.psi[0] == pytest.approx(-0.5)
    assert state2.psi[1] == pytest.approx(0.5)


def test_grover_step_by_hand():
    # one Grover iteration on 2 qubits finds the marked item exactly
    state = uniform_state(("idx", 2))
    apply_phase_oracle(state, [0, 0, 0, 1], "idx")
    qsim.apply_h(state, "idx")
    qsim.apply_reflection_about_zero(state, "idx")
    qsim.apply_h(state, "idx")
    state.scale(-1.0)
    assert qsim.marginal(state, "idx")[3] == pytest.approx(1.0, abs=1e-12)


def test_marginal_and_measure():
    rng = np.random.default_rng(5)
    state = uniform_state(("a", 2), ("b", 1))
    marg = qsim.marginal(state, "a")
    assert np.allclose(marg, np.full(4, 0.25))
    word, collapsed = measure(state, "b", rng)
    assert word in (0, 1)
    assert np.linalg.norm(collapsed.psi) == pytest.approx(1.0)
    again, _ = measure(collapsed, "b", rng)
    assert again == word


def test_controlled_ry_rotates_only_marked():
    layout = qsim.RegisterLayout(("x", 1), ("noise", 1))
    state = qsim.init_zero(layout)
    qsim.apply_h(state, "x")
    beta = 0.3
    apply_controlled_ry(state, "noise", 2 * beta, "x", [0, 1])
    # |0> component untouched, |1> component rotated by Ry(2 beta)
    amp00 = state.psi[0b00]
    amp10 = state.psi[0b10]
    amp11 = state.psi[0b11]
    s = 1 / math.sqrt(2)
    assert amp00 == pytest.approx(s, abs=1e-12)
    assert amp10 == pytest.approx(s * math.cos(beta), abs=1e-12)
    assert abs(amp11) == pytest.approx(s * math.sin(beta), abs=1e-12)


def test_distance_is_euclidean():
    a = qsim.init_zero(qsim.RegisterLayout(("x", 1)))
    b = qsim.init_zero(qsim.RegisterLayout(("x", 1)))
    qsim.apply_x(b, "x")
    assert qsim.distance(a, b) == pytest.approx(math.sqrt(2.0))


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_circuit_preserves_norm(width, seed):
    rng = np.random.default_rng(seed)
    state = qsim.init_zero(qsim.RegisterLayout(("r", width)))
    table = rng.integers(0, 2, size=1 << width)
    for _ in range(4):
        op = rng.integers(0, 3)
        if op == 0:
            qsim.apply_h(state, "r")
        elif op == 1:
            qsim.apply_x(state, "r", mask=int(rng.integers(1 << width)))
        else:
            apply_phase_oracle(state, table, "r")
    assert np.linalg.norm(state.psi) == pytest.approx(1.0, abs=1e-12)


# Reference kernels: full-array formulas (a stacking transform, a transposed
# Hadamard, full-length gathers and masks) that do the same arithmetic as
# the in-place kernels, whose output must therefore be equal, not close.
# The one exception is the Hadamard's float sums, which the kernel's matrix
# products add in another order: equal on integer-valued amplitudes, where
# every order is exact, and within fwht_error_bound of the exact transform
# on random ones.

def _ref_view(psi, layout, name):
    size, right = 1 << layout.width(name), 1 << layout.shift(name)
    return psi.reshape(len(psi) // (size * right), size, right)


def _ref_apply_h(psi, layout, name):
    view = _ref_view(psi, layout, name)
    swapped = np.ascontiguousarray(view.transpose(0, 2, 1))
    # the kernel's scaling pass: one multiply by the reciprocal, which on
    # real amplitudes can differ from a division in the last bit
    out = stacking_fwht(swapped) * (1.0 / math.sqrt(view.shape[1]))
    return np.ascontiguousarray(out.transpose(0, 2, 1)).reshape(-1)


def _ref_oracle(psi, layout, table, in_regs, out_reg):
    idx = np.arange(len(psi), dtype=np.int64)
    packed = np.zeros_like(idx)
    for name in in_regs:
        width, shift = layout.width(name), layout.shift(name)
        packed = (packed << width) | ((idx >> shift) & ((1 << width) - 1))
    outs = np.asarray(table, dtype=np.int64)[packed]
    return psi[idx ^ (outs << layout.shift(out_reg))]


def _ref_apply_x(psi, layout, name, mask):
    perm = np.arange(1 << layout.width(name)) ^ mask
    return _ref_view(psi, layout, name)[:, perm, :].reshape(-1)


# 17 qubits (2 MiB): registers of widths 1-4 at the top, middle and bottom,
# and more amplitudes than one tile of the in-place kernels holds.
KERNEL_LAYOUT = qsim.RegisterLayout(("idx", 2), ("x0", 3), ("y0", 4), ("x1", 4), ("y1", 1),
                                    ("mid", 2), ("b", 1))


def _random_state(seed, layout=KERNEL_LAYOUT):
    rng = np.random.default_rng(seed)
    state = qsim.init_zero(layout)
    size = len(state.psi)
    state.psi = rng.standard_normal(size)
    return state


@pytest.mark.parametrize("register", [name for name, _ in KERNEL_LAYOUT.registers])
def test_apply_h_is_bit_identical_to_the_transposing_kernel(register):
    # integer-valued amplitudes: exact sums, then the same scaling multiply
    state = _random_state(1)
    state.psi = np.round(8 * state.psi)
    want = _ref_apply_h(state.psi, state.layout, register)
    qsim.apply_h(state, register)
    assert np.array_equal(state.psi, want)
    # random amplitudes: within the bound of the exact transform, scaled
    state = _random_state(1)
    view = _ref_view(state.psi, state.layout, register)
    exact = _ref_apply_h(state.psi.astype(np.longdouble), state.layout, register)
    bound = np.broadcast_to(fwht_error_bound(view, axis=1), view.shape).reshape(-1)
    qsim.apply_h(state, register)
    assert np.all(np.abs(state.psi - exact) <= bound / math.sqrt(view.shape[1]))


@pytest.mark.parametrize("in_regs,out_reg", [
    (("x0",), "y0"),
    (("x1", "idx"), "b"),          # non-adjacent, out of layout order
    (("b", "x0"), "idx"),          # output at the top
    (("mid", "y1", "x0"), "x1"),   # output in the middle, inputs on both sides
    (("y0",), "mid"),
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
def test_oracle_xor_is_bit_identical_to_the_full_gather(in_regs, out_reg):
    layout = KERNEL_LAYOUT
    rng = np.random.default_rng(2)
    bits = sum(layout.width(name) for name in in_regs)
    table = rng.integers(0, 1 << layout.width(out_reg), size=1 << bits)
    state = _random_state(3)
    want = _ref_oracle(state.psi, layout, table, in_regs, out_reg)
    qsim.apply_oracle_xor(state, table, in_regs, out_reg)
    assert np.array_equal(state.psi, want)


def test_indexed_oracle_is_bit_identical_to_the_full_gather():
    layout = KERNEL_LAYOUT
    family = np.random.default_rng(4).integers(0, 16, size=(4, 16))
    state = _random_state(5)
    want = _ref_oracle(state.psi, layout, family.reshape(-1), ("idx", "x1"), "y0")
    qsim.apply_indexed_oracle(state, family, "idx", "x1", "y0")
    assert np.array_equal(state.psi, want)


@pytest.mark.parametrize("register,mask", [("idx", 2), ("y0", 9), ("b", None)])
def test_apply_x_is_bit_identical_to_the_register_gather(register, mask):
    state = _random_state(6)
    full = (1 << KERNEL_LAYOUT.width(register)) - 1
    want = _ref_apply_x(state.psi, state.layout, register, full if mask is None else mask)
    qsim.apply_x(state, register, mask)
    assert np.array_equal(state.psi, want)


def _ref_controlled_ry(psi, layout, target, angle, control, table):
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    idx = np.arange(len(psi), dtype=np.int64)
    rows = np.asarray(table, dtype=bool)[(idx >> layout.shift(control))
                                         & ((1 << layout.width(control)) - 1)]
    bit = (idx >> layout.shift(target)) & 1
    zero, one = rows & (bit == 0), rows & (bit == 1)
    out = psi.copy()
    a0, a1 = psi[zero], psi[one]
    out[zero] = c * a0 - s * a1
    out[one] = s * a0 + c * a1
    return out


@pytest.mark.parametrize("target,control,predicate", [
    ("y1", "b", {0, 1}), ("y1", "x0", {1, 6}), ("b", "mid", {0}), ("y1", "y0", {3, 9, 15}),
    ("y1", "mid", {1, 2})])   # the first on every control value, the last below the target
def test_controlled_ry_is_bit_identical_to_the_mask_kernel(target, control, predicate):
    state = _random_state(9)
    table = np.zeros(1 << state.layout.width(control), dtype=np.int64)
    table[list(predicate)] = 1
    want = _ref_controlled_ry(state.psi, state.layout, target, 0.7, control, table)
    apply_controlled_ry(state, target, 0.7, control, table)
    assert np.array_equal(state.psi, want)


@pytest.mark.parametrize("target,control,table", [
    ("b", "idx", [0, 1, 0]), ("b", "idx", [0, 2, 0, 1]), ("b", "idx", [0, -1, 0, 1]),
    ("mid", "idx", [0, 1, 0, 1]), ("b", "b", [0, 1])],
    ids=["too-short", "not-a-bit", "negative", "wide-target", "control-is-target"])
def test_controlled_ry_rejects_a_bad_call_before_touching_the_state(target, control, table):
    state = _random_state(9)
    psi, before = state.psi, state.psi.copy()
    with pytest.raises(ValueError):
        apply_controlled_ry(state, target, 0.7, control, table)
    assert state.psi is psi
    assert np.array_equal(state.psi, before)


@pytest.mark.parametrize("register", ["idx", "y0", "b"])
def test_measure_collapse_is_bit_identical_to_the_zeroed_copy(register):
    state = _random_state(10)
    before = state.psi.copy()
    outcome, _ = measure(state, register, np.random.default_rng(11))
    view = _ref_view(before, state.layout, register)
    # the Born weights in marginal's arithmetic, the squares summed off the
    # register view (test_marginal_matches_the_squared_moduli checks them)
    probs = np.einsum("aib,aib->i", view, view)
    want = np.zeros_like(view)
    want[:, outcome, :] = view[:, outcome, :] / math.sqrt(probs[outcome])
    assert np.array_equal(state.psi, want.reshape(-1))


@pytest.mark.parametrize("register", ["idx", "y0", "b"])
def test_marginal_matches_the_squared_moduli(register):
    state = _random_state(10)
    view = _ref_view(state.psi, state.layout, register)
    want = (np.abs(view) ** 2).sum(axis=(0, 2))
    assert np.allclose(qsim.marginal(state, register), want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("table", [[0, 1, 2, 4], [0, -1, 1, 0], [0, 1, 2]],
                         ids=["too-wide", "negative", "too-short"])
def test_oracle_table_out_of_range_leaves_state_untouched(table):
    layout = qsim.RegisterLayout(("x", 2), ("y", 2))
    state = _random_state(7, layout)
    psi, before = state.psi, state.psi.copy()
    with pytest.raises(ValueError):
        qsim.apply_oracle_xor(state, table, "x", "y")
    assert state.psi is psi
    assert np.array_equal(state.psi, before)


def _ref_phase_oracle(psi, layout, table, in_regs):
    """(-1)^table[x] on each basis state, one index at a time."""
    out = psi.copy()
    for idx in range(len(psi)):
        packed = 0
        for name in in_regs:
            packed = (packed << layout.width(name)) | register_value(layout, idx, name)
        if table[packed]:
            out[idx] = -psi[idx]
    return out


@pytest.mark.parametrize("in_regs", [
    ("x0",),
    ("y1",),
    ("mid", "idx"),                # non-adjacent, out of layout order
    ("x1", "b", "x0"),             # three registers, the lowest bit among them
], ids="-".join)
def test_phase_oracle_matches_the_basis_loop(in_regs):
    layout = KERNEL_LAYOUT
    bits = sum(layout.width(name) for name in in_regs)
    table = np.random.default_rng(12).integers(0, 2, size=1 << bits)
    state = _random_state(13)
    want = _ref_phase_oracle(state.psi, layout, table, in_regs)
    apply_phase_oracle(state, table, in_regs if len(in_regs) > 1 else in_regs[0])
    assert np.array_equal(state.psi, want)


@pytest.mark.parametrize("table", [[0, 1, 2, 0], [0, -1, 1, 0], [0, 1, 1]],
                         ids=["not-a-bit", "negative", "too-short"])
def test_phase_oracle_rejects_a_bad_table_before_touching_the_state(table):
    layout = qsim.RegisterLayout(("x", 2), ("y", 2))
    state = _random_state(7, layout)
    psi, before = state.psi, state.psi.copy()
    with pytest.raises(ValueError):
        apply_phase_oracle(state, table, "x")
    assert state.psi is psi
    assert np.array_equal(state.psi, before)


def test_phase_oracle_rejects_a_repeated_register():
    state = _random_state(7, qsim.RegisterLayout(("x", 2), ("y", 2)))
    with pytest.raises(ValueError, match="distinct"):
        apply_phase_oracle(state, np.zeros(16, dtype=np.int64), ["x", "x"])


def _peak_extra_bytes(op, state):
    """Peak bytes allocated while op(state) runs, beyond those held before."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        op(state)
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("op", [
    lambda s: qsim.apply_h(s, "x0"),
    lambda s: qsim.apply_h(s, "idx"),
    lambda s: qsim.apply_h(s, "b"),
    lambda s: qsim.apply_oracle_xor(s, np.arange(32) % 2, ("x0", "y1"), "b"),
    lambda s: qsim.apply_oracle_xor(s, np.arange(8) % 4, "x0", "idx"),
    lambda s: qsim.apply_indexed_oracle(s, np.arange(64).reshape(4, 16) % 8, "idx", "y0", "x0"),
], ids=["h-x0", "h-idx", "h-b", "rank-oracle", "oracle-top", "indexed-oracle"])
def test_kernels_allocate_at_most_one_state(op):
    # 16 qubits: a 1 MiB state
    layout = qsim.RegisterLayout(("idx", 2), ("x0", 3), ("y0", 4), ("x1", 4), ("y1", 2),
                                 ("b", 1))
    state = _random_state(8, layout)
    assert _peak_extra_bytes(op, state) <= state.psi.nbytes + (1 << 20)


def test_phase_oracle_allocates_nothing_of_state_size():
    # a multiply in place: only numpy's casting buffer, against a 2 MiB state
    state = _random_state(14)
    table = np.arange(128) % 3 == 1
    extra = _peak_extra_bytes(lambda s: apply_phase_oracle(s, table, ("x1", "x0")), state)
    assert extra <= state.psi.nbytes // 8


def test_exact_index_distribution_allocates_one_block_array():
    # a 19-qubit circuit: 35 label blocks of 2^10 float64 amplitudes (280 KiB)
    inst = search.random_instance(2, 2, 2, np.random.default_rng(39))
    copies = 4
    r = analysis.grover_iterations(inst.m)
    blocks = len(search._label_blocks(inst.l, copies)[1])
    block_bytes = 8 * blocks << (inst.m + copies * inst.n)
    search._exact_index_distribution(inst, copies, r)  # builds the cached tables
    extra = _peak_extra_bytes(lambda _: search._exact_index_distribution(inst, copies, r), None)
    assert extra <= block_bytes + (1 << 20)


def test_exact_index_distribution_holds_one_chunk_of_blocks(monkeypatch):
    # the same circuit four blocks at a time: a chunk of 32 KiB, as much
    # transform scratch, the chunk's mean and the squared norms (80 KiB
    # measured), not the 280 KiB of all 35 blocks
    inst = search.random_instance(2, 2, 2, np.random.default_rng(39))
    copies = 4
    r = analysis.grover_iterations(inst.m)
    chunk_cells = 4 << (inst.m + copies * inst.n)
    monkeypatch.setattr(search, "_BLOCK_CELLS", chunk_cells)
    search._exact_index_distribution(inst, copies, r)  # builds the cached tables
    extra = _peak_extra_bytes(lambda _: search._exact_index_distribution(inst, copies, r), None)
    assert extra <= 3 * 8 * chunk_cells


@pytest.mark.parametrize("in_regs,out_reg", [
    (("x0",), "y0"),
    (("idx", "x1"), "y0"),         # the family's (index, x) query
    (("mid", "y1", "x0"), "x1"),   # output in the middle, inputs on both sides
], ids=lambda v: "-".join(v) if isinstance(v, tuple) else v)
def test_xor_query_is_a_parity_phase_in_the_output_hadamard_basis(in_regs, out_reg):
    layout = KERNEL_LAYOUT
    rng = np.random.default_rng(15)
    width = layout.width(out_reg)
    table = rng.integers(0, 1 << width, size=1 << sum(layout.width(name) for name in in_regs))
    want = _random_state(16)
    got = want.copy()
    qsim.apply_h(want, out_reg)
    qsim.apply_oracle_xor(want, table, in_regs, out_reg)
    qsim.apply_h(want, out_reg)
    apply_phase_oracle(got, search._parity_table(table, width), in_regs + (out_reg,))
    assert got.psi.dtype == np.float64
    assert np.abs(got.psi - want.psi).max() <= 1e-12


KERNEL_OPS = {
    "h": lambda s: qsim.apply_h(s, "y0"),
    "x": lambda s: qsim.apply_x(s, "idx", 1),
    "oracle-xor": lambda s: qsim.apply_oracle_xor(s, np.arange(8) % 4, "x0", "idx"),
    "indexed-oracle": lambda s: qsim.apply_indexed_oracle(s, np.arange(64).reshape(4, 16) % 8,
                                                          "idx", "y0", "x0"),
    "phase-oracle": lambda s: apply_phase_oracle(s, np.arange(128) % 2, ("x0", "x1")),
    "reflection": lambda s: qsim.apply_reflection_about_zero(s, "x1"),
    "controlled-ry": lambda s: apply_controlled_ry(s, "b", 0.3, "idx", [0, 0, 1, 0]),
    "measure": lambda s: measure(s, "y1", np.random.default_rng(0)),
    "scale": lambda s: s.scale(-1.0),
    "diffusion": lambda s: diffusion(s, "x0"),
}


@pytest.mark.parametrize("op", KERNEL_OPS.values(), ids=KERNEL_OPS.keys())
def test_kernels_keep_a_real_state_real(op):
    state = init_plus(KERNEL_LAYOUT)
    psi = state.psi
    op(state)
    assert state.psi is psi and state.psi.dtype == np.float64


@pytest.mark.parametrize("op", [*KERNEL_OPS.values(), lambda s: qsim.marginal(s, "mid")],
                         ids=[*KERNEL_OPS.keys(), "marginal"])
def test_kernels_refuse_a_complex_state_before_touching_it(op):
    state = init_plus(KERNEL_LAYOUT)
    state.psi = state.psi * (1 + 1j)
    psi, before = state.psi, state.psi.copy()
    with pytest.raises(ValueError, match="real"):
        op(state)
    assert state.psi is psi
    assert np.array_equal(state.psi, before)
