import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from offline_simon import qsim


def uniform_state(*regs):
    state = qsim.init_zero(qsim.RegisterLayout(*regs))
    for name, _ in regs:
        qsim.apply_h(state, name)
    return state


def test_init_zero_and_cap(monkeypatch):
    state = qsim.init_zero(qsim.RegisterLayout(("a", 2), ("b", 1)))
    assert state.psi.shape == (8,)
    assert state.psi[0] == 1.0
    monkeypatch.setenv(qsim.CAP_ENV_VAR, "4")
    assert qsim.qubit_cap() == 4
    with pytest.raises(ValueError):
        qsim.init_zero(qsim.RegisterLayout(("a", 5)))


def test_layout_rejects_duplicates():
    with pytest.raises(ValueError):
        qsim.RegisterLayout(("a", 2), ("a", 1))
    with pytest.raises(ValueError):
        qsim.RegisterLayout(("a", 0))


def test_hadamard_involution():
    rng = np.random.default_rng(0)
    state = qsim.init_zero(qsim.RegisterLayout(("a", 3), ("b", 2)))
    state.psi = rng.standard_normal(32) + 1j * rng.standard_normal(32)
    state.psi /= np.linalg.norm(state.psi)
    before = state.psi.copy()
    qsim.apply_h(state, "a")
    assert state.norm() == pytest.approx(1.0)
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
    assert state.layout.value_of(idx, "a") == 0b101
    assert state.layout.value_of(idx, "b") == 0b11


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
        x = layout.value_of(idx, "x")
        y = layout.value_of(idx, "y")
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
    assert layout.value_of(idx, "b") == 1


def test_indexed_oracle_selects_branch():
    family = np.array([[0, 1, 2, 3], [3, 2, 1, 0]], dtype=np.int64)
    layout = qsim.RegisterLayout(("idx", 1), ("x", 2), ("y", 2))
    state = qsim.init_zero(layout)
    qsim.apply_x(state, "idx")  # select branch 1
    qsim.apply_x(state, "x", mask=0b01)
    qsim.apply_indexed_oracle(state, family, "idx", "x", "y")
    pos = int(np.argmax(np.abs(state.psi)))
    assert layout.value_of(pos, "y") == family[1, 1]


def test_phase_and_reflection():
    state = uniform_state(("a", 2))
    qsim.apply_phase_if(state, "a", {2})
    assert state.psi[2] == pytest.approx(-0.5)
    state2 = uniform_state(("a", 2))
    qsim.apply_reflection_about_zero(state2, "a")
    assert state2.psi[0] == pytest.approx(-0.5)
    assert state2.psi[1] == pytest.approx(0.5)


def test_grover_step_by_hand():
    # one Grover iteration on 2 qubits finds the marked item exactly
    state = uniform_state(("idx", 2))
    qsim.apply_phase_if(state, "idx", {3})
    qsim.apply_h(state, "idx")
    qsim.apply_reflection_about_zero(state, "idx")
    qsim.apply_h(state, "idx")
    state.scale(-1.0)
    assert qsim.prob_of(state, "idx", 3) == pytest.approx(1.0, abs=1e-12)


def test_marginal_and_measure():
    rng = np.random.default_rng(5)
    state = uniform_state(("a", 2), ("b", 1))
    marg = qsim.marginal(state, "a")
    assert np.allclose(marg, np.full(4, 0.25))
    word, collapsed = qsim.measure(state, "b", rng)
    assert word in (0, 1)
    assert collapsed.norm() == pytest.approx(1.0)
    again, _ = qsim.measure(collapsed, "b", rng)
    assert again == word


def test_sample_register_distribution():
    rng = np.random.default_rng(6)
    state = qsim.init_zero(qsim.RegisterLayout(("a", 1)))
    qsim.apply_h(state, "a")
    draws = qsim.sample_register(state, "a", 2000, rng)
    assert 0.4 < draws.mean() < 0.6


def test_controlled_ry_rotates_only_marked():
    layout = qsim.RegisterLayout(("x", 1), ("noise", 1))
    state = qsim.init_zero(layout)
    qsim.apply_h(state, "x")
    beta = 0.3
    qsim.apply_controlled_ry(state, "noise", 2 * beta,
                             control="x", control_predicate={1})
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
            qsim.apply_phase_if(state, "r", np.flatnonzero(table))
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
