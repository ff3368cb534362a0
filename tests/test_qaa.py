import math

import numpy as np
import pytest

import reference
from offline_simon import analysis, cli, qsim


def _iterations(m, marked):
    """floor(pi / (4 theta)) for the marked share a = sin^2(theta) of the
    m-bit index register: the optimal schedule for several marked values."""
    a = int(analysis._indicator(m, marked).sum()) / (1 << m)
    return math.floor(math.pi / (4 * math.asin(math.sqrt(a))))


@pytest.mark.parametrize("m", [2, 4])
def test_exact_grover_matches_sine_formula(m):
    """The amplified success equals sin^2((2r+1) theta) exactly."""
    a = 2.0**-m
    r = analysis.grover_iterations(m)
    success = analysis.run_grover(m, 3 % (1 << m), 0.0, r)
    assert success == pytest.approx(analysis.amplified_success(a, r), abs=1e-9)


def test_exact_grover_multi_target():
    r = _iterations(4, {1, 6, 9})
    success = analysis.run_grover(4, {1, 6, 9}, 0.0, r)
    a = 3 / 16
    assert success == pytest.approx(analysis.amplified_success(a, r), abs=1e-9)


def _circuit_success(m, marked, j):
    """The marked probability of the reference circuit's state after j
    iterations, read as the circuit run read it."""
    table = analysis._indicator(m, marked)
    return float(qsim.marginal(reference.grover_state(m, marked, j), "idx")[table == 1].sum())


@pytest.mark.parametrize("m", [2, 4])
def test_noiseless_run_is_bit_equal_to_the_circuit_at_the_verify_bounds_shapes(m):
    r = analysis.grover_iterations(m)
    assert analysis.run_grover(m, 0, 0.0, r) == _circuit_success(m, 0, r)


@pytest.mark.parametrize("m,marked", [*((m, 0) for m in range(2, 9)), (4, {1, 6, 9}),
                                      (6, {1, 6, 9, 33, 60})])
def test_noiseless_run_matches_the_circuit(m, marked):
    r = _iterations(m, marked)
    assert abs(analysis.run_grover(m, marked, 0.0, r) - _circuit_success(m, marked, r)) <= 1e-15


@pytest.mark.parametrize("m,marked,beta", [(3, 5, 0.0), (3, 5, 0.05), (3, 5, 0.3),
                                           (4, {2, 5, 11}, 0.2)])
def test_noisy_run_matches_the_circuit(m, marked, beta):
    for j in range(1, 9):
        got = analysis.run_grover(m, marked, beta, j)
        assert abs(got - reference.run_grover_noisy(m, marked, beta, j)) <= 1e-14


def test_verify_bounds_builds_no_simulator_state(monkeypatch, capsys):
    def refuse(layout):
        raise AssertionError("verify-bounds built a simulator state")

    monkeypatch.setattr(qsim, "_size", refuse)
    assert cli.main(["verify-bounds", "--trials", "5"]) == 0
    out = capsys.readouterr().out
    assert "qaa-exact[a=1/4]" in out and "qaa-noisy-interval" in out


def test_grover_state_progression():
    # success grows monotonically up to the schedule for a small a
    m = 6
    probs = []
    for j in range(analysis.grover_iterations(m) + 1):
        state = reference.grover_state(m, 5, j)
        probs.append(qsim.marginal(state, "idx")[5])
    assert all(b > a for a, b in zip(probs, probs[1:]))
    assert probs[-1] > 0.99


@pytest.mark.parametrize("marked", [set(), (), {-1}, {8}, {2, 8}, -1, 8],
                         ids=["empty-set", "empty-tuple", "minus-one", "eight", "two-and-eight",
                              "int-minus-one", "int-eight"])
def test_marked_values_outside_the_index_register_are_refused(marked):
    # numpy indexing would read -1 as 7 and fail on 8 only part way through
    with pytest.raises(ValueError, match="empty|outside"):
        analysis.run_grover(3, marked, 0.0, 1)
    with pytest.raises(ValueError, match="empty|outside"):
        analysis.run_grover(3, marked, 0.05, 1)
    with pytest.raises(ValueError, match="empty|outside"):
        reference.grover_state(3, marked, 1)
    for beta in (0.0, 0.05):
        state = qsim.init_zero(qsim.RegisterLayout(("idx", 3), ("b", 1), ("noise", 1)))
        qsim.apply_h(state, "idx")
        psi, before = state.psi, state.psi.copy()
        with pytest.raises(ValueError, match="empty|outside"):
            reference.noisy_check_bit(state, marked, beta)
        assert state.psi is psi
        assert np.array_equal(state.psi, before)


def test_bit_flip_error_value():
    assert analysis.bit_flip_error(0.0) == 0.0
    assert analysis.bit_flip_error(0.2) == pytest.approx(2 * math.sin(0.1))


def test_noiseless_check_is_exact_phase_flip():
    m = 3
    layout = qsim.RegisterLayout(("idx", m), ("b", 1), ("noise", 1))
    state = qsim.init_zero(layout)
    qsim.apply_h(state, "idx")
    reference.phase_flip_check(state, {5}, 0.0)
    # amplitude of idx=5 flipped sign, others untouched, ancillas restored
    for v in range(1 << m):
        expect = -1.0 if v == 5 else 1.0
        amp = state.psi[v << 2]  # b = noise = 0
        assert amp == pytest.approx(expect / math.sqrt(1 << m), abs=1e-12)


def test_noisy_deviation_within_linear_budget():
    """Deviation after j noisy rounds stays within 4 j eps (printed per j)."""
    m, marked, beta = 3, 5, 0.1
    eps = analysis.bit_flip_error(beta)
    a = 2.0**-m
    for j in range(1, 9):
        got = analysis.run_grover(m, marked, beta, j)
        dev = abs(got - analysis.amplified_success(a, j))
        print(f"j={j} deviation={dev:.6f} allowance={4 * j * eps:.6f}")
        assert dev <= 4 * j * eps + 1e-12


def test_single_call_deviation_budgets():
    """One noisy bit-check deviates by at most eps; the phase-flip sandwich
    by at most 2 eps. The factor-2 budget is not saturated (the sandwich
    averages the two ancilla branches), so only the inequality is claimed."""
    m, marked, beta = 3, 5, 0.3
    eps = analysis.bit_flip_error(beta)

    layout = qsim.RegisterLayout(("idx", m), ("b", 1), ("noise", 1))
    clean = qsim.init_zero(layout)
    qsim.apply_h(clean, "idx")
    noisy = clean.copy()
    reference.noisy_check_bit(clean, {marked}, 0.0)
    reference.noisy_check_bit(noisy, {marked}, beta)
    dev_bit = qsim.distance(clean, noisy)
    # the deviation lives on the marked component of a uniform state
    assert dev_bit <= eps / math.sqrt(1 << m) + 1e-12

    clean = qsim.init_zero(layout)
    qsim.apply_h(clean, "idx")
    noisy = clean.copy()
    reference.phase_flip_check(clean, {marked}, 0.0)
    reference.phase_flip_check(noisy, {marked}, beta)
    dev_phase = qsim.distance(clean, noisy)
    print(f"dev_bit={dev_bit:.6f} dev_phase={dev_phase:.6f} eps={eps:.6f}")
    assert dev_phase <= 2 * eps / math.sqrt(1 << m) + 1e-12


def test_diffusion_is_inversion_about_mean():
    rng = np.random.default_rng(8)
    state = qsim.init_zero(qsim.RegisterLayout(("idx", 3)))
    state.psi = rng.standard_normal(8)
    state.psi /= np.linalg.norm(state.psi)
    before = state.psi.copy()
    reference.diffusion(state)
    mean = before.mean()
    assert np.allclose(state.psi, 2 * mean - before, atol=1e-12)
