import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from offline_simon import analysis, qsim, simon


def circuit_u_distribution(table, n, l):
    """Ground truth from the state vector: H, oracle, H, measure x."""
    layout = qsim.RegisterLayout(("x", n), ("y", l))
    state = qsim.init_zero(layout)
    qsim.apply_h(state, "x")
    qsim.apply_oracle_xor(state, table, "x", "y")
    qsim.apply_h(state, "x")
    return qsim.marginal(state, "x")


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_distribution_matches_exact_circuit(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    l = data.draw(st.integers(min_value=1, max_value=3))
    table = np.array(
        [data.draw(st.integers(min_value=0, max_value=(1 << l) - 1))
         for _ in range(1 << n)], dtype=np.int64)
    dist = simon.distribution(table, n)
    circuit = circuit_u_distribution(table, n, l)
    assert np.allclose(dist.weights, circuit, atol=1e-9)
    assert dist.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_n1_closed_forms():
    injective = simon.distribution(np.array([0, 1]), 1)
    assert np.allclose(injective.weights, [0.5, 0.5])
    constant = simon.distribution(np.array([1, 1]), 1)
    assert np.allclose(constant.weights, [1.0, 0.0])


def test_periodic_distribution_is_orthogonal_supported():
    # period s: every sampled u satisfies u . s = 0
    table = np.array([5, 3, 5, 3, 7, 1, 7, 1], dtype=np.int64)
    periods = analysis.find_periods(table, 3)
    assert periods
    s = periods[0]
    dist = simon.distribution(table, 3)
    for u in range(8):
        if bin(u & s).count("1") % 2 == 1:
            assert dist.weights[u] == pytest.approx(0.0, abs=1e-12)
    assert dist.prob_orthogonal(s) == pytest.approx(1.0, abs=1e-12)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_orthogonality_claim(data):
    """Pr[u . t = 0] = (1 + Pr_x[h(x^t) = h(x)]) / 2, exactly."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    table = np.array(
        [data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
         for _ in range(1 << n)], dtype=np.int64)
    t = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    dist = simon.distribution(table, n)
    collision = analysis.collision_prob(table, n, t)
    assert dist.prob_orthogonal(t) == pytest.approx((1 + collision) / 2, abs=1e-10)


def test_sample_agrees_with_distribution():
    rng = np.random.default_rng(7)
    table = np.array([3, 0, 2, 0, 3, 1, 1, 2], dtype=np.int64)
    dist = simon.distribution(table, 3)
    draws = simon.sample(table, 4000, rng, 3)
    freq = np.bincount([w.value for w in draws], minlength=8) / 4000
    assert np.abs(freq - dist.weights).max() < 0.05


def test_random_periodic_function_injective():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        s = int(rng.integers(1, 1 << n))
        table = simon.random_periodic_function(n, n, s, rng)
        assert analysis.find_periods(table, n) == [s]
        # injective on cosets: exactly 2^(n-1) distinct values
        assert len(set(int(v) for v in table)) == 1 << (n - 1)


def test_random_periodic_function_non_injective():
    rng = np.random.default_rng(13)
    table = simon.random_periodic_function(5, 2, 0b10110, rng, injective=False)
    assert analysis.find_periods(table, 5) == [0b10110]
    assert table.max() < 4


def test_random_periodic_function_rejects_tight_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        simon.random_periodic_function(5, 3, 1, rng)  # 2^3 < 2^4 slots


def test_run_recovers_planted_period():
    rng = np.random.default_rng(3)
    hits = 0
    for seed in range(30):
        local = np.random.default_rng(100 + seed)
        s = int(local.integers(1, 1 << 6))
        table = simon.random_periodic_function(6, 6, s, local)
        res = simon.run(table, 4, local, 6)
        hits += res.kind == "period" and res.period == s
    assert hits >= 28


def test_run_no_period_on_bijection():
    rng = np.random.default_rng(4)
    table = rng.permutation(1 << 6)
    res = simon.run(table, 4, rng, 6)
    assert res.kind == "no-period"
    assert res.rank == 6


def test_run_rejects_bad_c():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        simon.run(np.arange(8), 0, rng, 3)


def test_p_bad_estimate_within_bound():
    rng = np.random.default_rng(9)
    n = 6
    table = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    while analysis.find_periods(table, n):
        table = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    est = simon.p_bad_estimate(table, 3, 3000, rng, n)
    assert est.eps <= 0.5
    sigma = max(est.estimate * (1 - est.estimate), est.analytic_bound) / est.trials
    assert est.estimate <= est.analytic_bound + 3 * sigma**0.5
    assert est.union_bound <= est.analytic_bound + 1e-12


def test_p_bad_estimate_rejects_periodic():
    rng = np.random.default_rng(10)
    table = simon.random_periodic_function(4, 4, 5, rng)
    with pytest.raises(ValueError):
        simon.p_bad_estimate(table, 3, 10, rng, 4)


@pytest.mark.parametrize("c, trials", [(0, 100), (-1, 100), (3, 0), (3, -5)])
def test_p_bad_estimate_rejects_bad_counts(c, trials):
    table = np.array([0, 1, 2, 3, 4, 5, 6, 6], dtype=np.int64)
    with pytest.raises(ValueError):
        simon.p_bad_estimate(table, c, trials, np.random.default_rng(0), 3)


def test_width_cap():
    with pytest.raises(ValueError):
        simon.distribution(np.zeros(1 << 21, dtype=np.int64), 21)


def test_p_bad_estimate_pinned():
    # recorded with the per-row Gf2Basis loop; the batched rank must agree
    rng = np.random.default_rng(2024)
    n = 6
    table = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    while analysis.find_periods(table, n):
        table = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    est = simon.p_bad_estimate(table, 3, 10_000, rng, n)
    assert est == simon.PBadEstimate(
        estimate=0.0004,
        half_width_95=0.0003919215921584316,
        analytic_bound=0.0020341616208428242,
        union_bound=0.00038817550629756506,
        eps=0.125,
        trials=10_000,
    )
