import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from offline_simon import analysis, cli, simon
from offline_simon.primitives import EvenMansourInstance, random_permutation
from reference import brute_collision_prob


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_collision_probabilities_match_bruteforce(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    table = np.array(
        [data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
         for _ in range(1 << n)], dtype=np.int64)
    probs = analysis.collision_probabilities(table, n)
    for t in range(1 << n):
        assert probs[t] == pytest.approx(brute_collision_prob(table, n, t), abs=1e-12)
    assert probs[0] == 1.0


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_find_periods_matches_bruteforce(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    table = np.array(
        [data.draw(st.integers(min_value=0, max_value=3))
         for _ in range(1 << n)], dtype=np.int64)
    expect = [t for t in range(1, 1 << n)
              if all(table[x ^ t] == table[x] for x in range(1 << n))]
    assert analysis.find_periods(table, n) == expect


def test_epsilon_max_is_raw_shift_maximum():
    # the raw maximum counts genuine periods too, so a periodic table pins it
    table = np.array([0, 1, 1, 0], dtype=np.int64)
    assert analysis.find_periods(table, 2) == [0b11]
    assert analysis.collision_probabilities(table, 2)[1:].max() == 1.0
    # p_bad's eps is that maximum, on the aperiodic tables it is defined for
    aperiodic = np.array([0, 0, 1, 2], dtype=np.int64)
    assert analysis.find_periods(aperiodic, 2) == []
    want = max(brute_collision_prob(aperiodic, 2, t) for t in (1, 2, 3))
    est = simon.p_bad_estimate(aperiodic, 1, 10, np.random.default_rng(0), 2)
    assert est.eps == pytest.approx(want)


def test_simon_failure_bound_frozen():
    # 2^8 (3/4)^24 subtracted from 1
    assert analysis.simon_success_lower(8, 24) == pytest.approx(0.7431318329463465)
    assert analysis.simon_failure_bound(8, 24) == pytest.approx(1 - 0.7431318329463465)
    assert analysis.simon_success_lower(8, 8) == 0.0  # clamped, bound vacuous


def test_p_bad_bound_forms_agree():
    # squared restoration bound equals twice the p_bad bound
    for n, copies, eps in [(4, 8, 0.25), (6, 18, 0.5), (3, 6, 0.125)]:
        delta = analysis.restoration_bound(n, copies, eps)
        p_bad = analysis.simon_failure_bound(n, copies, eps)
        assert delta**2 == pytest.approx(2 * p_bad, rel=1e-12)


def test_p_bad_bound_monotone_in_copies():
    values = [analysis.simon_failure_bound(6, c, 0.25) for c in range(6, 30, 6)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_default_copies_frozen_values():
    # the larger of the index-shrinking and the union-bound requirement
    assert analysis.default_copies(4, 6) == 32
    assert analysis.default_copies(6, 3) == 25
    assert analysis.default_copies(0, 2) == 22
    assert analysis.default_copies(2, 2) >= 5


def test_grover_iteration_forms_agree():
    for m in range(2, 21):
        via_theta = math.floor(math.pi / (4 * math.asin(2.0 ** (-m / 2))))
        assert analysis.grover_iterations(m) == via_theta


def test_grover_iterations_is_the_theta_schedule():
    """The one schedule equals floor(pi / (4 theta)) for a = sin^2(theta) =
    2^-m at every m from 1 to 24, the form verify-bounds used to take its r
    from. At m = 1, a = 1/2 gives pi / (4 theta) = 1 exactly, which float
    arcsin puts just below 1: the theta form needs its 1e-9 guard there, and
    only there."""
    for m in range(1, 25):
        ratio = math.pi / (4 * math.asin(2 ** (-m / 2)))
        assert analysis.grover_iterations(m) == math.floor(ratio + 1e-9)
        if m > 1:
            assert analysis.grover_iterations(m) == math.floor(ratio)


def test_grover_iterations_m1_uses_power_form():
    # the arcsin form hits a float artifact at m=1; the schedule must not
    assert analysis.grover_iterations(1) == 1


def test_amplified_success_closed_form():
    for m in (2, 3, 6):
        r = analysis.grover_iterations(m)
        theta = math.asin(2.0 ** (-m / 2))
        assert analysis.amplified_success(2.0**-m, r) == pytest.approx(
            math.sin((2 * r + 1) * theta) ** 2, abs=1e-12)
    # m = 0: one index, no iteration, certain success, as the search reports it
    assert analysis.amplified_success(1.0, analysis.grover_iterations(0)) == 1.0


def test_qaa_deviation_bound_linear():
    assert analysis.qaa_deviation_bound(5, 0.01) == pytest.approx(0.2)


def test_qaa_success_lower_is_floor_at_schedule():
    # noiseless floor is max(1-a, a); the scheduled iteration count clears it
    for m in (2, 3, 4, 6):
        a = 2.0**-m
        r = analysis.grover_iterations(m)
        floor = analysis.qaa_success_lower(a, r, 0.0)
        assert floor == pytest.approx(max(1 - a, a))
        assert analysis.amplified_success(a, r) >= floor - 1e-12
    # a = 1/4 runs one round; a small eps takes 4 r eps off the floor
    assert analysis.qaa_success_lower(0.25, 1, 0.01) == pytest.approx(0.75 - 4 * 0.01)
    assert analysis.qaa_success_lower(0.25, 3, 0.1) == 0.0  # penalty exceeds the floor


# frozen cost-table anchors


def test_copy_constant_anchors():
    # raw constants frozen, then the half-integer rounding that the quoted
    # 2.5 / 5 figures use
    assert analysis.c_rounded(64, 64) == pytest.approx(2.4094208396532095)
    assert analysis.c_rounded(128, 64) == pytest.approx(4.818841679306419)
    assert abs(analysis.c_paper(64, 64) - 2.5) < 0.1
    assert abs(analysis.c_paper(128, 64) - 5.0) < 0.1
    assert analysis.c_precise(64, 64) == pytest.approx(2.421875)
    assert analysis.c_sufficient(64, 64) > analysis.c_proof_stated(64, 64)


def test_query_count_anchors():
    assert analysis.query_count(56) == 135
    assert analysis.query_count(64) == 155


def test_fx_cost_anchors():
    desx = analysis.fx_q2_costs(64, 56)
    assert desx["online_queries"] == 135
    assert desx["time_log2"] == 29.0
    prince = analysis.fx_q2_costs(64, 64)
    assert prince["online_queries"] == 155
    assert prince["time_log2"] == 33.0
    q1 = analysis.fx_q1_costs(64, 56)
    assert (q1["data_log2"], q1["time_log2"]) == (42, 40)
    q1 = analysis.fx_q1_costs(64, 64)
    assert (q1["data_log2"], q1["time_log2"]) == (45, 43)


def test_target_cost_anchors():
    assert analysis.chaskey_costs()["time_log2"] == 59.0
    assert analysis.balanced_costs("width", 144)["data_log2"] == 48
    assert analysis.balanced_costs("width", 256)["data_log2"] == 85
    assert analysis.balanced_costs("key_bits", 256)["data_log2"] == 85
    figures = analysis.published_figures()
    assert figures["desx"]["q2"]["online_queries"] == 135
    assert figures["beetle-light"]["q1"]["data_log2"] == 48


def test_presets_are_the_cli_names():
    """The cost table is keyed by the names `estimate --preset` takes, and
    the API and the CLI take those names and no others."""
    names = ("desx", "prince", "pride", "chaskey", "beetle-light", "beetle-secure", "saturnin16")
    assert tuple(analysis.published_figures()) == names
    parser = cli.build_parser()
    for name in names:
        assert parser.parse_args(["estimate", "--preset", name]).preset == name
        assert analysis.estimate_costs(preset=name)["preset"] == name
    for alias in ("prince-fx", "pride-fx", "saturnin"):
        with pytest.raises(SystemExit):
            parser.parse_args(["estimate", "--preset", alias])
        with pytest.raises(ValueError) as err:
            analysis.estimate_costs(preset=alias)
        assert str(err.value) == f"unknown preset {alias!r}; have {sorted(names)}"


# classical reference attack


def test_classical_em_attack_full_codebook_always_wins():
    rng = np.random.default_rng(33)
    n = 6
    inst = EvenMansourInstance(n, random_permutation(n, rng), 0b101101, 0b010011)
    res = analysis.classical_em_attack(
        lambda x: inst.perm(x ^ inst.k1) ^ inst.k2, inst.perm, n,
        data_budget=1 << n, rng=rng)
    assert res.status == "ok"
    # any (k1', k2') consistent with the whole codebook works; check by
    # re-encryption rather than demanding the planted pair
    for x in range(1 << n):
        assert inst.perm(x ^ res.k1) ^ res.k2 == inst.perm(x ^ inst.k1) ^ inst.k2


def test_classical_em_attack_zero_budget():
    rng = np.random.default_rng(34)
    n = 5
    inst = EvenMansourInstance(n, random_permutation(n, rng), 3, 9)
    res = analysis.classical_em_attack(
        lambda x: inst.perm(x ^ inst.k1) ^ inst.k2, inst.perm, n,
        data_budget=0, rng=rng)
    assert res.status == "budget-exhausted"


def test_classical_em_attack_td_tradeoff_rate():
    # at D*T = 2^n the collision attack lands around 1 - 1/e
    n = 8
    hits = 0
    runs = 40
    for seed in range(runs):
        rng = np.random.default_rng(500 + seed)
        inst = EvenMansourInstance(n, random_permutation(n, rng),
                                   int(rng.integers(1 << n)), int(rng.integers(1 << n)))
        res = analysis.classical_em_attack(
            lambda x: inst.perm(x ^ inst.k1) ^ inst.k2, inst.perm, n,
            data_budget=16, rng=rng)
        if res.status == "ok":
            ok = all(inst.perm(x ^ res.k1) ^ res.k2 == inst.perm(x ^ inst.k1) ^ inst.k2
                     for x in range(1 << n))
            hits += ok
            assert res.data_used <= 16
    assert hits >= runs // 3
