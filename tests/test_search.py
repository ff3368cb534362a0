import json
import math
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from offline_simon import analysis, search, simon
from offline_simon.gf2 import Gf2Basis

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text())


def tiny_instance(seed=39):
    return search.random_instance(2, 2, 2, np.random.default_rng(seed))


def medium_instance(seed=5):
    return search.random_instance(6, 4, 6, np.random.default_rng(seed))


def test_search_instance_validates_shapes():
    g = np.zeros(4, dtype=np.int64)
    fam = np.zeros((2, 4), dtype=np.int64)
    inst = search.SearchInstance(n=2, m=1, l=2, family=fam, g=g,
                                 planted_index=0, planted_period=1)
    assert inst.branch(1).shape == (4,)
    with pytest.raises(ValueError):
        search.SearchInstance(n=2, m=1, l=2, family=np.zeros((2, 8), dtype=np.int64),
                              g=g, planted_index=0, planted_period=1)


def test_random_instance_screens_clean():
    for seed in range(6):
        inst = search.random_instance(4, 3, 4, np.random.default_rng(seed))
        scr = search.screen(inst)
        assert scr.periodic_indices == (inst.planted_index,)
        assert scr.branch_periods[inst.planted_index] == (inst.planted_period,)
        assert not scr.condition_violated
        assert 0.0 <= scr.eps <= 0.5


def test_screen_flags_equal_split_violation():
    # two marked branches
    rng = np.random.default_rng(2)
    g = rng.integers(0, 16, size=16, dtype=np.int64)
    periodic = simon.random_periodic_function(4, 4, 0b1001, rng)
    fam = np.stack([periodic ^ g, periodic ^ g])
    inst = search.SearchInstance(n=4, m=1, l=4, family=fam, g=g,
                                 planted_index=0, planted_period=0b1001)
    scr = search.screen(inst)
    assert scr.multi_marked
    assert scr.condition_violated


def test_error_budget_formulas():
    budget = search.error_budget(6, 4, 18, 0.25)
    delta = 2.0 ** 3.5 * ((1 + 0.25) / 2) ** 9
    assert budget.delta_bound == pytest.approx(delta, rel=1e-12)
    assert budget.r == analysis.grover_iterations(4)
    assert budget.per_iteration == pytest.approx(2 * delta)
    assert budget.accumulated(5) == pytest.approx(4 * 5 * delta)
    lo, hi = budget.interval()
    assert 0.0 <= lo <= hi <= 1.0
    assert budget.success_lower >= 0.0


def test_error_budget_m0_has_no_amplification():
    budget = search.error_budget(4, 0, 12, 0.5)
    assert budget.r == 0
    assert budget.ideal_success == 1.0


def test_counter_contract_q2():
    inst = medium_instance()
    _, rep = search.alg_poly_q2(inst, copies=18, backend="structured")
    c = rep.counters
    assert (c.classical_online, c.quantum_online) == (0, 18)
    assert c.f_queries == 108
    assert c.grover_iterations == 3
    assert rep.acquisition == search.Q2_ACQUISITION


def test_counter_contract_q1():
    inst = medium_instance()
    _, rep = search.alg_exp_q1(inst, copies=18, backend="structured")
    c = rep.counters
    assert (c.classical_online, c.quantum_online) == (64, 0)
    assert c.f_queries == 108
    assert c.grover_iterations == 3
    assert rep.acquisition == search.Q1_ACQUISITION


def test_online_counts_override():
    inst = medium_instance()
    _, rep = search.alg_exp_q1(inst, copies=18, backend="structured",
                               online_counts=(1 << 6, 0))
    assert rep.counters.classical_online == 64
    _, rep = search.alg_exp_q1(inst, copies=18, backend="structured",
                               online_counts=(5, 7))
    assert (rep.counters.classical_online, rep.counters.quantum_online) == (5, 7)


def test_structured_returns_planted_index():
    inst = medium_instance()
    good, rep = search.alg_poly_q2(inst, backend="structured")
    assert good == inst.planted_index
    assert rep.recovered is None
    assert rep.shots == 0


def test_report_json_schema_and_fields():
    inst = tiny_instance()
    rng = np.random.default_rng(0)
    _, rep = search.alg_poly_q2(inst, copies=2, backend="sampled", rng=rng, shots=3)
    doc = json.loads(rep.to_json())
    for field in ("backend", "n", "m", "l", "c", "u", "counters", "eps",
                  "delta_bound", "ideal_success", "success_lower", "recovered",
                  "correct", "condition_violated"):
        assert field in doc
    assert doc["c"] == 2
    assert set(doc["counters"]) == {"classical_online", "quantum_online",
                                    "f_queries", "grover_iterations"}
    jsonschema.validate(doc, SCHEMA)
    if doc["recovered"] is not None:
        for v in doc["recovered"].values():
            assert v.startswith("0x")


def test_report_deterministic():
    inst = tiny_instance()
    reps = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        _, rep = search.alg_poly_q2(inst, copies=2, backend="sampled", rng=rng, shots=5)
        reps.append(rep.to_json())
    assert reps[0] == reps[1]


def test_backend_validation():
    inst = tiny_instance()
    with pytest.raises(ValueError):
        search.alg_poly_q2(inst, backend="magic")


def test_exact_backend_respects_qubit_cap(monkeypatch):
    monkeypatch.setenv("OFFLINE_SIMON_QUBIT_CAP", "10")
    inst = tiny_instance()
    with pytest.raises(ValueError):
        # 2 + 2*(2+2) + 1 = 11 > 10
        search.alg_poly_q2(inst, copies=2, backend="exact-circuit",
                           rng=np.random.default_rng(0))


def test_exact_backend_runs_tiny():
    inst = tiny_instance()
    rng = np.random.default_rng(1)
    idx, rep = search.alg_poly_q2(inst, copies=2, backend="exact-circuit",
                                  rng=rng, shots=50)
    assert rep.shots == 50
    assert 0.0 <= rep.success_rate <= 1.0
    assert rep.measured_index == idx


def test_exact_and_sampled_roughly_agree():
    # the strict 3 sigma comparison lives in the acceptance suite
    inst = tiny_instance()
    _, exact = search.alg_poly_q2(inst, copies=2, backend="exact-circuit",
                                  rng=np.random.default_rng(2), shots=400)
    _, sampled = search.alg_poly_q2(inst, copies=2, backend="sampled",
                                    rng=np.random.default_rng(3), shots=400)
    assert abs(exact.success_rate - sampled.success_rate) < 0.15


def test_structured_predict_bounds_branches():
    inst = medium_instance()
    pred = search.structured_predict(inst, copies=18, trials=512,
                                     rng=np.random.default_rng(4))
    assert not pred.condition_violated
    periodic = [b for b in pred.branches if b.periodic]
    assert len(periodic) == 1 and periodic[0].index == inst.planted_index
    for b in pred.branches:
        if b.periodic:
            continue
        assert b.p_bad_mc <= b.p_bad_union + 3 * math.sqrt(
            max(b.p_bad_union * (1 - b.p_bad_union), 1e-9) / 512) + 0.05
    lo, hi = pred.interval()
    assert 0.0 <= lo <= hi <= 1.0


@pytest.mark.parametrize("copies, trials", [(0, 64), (-2, 64), (3, 0), (3, -1)])
def test_structured_predict_rejects_bad_counts(copies, trials):
    with pytest.raises(ValueError):
        search.structured_predict(tiny_instance(), copies=copies, trials=trials,
                                  rng=np.random.default_rng(0))


def test_branch_test_structured_and_sampled():
    inst = medium_instance()
    rng = np.random.default_rng(6)
    good = search.test(inst, inst.planted_index, 18, backend="structured")
    assert good.periodic is True
    assert good.outcome == 1
    bad = search.test(inst, (inst.planted_index + 1) % (1 << inst.m), 18,
                      backend="structured")
    assert bad.periodic is False
    assert bad.p_bad is not None and bad.p_bad < 0.01
    fired = search.test(inst, inst.planted_index, 18, backend="sampled", rng=rng)
    assert fired.outcome == 1


def test_branch_test_exact_restoration():
    inst = tiny_instance()
    rng = np.random.default_rng(7)
    res = search.test(inst, inst.planted_index, 2, backend="exact-circuit", rng=rng)
    assert res.outcome in (0, 1)
    assert res.restoration_distance is not None
    scr = search.screen(inst)
    bound = analysis.restoration_bound(inst.n, 2, scr.eps)
    for i in range(1 << inst.m):
        if i == inst.planted_index:
            continue
        dist = search.restoration_distance(inst.branch(i), inst.n, inst.l, 2)
        assert dist <= bound + 1e-9


def test_restoration_distance_zero_for_periodic_branch():
    inst = tiny_instance()
    dist = search.restoration_distance(inst.branch(inst.planted_index),
                                       inst.n, inst.l, 2)
    assert dist == pytest.approx(0.0, abs=1e-9)


def test_sim_q1_recovers_period():
    rng = np.random.default_rng(8)
    n = 6
    s = 0b101101
    f = simon.random_periodic_function(n, n, s, rng)
    g = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    res = search.sim_q1(f ^ g, g, 4, rng, n)
    assert res.period == s
    assert res.classical_online == 1 << n
    assert res.samples == 4 * n


def test_sim_q1_rejects_aperiodic():
    rng = np.random.default_rng(9)
    f = rng.permutation(1 << 6).astype(np.int64)
    res = search.sim_q1(f, np.zeros(1 << 6, dtype=np.int64), 4, rng, 6)
    assert res.period is None


def test_success_rate_counts_planted_hits():
    inst = tiny_instance()
    rng = np.random.default_rng(10)
    _, rep = search.alg_poly_q2(inst, copies=2, backend="sampled", rng=rng, shots=200)
    assert rep.success_rate is not None
    assert 0.0 <= rep.success_rate <= 1.0
    assert rep.recovery_queries == 200 * 2
    assert rep.counters.quantum_online == 2


def test_flags_c_too_small():
    inst = medium_instance()
    _, rep = search.alg_poly_q2(inst, copies=2, backend="structured")
    assert "c-too-small" in rep.flags


def test_structured_predict_pinned():
    # recorded with the per-row Gf2Basis loop; the batched rank must agree
    pred = search.structured_predict(medium_instance(), copies=7, trials=512,
                                     rng=np.random.default_rng(4))
    assert [b.p_bad_mc for b in pred.branches] == [
        0.484375, 0.451171875, 0.46875, 0.462890625, 0.431640625, 0.494140625,
        0.423828125, 0.427734375, 0.42578125, 0.4140625, 0.419921875, 0.42578125,
        None, 0.455078125, 0.46875, 0.435546875]


@pytest.mark.parametrize("n, copies", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 4), (4, 3)])
def test_rank_predicate_table_matches_basis_rule(n, copies):
    table = search._rank_predicate(n, copies)
    assert table.shape == (1 << (n * copies),)
    assert not table.flags.writeable
    mask = (1 << n) - 1
    for packed in range(1 << (n * copies)):
        basis = Gf2Basis(n)
        for k in range(copies):
            basis.insert((packed >> (k * n)) & mask)
        assert table[packed] == (1 if basis.rank < n else 0)


def test_exact_index_distribution_pinned():
    # the committed 11-qubit acceptance instance, recorded with the
    # callable rank predicate; the tabulated one must give the same bits
    inst = tiny_instance()
    r = search.error_budget(inst.n, inst.m, 2, inst.screened.eps).r
    got = search._exact_index_distribution(inst, 2, r)
    want = np.array([float.fromhex(h) for h in (
        "0x1.efffffffffffep-3", "0x1.3000000000000p-2",
        "0x1.7000000000000p-3", "0x1.2000000000000p-2")])
    assert np.array_equal(got, want)
