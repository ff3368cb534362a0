import ast
import itertools
import json
import math
import re
import tracemalloc
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from offline_simon import analysis, attacks, gf2, qsim, search, simon
from offline_simon.gf2 import Gf2Basis
from reference import (ancilla_index_distribution, apply_rank_phase, exact_check, exact_layout,
                       init_plus, label_tuple_index_distribution, label_tuple_marginal, measure,
                       prepare_database, restoration_distance)

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


@pytest.mark.parametrize("family, g", [([[0, 1, 2, 3], [3, 0, 4, 0]], [0, 0, 0, 0]),
                                      ([[0, 1, 2, 3], [3, 0, 1, 0]], [0, 0, 0, -1]),
                                      ([[0, 1, 2, 3], [3, 0, 1, 0]], [0, 5, 0, 0])],
                         ids=["family-wide", "g-negative", "g-wide"])
def test_search_instance_rejects_values_outside_l_bits(family, g):
    """The exact run keeps only the l low bits of every value (its phases
    are parities of v & value over l-bit labels v), so a wider or negative
    value is refused; every l-bit value is taken."""
    inst = search.SearchInstance(n=2, m=1, l=2, family=[[0, 1, 2, 3], [3, 0, 1, 0]], g=[3, 2, 1, 0])
    assert inst.branch(1).tolist() == [0, 2, 0, 0]
    with pytest.raises(ValueError, match=r"family and g values must be l-bit, in \[0, 2\^2\)"):
        search.SearchInstance(n=2, m=1, l=2, family=family, g=g)


def test_random_instance_screens_clean():
    for seed in range(6):
        inst = search.random_instance(4, 3, 4, np.random.default_rng(seed))
        scr = search.screen(inst)
        assert scr.periodic_indices == (inst.planted_index,)
        assert simon._periods(scr.collisions[inst.planted_index]) == (inst.planted_period,)
        assert not scr.condition_violated
        assert 0.0 <= scr.eps <= 0.5


@pytest.mark.parametrize("n, m, l", [(1, 0, 1), (2, 3, 2), (3, 6, 4), (5, 2, 6)])
def test_screen_keeps_each_branch_law_as_a_read_only_row(n, m, l):
    """Row i of the screen's weights and collisions is, bit for bit, what
    simon.distribution gives branch i alone, and neither stack can be
    written."""
    rng = np.random.default_rng(40 + n + m)
    inst = search.SearchInstance(n=n, m=m, l=l, family=rng.integers(0, 1 << l, size=(1 << m, 1 << n)),
                                 g=rng.integers(0, 1 << l, size=1 << n))
    scr = search.screen(inst)
    assert scr.weights.shape == scr.collisions.shape == (1 << m, 1 << n)
    for i in range(1 << m):
        weights, collisions = simon.distribution(inst.branch(i), n)
        assert scr.weights[i].tobytes() == weights.tobytes()
        assert scr.collisions[i].tobytes() == collisions.tobytes()
        assert (i in scr.periodic_indices) == bool(simon._periods(collisions))
    for stack in (scr.weights, scr.collisions):
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0] = 0.5


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


def test_a_wide_screen_holds_a_few_tables():
    """The screen of `attack em-q1 --n 16 --u 14`'s carve, (n, m) = (14, 2),
    traces at most 10 copies of its 512 KiB family table: its laws and
    collisions come from the equal-value pairs, one offset pass at a time,
    with no block of class indicators (the per-class transforms traced
    67 MiB)."""
    target = attacks.TARGETS["em-q1"]
    flags = dict.fromkeys(("n", "m", "u", "rate", "capacity", "rounds")) | {"n": 16, "u": 14}
    inst, u = target.draw(target.defaults(SimpleNamespace(**flags)), np.random.default_rng(3))
    carve = target.carve(inst, u, 0)
    assert (carve.n, carve.m) == (14, 2)
    tracemalloc.start()
    try:
        scr = search.screen(carve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scr.periodic_indices
    assert peak <= 10 * carve.family.nbytes


def test_error_budget_formulas():
    inst = medium_instance()
    _, rep = search.alg_poly_q2(inst, copies=18, backend="structured",
                                rng=np.random.default_rng(0))
    assert rep.eps == inst.screened.eps
    delta = 2.0 ** 3.5 * ((1 + rep.eps) / 2) ** 9
    r = rep.counters.grover_iterations
    assert rep.delta_bound == pytest.approx(delta, rel=1e-12)
    assert r == analysis.grover_iterations(4)
    assert rep.success_lower == analysis.qaa_success_lower(2.0**-4, r, rep.delta_bound)
    assert rep.success_lower >= 0.0


def test_error_budget_m0_has_no_amplification():
    inst = search.random_instance(4, 0, 4, np.random.default_rng(0))
    _, rep = search.alg_poly_q2(inst, copies=12, backend="structured",
                                rng=np.random.default_rng(0))
    assert rep.counters.grover_iterations == 0
    assert rep.ideal_success == 1.0
    assert rep.success_lower == 1.0


def test_counter_contract_q2():
    inst = medium_instance()
    _, rep = search.alg_poly_q2(inst, copies=18, backend="structured",
                                rng=np.random.default_rng(0))
    c = rep.counters
    assert (c.classical_online, c.quantum_online) == (0, 18)
    assert c.f_queries == 108
    assert c.grover_iterations == 3
    assert rep.acquisition == search.Q2_ACQUISITION


def test_counter_contract_q1():
    inst = medium_instance()
    _, rep = search.alg_exp_q1(inst, copies=18, backend="structured",
                               rng=np.random.default_rng(0))
    c = rep.counters
    assert (c.classical_online, c.quantum_online) == (64, 0)
    assert c.f_queries == 108
    assert c.grover_iterations == 3
    assert rep.acquisition == search.Q1_ACQUISITION


def test_online_counts_override():
    inst = medium_instance()
    _, rep = search.alg_exp_q1(inst, copies=18, backend="structured",
                               rng=np.random.default_rng(0), online_counts=(1 << 6, 0))
    assert rep.counters.classical_online == 64
    _, rep = search.alg_exp_q1(inst, copies=18, backend="structured",
                               rng=np.random.default_rng(0), online_counts=(5, 7))
    assert (rep.counters.classical_online, rep.counters.quantum_online) == (5, 7)


def test_structured_returns_planted_index():
    inst = medium_instance()
    good, rep = search.alg_poly_q2(inst, analysis.default_copies(inst.m, inst.n), "structured",
                                   np.random.default_rng(0))
    assert good == inst.planted_index
    assert rep.recovered == {"index": f"0x{inst.planted_index:x}",
                             "period": f"0x{inst.planted_period:x}"}
    assert rep.shots == 0


def test_report_json_schema_and_fields():
    inst = tiny_instance()
    rng = np.random.default_rng(0)
    _, rep = search.alg_poly_q2(inst, copies=2, backend="sampled", rng=rng, shots=3)
    doc = json.loads(json.dumps(rep.as_dict()))
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


@pytest.mark.parametrize("backend", search.BACKENDS)
def test_report_row_is_asdict_without_solution(backend):
    """A report's row is ``asdict`` of the report minus `solution`, key for
    key and in the same order, and owns its counters, flags and recovered:
    writing into them leaves the report as it was."""
    _, rep = search.alg_poly_q2(tiny_instance(), copies=2, backend=backend,
                                rng=np.random.default_rng(3), shots=2)
    want = asdict(rep)
    del want["solution"]
    row = rep.as_dict()
    assert row == want and list(row) == list(want)
    assert rep.recovered is not None
    row["counters"]["f_queries"] += 1
    row["flags"].append("edited")
    row["recovered"]["index"] = "edited"
    again = asdict(rep)
    del again["solution"]
    assert again == want


def test_report_deterministic():
    inst = tiny_instance()
    reps = []
    for _ in range(2):
        rng = np.random.default_rng(123)
        _, rep = search.alg_poly_q2(inst, copies=2, backend="sampled", rng=rng, shots=5)
        reps.append(json.dumps(rep.as_dict(), indent=2, sort_keys=True))
    assert reps[0] == reps[1]


def test_backend_validation():
    inst = tiny_instance()
    with pytest.raises(ValueError):
        search.alg_poly_q2(inst, analysis.default_copies(inst.m, inst.n), "magic",
                           np.random.default_rng(0))


@pytest.mark.parametrize("backend", ["nope", "Sampled"])
def test_an_unknown_backend_is_refused_by_name(backend):
    """check_capacity refuses a backend outside BACKENDS, as every search
    entry point does through it, with the same message."""
    want = re.escape(f"unknown backend {backend!r}")
    with pytest.raises(ValueError, match=want):
        search.check_capacity(2, 2, 2, 2, backend)
    inst = tiny_instance()
    with pytest.raises(ValueError, match=want):
        search.alg_poly_q2(inst, copies=2, backend=backend, rng=np.random.default_rng(0))


def test_exact_backend_respects_qubit_cap(monkeypatch):
    monkeypatch.setenv("OFFLINE_SIMON_QUBIT_CAP", "10")
    inst = tiny_instance()
    with pytest.raises(ValueError):
        # 2 + 2*(2+2) + 1 = 11 > 10
        search.alg_poly_q2(inst, copies=2, backend="exact-circuit",
                           rng=np.random.default_rng(0))


@pytest.mark.parametrize("value", ["abc", "2.5", ""])
def test_a_non_integer_qubit_cap_is_refused_by_name(monkeypatch, value):
    monkeypatch.setenv("OFFLINE_SIMON_QUBIT_CAP", value)
    with pytest.raises(ValueError, match="OFFLINE_SIMON_QUBIT_CAP must be an integer"):
        search.check_capacity(2, 2, 2, 2, "exact-circuit")
    search.check_capacity(2, 2, 2, 2, "sampled")   # only the exact backend reads the cap


def test_the_qubit_cap_is_defined_in_search_alone():
    # qsim checks its layouts against search's cap; search imports no qsim
    names = {"qubit_cap", "CAP_ENV_VAR", "DEFAULT_QUBIT_CAP"}
    owners = {}
    for path in sorted(Path(search.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node] if isinstance(node, ast.FunctionDef) else [])
            for target in targets:
                name = getattr(target, "id", getattr(target, "name", None))
                if name in names:
                    owners.setdefault(name, []).append(path.name)
        if path.name == "search.py":
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
            assert "qsim" not in imported
    assert owners == {name: ["search.py"] for name in names}
    assert qsim.qubit_cap is search.qubit_cap


@pytest.mark.parametrize("find", [search.alg_exp_q1, search.alg_poly_q2])
def test_sampled_search_refuses_a_shot_over_the_cell_cap(monkeypatch, find):
    # 201 iterations x 2^16 branches x 39 default copies: a 3.8 GiB block
    def no_shot(*args):
        raise AssertionError("a shot was drawn")

    monkeypatch.setattr(search, "_sampled_index_shot", no_shot)
    rng = np.random.default_rng(0)
    inst = search.SearchInstance(n=3, m=16, l=6,
                                 family=rng.integers(0, 64, size=(1 << 16, 8)),
                                 g=rng.integers(0, 64, size=8))
    with pytest.raises(ValueError, match=r"cap is 2\^26"):
        find(inst, analysis.default_copies(inst.m, inst.n), "sampled", rng)


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


@pytest.mark.parametrize("backend", search.BACKENDS)
@pytest.mark.parametrize("copies", [0, -1])
def test_search_rejects_nonpositive_copies(backend, copies):
    with pytest.raises(ValueError, match="copies must be at least 1"):
        search.alg_poly_q2(tiny_instance(), copies=copies, backend=backend,
                           rng=np.random.default_rng(0))


@pytest.mark.parametrize("backend", search.BACKENDS)
def test_search_rejects_zero_shots(backend):
    with pytest.raises(ValueError, match="shots must be at least 1"):
        search.alg_poly_q2(tiny_instance(), copies=2, backend=backend, shots=0,
                           rng=np.random.default_rng(0))


def test_branch_test_structured_and_sampled():
    """The period check of one branch as the structured and sampled
    backends make it: the screen's collision spectra classify the branch
    (with the union bound on p_bad when it is aperiodic), and a rank test
    on fresh samples fires on the periodic one."""
    inst = medium_instance()
    rng = np.random.default_rng(6)
    collisions = inst.screened.collisions
    assert simon._periods(collisions[inst.planted_index])
    bad = collisions[(inst.planted_index + 1) % (1 << inst.m)]
    assert not simon._periods(bad)
    assert analysis.p_bad_union_bound(bad, 18) < 0.01
    words = simon.sample(inst.branch(inst.planted_index), 18, rng, inst.n)
    assert gf2.batch_rank(words.reshape(1, -1), inst.n)[0] < inst.n


def test_branch_test_exact_restoration():
    inst = tiny_instance()
    rng = np.random.default_rng(7)
    state, dist = exact_check(inst.branch(inst.planted_index), inst.n, inst.l, 2)
    outcome, _ = measure(state, "b", rng)
    assert outcome in (0, 1)
    assert dist >= 0.0
    scr = search.screen(inst)
    bound = analysis.restoration_bound(inst.n, 2, scr.eps)
    for i in range(1 << inst.m):
        if i == inst.planted_index:
            continue
        dist = restoration_distance(inst.branch(i), inst.n, inst.l, 2)
        assert dist <= bound + 1e-9


def test_restoration_distance_zero_for_periodic_branch():
    inst = tiny_instance()
    dist = restoration_distance(inst.branch(inst.planted_index), inst.n, inst.l, 2)
    assert dist == pytest.approx(0.0, abs=1e-9)


def test_restoration_distance_holds_two_states():
    """The check keeps its state and the ideal copy; the distance between
    them is summed tile by tile, so no third state-sized array appears."""
    n, l, copies = 4, 4, 2  # 17 qubits: a 1 MiB state of float64
    inst = search.random_instance(n, 2, l, np.random.default_rng(4))
    table = inst.branch((inst.planted_index + 1) % 4)
    state_bytes = 8 << search.qubit_footprint(0, copies, n, l)
    restoration_distance(table, n, l, copies)  # builds the cached rank predicate
    tracemalloc.start()
    try:
        dist = restoration_distance(table, n, l, copies)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist > 0.0
    assert peak <= 2 * state_bytes + (1 << 20)


def _choice_loop_shot(instance, copies, r, rng):
    """The sampled shot as it drew before the one-block draw: one
    rng.choice(2^n, copies, p=law) call per aperiodic branch per iteration.
    Returns the measured index and the draws."""
    n = instance.n
    size = 1 << instance.m
    scr = instance.screened
    periodic = np.array([bool(simon._periods(row)) for row in scr.collisions], dtype=bool)
    aperiodic = np.nonzero(~periodic)[0]
    draws = np.empty((r, len(aperiodic), copies), dtype=np.int64)
    for j in range(r):
        for slot, i in enumerate(aperiodic):
            draws[j, slot] = rng.choice(1 << n, size=copies, p=scr.weights[i])
    fired = gf2.batch_rank(draws.reshape(r * len(aperiodic), copies), n) < n
    fired = fired.reshape(r, len(aperiodic))
    amp = np.full(size, 1.0 / math.sqrt(size))
    for j in range(r):
        signs = np.where(periodic, -1.0, 1.0)
        signs[aperiodic[fired[j]]] = -1.0
        amp = amp * signs
        amp = 2.0 * amp.mean() - amp
    probs = amp * amp
    probs = probs / probs.sum()
    return int(rng.choice(size, p=probs)), draws.reshape(r * len(aperiodic), copies)


def test_shot_draws_match_the_choice_loop(monkeypatch):
    """The one-block draw gives the words, the index and the generator state
    of the per-branch rng.choice loop, zero-weight words included."""
    seen = []

    def spy_rank(words, n):
        seen.append(words.copy())
        return gf2.batch_rank(words, n)

    monkeypatch.setattr(simon, "batch_rank", spy_rank)
    rng = np.random.default_rng(2026)
    zero_weight = drawn = 0
    for _ in range(60):
        n, m = int(rng.integers(1, 6)), int(rng.integers(0, 5))
        l = int(rng.integers(1, n + 2))
        inst = search.SearchInstance(
            n=n, m=m, l=l, family=rng.integers(0, 1 << l, size=(1 << m, 1 << n)),
            g=rng.integers(0, 1 << l, size=1 << n))
        copies, r = int(rng.integers(1, 9)), int(rng.integers(0, 5))
        seed = int(rng.integers(1 << 32))
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        seen.clear()
        got = search._sampled_index_shot(inst, copies, r, got_rng)
        want, want_draws = _choice_loop_shot(inst, copies, r, want_rng)
        assert got == want
        assert len(seen) == 1 and np.array_equal(seen[0], want_draws)
        assert got_rng.random() == want_rng.random()
        scr = inst.screened
        zero_weight += int((np.delete(scr.weights, scr.periodic_indices, axis=0) == 0.0).sum())
        drawn += want_draws.size
    assert zero_weight > 0 and drawn > 1000


def test_shot_holds_one_block_of_its_draws():
    """A shot of 5.1M rank-sample cells (n = 3, m = 12, copies 25) draws and
    rank-tests them a block at a time: its peak is a few blocks' arrays and
    the stacked laws, where holding every uniform and word took 16 B a
    cell (78 MiB)."""
    rng = np.random.default_rng(14)
    n, m, copies = 3, 12, 25
    inst = search.SearchInstance(n=n, m=m, l=n, family=rng.integers(0, 1 << n, size=(1 << m, 1 << n)),
                                 g=np.zeros(1 << n, dtype=np.int64))
    r = analysis.grover_iterations(m)
    aperiodic = (1 << m) - len(inst.screened.periodic_indices)
    assert r * aperiodic * copies >= 1 << 22
    tracemalloc.start()
    try:
        index = search._sampled_index_shot(inst, copies, r, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 <= index < 1 << m
    assert peak <= 6 << 20


def test_sim_q1_recovers_period():
    rng = np.random.default_rng(8)
    n = 6
    s = 0b101101
    f = simon.random_periodic_function(n, n, s, rng)
    g = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    online = f ^ g
    # Q1: the codebook of the online function, xored with g, then Simon
    res = simon.recover(online ^ g, 4 * n, rng, n)
    assert res.period == s


def test_sim_q1_rejects_aperiodic():
    rng = np.random.default_rng(9)
    f = rng.permutation(1 << 6).astype(np.int64)
    g = np.zeros(1 << 6, dtype=np.int64)
    res = simon.recover(f ^ g, 4 * 6, rng, 6)
    assert res.period is None


def test_success_rate_counts_planted_hits():
    inst = tiny_instance()
    rng = np.random.default_rng(10)
    _, rep = search.alg_poly_q2(inst, copies=2, backend="sampled", rng=rng, shots=200)
    assert rep.success_rate is not None
    assert 0.0 <= rep.success_rate <= 1.0
    assert rep.recovery_queries == 200 * 2
    assert rep.counters.quantum_online == 2


def test_search_recovers_one_period_whatever_the_shot_count(monkeypatch):
    """Five shots, one recovery: on the first shot's branch, and the report's
    `recovered` reads the solution it keeps; the ledger still charges one
    recovery's copies per shot."""
    calls = []
    recover = simon.recover

    def spy(h, *args, **kwargs):
        calls.append(np.array(h))
        return recover(h, *args, **kwargs)

    monkeypatch.setattr(simon, "recover", spy)
    inst = medium_instance()
    idx, rep = search.alg_poly_q2(inst, copies=8, backend="sampled",
                                  rng=np.random.default_rng(3), shots=5)
    assert len(calls) == 1
    assert np.array_equal(calls[0], inst.branch(idx))
    assert rep.recovered["index"] == f"0x{idx:x}"
    assert rep.recovered.get("period") == (
        None if rep.solution.period is None else f"0x{rep.solution.period:x}")
    assert rep.recovery_queries == 5 * 8
    assert "solution" not in rep.as_dict()


def test_flags_c_too_small():
    inst = medium_instance()
    _, rep = search.alg_poly_q2(inst, copies=2, backend="structured",
                                rng=np.random.default_rng(0))
    assert "c-too-small" in rep.flags


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


@pytest.mark.parametrize("l, copies", [(1, 8), (2, 5), (3, 3), (11, 2)])
def test_label_blocks_count_every_tuple_once(l, copies):
    # (11, 2) is the widest label set under the 26-qubit cap, at n = m = 1
    labels, counts = search._label_blocks(l, copies)
    blocks = math.comb((1 << l) + copies - 1, copies)
    assert labels.shape == (blocks, copies) and counts.shape == (blocks,)
    assert not labels.flags.writeable and not counts.flags.writeable
    assert int(counts.sum()) == 1 << (l * copies)
    assert (np.diff(labels, axis=1) >= 0).all()


@pytest.mark.parametrize("l, copies", [(1, 1), (2, 3), (3, 2), (1, 5)])
def test_label_blocks_are_the_multisets_with_their_tuple_counts(l, copies):
    labels, counts = search._label_blocks(l, copies)
    want = Counter(tuple(sorted(t)) for t in itertools.product(range(1 << l), repeat=copies))
    assert [tuple(row) for row in labels.tolist()] == sorted(want)
    assert counts.tolist() == [want[key] for key in sorted(want)]


def test_label_blocks_build_within_twice_their_size():
    # (11, 2), the widest labels under the qubit cap: 48 MiB of labels and
    # counts (52 MiB traced at the peak)
    search._label_blocks.cache_clear()
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        labels, counts = search._label_blocks(11, 2)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (labels.nbytes + counts.nbytes)


@pytest.mark.parametrize("make, copies, r", [
    (tiny_instance, 2, 1),
    (lambda: search.random_instance(3, 2, 3, np.random.default_rng([5, 2])), 3, 1),
    (lambda: search.random_instance(3, 3, 3, np.random.default_rng(1)), 2, 2),
    (lambda: search.random_instance(2, 4, 2, np.random.default_rng(2)), 3, 3),
    (lambda: search.random_instance(3, 2, 3, np.random.default_rng(7)), 1, 1),
], ids=["2-2-2-c2", "3-2-3-c3", "3-3-3-c2-r2", "2-4-2-c3-r3", "3-2-3-c1"])
def test_label_blocks_match_every_label_tuple(make, copies, r):
    """One state per label multiset, weighted by its tuple count, gives the
    marginal of every label tuple run at unit weight."""
    inst = make()
    got = search._exact_index_distribution(inst, copies, r)
    want = label_tuple_index_distribution(inst, copies, r)
    assert np.abs(got - want).max() <= 1e-15


def test_exact_index_distribution_pinned():
    # the committed 11-qubit acceptance instance: the circuit's exact
    # marginal is 31/128, 38/128, 23/128, 36/128, and the phase form, with
    # no 1/sqrt(2) scaling of an output qubit, gives those bits exactly
    inst = tiny_instance()
    r = analysis.grover_iterations(inst.m)
    got = search._exact_index_distribution(inst, 2, r)
    assert np.array_equal(got, np.array([31, 38, 23, 36]) / 128)


def test_exact_run_is_the_same_bits_chunk_by_chunk(monkeypatch):
    # a 19-qubit circuit's 35 label blocks, whole and three at a time (the
    # last chunk two): every block evolves alone, and the tuple-weighted sum
    # runs once over all of them
    inst = search.random_instance(2, 2, 2, np.random.default_rng(39))
    copies = 4
    r = analysis.grover_iterations(inst.m)
    whole = search._exact_index_distribution(inst, copies, r)
    monkeypatch.setattr(search, "_BLOCK_CELLS", 3 << (inst.m + copies * inst.n))
    assert np.array_equal(search._exact_index_distribution(inst, copies, r), whole)


@pytest.mark.parametrize("copies, r", [(3, 1), (3, 2), (4, 1), (4, 3)])
def test_zero_labels_leave_their_blocks(copies, r):
    """A block with z zero labels has the norms of the (copies - z)-copy
    run on its other labels, and of the simulator's run of the whole
    tuple, zero-label copies and all."""
    inst = search.random_instance(2, 2, 2, np.random.default_rng(11))
    labels = search._label_blocks(inst.l, copies)[0]
    norms = search._block_norms(inst, copies, r)
    fewer = {z: dict(zip(map(tuple, search._label_blocks(inst.l, copies - z)[0].tolist()),
                         search._block_norms(inst, copies - z, r)))
             for z in range(1, copies)}
    checked = 0
    for row, got in zip(labels.tolist(), norms):
        z = row.count(0)
        if 0 < z < copies:
            assert np.abs(got - fewer[z][tuple(row[z:])]).max() <= 1e-15
            assert np.abs(got - label_tuple_marginal(inst, row, r)).max() <= 1e-15
            checked += 1
    assert checked == len(labels) - math.comb(copies + 2, copies) - 1


@pytest.mark.parametrize("m", [1, 2, 3])
def test_all_zero_block_is_uniform(m):
    # no copy takes a phase and every check's sign is -1: each diffusion
    # leaves the uniform index state as it is (at odd m up to the rounding
    # of its amplitude 2^(-m/2))
    inst = search.random_instance(2, m, 2, np.random.default_rng(m))
    norms = search._block_norms(inst, 3, 2)
    np.testing.assert_allclose(norms[0], 2.0 ** -m, rtol=2 * np.finfo(float).eps, atol=0)


def test_one_bit_labels_match_every_label_tuple():
    # l = 1: of the copies + 1 blocks only the all-ones one keeps every copy
    inst = search.SearchInstance(n=2, m=2, l=1,
                                 family=np.random.default_rng(3).integers(0, 2, size=(4, 4)),
                                 g=np.random.default_rng(4).integers(0, 2, size=4))
    for copies, r in [(3, 1), (5, 2)]:
        got = search._exact_index_distribution(inst, copies, r)
        assert np.abs(got - label_tuple_index_distribution(inst, copies, r)).max() <= 1e-15


def test_only_zero_free_blocks_transform_every_copy(monkeypatch):
    # the benchmark shape: 84 of the 120 label blocks hold no zero label,
    # and only they reach the transform at 2^(copies * n) cells
    inst = search.random_instance(3, 2, 3, np.random.default_rng([1, 2]))
    copies = 3
    r = analysis.grover_iterations(inst.m)
    rows = Counter()
    fwht_inplace = gf2.fwht_inplace

    def spy(a, size, right=1):
        rows[size] += a.size // size
        return fwht_inplace(a, size, right)

    monkeypatch.setattr(gf2, "fwht_inplace", spy)
    search._exact_index_distribution(inst, copies, r)
    checks = 2 * r - 1  # transforms per block: one per check, two in each later one
    assert rows[1 << (copies * inst.n)] == 84 * (1 << inst.m) * checks


@pytest.mark.parametrize("l", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", [(8,), (4, 8)], ids=["g", "family"])
def test_parity_table_is_the_popcount_parity(shape, l):
    table = np.random.default_rng(l).integers(0, 1 << l, size=shape)
    got = search._parity_table(table, l)
    want = [bin(int(y) & v).count("1") % 2 for y in table.reshape(-1) for v in range(1 << l)]
    assert got.dtype == np.int64
    assert np.array_equal(got, want)


def test_exact_run_is_real_phases_only(monkeypatch):
    """The exact backend permutes no amplitude and transforms only real
    arrays."""
    def refuse(*args, **kwargs):
        raise AssertionError("the exact run took a permutation")

    dtypes = []
    fwht_inplace = gf2.fwht_inplace

    def spy(a, size, right=1):
        dtypes.append(a.dtype)
        return fwht_inplace(a, size, right)

    monkeypatch.setattr(qsim, "_xor_table", refuse)
    monkeypatch.setattr(gf2, "fwht_inplace", spy)
    inst = tiny_instance()
    search.alg_poly_q2(inst, copies=2, backend="exact-circuit", rng=np.random.default_rng(0))
    assert dtypes and all(dtype == np.float64 for dtype in dtypes)


def _unmarked_instance():
    rng = np.random.default_rng(0)
    inst = search.SearchInstance(n=3, m=2, l=3, family=rng.integers(0, 8, size=(4, 8)),
                                 g=rng.integers(0, 8, size=8))
    assert inst.screened.periodic_indices == ()
    return inst


def _multi_marked_instance():
    rng = np.random.default_rng(1)
    g = rng.integers(0, 8, size=8)
    family = rng.integers(0, 8, size=(4, 8))
    family[1] = family[2] = simon.random_periodic_function(3, 3, 0b101, rng) ^ g
    inst = search.SearchInstance(n=3, m=2, l=3, family=family, g=g)
    assert inst.screened.multi_marked
    return inst


@pytest.mark.parametrize("backend", ["structured", "sampled"])
def test_two_periodic_branches_flag_multi_marked(backend):
    inst = _multi_marked_instance()
    assert inst.screened.periodic_indices == (1, 2)
    index, rep = search.alg_poly_q2(inst, analysis.default_copies(inst.m, inst.n), backend,
                                    np.random.default_rng(0))
    doc = rep.as_dict()
    assert "multi-marked" in doc["flags"] and doc["condition_violated"] is True
    if backend == "structured":
        # no one branch to name: no index, no recovery
        assert index is None and doc["measured_index"] is None and doc["recovered"] is None
    else:
        assert doc["measured_index"] == index


@pytest.mark.parametrize("make, copies, r", [
    (lambda: search.random_instance(3, 2, 3, np.random.default_rng([5, 2])), 3, 1),
    (tiny_instance, 2, 1),
    (lambda: search.random_instance(3, 3, 3, np.random.default_rng(1)), 2, 2),
    (lambda: search.random_instance(2, 4, 2, np.random.default_rng(2)), 3, 3),
    (lambda: search.random_instance(3, 1, 2, np.random.default_rng(3)), 4, 1),
    (_unmarked_instance, 2, 1),
    (_multi_marked_instance, 2, 1),
    (lambda: search.random_instance(3, 2, 3, np.random.default_rng(7)), 1, 1),
], ids=["3-2-3-c3", "2-2-2-c2", "3-3-3-c2-r2", "2-4-2-c3-r3", "3-1-2-c4", "unmarked",
        "multi-marked", "3-2-3-c1"])
def test_phase_form_matches_the_ancilla_circuit(make, copies, r):
    """Folding the output bit into a phase (phase kickback off |->) leaves
    the index marginal of the circuit that simulates the bit."""
    inst = make()
    got = search._exact_index_distribution(inst, copies, r)
    want = ancilla_index_distribution(inst, copies, r)
    assert np.abs(got - want).max() <= 1e-12


def test_phase_check_damage_within_the_doubled_budget():
    """On each aperiodic branch the phase-form check moves the database by
    at most twice the bit-flip restoration bound, the budget analysis names for
    the phase-flip form."""
    inst = tiny_instance()
    n, l, copies = inst.n, inst.l, 2
    bound = analysis.restoration_bound(n, copies, inst.screened.eps)
    for i in range(1 << inst.m):
        if i == inst.planted_index:
            continue
        state = init_plus(exact_layout(n, l, copies))
        prepare_database(state, inst.branch(i), copies)
        ideal = state.copy()
        apply_rank_phase(state, n, copies)
        assert qsim.distance(state, ideal) <= 2 * bound + 1e-9
