import inspect
import json
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import jsonschema
import numpy as np
import pytest

from offline_simon import analysis, attacks, cli, primitives, search, simon
from offline_simon.attacks import DegenerateInstanceError
from offline_simon.primitives import (
    BeetleToyInstance,
    ChaskeyToyInstance,
    EvenMansourInstance,
    FxInstance,
    IterFxInstance,
    RelatedKeyOracle,
    random_cipher_family,
    random_cipher_seed,
    random_permutation,
)
from reference import (exhaustive_ifx_search, exhaustive_related_key_search,
                       scalar_carve_family)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text())

REDRAWS = 30


def run_redrawing(build, attack, seed):
    """Redraw the instance when the derived family fails the screen, like a
    real run would pick a different data window."""
    rng = np.random.default_rng([seed, 0])
    for _ in range(REDRAWS):
        inst = build(rng)
        try:
            return attack(inst, rng)
        except DegenerateInstanceError:
            continue
    raise AssertionError("no clean instance found")


def build_em(rng, n=7):
    return EvenMansourInstance(
        n=n, perm=random_permutation(n, rng),
        k1=int(rng.integers(0, 1 << n)), k2=int(rng.integers(0, 1 << n)))


def build_fx(rng, n=4, m=3, k_in_lo=2):
    return FxInstance(
        n=n, m=m, family=random_cipher_family(m, n, rng),
        k=int(rng.integers(0, 1 << m)),
        k_in=int(rng.integers(k_in_lo, 1 << n)),
        k_out=int(rng.integers(0, 1 << n)))


def build_chaskey(rng, n=8):
    return ChaskeyToyInstance(
        n=n, perm=random_permutation(n, rng),
        k=int(rng.integers(0, 1 << n)), k1=int(rng.integers(0, 1 << n)))


def build_beetle(rng, rate=6, capacity=4):
    return BeetleToyInstance(
        rate=rate, capacity=capacity, perm=random_permutation(rate + capacity, rng),
        k1=int(rng.integers(0, 1 << rate)), k2=int(rng.integers(0, 1 << capacity)))


def build_related_key(rng, kw=6, n=6, u=2):
    return RelatedKeyOracle(
        n=n, m=kw, seed=random_cipher_seed(rng),
        k=int(rng.integers(1 << (kw - u), 1 << kw)),
        msg=int(rng.integers(0, 1 << n)))


def build_slide(rng, n=5, m=3):
    return IterFxInstance(
        n=n, m=m, family=random_cipher_family(m, n, rng),
        k1=int(rng.integers(0, 1 << n)), k2=int(rng.integers(0, 1 << m)), rounds=3)


def expect_majority(reports, threshold):
    verified = sum(1 for r in reports if r.verified)
    assert verified >= threshold, f"only {verified}/{len(reports)} verified"
    winner = next(r for r in reports if r.verified)
    assert winner.planted_match
    assert not winner.search_report.condition_violated
    return winner


def test_em_q1_attack():
    reports = [
        run_redrawing(build_em, lambda i, r: attacks.attack_em_q1(i, 3, None, "sampled", r), seed)
        for seed in range(10)
    ]
    winner = expect_majority(reports, 6)
    assert winner.d_online == 8
    assert winner.search_report.counters.classical_online == 8
    assert winner.search_report.counters.quantum_online == 0
    assert winner.tradeoff["identity_exact"]
    assert winner.tradeoff["identity_floor_consistent"]
    jsonschema.validate(winner.as_dict(), SCHEMA)


def test_em_q1_recovers_low_k1_with_zero_high_part():
    # the periodic branch collapses to a constant; recovery still works
    rng = np.random.default_rng(77)
    inst = EvenMansourInstance(n=7, perm=random_permutation(7, rng), k1=5, k2=81)
    rep = attacks.attack_em_q1(inst, 3, None, "sampled", rng)
    assert rep.verified
    assert rep.keys == {"k1": 5, "k2": 81}


def test_fx_q2_attack():
    reports = [
        run_redrawing(build_fx, lambda i, r: attacks.attack_fx_q2(i, None, "sampled", r), seed)
        for seed in range(12)
    ]
    winner = expect_majority(reports, 7)
    assert winner.d_online == 4
    assert winner.search_report.counters.classical_online == 0
    assert winner.search_report.counters.quantum_online > 0
    assert winner.tradeoff["fx_queries_online"] == (
        2 * winner.search_report.counters.quantum_online + 4)
    assert winner.notes == ["each paired query costs two FX calls"]


def test_fx_q1_attack():
    reports = [
        run_redrawing(
            lambda r: build_fx(r, n=6, m=3, k_in_lo=8),
            lambda i, r: attacks.attack_fx_q1(i, 3, None, "sampled", r), seed)
        for seed in range(10)
    ]
    winner = expect_majority(reports, 7)
    assert winner.d_online == 8
    assert winner.tradeoff["identity_exact"]
    assert winner.tradeoff["identity_floor_consistent"]
    assert winner.tradeoff["dt2_exact_log2"] == 9


def test_chaskey_attack():
    reports = [
        run_redrawing(build_chaskey,
                      lambda i, r: attacks.attack_chaskey(i, 3, None, "sampled", r), seed)
        for seed in range(8)
    ]
    winner = expect_majority(reports, 5)
    assert winner.d_online % 8 == 0
    assert winner.tradeoff["identity_exact"]


def test_chaskey_attack_zero_keys():
    rng = np.random.default_rng(13)
    inst = ChaskeyToyInstance(n=8, perm=random_permutation(8, rng), k=0, k1=0)
    rep = attacks.attack_chaskey(inst, 3, None, "sampled", rng)
    assert rep.verified
    assert rep.keys == {"k": 0, "k1": 0}


def test_beetle_attack():
    reports = [
        run_redrawing(build_beetle,
                      lambda i, r: attacks.attack_beetle(i, 3, None, "sampled", r), seed)
        for seed in range(8)
    ]
    winner = expect_majority(reports, 5)
    assert winner.d_online == 8
    assert winner.tradeoff["identity_exact"]
    jsonschema.validate(winner.as_dict(), SCHEMA)


def test_beetle_attack_constant_branch():
    rng = np.random.default_rng(21)
    inst = BeetleToyInstance(rate=6, capacity=4, perm=random_permutation(10, rng),
                             k1=0b101000, k2=9)
    rep = attacks.attack_beetle(inst, 3, None, "sampled", rng)
    assert rep.verified
    assert rep.keys == {"k1": 0b101000, "k2": 9}


def test_related_key_attack():
    reports = [
        run_redrawing(build_related_key,
                      lambda i, r: attacks.attack_related_key(i, 2, None, "sampled", r), seed)
        for seed in range(10)
    ]
    winner = expect_majority(reports, 6)
    assert winner.d_online == 4
    assert winner.tradeoff["identity_exact"]


def test_related_key_matches_exhaustive():
    for seed in (3, 4, 5):
        rng = np.random.default_rng([seed, 1])
        oracle = build_related_key(rng)
        hits = exhaustive_related_key_search(oracle)
        assert oracle.k in hits
        try:
            rep = attacks.attack_related_key(oracle, 2, None, "sampled", rng)
        except DegenerateInstanceError:
            continue
        if rep.verified:
            assert rep.keys["k"] in hits


def test_slide_attack():
    reports = [
        run_redrawing(build_slide,
                      lambda i, r: attacks.attack_slide_ifx(i, None, "sampled", r), seed)
        for seed in range(8)
    ]
    winner = expect_majority(reports, 5)
    assert winner.d_online == 32
    assert winner.search_report.counters.classical_online == 32
    assert winner.search_report.counters.quantum_online == 0
    assert winner.tradeoff["codebook"] is True


def test_slide_matches_exhaustive():
    rng = np.random.default_rng([9, 1])
    for _ in range(REDRAWS):
        inst = build_slide(rng)
        try:
            rep = attacks.attack_slide_ifx(inst, None, "sampled", rng)
        except DegenerateInstanceError:
            continue
        break
    else:
        raise AssertionError("no clean instance found")
    hits = exhaustive_ifx_search(inst)
    assert (inst.k1, inst.k2) in hits
    if rep.verified:
        assert (rep.keys["k1"], rep.keys["k2"]) in hits


def test_fx_q2_rejects_degenerate_k_in():
    rng = np.random.default_rng(0)
    fam = random_cipher_family(3, 4, rng)
    for k_in in (0, 1):
        inst = FxInstance(n=4, m=3, family=fam, k=2, k_in=k_in, k_out=7)
        with pytest.raises(DegenerateInstanceError):
            attacks.fx_q2_search_instance(inst)


def test_fx_q1_rejects_zero_window_part():
    rng = np.random.default_rng(0)
    fam = random_cipher_family(3, 6, rng)
    inst = FxInstance(n=6, m=3, family=fam, k=2, k_in=5, k_out=7)
    # u = 3 leaves a 3-bit window part, and 5 >> 3 == 0
    with pytest.raises(DegenerateInstanceError, match="planted period is zero"):
        attacks.run_attack(attacks.FX_Q1, inst, 3, None, "structured", rng)


def test_related_key_rejects_zero_high_part():
    rng = np.random.default_rng(0)
    oracle = RelatedKeyOracle(n=6, m=6, seed=random_cipher_seed(rng), k=7, msg=0)
    with pytest.raises(DegenerateInstanceError):
        attacks.run_attack(attacks.RELATED_KEY, oracle, 2, None, "structured", rng)


def test_related_key_window_defaults_to_a_third_of_the_key(tmp_path):
    """Without --u, related-key queries a 2^3 window at key width 9: the
    window's one default is `RELATED_KEY.defaults`."""
    out = tmp_path / "run.json"
    assert cli.main(["attack", "related-key", "--n", "9", "--trials", "1",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["parameters"]["u"] == 3
    assert doc["trials"][0]["D"] == 1 << 3
    assert doc["trials"][0]["counters"]["classical_online"] == 1 << 3


def test_window_width_validation():
    """Every chosen-window carve rejects, with one message, a window that
    does not fit its input."""
    rng = np.random.default_rng(0)
    cases = {
        "em-q1": (build_em(rng), 7),
        "fx-q1": (build_fx(rng, n=6), 6),
        "chaskey": (build_chaskey(rng), 8),
        "beetle": (build_beetle(rng), 6),
        "related-key": (build_related_key(rng), 6),
    }
    for kind, (inst, widest) in cases.items():
        for u in (0, widest + 1):
            with pytest.raises(ValueError, match=r"need 1 <= u <= n"):
                attacks.TARGETS[kind].carve(inst, u, 0)


# CLI sizes per kind: the defaults, then a second shape
CARVE_SIZES = {
    "em-q1": ({}, {"n": 5, "u": 2}),
    "fx-q2": ({}, {"n": 5, "m": 2}),
    "fx-q1": ({}, {"n": 5, "m": 2, "u": 2}),
    "chaskey": ({}, {"n": 6, "u": 4}),
    "beetle": ({}, {"rate": 4, "capacity": 3, "u": 2}),
    "related-key": ({}, {"n": 7, "u": 2}),
    "slide-ifx": ({}, {"n": 4, "m": 2, "rounds": 2}),
}


@pytest.mark.parametrize("lazy", [False, True], ids=["full", "lazy"])
@pytest.mark.parametrize("kind", sorted(CARVE_SIZES))
def test_carved_family_is_the_call_by_call_family(kind, lazy):
    """Each carve's gather from the permutation, the family's tables or the
    related-key column gives the family one primitive call per entry gives,
    as a C-ordered int64 array of its own. A draw leaves its cipher family
    undrawn; its table is drawn before the carve, or (lazy) by the carve's
    own first read, as in a trial."""
    target = attacks.TARGETS[kind]
    rng = np.random.default_rng(sorted(CARVE_SIZES).index(kind))
    for sizes in CARVE_SIZES[kind]:
        flags = {f: sizes.get(f) for f in ("n", "m", "u", "rate", "capacity", "rounds")}
        p = target.defaults(SimpleNamespace(**flags))
        for _ in range(3):
            inst, *rest = target.draw(p, rng)
            u = rest[0] if rest else None
            if hasattr(inst, "family"):
                assert "_table" not in vars(inst.family)
                if not lazy:
                    inst.family.tables()
            family = target.carve(inst, u, 0).family
            source = (inst.perm.table if hasattr(inst, "perm") else inst.column
                      if hasattr(inst, "column") else inst.family.tables())
            assert family.dtype == np.int64 and family.flags.c_contiguous
            assert not np.shares_memory(family, source)
            assert np.array_equal(family, scalar_carve_family(kind, inst, u))


@pytest.mark.parametrize("kind", ["fx-q1", "slide-ifx"])
def test_a_trial_draws_its_cipher_family_once(monkeypatch, kind):
    """Each key proposal is checked on a copy re-keyed with
    dataclasses.replace, which shares the family and so its table: a trial
    shuffles the table once, at the carve's first read."""
    target = attacks.TARGETS[kind]
    p = target.defaults(SimpleNamespace(n=None, m=None, u=None, rounds=None))
    seeds = []
    real = np.random.default_rng

    def capture(seed=None):
        if isinstance(seed, np.random.SeedSequence):
            seeds.append(list(seed.entropy))
        return real(seed)

    monkeypatch.setattr(np.random, "default_rng", capture)
    rng = real(3)
    inst, *rest = target.draw(p, rng)
    assert seeds == []
    report = getattr(attacks, target.entry)(inst, *rest, None, "sampled", rng)
    assert report.verified
    assert seeds == [[inst.family.seed, p["m"], p["n"]]]


def carve_cases(kind):
    """(instance, u, carve) at each CARVE_SIZES shape of a kind; carves do
    not screen, so every draw carves."""
    target = attacks.TARGETS[kind]
    rng = np.random.default_rng(sorted(CARVE_SIZES).index(kind))
    for sizes in CARVE_SIZES[kind]:
        flags = {f: sizes.get(f) for f in ("n", "m", "u", "rate", "capacity", "rounds")}
        inst, *rest = target.draw(target.defaults(SimpleNamespace(**flags)), rng)
        u = rest[0] if rest else None
        yield inst, u, target.carve(inst, u, 0)


def _planted_window_split(kind, inst, u):
    """(guess index, branch period, family rows) the window carve of `kind`
    plants, from the instance's keys by the attack's own derivation."""
    if kind == "beetle":
        cpty = inst.capacity
        return (((inst.k1 >> u) << cpty) | inst.k2, inst.k1 & ((1 << u) - 1),
                1 << (inst.rate - u + cpty))
    if kind == "related-key":
        m = inst.m - u
        return inst.k & ((1 << m) - 1), inst.k >> m, 1 << m
    w = inst.n - u
    if kind == "fx-q1":
        return (inst.k << w) | (inst.k_in & ((1 << w) - 1)), inst.k_in >> w, 1 << (inst.m + w)
    key = inst.k1 if kind == "em-q1" else inst.perm(inst.k) ^ inst.k1  # chaskey: kappa1
    return key & ((1 << w) - 1), key >> w, 1 << w


def test_builders_plant_the_key_split_each_attack_recovers():
    """Each chosen-window carve plants the key split its attack derives, at
    both CARVE_SIZES shapes, and its planted branch has the planted period;
    the slide carve plants (1, k1) at the round key."""
    for kind in ("em-q1", "fx-q1", "chaskey", "beetle", "related-key"):
        for inst, u, s in carve_cases(kind):
            index, period, rows = _planted_window_split(kind, inst, u)
            assert (s.planted_index, s.planted_period) == (index, period), kind
            assert (s.n, s.u) == (u, u) and s.family.shape == (rows, 1 << u)
            branch = s.branch(index)
            assert np.array_equal(branch, branch[np.arange(1 << u) ^ period])

    slide = build_slide(np.random.default_rng(31))
    s = attacks.slide_search_instance(slide)
    assert s.planted_index == slide.k2
    assert s.planted_period == (1 << slide.n) | slide.k1
    assert s.n == slide.n + 1
    assert int(s.g.max()) == 0


@pytest.mark.parametrize("kind", sorted(CARVE_SIZES))
def test_assembling_the_planted_split_proposes_the_keys(kind):
    """The planted (index, period) pair assembles into a key proposal that
    answers like the instance on its verification queries."""
    target = attacks.TARGETS[kind]
    for inst, u, s in carve_cases(kind):
        cut = attacks.Cut(inst, s, 0)
        proposals = target.assemble(cut, s.planted_index, s.planted_period)
        queries = target.codebook(inst, np.random.default_rng(2))
        assert any(attacks._agrees(inst, keys, *queries) for keys in proposals)


# instance class -> the names of its key fields
KEY_FIELDS = {cls: keys for cls, _, keys in primitives._KINDS.values()}


@pytest.mark.parametrize("kind", sorted(attacks.TARGETS))
def test_agrees_fails_on_one_differing_answer(kind):
    """`_agrees` passes the true keys on the verification queries, and fails
    a key one bit off as soon as one query's answer differs, whether that
    query comes first or last among queries whose answers agree."""
    target = attacks.TARGETS[kind]
    flags = dict.fromkeys(("n", "m", "u", "rate", "capacity", "rounds"))
    inst = target.draw(target.defaults(SimpleNamespace(**flags)), np.random.default_rng(3))[0]
    queries = target.codebook(inst, np.random.default_rng(4))
    keys = {name: getattr(inst, name) for name in KEY_FIELDS[type(inst)]}
    assert attacks._agrees(inst, keys, *queries)
    assert not attacks._agrees(inst, None, *queries)
    for name in keys:
        off = {**keys, name: keys[name] ^ 1}
        differ = replace(inst, **off)(*queries) != inst(*queries)
        same, (one, *_) = np.nonzero(~differ)[0], np.nonzero(differ)[0]
        assert attacks._agrees(inst, off, *(q[same] for q in queries))
        for picked in ([one, *same], [*same, one]):
            assert not attacks._agrees(inst, off, *(q[picked] for q in queries))


def test_chaskey_draws_its_pairs_whatever_the_outcome():
    """The ten verification pairs are drawn from the trial rng after the
    search whether or not a key was found, so the generator's next output
    does not depend on the outcome."""
    inst = build_chaskey(np.random.default_rng(17))
    pairs = attacks.CHASKEY.codebook(inst, np.random.default_rng(1))
    want = np.random.default_rng(1).integers(0, 1 << inst.n, size=(10, 2))
    assert np.array_equal(np.stack(pairs, axis=1), want)
    found_rng, missed_rng = np.random.default_rng(5), np.random.default_rng(5)
    found = attacks.run_attack(attacks.CHASKEY, inst, 3, None, "structured", found_rng)
    nothing = replace(attacks.CHASKEY, assemble=lambda cut, i, period: [])
    missed = attacks.run_attack(nothing, inst, 3, None, "structured", missed_rng)
    assert found.verified and missed.keys is None and not missed.verified
    assert found_rng.random() == missed_rng.random()


def test_the_library_takes_its_run_inputs_from_the_caller():
    """Copies, backend, rng and width have their defaults in the CLI parser
    and the target records alone: no public function of the library fills
    one in."""
    defaulted = [
        f"{module.__name__}.{name}({param.name})"
        for module in (attacks, search, simon)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
        and not name.startswith("_")
        for param in inspect.signature(fn).parameters.values()
        if param.name in {"rng", "copies", "backend", "n"}
        and param.default is not inspect.Parameter.empty
    ]
    assert defaulted == []


def test_attack_report_serialization():
    rng = np.random.default_rng(41)
    rep = attacks.attack_em_q1(build_em(rng), 3, None, "sampled", rng)
    doc = rep.as_dict()
    for key in ("target", "verified", "planted_match", "D", "T", "Q", "M",
                "adaptive", "tradeoff", "notes", "backend", "counters"):
        assert key in doc
    assert doc["correct"] == rep.verified
    if rep.keys:
        assert doc["recovered"] == {k: f"0x{v:x}" for k, v in rep.keys.items()}
    text = json.dumps(doc, indent=2, sort_keys=True)
    assert json.dumps(rep.as_dict(), indent=2, sort_keys=True) == text
    jsonschema.validate(doc, SCHEMA)


def test_estimate_presets_hit_published_anchors():
    desx = analysis.estimate_costs(preset="desx")
    assert desx["preset"] == "desx"
    assert desx["q2"]["online_queries"] == 135
    assert desx["q2"]["time_log2"] == 29.0
    assert (desx["q1"]["data_log2"], desx["q1"]["time_log2"]) == (42, 40)

    prince = analysis.estimate_costs(preset="prince")
    assert prince["q2"]["online_queries"] == 155
    assert prince["q2"]["time_log2"] == 33.0
    assert analysis.estimate_costs(preset="pride")["q2"] == prince["q2"]

    assert analysis.estimate_costs(preset="chaskey")["q1"]["time_log2"] == 59.0
    assert analysis.estimate_costs(preset="beetle-light")["q1"]["data_log2"] == 48
    assert analysis.estimate_costs(preset="beetle-secure")["q1"]["data_log2"] == 85
    assert analysis.estimate_costs(preset="saturnin16")["q1"]["data_log2"] == 85


def test_estimate_generic_path():
    row = analysis.estimate_costs(n=8, m=4, data_limit_log2=4)
    assert row["queries"] == analysis.query_count(4)
    assert row["time_log2_q2"] == 3.0
    assert row["dt2_log2"] == 12
    assert row["grover_iterations_q1"] == analysis.grover_iterations(8)
    assert 0 < row["c_rounded"] < row["c_proof_stated"]


def test_estimate_rejects_bad_input():
    with pytest.raises(ValueError):
        analysis.estimate_costs(preset="enigma")
    with pytest.raises(ValueError):
        analysis.estimate_costs(n=8)
    for limit in (-1, 9):
        with pytest.raises(ValueError, match="data limit"):
            analysis.estimate_costs(8, 4, limit)
    for sizes in ({"n": 5}, {"m": 5}, {"data_limit_log2": 3}):
        with pytest.raises(ValueError, match="preset"):
            analysis.estimate_costs(preset="desx", **sizes)
    assert analysis.estimate_costs(8, 4, 0)["t_log2_q1"] == 6.0
    assert analysis.estimate_costs(8, 4, 8)["t_log2_q1"] == 2.0
    top = analysis.ESTIMATE_MAX_BITS
    for n, m in ((0, 4), (8, 0), (top + 1, 4), (8, top + 1)):
        with pytest.raises(ValueError, match=rf"must be in \[1, {top}\]"):
            analysis.estimate_costs(n, m)
    assert analysis.estimate_costs(top, top, 0)["dt2_log2"] == 2 * top
