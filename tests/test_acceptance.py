"""Acceptance gate: every headline claim checked at its stated tolerance.

Each test prints one PASS/FAIL line with the measured numbers (use -s to see
the lines for passing tests too). One check is expected to stay red: at the
committed 11-qubit size the exact-circuit success rate cannot reach the
noiseless amplification ideal, because the two-sample rank test is noisy on
every wrong branch. The test body carries the short argument; the numbers
are printed rather than the tolerance being widened.
"""

import json
import math
import time
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from offline_simon import analysis, attacks, cli, search, simon
from reference import brute_collision_prob, restoration_distance

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text())

SHOTS = 1000


@pytest.fixture(scope="module")
def committed_instance():
    # the pinned 11-qubit instance: m=2 index bits, n=2, l=2, 2 copies
    return search.random_instance(2, 2, 2, np.random.default_rng(39))


def emit(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_exact_backend_against_analytic_window(committed_instance):
    # Two samples span F_2^2 only when both are nonzero and distinct, and
    # Pr[u=0] >= 1/4 for any branch table, so every wrong branch fires the
    # check with probability >= 5/8. With the sign that unreliable, one
    # amplification round leaves the good-index probability near 0.2 (an
    # instance sweep caps it around 0.53), far below the noiseless ideal
    # of 1.0. The interval clause holds; the 3-sigma clause cannot at this
    # size, and this check reports that honestly instead of widening the
    # tolerance.
    inst = committed_instance
    t0 = time.perf_counter()
    _, exact = search.alg_poly_q2(inst, copies=2, backend="exact-circuit",
                                  rng=np.random.default_rng([39, 11]), shots=SHOTS)
    elapsed = time.perf_counter() - t0
    _, structured = search.alg_poly_q2(inst, copies=2, backend="structured",
                                       rng=np.random.default_rng(0))
    rate = exact.success_rate
    lower, ideal = structured.success_lower, structured.ideal_success
    sigma = math.sqrt(max(rate * (1 - rate), 1e-12) / SHOTS)
    in_interval = lower - 1e-12 <= rate <= 1.0
    near_ideal = abs(rate - ideal) <= 3 * sigma
    ok = in_interval and near_ideal and elapsed < 60.0
    emit("exact-backend", ok,
         f"rate={rate:.4f} interval=[{lower:.4f}, 1] ideal={ideal:.4f} "
         f"3sigma={3 * sigma:.4f} elapsed={elapsed:.1f}s "
         f"(interval {'ok' if in_interval else 'violated'}, "
         f"ideal {'ok' if near_ideal else 'out of reach'})")
    assert ok, (
        f"measured {rate:.4f} vs ideal {ideal:.4f} exceeds 3sigma={3 * sigma:.4f}; "
        "expected red, see module docstring")


def test_sampled_backend_matches_exact(committed_instance):
    inst = committed_instance
    _, exact = search.alg_poly_q2(inst, copies=2, backend="exact-circuit",
                                  rng=np.random.default_rng([39, 21]), shots=SHOTS)
    _, sampled = search.alg_poly_q2(inst, copies=2, backend="sampled",
                                    rng=np.random.default_rng([39, 22]), shots=SHOTS)
    re, rs = exact.success_rate, sampled.success_rate
    sigma = math.sqrt(re * (1 - re) / SHOTS + rs * (1 - rs) / SHOTS)
    ok = abs(re - rs) <= 3 * sigma
    emit("cross-backend", ok,
         f"exact={re:.4f} sampled={rs:.4f} gap={abs(re - rs):.4f} 3sigma={3 * sigma:.4f}")
    assert ok


def test_false_positive_rate_bound(committed_instance):
    n, c, trials = 6, 3, 10_000
    worst_excess = -1.0
    all_ok = True
    for i in range(20):
        rng = np.random.default_rng([300, i])
        while True:
            table = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
            if not analysis.find_periods(table, n):
                break
        est = simon.p_bad_estimate(table, c, trials, rng, n)
        assert est.eps == max(brute_collision_prob(table, n, t) for t in range(1, 1 << n))
        bound = est.analytic_bound
        sigma = math.sqrt(
            max(est.estimate * (1 - est.estimate), bound * (1 - bound)) / trials)
        all_ok = all_ok and est.estimate <= bound + 3 * sigma
        worst_excess = max(worst_excess, est.estimate - bound)

    inst = committed_instance
    scr = search.screen(inst)
    dbound = analysis.restoration_bound(inst.n, 2, scr.eps)
    dworst = max(
        restoration_distance(inst.branch(i), inst.n, inst.l, 2)
        for i in range(1 << inst.m))
    all_ok = all_ok and dworst <= dbound + 1e-9
    emit("p-bad-bound", all_ok,
         f"20 tables, worst excess over bound {worst_excess:+.5f} (slack 3sigma); "
         f"restoration worst={dworst:.4f} <= bound={dbound:.4f}")
    assert all_ok


def test_period_recovery_rate_floor():
    n, c, runs = 8, 3, 500
    bound = analysis.simon_success_lower(n, c * n)
    assert abs(bound - 0.7431318329463465) < 1e-12
    rng = np.random.default_rng(400)
    hits_run = hits_sim = 0
    for _ in range(runs):
        s = int(rng.integers(1, 1 << n))
        table = simon.random_periodic_function(n, n, s, rng)
        probs = analysis.collision_probabilities(table, n)
        off = np.delete(probs, [0, s])
        assert float(off.max()) <= 0.5
        res = simon.recover(table, c * n, rng, n)
        hits_run += res.kind == "unique" and res.period == s
        g = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
        f = table ^ g
        q1 = simon.recover(f ^ g, c * n, rng, n)
        hits_sim += q1.period == s
    sigma = math.sqrt(bound * (1 - bound) / runs)
    floor = bound - 3 * sigma
    ok = hits_run / runs >= floor and hits_sim / runs >= floor
    emit("recovery-rate", ok,
         f"direct={hits_run / runs:.3f} codebook={hits_sim / runs:.3f} "
         f"floor={floor:.3f} (bound {bound:.4f}, 3sigma {3 * sigma:.4f})")
    assert ok


def test_amplification_exact_and_noisy():
    worst_exact = 0.0
    for m, a in ((2, 0.25), (4, 0.0625)):
        r = analysis.grover_iterations(m)
        success = analysis.run_grover(m, 0, 0.0, r)
        worst_exact = max(worst_exact, abs(success - analysis.amplified_success(a, r)))
    beta = 0.05
    eps = analysis.bit_flip_error(beta)
    worst_margin = math.inf
    noisy_ok = True
    for j in range(1, 9):
        got = analysis.run_grover(3, 5, beta, j)
        dev = abs(got - analysis.amplified_success(2.0**-3, j))
        noisy_ok = noisy_ok and dev <= 4 * j * eps + 1e-12
        worst_margin = min(worst_margin, 4 * j * eps - dev)
    ok = worst_exact <= 1e-9 and noisy_ok
    emit("amplification", ok,
         f"exact dev={worst_exact:.2e} (tol 1e-9); "
         f"noisy dev within 4*j*eps for j<=8, min margin {worst_margin:.4f}")
    assert ok


def test_orthogonal_sample_law():
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 9))
        l = int(rng.integers(1, 9))
        table = rng.integers(0, 1 << l, size=1 << n, dtype=np.int64)
        weights = simon.distribution(table, n)[0]
        pc = np.array([bin(x).count("1") for x in range(1 << n)])
        us = np.arange(1 << n)
        for t in range(1, 1 << n):
            even = (pc[us & t] & 1) == 0
            lhs = float(weights[even].sum())
            # the direct per-shift count, not the law's own Walsh transform
            rhs = 0.5 * (1.0 + brute_collision_prob(table, n, t))
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-10
    emit("orthogonality-law", ok, f"50 tables, worst |lhs-rhs|={worst:.2e} (tol 1e-10)")
    assert ok


def test_attacks_end_to_end(tmp_path):
    rates = {}
    identities_ok = True
    recovered_ok = True
    for kind in cli.ATTACK_KINDS:
        out = tmp_path / f"{kind}.json"
        code = cli.main(["attack", kind, "--trials", "100", "--seed", "7",
                         "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        rates[kind] = doc["summary"]["verified"]
        for row in doc["trials"]:
            if row["verified"] and not row["recovered"]:
                recovered_ok = False
            tr = row["tradeoff"]
            if "identity_exact" in tr:
                identities_ok = identities_ok and tr["identity_exact"] \
                    and tr["identity_floor_consistent"]
    jsonschema.validate(doc, SCHEMA)
    ok = all(v >= 50 for v in rates.values()) and identities_ok and recovered_ok
    summary = " ".join(f"{k}={v}/100" for k, v in rates.items())
    emit("attacks", ok,
         f"{summary}; tradeoff identities {'hold' if identities_ok else 'broken'}")
    assert ok


def test_cost_anchor_reproduction():
    figs = analysis.published_figures()
    checks = {
        "desx-queries": abs(figs["desx"]["q2"]["online_queries"] - 135) <= 1,
        "prince-queries": abs(figs["prince"]["q2"]["online_queries"] - 155) <= 1,
        "pride-queries": abs(figs["pride"]["q2"]["online_queries"] - 155) <= 1,
        "c-single": abs(analysis.c_paper(64, 64) - 2.5) < 0.1,
        "c-double": abs(analysis.c_paper(128, 64) - 5.0) < 0.1,
        "chaskey-time": figs["chaskey"]["q1"]["time_log2"] == 59.0,
        "beetle-light-data": figs["beetle-light"]["q1"]["data_log2"] == 48,
        "beetle-secure-data": figs["beetle-secure"]["q1"]["data_log2"] == 85,
        "saturnin-data": figs["saturnin16"]["q1"]["data_log2"] == 85,
        # time figures below hold only under the labeled convention
        # (two cipher circuits per undecorated amplification step)
        "desx-time-convention": figs["desx"]["q2"]["time_log2"] == 29.0,
        "prince-time-convention": figs["prince"]["q2"]["time_log2"] == 33.0,
    }
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    emit("cost-anchors", ok,
         "135/155 queries, c=2.5/5.0, chaskey 2^59, data 2^48/2^85/2^85, "
         "times 2^29/2^33 under labeled convention"
         + (f"; FAILED {failed}" if failed else ""))
    assert ok, failed
