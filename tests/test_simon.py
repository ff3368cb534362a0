import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from offline_simon import analysis, attacks, gf2, qsim, search, simon

from reference import brute_collision_prob, per_class_sample
from test_gf2 import first_word_batch_rank


def circuit_u_distribution(table, n, l):
    """Ground truth from the state vector: H, oracle, H, measure x."""
    layout = qsim.RegisterLayout(("x", n), ("y", l))
    state = qsim.init_zero(layout)
    qsim.apply_h(state, "x")
    qsim.apply_oracle_xor(state, table, "x", "y")
    qsim.apply_h(state, "x")
    return qsim.marginal(state, "x")


def prob_orthogonal(weights, n, t):
    """Pr[u . t = 0] summed from a law's weights."""
    even = np.array([bin(u & t).count("1") % 2 == 0 for u in range(1 << n)])
    return float(weights[even].sum())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_distribution_matches_exact_circuit(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    l = data.draw(st.integers(min_value=1, max_value=3))
    table = np.array(
        [data.draw(st.integers(min_value=0, max_value=(1 << l) - 1))
         for _ in range(1 << n)], dtype=np.int64)
    weights, _ = simon.distribution(table, n)
    circuit = circuit_u_distribution(table, n, l)
    assert np.allclose(weights, circuit, atol=1e-9)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_distribution_n1_closed_forms():
    injective, _ = simon.distribution(np.array([0, 1]), 1)
    assert np.allclose(injective, [0.5, 0.5])
    constant, _ = simon.distribution(np.array([1, 1]), 1)
    assert np.allclose(constant, [1.0, 0.0])


def test_periodic_distribution_is_orthogonal_supported():
    # period s: every sampled u satisfies u . s = 0
    table = np.array([5, 3, 5, 3, 7, 1, 7, 1], dtype=np.int64)
    periods = analysis.find_periods(table, 3)
    assert periods
    s = periods[0]
    weights, _ = simon.distribution(table, 3)
    for u in range(8):
        if bin(u & s).count("1") % 2 == 1:
            assert weights[u] == pytest.approx(0.0, abs=1e-12)
    assert brute_collision_prob(table, 3, s) == 1.0
    assert prob_orthogonal(weights, 3, s) == pytest.approx(1.0, abs=1e-12)


@given(st.data())
@settings(max_examples=50, deadline=None)
def test_orthogonality_claim(data):
    """Pr[u . t = 0] = (1 + Pr_x[h(x^t) = h(x)]) / 2, exactly."""
    n = data.draw(st.integers(min_value=1, max_value=6))
    table = np.array(
        [data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
         for _ in range(1 << n)], dtype=np.int64)
    t = data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
    weights, _ = simon.distribution(table, n)
    collision = brute_collision_prob(table, n, t)
    assert prob_orthogonal(weights, n, t) == pytest.approx((1 + collision) / 2, abs=1e-10)


def test_sample_agrees_with_distribution():
    rng = np.random.default_rng(7)
    table = np.array([3, 0, 2, 0, 3, 1, 1, 2], dtype=np.int64)
    weights, _ = simon.distribution(table, 3)
    draws = simon.sample(table, 4000, rng, 3)
    assert draws.dtype == np.int64 and draws.shape == (4000,)
    freq = np.bincount(draws, minlength=8) / 4000
    assert np.abs(freq - weights).max() < 0.05


@pytest.mark.parametrize("n", range(1, 9))
def test_sample_draws_what_per_class_choice_draws(monkeypatch, n):
    """One block of uniforms cut class by class gives the words of one
    rng.choice per hit class, bit for bit, and leaves the generator where
    those calls did, also when the class-indicator blocks split the hit
    classes and end on a short block."""
    rng = np.random.default_rng(300 + n)
    for classes_per_block in (1, 2, 3, 1 << 20):
        monkeypatch.setattr(simon, "_CHUNK_CELLS", classes_per_block << n)
        for table in _mixed_rows(n, rng):
            for count in (0, 1, n, 3 * n + 2, 97):
                seed = int(rng.integers(1 << 32))
                a, b = np.random.default_rng(seed), np.random.default_rng(seed)
                got = simon.sample(table, count, a, n)
                assert got.dtype == np.int64
                assert np.array_equal(got, per_class_sample(table, count, b, n))
                assert a.random() == b.random()


def _untemper(y: int) -> int:
    """The MT19937 state word whose tempered output is y."""
    y ^= y >> 18
    y ^= (y << 15) & 0xEFC60000
    t = y
    for _ in range(4):
        t = y ^ ((t << 7) & 0x9D2C5680)
    y = t & 0xFFFFFFFF
    t = y
    for _ in range(2):
        t = y ^ (t >> 11)
    return t


def _generator_emitting(xs, n, uniforms):
    """A Generator whose `integers(0, 2^n, len(xs))` gives xs and whose next
    `random(len(uniforms))` gives uniforms (multiples of 2^-53), by writing
    the 32-bit words MT19937 will temper into its state."""
    words = [x << (32 - n) for x in xs]
    for u in uniforms:
        k = int(u * 2.0**53)
        words += [(k >> 26) << 5, (k & ((1 << 26) - 1)) << 6]
    bits = np.random.MT19937(0)
    state = bits.state
    state["state"]["key"][:len(words)] = [_untemper(w) for w in words]
    state["state"]["pos"] = 0
    bits.state = state
    return np.random.Generator(bits)


def test_sample_searches_the_cdf_normalized_as_choice_does():
    """Uniforms placed on the steps of a class's cdf, where dividing by its
    last entry moves a step past the uniform: the draws are still those of
    rng.choice, which normalizes."""
    n = 8
    rng = np.random.default_rng(5)
    for _ in range(50):
        table = rng.integers(0, 8, size=1 << n, dtype=np.int64)
        spectrum = gf2.fwht((table == table[0]).astype(float))
        law = spectrum * spectrum
        law /= law.sum()
        raw = law.cumsum()
        cdf = raw / raw[-1]
        steps = np.unique(np.r_[raw, cdf])
        steps = steps[(steps >= 0.5) & (steps < 1.0)][-150:]
        moved = cdf.searchsorted(steps, side="right") != raw.searchsorted(steps, side="right")
        if moved.any():
            break
    else:
        raise AssertionError("no class whose cdf steps move when normalized")
    xs = [0] * len(steps)
    probe = _generator_emitting(xs, n, steps)
    assert np.array_equal(probe.integers(0, 1 << n, size=len(xs)), xs)
    assert np.array_equal(probe.random(len(steps)), steps)
    got = simon.sample(table, len(xs), _generator_emitting(xs, n, steps), n)
    want = per_class_sample(table, len(xs), _generator_emitting(xs, n, steps), n)
    assert np.array_equal(got, want)
    assert np.array_equal(got, cdf.searchsorted(steps, side="right"))


def test_random_periodic_function_injective():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        s = int(rng.integers(1, 1 << n))
        table = simon.random_periodic_function(n, n, s, rng)
        assert analysis.find_periods(table, n) == [s]
        # injective on cosets: exactly 2^(n-1) distinct values
        assert len(set(int(v) for v in table)) == 1 << (n - 1)


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
        res = simon.recover(table, 24, local, 6)
        hits += res.kind == "unique" and res.period == s
    assert hits >= 28


def test_run_no_period_on_bijection():
    rng = np.random.default_rng(4)
    table = rng.permutation(1 << 6)
    res = simon.recover(table, 24, rng, 6)
    assert res.kind == "full-rank"
    assert res.rank == 6


def test_run_rejects_bad_c():
    rng = np.random.default_rng(5)
    with pytest.raises(ValueError):
        simon.recover(np.arange(8), 0, rng, 3)


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
    # a width outside [0, MAX_N] is refused by name, before any shift by it
    table, rng = np.zeros(2, dtype=np.int64), np.random.default_rng(0)
    for n in (-1, -5, simon.MAX_N + 1):
        for call in (lambda: simon.distribution(table, n),
                     lambda: simon.distributions(table[None], n),
                     lambda: simon.sample(table, 1, rng, n),
                     lambda: simon.recover(table, 1, rng, n),
                     lambda: simon.p_bad_estimate(table, 1, 1, rng, n)):
            with pytest.raises(ValueError, match=rf"n must be in \[0, 20\], got {n}$"):
                call()
    # an empty table is refused as a size at n = 0, not by a negative shift
    for call in (lambda: simon.distribution(np.zeros(0, dtype=np.int64), 0),
                 lambda: simon.distributions(np.zeros((2, 0), dtype=np.int64), 0),
                 lambda: simon.p_bad_estimate([], 1, 1, np.random.default_rng(0), 0)):
        with pytest.raises(ValueError, match=r"table must have 2\^0 entries"):
            call()


def test_zero_width_refused_before_any_draw():
    """At n = 0 there is no period and no rank to test: recover and the
    p_bad estimator refuse the width by name, before they draw."""
    table = np.zeros(1, dtype=np.int64)
    for call in (lambda rng: simon.recover(table, 5, rng, 0),
                 lambda rng: simon.p_bad_estimate(table, 3, 10, rng, 0)):
        rng = np.random.default_rng(8)
        with pytest.raises(ValueError, match=r"^n must be at least 1$"):
            call(rng)
        assert rng.random() == np.random.default_rng(8).random()


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


def brute_law(table, n):
    """weights(u) = 4^-n * sum_a (sum_{x: h(x)=a} (-1)^(u.x))^2, in integers."""
    xs = np.arange(1 << n)
    signs = np.array([[1 - 2 * (bin(u & x).count("1") & 1) for x in xs] for u in xs])
    total = np.zeros(1 << n, dtype=np.int64)
    for a in np.unique(table):
        total += (signs[:, table == a].sum(axis=1)) ** 2
    return total / float(1 << (2 * n))


def _spy_pair_passes(monkeypatch):
    """Record the first members of every pass of pairs ``_pair_counts``
    enumerates, as a list the caller reads after the call."""
    passes, pair_passes = [], simon._pair_passes

    def spy(after):
        for first, second in pair_passes(after):
            passes.append(first)
            yield first, second

    monkeypatch.setattr(simon, "_pair_passes", spy)
    return passes


def _spy_sorted_stacks(monkeypatch):
    """Record the cells, rows * 2^n, of every stack ``_pair_counts`` sorts
    (each sorted stack enumerates its pairs, in no pass or more), as a list
    the caller reads after the call."""
    cells, pair_passes = [], simon._pair_passes

    def spy(after):
        cells.append(len(after))
        yield from pair_passes(after)

    monkeypatch.setattr(simon, "_pair_passes", spy)
    return cells


def _spy_squared_spectra(monkeypatch):
    """Record the number of classes of every block ``_pair_counts``
    transforms (its classes too large to pair), as a list the caller reads
    after the call."""
    classes, squared_spectra = [], simon._squared_spectra

    def spy(codes, start, stop, size):
        classes.append(stop - start)
        return squared_spectra(codes, start, stop, size)

    monkeypatch.setattr(simon, "_squared_spectra", spy)
    return classes


def _set_compare_limit(monkeypatch, cells):
    """Set the stack cells the pair count's compare form takes to `cells`:
    rows * 4^n compares a stack of that many rows of width n, 0 sorts every
    stack."""
    monkeypatch.setattr(simon, "_COMPARE_CELLS", cells)


def _largest_paired_run(tables, n):
    """The most members of a class that is paired, not transformed (k^2 <=
    2^n), over every row of a stack; 1 when there is none."""
    counts = [np.unique(row, return_counts=True)[1] for row in np.atleast_2d(tables)]
    return max((int(k) for row in counts for k in row if k * k <= 1 << n), default=1)


def _assert_passes_shrink(passes, tables, n):
    """The sorted form took one pass per offset up to its largest paired
    run, each no longer than the one before."""
    sizes = [len(first) for first in passes]
    assert len(sizes) == _largest_paired_run(tables, n) - 1
    assert sizes == sorted(sizes, reverse=True)


def test_law_and_collisions_exact_across_ragged_chunks(monkeypatch):
    """Sorted pairs enumerated in passes that shrink, one per offset within
    a class, give the exact law and collision spectrum at every width (the
    comparison of all (x, x ^ t) cells is off, so every row enumerates its
    pairs)."""
    rng = np.random.default_rng(77)
    tables = []
    # n = 7 too: many narrower tables have too few sorted pairs to take a
    # shorter second pass (an l = 1 table has none: both its classes are
    # transformed)
    for n in range(2, 8):
        for l in range(1, n + 1):
            tables.append((n, rng.integers(0, 1 << l, size=1 << n, dtype=np.int64)))
        period = int(rng.integers(1, 1 << n))
        tables.append((n, simon.random_periodic_function(n, n, period, rng)))
    _set_compare_limit(monkeypatch, 0)
    passes = _spy_pair_passes(monkeypatch)
    shrunk = 0
    for n, table in tables:
        passes.clear()
        weights, collisions = simon.distribution(table, n)
        _assert_passes_shrink(passes, table, n)
        shrunk += len(passes) > 1 and len(passes[-1]) < len(passes[0])
        assert np.array_equal(weights, brute_law(table, n))
        counts = [brute_collision_prob(table, n, t) for t in range(1 << n)]
        assert np.array_equal(collisions, counts)
        assert np.array_equal(analysis.collision_probabilities(table, n), counts)
        expect = [t for t in range(1, 1 << n) if counts[t] == 1.0]
        assert analysis.find_periods(table, n) == expect
    assert shrunk >= 15


def _cli_default_screen(kind):
    """The branch stack the screen of `kind`'s carve takes at the CLI
    defaults."""
    target = attacks.TARGETS[kind]
    flags = dict.fromkeys(("n", "m", "u", "rate", "capacity", "rounds"))
    inst, *rest = target.draw(target.defaults(SimpleNamespace(**flags)),
                              np.random.default_rng(1))
    carve = target.carve(inst, rest[0] if rest else None, 0)
    return carve.family ^ carve.g, carve.n


def test_pair_count_form_follows_the_cells(monkeypatch):
    """A stack compares all its (x, x ^ t) cells when it has at most
    _COMPARE_CELLS = 2^14 of them in all, whatever its rows' width; any
    other stack sorts. Each case has pairs to enumerate, so only the form
    tells them apart."""
    rng = np.random.default_rng(19)
    beetle, beetle_n = _cli_default_screen("beetle")
    slide, slide_n = _cli_default_screen("slide-ifx")
    assert (beetle.shape, slide.shape) == ((1 << 7, 1 << 3), (8, 1 << 7))
    cases = [
        (rng.integers(0, 1 << 5, size=(1, 1 << 6)), 6, False),  # one law, as pbad-mc's
        (rng.integers(0, 1 << 6, size=(1, 1 << 7)), 7, False),
        (rng.integers(0, 1 << 5, size=(4, 1 << 6)), 6, False),
        (beetle, beetle_n, False),
        (rng.integers(0, 1 << 2, size=(256, 1 << 3)), 3, False),
        (rng.integers(0, 1 << 4, size=(16, 1 << 5)), 5, False),
        (rng.integers(0, 1 << 4, size=(32, 1 << 5)), 5, True),
        (rng.integers(0, 1 << 2, size=(257, 1 << 3)), 3, True),
        (rng.integers(0, 1 << 5, size=(5, 1 << 6)), 6, True),
        (slide, slide_n, True),
        (rng.integers(0, 1 << 7, size=(1, 1 << 8)), 8, True),
    ]
    sorts = _spy_sorted_stacks(monkeypatch)
    for tables, n, sorted_form in cases:
        sorts.clear()
        pairs = simon._pair_counts(tables, n)
        assert pairs[:, 1:].any()
        assert sorts == ([tables.size] if sorted_form else []), tables.shape


def _mixed_rows(n, rng):
    """Rows of width n with different class counts: constant, periodic,
    injective, two-valued and random, in shuffled order."""
    size = 1 << n
    period = int(rng.integers(1, size))
    rows = [np.full(size, 3), simon.random_periodic_function(n, n, period, rng),
            rng.permutation(size), rng.integers(0, 2, size=size),
            rng.integers(0, size, size=size)]
    return np.array(rows, dtype=np.int64)[rng.permutation(len(rows))]


@pytest.mark.parametrize("n", range(1, 7))
def test_distributions_match_each_row_bit_for_bit(monkeypatch, n):
    """One pass over a stack of tables gives every row the law, collision
    spectrum and periods that the row gets alone, on both forms of the pair
    count: all (x, x ^ t) cells of the stack compared at once, or each row
    sorted and its pairs enumerated in passes that span rows; both stacks
    are read-only."""
    rng = np.random.default_rng(100 + n)
    tables = _mixed_rows(n, rng)
    alone = [simon.distribution(table, n) for table in tables]
    passes = _spy_pair_passes(monkeypatch)
    # the compare form, then the sorted form
    for compared in (True, False):
        _set_compare_limit(monkeypatch, tables.size << n if compared else 0)
        passes.clear()
        weights, collisions = simon.distributions(tables, n)
        assert weights.shape == collisions.shape == tables.shape
        assert not weights.flags.writeable and not collisions.flags.writeable
        for table, w, c, (one_w, one_c) in zip(tables, weights, collisions, alone):
            assert w.tobytes() == one_w.tobytes()
            assert c.tobytes() == one_c.tobytes()
            assert simon._periods(c) == simon._periods(one_c)
            assert np.array_equal(w, brute_law(table, n))
        if compared:
            assert not passes
    _assert_passes_shrink(passes, tables, n)
    # at n = 1 every class of two members is one of the transformed ones
    spans_rows = any(len(set((first >> n).tolist())) > 1 for first in passes)
    assert spans_rows == (n > 1)


def _indicator_law(tables, n):
    """Each row's law summed from one class-indicator transform per class
    (``_squared_spectra``), as the screen summed it before it counted
    pairs, and its collisions."""
    size = 1 << n
    weights = np.zeros(tables.shape)
    for row, table in zip(weights, tables):
        codes = np.unique(table, return_inverse=True)[1].reshape(size)
        classes = int(codes.max()) + 1
        step = max(1, (1 << 22) // size)
        for start in range(0, classes, step):
            stop = min(classes, start + step)
            row += simon._squared_spectra(codes, start, stop, size).sum(axis=0)
    weights /= float(size * size)
    return weights, gf2.fwht(weights)


def _screen_rows(n, rng):
    """Rows of width n for the pair count: constant, l < n, periodic,
    a permutation, and one class of more than 2^(n/2) members (transformed)
    among classes of two and one (enumerated), in shuffled order."""
    size = 1 << n
    rows = [np.full(size, 5), rng.integers(0, 1 << (n // 2), size=size), rng.permutation(size)]
    if n:
        period = int(rng.integers(1, size))
        rows.append(simon.random_periodic_function(n, n, period, rng))
    big = min(size, math.isqrt(size) + 1)
    rows.append(rng.permutation(np.r_[np.zeros(big, np.int64), 1 + np.arange(size - big) // 2]))
    return np.array(rows, dtype=np.int64)[rng.permutation(len(rows))]


@pytest.mark.parametrize("n", range(13))
def test_pair_counts_give_the_class_indicator_law(monkeypatch, n):
    """The law from the pair count is, bit for bit, the sum of the classes'
    squared spectra, with the same collisions: on both forms of the count,
    on pair passes that straddle rows, on rows that mix enumerated and
    transformed classes, and on values up to 2^62 apart."""
    rng = np.random.default_rng(1300 + n)
    tables = _screen_rows(n, rng)
    want_w, want_c = _indicator_law(tables, n)
    # a relabelling onto values up to 2^62 apart: the sort compares values,
    # never offsets them
    values = int(tables.max()) + 1
    labels = rng.permutation(np.unique(rng.integers(-(1 << 62), 1 << 62, size=values + 8)))
    labels[[tables.min(), tables.max()]] = -(1 << 62), (1 << 62) - 1
    spread = labels[tables]
    assert int(spread.max()) - int(spread.min()) >= (1 << 63) // len(tables)
    passes = _spy_pair_passes(monkeypatch)
    sorts = _spy_sorted_stacks(monkeypatch)
    straddled = False
    # the form the limit picks, then the sorted form
    for forced in (False, True):
        if forced:
            _set_compare_limit(monkeypatch, 0)
        for stack in (tables, spread):
            passes.clear()
            sorts.clear()
            weights, collisions = simon.distributions(stack, n)
            assert weights.tobytes() == want_w.tobytes()
            assert collisions.tobytes() == want_c.tobytes()
            assert bool(sorts) == (forced or n > 5)
            if sorts:
                _assert_passes_shrink(passes, stack, n)
            straddled |= any(len(set((first >> n).tolist())) > 1 for first in passes)
    assert straddled == (n > 2)
    if n > 2:  # the mixed row transforms its large class and counts the rest
        transformed = _spy_squared_spectra(monkeypatch)
        passes.clear()
        simon._pair_counts(tables, n)
        classes = [np.unique(row, return_counts=True)[1] for row in tables]
        dense = {row for row, k in enumerate(classes) if (k * k > 1 << n).any()}
        assert sum(transformed) == sum(int((k * k > 1 << n).sum()) for k in classes)
        assert dense & {int(row) for first in passes for row in first >> n}


def test_a_constant_row_is_transformed_not_paired(monkeypatch):
    """A constant row of 2^12 inputs (2^24 ordered pairs) takes its class's
    one transform; no pair of it is enumerated."""
    n = 12
    passes = _spy_pair_passes(monkeypatch)
    weights, collisions = simon.distribution(np.full(1 << n, 9), n)
    assert not passes
    assert weights[0] == 1.0 and not weights[1:].any()
    assert (collisions == 1.0).all()


@pytest.mark.parametrize("n", [0, 3, 7])
def test_distributions_of_an_empty_stack(monkeypatch, n):
    """No rows give two empty read-only (0, 2^n) stacks; a stack of no
    cells is under the limit, so it compares at every width."""
    sorts = _spy_sorted_stacks(monkeypatch)
    weights, collisions = simon.distributions(np.zeros((0, 1 << n), np.int64), n)
    for stack in (weights, collisions):
        assert stack.shape == (0, 1 << n) and stack.dtype == np.float64
        assert not stack.flags.writeable
    assert not sorts


def test_distributions_number_widely_spread_values():
    """Values too far apart to offset row by row get the same laws as a
    relabelling of them to small ones."""
    big = np.array([[-(1 << 62), 1 << 62, 0, 0], [5, 5, 1 << 62, -(1 << 62)]])
    small = np.array([[0, 2, 1, 1], [1, 1, 2, 0]])
    (weights, collisions), want = simon.distributions(big, 2), simon.distributions(small, 2)
    assert weights.tobytes() == want[0].tobytes()
    assert [simon._periods(c) for c in collisions] == [simon._periods(c) for c in want[1]]


def _collision_rows(n, rng, transformed):
    """Rows of width n whose classes all pair: injective, and classes of
    2^(n // 2); plus (when `transformed`) a random row and one holding a
    class of more than 2^(n/2) members, too large to pair."""
    size = 1 << n
    rows = [rng.permutation(size), rng.permutation(size) >> (n // 2)]
    if transformed:
        big = math.isqrt(size) + 1
        rows += [rng.integers(0, size, size=size),
                 rng.permutation(np.r_[np.zeros(big, np.int64), 1 + np.arange(size - big)])]
    return np.array(rows, dtype=np.int64)


def _brute_pair_counts(tables, n):
    """pairs[row, t] = #{(x, x'): h(x) = h(x'), x ^ x' = t}, one offset t at
    a time."""
    xs = np.arange(1 << n)
    return np.stack([(tables == tables[:, xs ^ t]).sum(axis=1) for t in xs], axis=1)


@pytest.mark.parametrize("n", range(13))
def test_pair_counts_are_the_brute_force_count(monkeypatch, n):
    """The pair count is #{(x, x'): h(x) = h(x'), x ^ x' = t} for every row
    and offset, on both forms (the compare form up to n = 10, 5 * 2^20
    cells) and on rows with a class too large to pair, which the sorted
    form transforms."""
    rng = np.random.default_rng(1500 + n)
    tables = _screen_rows(n, rng)
    want = _brute_pair_counts(tables, n).astype(np.float64)
    classes = _spy_squared_spectra(monkeypatch)
    for cells in ((tables.size << n, 0) if n <= 10 else (0,)):
        _set_compare_limit(monkeypatch, cells)
        classes.clear()
        pairs = simon._pair_counts(tables, n)
        assert pairs.shape == tables.shape and pairs.dtype == np.float64
        assert pairs.tobytes() == want.tobytes()
        # a lone input is a class of one, k^2 = 2^n, at n = 0
        assert bool(classes) == (not cells and n > 0)


def test_distributions_never_copy_a_transform(monkeypatch):
    """A stack with a class too large to pair takes one in-place transform
    of its laws and one of its dense classes' squared spectra, and no
    copying ``gf2.fwht``: its collisions are the count, as every stack's."""
    n = 8
    rng = np.random.default_rng(16)
    tables = _screen_rows(n, rng)
    copied = []
    fwht = gf2.fwht

    def spy(vec):
        copied.append(np.shape(vec))
        return fwht(vec)

    monkeypatch.setattr(gf2, "fwht", spy)
    monkeypatch.setattr(simon, "fwht", spy, raising=False)
    classes = _spy_squared_spectra(monkeypatch)
    weights, collisions = simon.distributions(tables, n)
    assert classes and not copied
    assert collisions.tobytes() == (_brute_pair_counts(tables, n) / (1 << n)).tobytes()


@pytest.mark.parametrize("n", range(15))
def test_collisions_off_the_count_are_the_transformed_law(monkeypatch, n):
    """The collision spectrum read off the pair count is, bit for bit,
    ``gf2.fwht(weights)``, the transform of the law it replaces: on random
    stacks, on both forms of the count (the compare form up to n = 8, rows
    of 2^16 cells), with and without a class too large to pair, whose
    pairs the sorted form counts by transforming its squared spectrum
    back."""
    rng = np.random.default_rng(1400 + n)
    classes = _spy_squared_spectra(monkeypatch)
    for transformed in (False, True):
        if transformed and n < 1:  # a lone input is a class of one, k^2 = 2^n
            continue
        tables = _collision_rows(n, rng, transformed)
        for cells in ((tables.size << n, 0) if n <= 8 else (0,)):
            _set_compare_limit(monkeypatch, cells)
            classes.clear()
            weights, collisions = simon.distributions(tables, n)
            assert bool(classes) == (transformed and not cells)
            assert collisions.tobytes() == gf2.fwht(weights).tobytes()


@pytest.mark.parametrize("n", [18, 20])
def test_wide_collisions_are_the_pair_count(monkeypatch, n):
    """At the widest laws, where a row's weights are integers over 4^n that
    sum to 4^n <= 2^40, the pair count of a row with a class too large to
    pair already holds that class's pairs, transformed back from its
    squared spectrum, bit for bit: it is the count of the same row with
    that class split into lone inputs, plus the class's brute-force pairs.
    The collisions are that count over 2^n, and the transform of the law."""
    rng = np.random.default_rng(n)
    size = 1 << n
    big = math.isqrt(size) + 1
    row = rng.permutation(np.r_[np.zeros(big, np.int64), 1 + np.arange(size - big) // 2])
    members = np.flatnonzero(row == 0)
    split = row.copy()
    split[members] = -1 - np.arange(big)
    classes = _spy_squared_spectra(monkeypatch)
    pairs = simon._pair_counts(row[None], n)
    want = simon._pair_counts(split[None], n)
    assert classes == [1]  # the row's one dense class; the split row has none
    want[0, 0] -= big  # the split inputs' pairs with themselves, counted below
    want[0] += np.bincount((members[:, None] ^ members).reshape(-1), minlength=size)
    assert pairs.tobytes() == want.tobytes()
    weights, collisions = simon.distributions(row[None], n)
    assert collisions.tobytes() == (pairs / size).tobytes()
    assert collisions.tobytes() == gf2.fwht(weights).tobytes()


class _Feed:
    """A stand-in generator whose ``random(size)`` serves the given
    uniforms in order, so a test can place them on cdf steps and bin
    edges; ``used`` counts those served."""

    def __init__(self, uniforms):
        self.uniforms, self.used = uniforms.reshape(-1), 0

    def random(self, size):
        count = int(np.prod(size))
        self.used += count
        return self.uniforms[self.used - count:self.used].reshape(size)


def _choice_cdf(weights):
    """Each row's cdf, normalized as ``rng.choice(p=row)`` normalizes it."""
    cdf = weights.cumsum(axis=1)
    return cdf / cdf[:, -1:]


def _spy_misses_rank(monkeypatch, weights, shape, rng, n):
    """misses_rank's result and the words it ranked, as one (draws, k)
    array in rank order."""
    seen = []

    def spy(words, n):
        seen.append(np.array(words))
        return gf2.batch_rank(words, n)

    monkeypatch.setattr(simon, "batch_rank", spy)
    missed = simon.misses_rank(weights, shape, rng, n)
    return missed, np.concatenate(seen)


def _random_stack(rng, rows, n):
    """A (rows, 2^n) stack of laws with zero weights: either random reals,
    or integer counts over 2^q for a random q <= 2n, whose cdf steps then
    sit exactly on the edges of every bin width of at least 2^q."""
    size = 1 << n
    p = rng.random((rows, size)) * (rng.random((rows, size)) < 0.6)
    p[:, -1] += rng.random(rows) < 0.5
    p[np.arange(rows), rng.integers(size, size=rows)] += 1.0
    p /= p.sum(axis=1, keepdims=True)
    if rng.random() < 0.5:
        return p
    total = 1 << int(rng.integers(1, 2 * n + 1))
    return np.array([rng.multinomial(total, row) for row in p]) / total


def test_misses_rank_draws_what_searchsorted_draws(monkeypatch):
    """Words equal each row's searchsorted at uniforms placed at random, on
    the row's cdf values (ties from zero weights included, counted as
    side="right" counts them), on bin edges j / 2^b of every width the
    guide may take and on the last double below each, across rows whose
    cdf steps sit at random or exactly on bin edges, leading axes and
    blocks of 1 to 200 cells; exactly the uniforms of the shape are drawn,
    and the result is the rank test of those words."""
    rng = np.random.default_rng(26)
    for _ in range(300):
        n, rows, k = int(rng.integers(1, 7)), int(rng.integers(1, 6)), int(rng.integers(1, 8))
        lead = tuple(int(d) for d in rng.integers(1, 5, size=int(rng.integers(0, 3))))
        shape = lead + (rows, k)
        size = 1 << n
        weights = _random_stack(rng, rows, n)
        cdf = _choice_cdf(weights)
        width = 2.0 ** rng.integers(0, 2 * n + 1, size=shape)
        edges = np.floor(rng.random(shape) * width) / width
        below = np.nextafter(edges + 1.0 / width, 0.0)
        steps = cdf[np.arange(rows)[:, None], rng.integers(size, size=(rows, k))]
        steps = np.where(steps < 1.0, steps, 0.0)
        uniforms = np.choose(rng.integers(4, size=shape), [rng.random(shape), edges, below, steps])
        monkeypatch.setattr(simon, "_RANK_BLOCK_CELLS", int(rng.integers(1, 201)))
        feed = _Feed(uniforms)
        missed, words = _spy_misses_rank(monkeypatch, weights, shape, feed, n)
        want = np.stack([cdf[row].searchsorted(uniforms[..., row, :], side="right")
                         for row in range(rows)], axis=-2)
        assert np.array_equal(words, want.reshape(-1, k))
        assert missed.shape == shape[:-1]
        assert np.array_equal(missed.reshape(-1), gf2.batch_rank(words, n) < n)
        assert feed.used == uniforms.size


def _simon_stack(rng, rows, n):
    """The laws of `rows` random tables of n bits, with values of 1 to n
    bits (the 1-bit ones often periodic)."""
    tables = rng.integers(0, 1 << rng.integers(1, n + 1, size=(rows, 1)), size=(rows, 1 << n))
    return simon.distributions(tables, n)[0].copy()


def test_bin_tables_resolve_a_bin_iff_all_of_it_draws_one_word():
    """guide[row, j] is what searchsorted draws at the bin's left edge
    j / bins, and the bin resolves to that word exactly when the last
    double below its right edge draws it too, so every u of the bin does;
    other bins and the unused column hold the sentinel 2^n. Checked on
    stacks with cdf steps at random and exactly on bin edges, a step on
    a bin's right edge included, at every bin width up to 4^n."""
    rng = np.random.default_rng(27)
    stacks = [(np.array([[0.5, 0.5], [0.3, 0.7]]), 1)]
    for _ in range(150):
        n = int(rng.integers(1, 7))
        stacks.append((_random_stack(rng, int(rng.integers(1, 6)), n), n))
    for weights, n in stacks:
        rows, size = weights.shape
        cdf = _choice_cdf(weights)
        for bins in 2 ** np.arange(2 * n + 1):
            guide, table = simon._bin_tables(cdf, int(bins))
            left = np.arange(bins) / bins
            below = np.nextafter(left + 1.0 / bins, 0.0)
            first = np.stack([row.searchsorted(left, side="right") for row in cdf])
            last = np.stack([row.searchsorted(below, side="right") for row in cdf])
            assert table.dtype == gf2._word_dtype(n + 1)
            guide, table = guide.reshape(rows, bins + 1), table.reshape(rows, bins + 1)
            assert np.array_equal(guide[:, :bins], first + np.arange(rows)[:, None] * size)
            assert np.array_equal(guide[:, bins], (np.arange(rows) + 1) * size)
            assert np.array_equal(table[:, :bins], np.where(first == last, first, size))
            assert (table[:, bins] == size).all()


@pytest.mark.parametrize("n", range(1, 7))
def test_bin_tables_resolve_every_bin_of_a_simon_law(n):
    """A Simon law's weights are multiples of 4^-n, so at 4^n bins every
    cdf step sits on a bin edge and no bin is left to search."""
    cdf = _choice_cdf(_simon_stack(np.random.default_rng(270 + n), 40, n))
    _, table = simon._bin_tables(cdf, 4 ** n)
    assert (table.reshape(40, 4 ** n + 1)[:, :-1] < 1 << n).all()


@pytest.mark.parametrize("n", [3, 5, 7])
def test_misses_rank_on_shot_shaped_stacks(monkeypatch, n):
    """From a real generator at the block size the program uses, stacks of
    100 to 250 laws, Simon laws and others with zero weights, under one
    or two leading axes: the words are each row's searchsorted at
    ``rng.random(shape)``, and the next output is the same."""
    rng = np.random.default_rng(280 + n)
    for lead in ((2,), (9,), (3, 2)):
        rows, k = int(rng.integers(100, 251)), int(rng.integers(n, 4 * n))
        weights = _simon_stack(rng, rows, n)
        other = rng.random(rows) < 0.3
        weights[other] = _random_stack(rng, int(other.sum()), n)
        shape = lead + (rows, k)
        seed = int(rng.integers(1 << 32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        missed, words = _spy_misses_rank(monkeypatch, weights, shape, a, n)
        uniforms, cdf = b.random(shape), _choice_cdf(weights)
        want = np.stack([cdf[row].searchsorted(uniforms[..., row, :], side="right")
                         for row in range(rows)], axis=-2)
        assert np.array_equal(words, want.reshape(-1, k))
        assert np.array_equal(missed.reshape(-1), gf2.batch_rank(words, n) < n)
        assert a.random() == b.random()


@pytest.mark.parametrize("weights, shape", [
    (np.full((2, 8), 1 / 8), (5, 1, 4)),  # two width-3 laws read as one of width 4
    (np.full((3, 16), 1 / 16), (5, 2, 4)),
    (np.full(16, 1 / 16), (5, 2, 4)),
    (np.full(16, 1 / 16), (5, 1, 4)),
    (np.full((1, 1, 16), 1 / 16), (5, 1, 4)),
    (np.full(32, 1 / 32), (5, 2, 4)),
    (np.zeros(0), (5, 0, 4)),
], ids=["two-laws-as-one", "three-for-two-rows", "one-law-for-two-rows",
        "flat-law-for-one-row", "three-axes",
        "one-long-law-for-two-rows", "no-rows-flat"])
def test_misses_rank_refuses_a_mis_shaped_stack(weights, shape):
    """Only a (rows, 2^n) stack is taken; any other shape, a flat (2^n,)
    law for one row among them, is refused with both shapes named, before
    anything is drawn."""
    rng = np.random.default_rng(0)
    want = f"({shape[-2]}, 16)"
    with pytest.raises(ValueError, match=re.escape(want) + ".*" + re.escape(str(weights.shape))):
        simon.misses_rank(weights, shape, rng, 4)
    assert rng.random() == np.random.default_rng(0).random()


@pytest.mark.parametrize("n", [1, 3, 8])
def test_misses_rank_leaves_the_generator_where_random_does(monkeypatch, n):
    """From a real generator, the words are searchsorted at ``rng.random(shape)``
    and the next output is the same, whether the draws fill one block,
    several or a ragged last one."""
    rng = np.random.default_rng(260 + n)
    size = 1 << n
    for cells in (64, 1000, gf2._RANK_BLOCK_CELLS):
        monkeypatch.setattr(simon, "_RANK_BLOCK_CELLS", cells)
        for shape in ((5, 3, 7), (2, 1, 3 * n), (3, 4, 1)):
            weights = rng.random((shape[-2], size)) * (rng.random((shape[-2], size)) < 0.7)
            weights[:, 0] += 1.0
            weights /= weights.sum(axis=1, keepdims=True)
            seed = int(rng.integers(1 << 32))
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            _, words = _spy_misses_rank(monkeypatch, weights, shape, a, n)
            uniforms, cdf = b.random(shape), _choice_cdf(weights)
            want = np.stack([cdf[row].searchsorted(uniforms[:, row], side="right")
                             for row in range(shape[-2])], axis=1)
            assert np.array_equal(words, want.reshape(-1, shape[-1]))
            assert a.random() == b.random()


@pytest.mark.parametrize("shape", [(3, 0, 4), (0, 2, 4), (2, 3, 0)], ids=["no-rows", "no-draws", "no-words"])
def test_misses_rank_with_nothing_to_draw(shape):
    """No rows (m = 0, or every branch periodic), no leading draws or no
    words per draw: nothing is drawn, and k = 0 words span nothing."""
    rows, n = shape[-2], 3
    weights = np.full((rows, 1 << n), 1.0 / (1 << n))
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    missed = simon.misses_rank(weights, shape, a, n)
    assert missed.shape == shape[:-1] and missed.dtype == bool
    assert missed.all()
    assert a.random() == b.random()


def test_p_bad_estimate_transforms_its_table_once(monkeypatch):
    """One Walsh transform, of the pair count: the periodicity check, the
    Monte Carlo law, eps and the union bound all come from the same law,
    and the collision spectrum is the count itself."""
    rng = np.random.default_rng(2024)
    n = 6
    table = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    while analysis.find_periods(table, n):
        table = rng.integers(0, 1 << n, size=1 << n, dtype=np.int64)
    shapes = []
    fwht, fwht_inplace = gf2.fwht, gf2.fwht_inplace

    def spy(vec):
        shapes.append(np.shape(vec))
        return fwht(vec)

    def spy_inplace(a, *args):
        shapes.append(np.shape(a))
        return fwht_inplace(a, *args)

    # every module that binds either transform by name; fwht itself runs
    # through gf2.fwht_inplace, which stays unwatched
    for module in (simon, analysis, search, qsim):
        for name, watch in (("fwht", spy), ("fwht_inplace", spy_inplace)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, watch)
    monkeypatch.setattr(gf2, "fwht", spy)
    simon.p_bad_estimate(table, 3, 100, rng, n)
    assert shapes == [(1, 1 << n)]


def _choice_p_bad_mc(weights, count, trials, rng):
    """The _p_bad_mc that guide-table draws replaced: one rng.choice of the
    whole (trials, count) block, ranked by the first-word kernel. Returns the
    estimate and the draws."""
    n = len(weights).bit_length() - 1
    draws = rng.choice(1 << n, size=(trials, count), p=weights)
    return int((first_word_batch_rank(draws, n) < n).sum()) / trials, draws


def _laws(n, rng):
    """Laws of width n: of a random, a periodic (zero-weight words), a
    constant and a one-point table, and given outright: random with zeros,
    uniform, two-valued, and all weight on a random word and on the last."""
    size = 1 << n
    period = int(rng.integers(1, size))
    tables = [rng.integers(0, size, size=size), simon.random_periodic_function(n, n, period, rng),
              np.zeros(size, dtype=np.int64), (np.arange(size) == 0).astype(np.int64)]
    laws = [simon.distribution(table, n)[0] for table in tables]
    spread = rng.random(size) * (rng.random(size) < 0.7)
    spread[rng.integers(size)] += 1.0
    two = np.where(rng.random(size) < 0.5, 1.0, 3.0)
    for w in (spread, np.ones(size), two, np.eye(size)[rng.integers(size)], np.eye(size)[-1]):
        laws.append(w / w.sum())
    return laws


def _check_p_bad_mc(monkeypatch, law, count, trials, seed):
    """_p_bad_mc against the rng.choice reference from one seed: the same
    estimate, the same words ranked in the same order, and the same next
    generator output."""
    seen = []

    def spy(words, n):
        seen.append(np.array(words))
        return gf2.batch_rank(words, n)

    monkeypatch.setattr(simon, "batch_rank", spy)
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    want, draws = _choice_p_bad_mc(law, count, trials, b)
    assert simon._p_bad_mc(law, count, trials, a) == want
    assert np.array_equal(np.concatenate(seen), draws)
    assert a.random() == b.random()


@pytest.mark.parametrize("n", range(1, 11))
def test_p_bad_mc_draws_what_choice_draws(monkeypatch, n):
    """Guide-table draws, block by block, are rng.choice's draws bit for bit,
    for counts of 1, n and 3n + 2 and for trials below one block and over a
    ragged number of blocks. Catches a dropped straggler search, blocks drawn
    column-major, and a block's tail left undrawn."""
    rng = np.random.default_rng(400 + n)
    cells = 101  # small blocks, so every case spans several
    monkeypatch.setattr(simon, "_RANK_BLOCK_CELLS", cells)
    for law in _laws(n, rng):
        for count in sorted({1, n, 3 * n + 2}):
            block = max(1, cells // count)
            for trials in (max(1, block - 1), 2 * block + 3):
                _check_p_bad_mc(monkeypatch, law, count, trials, int(rng.integers(1 << 32)))


def test_p_bad_mc_draws_what_choice_draws_at_full_blocks(monkeypatch):
    """The real block size: count 1 over more than one block, and a count
    above _RANK_BLOCK_CELLS, which leaves one row per block."""
    rng = np.random.default_rng(12)
    cells = gf2._RANK_BLOCK_CELLS
    for n, count, trials in ((3, 1, cells + 5), (2, cells + 3, 3)):
        for law in _laws(n, rng)[:2]:
            _check_p_bad_mc(monkeypatch, law, count, trials, int(rng.integers(1 << 32)))


@pytest.mark.parametrize("n", [16, 17])
def test_rank_sample_kernels_draw_what_choice_draws_past_16_bits(monkeypatch, n):
    """The guide's word table holds the sentinel 2^n, so it is uint32 from
    n = 16, and batch_rank takes uint32 words from n = 17: there too,
    `sample` and _p_bad_mc draw rng.choice's words bit for bit. A table of
    8 values keeps each law to 8 class transforms."""
    rng = np.random.default_rng(500 + n)
    table = rng.integers(0, 8, size=1 << n)
    for count in (1, 3 * n + 2):
        seed = int(rng.integers(1 << 32))
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(simon.sample(table, count, a, n), per_class_sample(table, count, b, n))
        assert a.random() == b.random()
    law = simon.distribution(table, n)[0]
    for count, trials in ((1, 40), (n, 24), (3 * n + 2, 30)):
        _check_p_bad_mc(monkeypatch, law, count, trials, int(rng.integers(1 << 32)))


@pytest.mark.parametrize("weights", [[0.5, 0.6, -0.1, 0.0], [0.25, 0.25, 0.25, 0.26],
                                     [np.nan, 0.5, 0.5, 0.0]],
                         ids=["negative", "sum-1.01", "nan"])
def test_p_bad_mc_rejects_what_choice_rejects(weights):
    """A negative weight, weights not summing to 1 and a NaN raise, as
    rng.choice(p=...) raised."""
    with pytest.raises(ValueError):
        simon._p_bad_mc(np.array(weights), 2, 10, np.random.default_rng(0))
