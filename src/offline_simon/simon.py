"""Period finding from measured orthogonal vectors.

The measured-u law of one quantum round on h is computed exactly: condition
on the output value a, then the u distribution inside that class is the
squared Walsh spectrum of the preimage indicator. Sampling, full period
recovery, and the false-positive (p_bad) estimator all build on that law, so
no state vectors are needed at widths up to 20 bits.

The law and the collision spectrum are one Fourier pair: the Walsh transform
of the law is t -> Pr_x[h(x ^ t) = h(x)] (the orthogonality lemma
Pr[u . t = 0] = (1 + Pr_x[h(x ^ t) = h(x)]) / 2 of Kaplan et al., CRYPTO
2016), so the periods, the condition value eps and the union bound come
with the law. And the collision spectrum is a count of equal-value pairs
(x, x ^ t) over 2^n, so the law is one transform of that count per table,
not one per output class, and the collisions need no transform at all. A
stack of at most 2^14 (x, x ^ t) cells in all counts by comparing them; any
other sorts each row, and a table costs its pair count, each class at most
2^n.
``distributions`` makes that pass over a whole stack of tables at once
(every branch of a search instance), into one read-only stack of laws and
one of collision spectra; ``distribution`` is its one-table case and
returns the same pair, the stacks' row 0, so every caller reads one law
shape. ``sample`` still transforms the indicator of each class it draws
from, since it draws inside the classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis
from .gf2 import (_RANK_BLOCK_CELLS, PeriodSolution, _word_dtype, batch_rank, fwht_inplace,
                  solve_period)

MAX_N = 20
# Cells of one block of class indicators in `distributions` and `sample`:
# 32 MiB of float64 whatever the number of output classes (the transform's
# temporaries take a few times that).
_CHUNK_CELLS = 1 << 22
# The pair count compares all (x, x ^ t) cells of a stack that has at most
# _COMPARE_CELLS of them in all (a row of n <= 7, four of n = 6, 256 of
# n = 3): there comparing costs less than a sort's twenty-odd fixed numpy
# calls. That is the measured crossover: stacks of 2^15 cells of n = 6 or 7
# compare and sort in about the same time, a row of n = 8 compares 5x slower
# than it sorts, and a (1024, 2^5) stack 4x slower; only stacks of n = 3
# past it still compare up to 1.3x faster.
_COMPARE_CELLS = 1 << 14


def _as_table(h, n: int, ndim: int = 1) -> np.ndarray:
    """h as int64, checked to have 2^n entries; ndim=2 takes a (rows, 2^n)
    stack of tables."""
    table = np.asarray(h, dtype=np.int64)
    if table.ndim != ndim:
        raise ValueError(f"table must be a {ndim}-D array")
    if not 0 <= n <= MAX_N:
        raise ValueError(f"n must be in [0, {MAX_N}], got {n}")
    if table.shape[-1] != 1 << n:
        raise ValueError(f"table must have 2^{n} entries")
    return table


def _periods(collisions: np.ndarray) -> tuple[int, ...]:
    """The periods of h, off its collision spectrum: the t > 0 of collision 1."""
    return tuple((np.flatnonzero(collisions[1:] == 1.0) + 1).tolist())


def distribution(h, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of one table and its collision spectrum, row 0 of
    ``distributions``: weights(u) = 2^-2n * sum_a |sum_{x: h(x)=a} (-1)^(u.x)|^2
    and collisions(t) = Pr_x[h(x ^ t) = h(x)], both read-only."""
    weights, collisions = distributions(_as_table(h, n)[None], n)
    return weights[0], collisions[0]


def _squared_spectra(codes: np.ndarray, start: int, stop: int, size: int) -> np.ndarray:
    """Squared Walsh spectra of the indicators of classes start..stop-1, one
    row per class, where `codes` numbers the class of every input (one table
    of 2^n codes, or a stack of them). Every entry is an integer of at most
    4^n, exact in float64."""
    member = (codes >= start) & (codes < stop)
    block = np.zeros((stop - start, size))
    block[codes[member] - start, np.nonzero(member)[-1]] = 1.0
    fwht_inplace(block, size)
    block *= block
    return block


def _pair_passes(after: np.ndarray):
    """The pairs (p, p + d) with d <= after[p], as two int64 arrays in order
    of p: one pass per offset d = 1, 2, ... while some p pairs that far on."""
    first, step = np.flatnonzero(after > 0), 1
    while len(first):
        yield first, first + step
        step += 1
        first = first[after[first] >= step]


def _pair_counts(tables: np.ndarray, n: int) -> np.ndarray:
    """The equal-value pairs of every row of a (rows, 2^n) stack of tables,
    by offset: pairs[row, t] = #{(x, x'): h(x) = h(x'), x ^ x' = t}, exact
    in float64.

    A stack of at most _COMPARE_CELLS (x, x ^ t) cells in all compares them
    all in one pass. Any other stack is sorted row by row: a class is then
    a run of its row's sorted inputs, the row's 2^n pairs (x, x) go to t = 0
    unenumerated, and a run of k members pairs in k - 1 passes, one per
    offset within the run (``_pair_passes``), each counted by
    ``np.bincount`` at row * 2^n + (x ^ x'). A class of k members with
    k^2 > 2^n costs one class-indicator transform of its 2^n cells instead
    (``_squared_spectra``): each row's sum of those squared spectra is
    transformed back once, which gives 2^n times those classes' pairs. So a
    row costs sum_a min(|C_a|^2, 2^n), at most 2^(3n/2). Every partial sum
    of that transform is an integer of at most 4^n <= 2^40 (the squared
    spectra are nonnegative, and they sum to 2^n times the classes'
    members), so the count is exact.
    """
    count, size = tables.shape
    if count * size * size <= _COMPARE_CELLS:
        partner = np.arange(size) ^ np.arange(size)[:, None]  # [t, x] = x ^ t
        # np.take gathers the cells 1.4-2.5x faster than tables[:, partner],
        # and a float product sums the matches faster than a bool sum does
        same = (np.take(tables, partner, axis=1) == tables[:, None, :]).astype(np.float64)
        return same @ np.ones(size)
    pairs = np.zeros((count, size))
    order = np.argsort(tables, axis=1)  # in any order within a class
    xs = order.reshape(-1)  # sorted input p is input xs[p] of row p >> n
    ordered = np.take_along_axis(tables, order, axis=1)
    new = np.ones((count, size), dtype=bool)  # every row starts a class
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new[:, 1:])
    del ordered  # the passes' peak need not hold it
    starts = np.flatnonzero(new)
    members = np.diff(starts, append=new.size)
    # at n = 8-14 this picks the faster form at every power-of-two class size
    dense = members * members > size
    # the later members of its class each sorted input pairs with (none in
    # a dense class)
    after = np.repeat(np.where(dense, 0, starts + members), members) - 1 - np.arange(new.size)
    flat = pairs.reshape(-1)
    for first, second in _pair_passes(after):
        lo = first[0] & -size  # the start of the first row the pass reaches
        cells = np.bincount((first & -size | xs[first] ^ xs[second]) - lo,
                            minlength=(first[-1] & -size) + size - lo)
        flat[lo:lo + len(cells)] += cells
    pairs *= 2  # (x, x') and (x', x)
    # every input pairs with itself, in its own class
    pairs[:, 0] = size - np.bincount(starts[dense] >> n, members[dense], minlength=count)
    if not dense.any():
        return pairs
    codes = np.empty_like(order)
    labels = np.repeat(np.where(dense, np.cumsum(dense) - 1, -1), members)
    np.put_along_axis(codes, order, labels.reshape(count, size), axis=1)
    owner = starts[dense] >> n  # the row of each dense class, nondecreasing
    spectra = np.zeros((count, size))
    chunk = max(1, _CHUNK_CELLS // size)
    for start in range(0, len(owner), chunk):
        stop = min(len(owner), start + chunk)
        block = _squared_spectra(codes[owner[start]:owner[stop - 1] + 1], start, stop, size)
        own = owner[start:stop]
        runs = np.flatnonzero(np.r_[True, own[1:] != own[:-1]])
        spectra[own[runs]] += np.add.reduceat(block, runs, axis=0)
    fwht_inplace(spectra, size)
    spectra /= float(size)
    pairs += spectra
    return pairs


def distributions(tables, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The law of every row of a (rows, 2^n) stack of tables, from one pass:
    a read-only (rows, 2^n) stack of weights and one of their collisions.

    A row's collision spectrum is its equal-value pair count over 2^n,
    P(t) / 2^n (see ``_pair_counts``), and its law is the Walsh transform
    of that count over 4^n: sum_a |sum_{x in C_a} (-1)^(u.x)|^2 =
    sum_t P(t) (-1)^(u.t). One transform per row. The count sums to
    sum_a |C_a|^2 <= 4^n <= 2^40, so every partial sum of the transform is
    an exact integer in any order: each row's law is bit for bit the one a
    table alone would get, and the sum of its classes' squared spectra.
    """
    tables = _as_table(tables, n, ndim=2)
    size = tables.shape[1]
    weights = _pair_counts(tables, n)
    collisions = weights / float(size)
    fwht_inplace(weights, size)
    weights /= float(size * size)
    weights.flags.writeable = collisions.flags.writeable = False
    return weights, collisions


def sample(h, count: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """count i.i.d. draws of u, as int64; conditions on the output value first.

    Only the preimage classes actually hit get a Walsh transform, so widths
    up to 20 bits stay cheap for small sample counts. The draws are those of
    one ``rng.choice(2^n, hits, p=law)`` per hit class, in increasing order
    of output value, bit for bit and with the same generator state after:
    one block of uniforms is cut into the classes' slices in that order, and
    each slice searches its class's cdf, normalized as ``choice`` normalizes
    it.
    """
    table = _as_table(h, n)
    size = 1 << n
    xs = rng.integers(0, size, size=count)
    if not count:
        return xs
    values, rank, hits = np.unique(table[xs], return_inverse=True, return_counts=True)
    uniforms = rng.random(count)
    # the hit class of every input (its rank among the hit values), or -1
    slot = values.searchsorted(table).clip(max=len(values) - 1)
    codes = np.where(values[slot] == table, slot, -1)
    # the draws of class k, in draw order, and their slice of the uniforms
    order = np.argsort(rank, kind="stable")
    bounds = np.r_[0, hits.cumsum()]
    out = np.empty(count, dtype=np.int64)
    chunk = max(1, _CHUNK_CELLS // size)
    for start in range(0, len(values), chunk):
        stop = min(len(values), start + chunk)
        law = _squared_spectra(codes, start, stop, size)
        law /= law.sum(axis=1, keepdims=True)
        cdf = law.cumsum(axis=1)
        cdf /= cdf[:, -1:]
        for k in range(start, stop):
            lo, hi = bounds[k], bounds[k + 1]
            out[order[lo:hi]] = cdf[k - start].searchsorted(uniforms[lo:hi], side="right")
    return out


def recover(h, count: int, rng: np.random.Generator, n: int) -> PeriodSolution:
    """Draw count samples of u and solve u.s = 0 for the period."""
    table = _as_table(h, n)
    if n < 1:  # no period to find, and no rank to test
        raise ValueError("n must be at least 1")
    if count < 1:
        raise ValueError("count must be at least 1")
    return solve_period(sample(table, count, rng, n).tolist(), n)


def _bin_tables(cdf: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Guide and word table of a (rows, 2^n) stack of cdfs cut into `bins`
    bins (a power of two): two flat arrays whose entry for bin j of a row
    is at row * (bins + 1) + j.

    guide[row, j] is the first word whose cdf exceeds j / bins, as a
    position in the flattened cdfs; guide[row, bins] is the row's end.
    table[row, j] is that word where its cdf reaches the bin's right edge
    (j + 1) / bins, so that every u of the bin draws it (exactly: u * bins
    and the edges are exact in float64); elsewhere, and in the unused
    column bins, it is the sentinel 2^n. The table is in the narrowest
    unsigned dtype that holds 2^n.
    """
    rows, size = cdf.shape
    # cdf <= j / bins iff ceil(cdf * bins) <= j (bins is a power of two), so
    # the running count of those keys is guide[row, j]
    keys = np.ceil(cdf * bins).astype(np.intp) + np.arange(rows)[:, None] * (bins + 1)
    guide = np.bincount(keys.reshape(-1), minlength=rows * (bins + 1)).cumsum()
    first = guide.reshape(rows, bins + 1)[:, :bins]
    table = (guide & (size - 1)).astype(_word_dtype(size.bit_length())).reshape(rows, bins + 1)
    table[:, :bins][cdf.reshape(-1)[first] < np.arange(1, bins + 1) / bins] = size
    table[:, bins] = size
    return guide, table.reshape(-1)


def misses_rank(weights, shape, rng: np.random.Generator, n: int) -> np.ndarray:
    """Whether k words drawn from each of a stack of laws fail to span
    F_2^n: a (..., rows) bool array for a `shape` of (..., rows, k), where
    `weights` is the (rows, 2^n) stack.

    The words at [..., row, :] are those of ``rng.choice(2^n, k,
    p=weights[row])`` called in the C order of the leading axes, bit for
    bit, and the generator ends where ``rng.random(shape)`` leaves it: the
    uniforms are drawn in that order a block of _RANK_BLOCK_CELLS cells at
    a time, each block rank-tested before the next is drawn. A uniform u
    finds its word through a guide table (the indexed search of Chen &
    Asau, 1974) over the rows' cdfs, normalized as ``choice`` normalizes
    them, that is resolved once per call into a word per bin
    (``_bin_tables``): a bin whose first word's cdf reaches the bin's right
    edge holds that word, so a uniform costs one gather of the word table.
    Only the uniforms of the other bins, which hold a cdf step, are
    searched: u draws the bin's first word guide[row, j] if that word's
    cdf exceeds u, and otherwise a word found by binary search between
    guide[row, j] and guide[row, j + 1]. A Simon law's weights are
    multiples of 4^-n, so at 4^n bins every step sits on a bin edge and
    every bin resolves; there are fewer bins where the guide would outgrow
    one block, or the draws.
    """
    *lead, rows, k = shape
    size = 1 << n
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (rows, size):
        raise ValueError(f"weights must be a ({rows}, {size}) stack for a shape of "
                         f"{tuple(shape)}, got shape {weights.shape}")
    draws = rows * math.prod(lead)
    if not draws * k:  # no uniform to draw and no law to normalize
        return (batch_rank(np.zeros((draws, k), np.int64), n) < n).reshape(shape[:-1])
    cdf = weights.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    flat = cdf.reshape(-1)
    bins = 1 << min(2 * n, max(1, min(draws * k, _RANK_BLOCK_CELLS) // rows).bit_length() - 1)
    guide, table = _bin_tables(cdf, bins)
    missed = np.empty(draws, dtype=bool)
    block = max(1, _RANK_BLOCK_CELLS // k)
    for start in range(0, draws, block):
        u = rng.random((min(block, draws - start), k))
        # the same truncation as .astype(np.intp), about 4x faster when
        # numpy casts inside the multiply
        key = np.multiply(u, bins, out=np.empty(u.shape, np.intp), casting="unsafe")
        if rows > 1:  # each row's keys start at row * (bins + 1)
            key += np.arange(start, start + len(u))[:, None] % rows * (bins + 1)
        words = table[key]
        late = words == size
        if late.any():
            # every word before lo = guide[row, j] has cdf <= j / bins <= v,
            # so lo is v's word if its cdf exceeds v; otherwise v's word is
            # in (lo, hi], with hi = guide[row, j + 1] past the bin's right
            # edge (hi = lo gives lo, and never reads before the row)
            at = np.flatnonzero(late)
            v, cell = u.reshape(-1)[at], key.reshape(-1)[at]
            lo = guide[cell]
            hi = np.where(flat[lo] > v, lo, guide[cell + 1])
            while (hi - lo > 1).any():
                mid = (lo + hi) >> 1
                right = flat[mid] <= v
                lo, hi = np.where(right, mid, lo), np.where(right, hi, mid)
            words.reshape(-1)[at] = hi & (size - 1)
        missed[start:start + len(u)] = batch_rank(words, n) < n
    return missed.reshape(shape[:-1])


def _p_bad_mc(weights: np.ndarray, count: int, trials: int,
              rng: np.random.Generator) -> float:
    """Share of `trials` draws of count words from the law `weights` that
    do not span F_2^n (the rank test's false-positive rate, by Monte Carlo).

    The words are those of ``rng.choice(2^n, (trials, count), p=weights)``,
    bit for bit, with the same checks on the weights, and leave the
    generator in the same state (see ``misses_rank``).
    """
    if (weights < 0).any():
        raise ValueError("the law has a negative weight")
    if not abs(float(weights.sum()) - 1.0) <= math.sqrt(np.finfo(np.float64).eps):
        raise ValueError("the law's weights do not sum to 1")
    n = len(weights).bit_length() - 1
    return int(misses_rank(weights[None], (trials, 1, count), rng, n).sum()) / trials


@dataclass(frozen=True)
class PBadEstimate:
    """Monte Carlo false-positive rate with its analytic companions."""

    estimate: float
    half_width_95: float
    analytic_bound: float
    union_bound: float
    eps: float
    trials: int


def p_bad_estimate(h, c: int, trials: int, rng: np.random.Generator, n: int) -> PBadEstimate:
    """Rate at which c*n samples from an aperiodic h miss full rank."""
    table = _as_table(h, n)
    if n < 1:  # no period to find, and no rank to test
        raise ValueError("n must be at least 1")
    if c < 1:
        raise ValueError("c must be at least 1")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    weights, probs = distribution(table, n)
    if _periods(probs):
        raise ValueError("h is periodic; p_bad is defined for aperiodic h")
    count = c * n
    est = _p_bad_mc(weights, count, trials, rng)
    half = 1.96 * math.sqrt(max(est * (1.0 - est), 1e-12) / trials)
    eps = float(probs[1:].max())
    return PBadEstimate(
        estimate=est,
        half_width_95=half,
        analytic_bound=analysis.simon_failure_bound(n, count, eps),
        union_bound=analysis.p_bad_union_bound(probs, count),
        eps=eps,
        trials=trials,
    )


def random_periodic_function(n: int, l: int, period: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Random table with the nonzero period `period` and no other.

    The cosets {x, x ^ period} get pairwise distinct values (needs
    l >= n - 1), which pins the period set exactly.
    """
    if not 0 < period < (1 << n):
        raise ValueError("period must be a nonzero n-bit value")
    size = 1 << n
    xs = np.arange(size)
    canon = np.minimum(xs, xs ^ period)
    reps = np.nonzero(canon == xs)[0]
    slot = np.empty(size, dtype=np.int64)
    slot[reps] = np.arange(len(reps))
    slot = slot[canon]
    if (1 << l) < len(reps):
        raise ValueError(f"need l >= {int(len(reps)).bit_length() - 1} for injective cosets")
    values = rng.choice(1 << l, size=len(reps), replace=False)
    return values[slot].astype(np.int64)
