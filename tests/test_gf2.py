import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from offline_simon import gf2
from offline_simon.gf2 import (
    MAX_WIDTH,
    Gf2Basis,
    batch_rank,
    fwht,
    fwht_inplace,
    solve_period,
)
from reference import fwht_error_bound, stacking_fwht


def rank_of(vectors, n):
    """Rank of a set of words in F_2^n, as one row of batch_rank."""
    return int(batch_rank(np.asarray(list(vectors), dtype=np.int64).reshape(1, -1), n)[0])


def brute_rank(vectors, n):
    """Row-reduce over F2 the slow way."""
    rows = [v for v in vectors if v]
    rank = 0
    for bit in reversed(range(n)):
        pivot = next((r for r in rows if (r >> bit) & 1), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r ^ pivot if (r >> bit) & 1 else r for r in rows if r != pivot]
    return rank


st_dim = st.integers(min_value=1, max_value=10)


@given(st.data(), st_dim)
@settings(max_examples=150, deadline=None)
def test_rank_matches_bruteforce(data, n):
    count = data.draw(st.integers(min_value=0, max_value=2 * n))
    vecs = [data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
            for _ in range(count)]
    assert rank_of(vecs, n) == brute_rank(vecs, n)


@given(st.data(), st_dim)
@settings(max_examples=100, deadline=None)
def test_nullspace_is_orthogonal_complement(data, n):
    count = data.draw(st.integers(min_value=0, max_value=2 * n))
    vecs = [data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
            for _ in range(count)]
    basis = Gf2Basis(n)
    basis.extend(vecs)
    null = basis.nullspace()
    assert len(null) == n - basis.rank
    for s in null:
        assert s != 0
        for v in vecs:
            assert bin(v & s).count("1") % 2 == 0
    assert rank_of(null, n) == len(null)


# the dtype boundaries of batch_rank (uint8/16/32) plus any width
st_width = st.one_of(st.sampled_from([1, 8, 9, 16, 17, 24]),
                     st.integers(min_value=1, max_value=MAX_WIDTH))


@given(st.data(), st_width)
@settings(max_examples=200, deadline=None)
def test_batch_rank_matches_basis(data, n):
    word = st.integers(min_value=0, max_value=(1 << n) - 1)
    rows = data.draw(st.integers(min_value=0, max_value=6))
    k = data.draw(st.integers(min_value=0, max_value=min(2 * n + 2, 30)))
    words = []
    for _ in range(rows):
        kind = data.draw(st.sampled_from(["free", "span", "repeat"]))
        if kind == "free":
            words.append([data.draw(word) for _ in range(k)])
        elif kind == "span":
            # rank-deficient: every word lies in the span of <= 3 generators
            gens = [data.draw(word) for _ in range(data.draw(st.integers(0, 3)))]
            row = []
            for _ in range(k):
                mask = data.draw(st.integers(min_value=0, max_value=(1 << len(gens)) - 1))
                v = 0
                for j, g in enumerate(gens):
                    if (mask >> j) & 1:
                        v ^= g
                row.append(v)
            words.append(row)
        else:
            pool = st.sampled_from([0, data.draw(word)])
            words.append([data.draw(pool) for _ in range(k)])
    arr = np.array(words, dtype=np.int64).reshape(rows, k)
    got = batch_rank(arr, n)
    assert got.shape == (rows,)
    assert got.tolist() == [Gf2Basis(n).extend(int(u) for u in row) for row in arr]


def test_batch_rank_empty_shapes():
    assert batch_rank(np.zeros((0, 5), dtype=np.int64), 4).shape == (0,)
    assert batch_rank(np.zeros((3, 0), dtype=np.int64), 4).tolist() == [0, 0, 0]
    assert rank_of([], 4) == 0


def test_batch_rank_spans_blocks():
    # more rows than one block holds, at each dtype width
    rng = np.random.default_rng(8)
    for n in (6, 12, 20):
        words = rng.integers(0, 1 << n, size=(20_000, 5))
        words[1::2, 4] = words[1::2, 0] ^ words[1::2, 1]
        want = [Gf2Basis(n).extend(int(u) for u in row) for row in words]
        assert batch_rank(words, n).tolist() == want


def first_word_batch_rank(words, n):
    """The batch_rank that max-pivot elimination replaced: for each pivot bit
    from the top, the first word of a row holding that bit is XORed into
    every word of the row that holds it."""
    a = np.asarray(words)
    rows, k = a.shape
    ranks = np.zeros(rows, dtype=np.int64)
    if a.size == 0:
        return ranks
    dtype = np.uint8 if n <= 8 else np.uint16 if n <= 16 else np.uint32
    block = max(1, (1 << 16) // k)
    for start in range(0, rows, block):
        m = a[start:start + block].astype(dtype)
        lanes = np.arange(len(m))
        rank = ranks[start:start + block]
        for bit in range(n - 1, -1, -1):
            mask = dtype(1 << bit)
            has = (m & mask) != 0
            pivot = m[lanes, has.argmax(axis=1)]
            rank += (pivot & mask) != 0
            m ^= has * pivot[:, None]
    return ranks


def _mixed_rank_rows(n, k, rows, rng):
    """rows of k n-bit words: free, zero, one repeated word, and spans of
    1..3 generators (rank-deficient), in shuffled order."""
    out = rng.integers(0, 1 << n, size=(rows, k))
    kind = rng.integers(0, 4, size=rows)
    out[kind == 1] = 0
    out[kind == 2] = rng.integers(0, 1 << n, size=(int((kind == 2).sum()), 1))
    for r in np.flatnonzero(kind == 3):
        gens = rng.integers(0, 1 << n, size=int(rng.integers(1, 4)))
        masks = rng.integers(0, 2, size=(k, len(gens))).astype(bool)
        out[r] = [np.bitwise_xor.reduce(gens[m]) if m.any() else 0 for m in masks]
    return out


@pytest.mark.parametrize("n", range(1, MAX_WIDTH + 1))
def test_batch_rank_matches_first_word_elimination(monkeypatch, n):
    """Max-pivot elimination gives the old kernel's ranks at every width,
    for k below, at and above n, from every integer dtype that holds n bits,
    over several blocks with a short last one. Catches a min pivot in place
    of the max and a block's tail left unranked."""
    rng = np.random.default_rng(300 + n)
    cells = 97  # an odd block size, so most blocks end short
    monkeypatch.setattr(gf2, "_RANK_BLOCK_CELLS", cells)
    dtypes = [np.int64] + [t for t, bits in ((np.uint8, 8), (np.uint16, 16),
                                             (np.uint32, 32)) if n <= bits]
    for k in sorted({1, max(1, n - 1), n, 3 * n + 2}):
        rows = max(40, 3 * (cells // k) + 2)
        words = _mixed_rank_rows(n, k, rows, rng)
        want = first_word_batch_rank(words, n)
        assert (want < min(n, k)).any()  # some rows are rank-deficient
        for dtype in dtypes:
            assert batch_rank(words.astype(dtype), n).tolist() == want.tolist()


def test_batch_rank_rejects_bad_input():
    for bad in ([[1, 16]], [[-1, 2]], [[3, 1 << 40]]):
        with pytest.raises(ValueError):
            batch_rank(np.array(bad), 4)
    with pytest.raises(ValueError):
        rank_of([1, 16], 4)
    with pytest.raises(ValueError):
        batch_rank(np.array([1, 2]), 4)  # not (rows, k)
    with pytest.raises(ValueError):
        batch_rank(np.array([[0.5, 1.0]]), 4)
    for width in (0, MAX_WIDTH + 1):
        with pytest.raises(ValueError):
            batch_rank(np.zeros((1, 1), dtype=np.int64), width)


def test_basis_insert_and_contains():
    basis = Gf2Basis(4)
    assert basis.insert(0b1010)
    assert basis.insert(0b0110)
    assert not basis.insert(0b1100)  # dependent on the first two
    assert basis.reduce(0b1100) == 0
    assert basis.reduce(0b0001) != 0
    assert basis.rank == 2


def test_solve_period_unique():
    # samples orthogonal to s = 0b101 on n=3: {000, 010, 101, 111}
    sol = solve_period([0b010, 0b111], 3)
    assert sol.kind == "unique"
    assert sol.period == 0b101
    assert sol.candidates == (0b101,)


def test_solve_period_full_rank():
    sol = solve_period([0b001, 0b010, 0b100], 3)
    assert sol.kind == "full-rank"
    assert sol.period is None
    assert sol.candidates == ()


def test_solve_period_ambiguous_enumerates():
    sol = solve_period([0b100], 3)
    assert sol.kind == "ambiguous"
    assert sol.period is None
    # nullspace of span{100} has dimension 2: three nonzero candidates
    assert len(sol.candidates) == 3
    for cand in sol.candidates:
        assert bin(cand & 0b100).count("1") % 2 == 0


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_solve_period_finds_planted(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    s = data.draw(st.integers(min_value=1, max_value=(1 << n) - 1))
    ortho = [u for u in range(1 << n) if bin(u & s).count("1") % 2 == 0]
    draws = [data.draw(st.sampled_from(ortho)) for _ in range(3 * n)]
    sol = solve_period(draws, n)
    if sol.kind == "unique":
        assert sol.period == s
    else:
        assert sol.kind == "ambiguous"
        assert s in sol.candidates


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_solve_period_candidates_are_the_orthogonal_words(data):
    # ambiguous: every nonzero s orthogonal to all samples, sorted, while
    # there are at most 2^12 - 1 of them; past that, the nullspace basis
    n = data.draw(st.integers(min_value=2, max_value=16))
    samples = data.draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                                 max_size=n))
    sol = solve_period(samples, n)
    s = np.arange(1, 1 << n)
    even = np.ones(len(s), dtype=bool)
    for u in samples:
        even &= np.bitwise_count(s & u) % 2 == 0
    orthogonal = s[even].tolist()
    dim = n - sol.rank
    if dim < 2:
        assert sol.candidates == tuple(orthogonal)
        return
    assert sol.kind == "ambiguous"
    if dim <= 12:
        assert sol.candidates == tuple(orthogonal)
    else:
        basis = Gf2Basis(n)
        basis.extend(samples)
        assert sol.candidates == tuple(basis.nullspace())
        assert len(orthogonal) == (1 << dim) - 1


def test_width_limits():
    with pytest.raises(ValueError):
        Gf2Basis(MAX_WIDTH + 1)
    with pytest.raises(ValueError):
        Gf2Basis(0)


@given(st.integers(min_value=0, max_value=4))
@settings(deadline=None)
def test_fwht_involution(logn):
    rng = np.random.default_rng(logn)
    v = rng.standard_normal(1 << logn)
    out = fwht(fwht(v))
    assert np.allclose(out, len(v) * v)


def test_fwht_matches_definition():
    rng = np.random.default_rng(3)
    n = 3
    v = rng.standard_normal(1 << n)
    got = fwht(v)
    for u in range(1 << n):
        want = sum(v[x] * (-1) ** (bin(u & x).count("1") % 2) for x in range(1 << n))
        assert got[u] == pytest.approx(want)


# lengths below, at and above one tile of products, and batches of rows
@pytest.mark.parametrize("shape", [(1,), (2,), (16,), (512,), (1 << 15,), (1 << 16,),
                                   (100, 512), (3, 1 << 15), (5, 4, 8)], ids=str)
@pytest.mark.parametrize("kind", ["real", "int"])
def test_fwht_is_bit_identical_to_the_stacking_transform(shape, kind):
    rng = np.random.default_rng(7)
    if kind == "int":
        v = rng.integers(-9, 9, size=shape)
    else:
        v = rng.standard_normal(shape)
    before = v.copy()
    out = fwht(v)
    assert out.dtype == np.float64
    if kind == "int":
        # every partial sum is an integer, exact in any order
        assert np.array_equal(out, stacking_fwht(v))
    else:
        # the matrix products sum in another order than the radix-2 tree:
        # the same bound against the exact transform, not the same bits
        exact = stacking_fwht(v.astype(np.longdouble))
        assert np.all(np.abs(out - exact) <= fwht_error_bound(v))
    assert np.array_equal(v, before)


def _stacked_along(a, size, right):
    """stacking_fwht along the middle axis of a's (left, size, right) view."""
    view = a.reshape(-1, size, right).transpose(0, 2, 1)
    out = stacking_fwht(np.ascontiguousarray(view)).transpose(0, 2, 1)
    return np.ascontiguousarray(out).reshape(a.shape)


# 1-5 bits are one factor, 6-10 two (7 and 9 uneven), 11-15 three (11, 13
# and 14 uneven), 16 four
@pytest.mark.parametrize("bits", range(1, 17))
def test_fwht_inplace_is_exact_at_every_factor_split(bits):
    factors = gf2._factor_bits(bits)
    assert sum(factors) == bits and max(factors) <= 5
    assert len(factors) == -(-bits // 5) and max(factors) - min(factors) <= 1
    size = 1 << bits
    rows = max(1, (1 << 16) >> bits)
    a = np.random.default_rng(bits).integers(-9, 9, size=(rows, size)).astype(np.float64)
    want = stacking_fwht(a)
    fwht_inplace(a, size)
    assert np.array_equal(a, want)


# right = 1 (row products), small rights (slabs tiled over the rows), and
# rights whose F * Q passes one tile (slabs tiled over Q too: strided
# pieces); rows that end one short of, on and one past a tile
@pytest.mark.parametrize("left,size,right", [
    (7, 512, 1), (33, 512, 4), (5000, 8, 2), (3, 1024, 64), (3, 8, 1 << 13),
    (2, 32, 1 << 12), (2, 1 << 11, 16),
    (1023, 32, 1), (1024, 32, 1), (1025, 32, 1), (2049, 32, 1),
    (63, 512, 1), (64, 512, 1), (65, 512, 1), (129, 512, 1),
], ids=str)
def test_fwht_inplace_is_exact_along_a_middle_axis(left, size, right):
    rng = np.random.default_rng(left + size + right)
    a = rng.integers(-9, 9, size=(left, size, right)).astype(np.float64)
    want = _stacked_along(a, size, right)
    fwht_inplace(a, size, right)
    assert np.array_equal(a, want)


@pytest.mark.parametrize("size,right", [(32, 1), (512, 1), (1 << 13, 1), (64, 8)], ids=str)
def test_fwht_inplace_rows_do_not_depend_on_their_call(size, right):
    # a row's float transform is the same bits whatever rows share the call
    # and wherever the array starts in its buffer: the exact run's blocks
    # and simon.distributions' stacked rows rely on it; the last tile of
    # the whole call holds one row
    rng = np.random.default_rng(size + right)
    rows = (1 << 17) // (size * right) + 1
    v = rng.standard_normal((rows, size * right))
    whole = v.copy()
    fwht_inplace(whole, size, right)
    for start, stop in [(0, 1), (0, 2), (1, 4), (rows // 2, rows), (rows - 1, rows)]:
        part = v[start:stop].copy()
        fwht_inplace(part, size, right)
        assert np.array_equal(part, whole[start:stop])
    buf = np.empty(v.size + 8)
    for offset in range(1, 9):
        a = buf[offset:offset + v.size].reshape(v.shape)
        a[...] = v
        fwht_inplace(a, size, right)
        assert np.array_equal(a, whole)


@pytest.mark.parametrize("size,right", [(1 << 20, 1), (1 << 10, 1 << 10), (8, 1 << 17),
                                        (32, 1)], ids=str)
def test_fwht_inplace_scratch_is_one_tile(size, right):
    a = np.ones(1 << 20)
    fwht_inplace(a[:size * right].copy(), size, right)  # builds the cached matrices
    tracemalloc.start()
    try:
        fwht_inplace(a, size, right)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * (1 << 15) + (1 << 12)
    assert a[0] == size and np.count_nonzero(a) == a.size // size


def test_fwht_inplace_rejects_a_strided_view():
    a = np.arange(16.0)
    with pytest.raises(ValueError):
        fwht_inplace(a[::2], 8)
    assert np.array_equal(a, np.arange(16.0))


def test_fwht_refuses_complex_input():
    # the imaginary part must not be dropped silently
    v = np.array([1 + 1j, 0, 0, 0])
    before = v.copy()
    with pytest.raises(ValueError, match="real"):
        fwht(v)
    assert np.array_equal(v, before)
