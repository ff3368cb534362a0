import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from offline_simon.gf2 import (
    MAX_WIDTH,
    BitWord,
    Gf2Basis,
    batch_rank,
    fwht,
    rank_of,
    solve_period,
)


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


def test_bitword_validates_width():
    w = BitWord(5, 3)
    assert w.value == 5 and w.width == 3
    with pytest.raises(ValueError):
        BitWord(8, 3)
    with pytest.raises(ValueError):
        BitWord(0, 0)


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
    assert basis.contains(0b1100)
    assert not basis.contains(0b0001)
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


def test_fwht_preserves_complex():
    v = np.array([1 + 1j, 0, 0, 0])
    out = fwht(v)
    assert out.dtype.kind == "c"
    assert np.allclose(out, np.full(4, 1 + 1j))
