"""GF(2) words, incremental row echelon bases, period solving, batched rank
tests, and the Walsh-Hadamard transform of real arrays.

Words are plain python ints (or integer arrays) whose width the caller
passes alongside. Widths are capped at 24 bits: everything here is meant
for desk-scale experiments where 2^n tables are materialized.

``Gf2Basis`` keeps a basis and is what period solving needs; a caller that
only asks for ranks hands all its rows to ``batch_rank`` at once. It runs
max-pivot elimination across every row with numpy ops: each step XORs the
largest word of a row into the row's words that share its leading bit,
which is ``Gf2Basis.reduce``'s min(u, u ^ row) taken elementwise.

``fwht_inplace`` splits the Walsh-Hadamard transform by Sylvester's
Kronecker factorization into at most five-bit factors, each one matrix
product with a cached +-1 matrix, which BLAS runs in a few passes over the
array where a radix-2 butterfly makes one per bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

MAX_WIDTH = 24
# Words per block of batch_rank and of the callers that feed it block by
# block (search._rank_predicate, and simon.misses_rank, which draws the
# sampled shot's and the p_bad Monte Carlo's words a block at a time):
# bounds their working arrays to a few MiB whatever the number of rows.
_RANK_BLOCK_CELLS = 1 << 16
# Elements of the one scratch every matrix product of the Walsh-Hadamard
# transform goes through: 256 KiB of float64, which stays in cache and
# bounds the transform's memory whatever the array's size.
_WHT_TILE = 1 << 15
# Widest factor of the transform: a 32 x 32 matrix of +-1 per product.
_WHT_FACTOR_BITS = 5


def _check_width(width: int, what: str = "width") -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"{what} must be in [1, {MAX_WIDTH}], got {width}")


class Gf2Basis:
    """Row-echelon basis of a subspace of F_2^n, built incrementally.

    Rows are ints; row i has its pivot (highest set bit) strictly below
    row i-1's pivot. ``insert`` reduces the candidate against the current
    rows and either absorbs it (rank grows, returns True) or finds it
    dependent (returns False).
    """

    def __init__(self, n: int):
        _check_width(n)
        self.n = n
        self.rows: list[int] = []  # kept sorted by descending pivot

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, u: int) -> int:
        """Reduce u against the basis; 0 iff u is in the span."""
        for row in self.rows:
            u = min(u, u ^ row)
        return u

    def insert(self, u: int) -> bool:
        """Add u to the basis. Returns True iff the rank grew."""
        if not 0 <= u < (1 << self.n):
            raise ValueError(f"vector {u} out of range for n={self.n}")
        u = self.reduce(u)
        if u == 0:
            return False
        self.rows.append(u)
        self.rows.sort(reverse=True)
        return True

    def extend(self, vectors: Iterable[int]) -> int:
        """Insert many vectors; returns the resulting rank."""
        for u in vectors:
            self.insert(u)
        return self.rank

    def nullspace(self) -> list[int]:
        """Basis of {s : u·s = 0 for all u in the row span}.

        Standard free-variable back substitution on the reduced echelon
        form; returns n - rank basis vectors.
        """
        n = self.n
        # Fully reduce rows against each other (reduced row echelon form).
        rows = sorted(self.rows, reverse=True)
        for i, row in enumerate(rows):
            pivot = row.bit_length() - 1
            for j in range(i):
                if (rows[j] >> pivot) & 1:
                    rows[j] ^= row
        pivots = [r.bit_length() - 1 for r in rows]
        pivot_set = set(pivots)
        free_cols = [c for c in range(n) if c not in pivot_set]
        basis = []
        for f in free_cols:
            s = 1 << f
            for row, p in zip(rows, pivots):
                if (row >> f) & 1:
                    s |= 1 << p
            basis.append(s)
        return basis


@dataclass(frozen=True)
class PeriodSolution:
    """Outcome of solving u·s = 0 from Simon samples.

    kind is "unique" (rank n-1, a single nonzero candidate), "full-rank"
    (rank n: no nonzero period can exist), or "ambiguous" (rank < n-1:
    several candidates remain).
    """

    kind: str
    period: int | None
    rank: int
    candidates: tuple[int, ...] = ()


def solve_period(samples: Sequence[int], n: int) -> PeriodSolution:
    """Solve for the hidden period from orthogonal sample vectors."""
    basis = Gf2Basis(n)
    basis.extend(samples)
    r = basis.rank
    if r == n:
        return PeriodSolution("full-rank", None, r)
    null = basis.nullspace()
    if r == n - 1:
        (s,) = null
        return PeriodSolution("unique", s, r, (s,))
    # Enumerate the nonzero candidates only when the count is small enough
    # to be useful to a caller; otherwise just report the basis. The span
    # doubles once per basis vector, whose independence makes its words
    # distinct, so 0 sorts first.
    if n - r <= 12:
        span = np.zeros(1, dtype=np.int64)
        for v in null:
            span = np.concatenate([span, span ^ v])
        return PeriodSolution("ambiguous", None, r, tuple(np.sort(span)[1:].tolist()))
    return PeriodSolution("ambiguous", None, r, tuple(null))


def _word_dtype(n: int) -> type:
    """Narrowest unsigned dtype that holds n bits."""
    if n <= 8:
        return np.uint8
    return np.uint16 if n <= 16 else np.uint32


def batch_rank(words, n: int) -> np.ndarray:
    """GF(2) rank of each row of a (rows, k) array of n-bit words.

    Max-pivot elimination: each step takes the largest word of every row as
    its pivot, counts one rank where that pivot is nonzero, and replaces
    every word u of the row by min(u, u ^ pivot), which clears the pivot's
    leading bit wherever it is set (``Gf2Basis.reduce``, across rows). Each
    step lowers the largest leading bit and zeroes the pivot, so min(n, k)
    steps leave only zeros; the rank does not depend on which pivot a step
    takes. Rows go in blocks of bounded size, each held as a C-ordered
    (k, rows) array in the narrowest unsigned dtype that holds n bits, so
    every step runs along the rows.
    """
    _check_width(n)
    a = np.asarray(words)
    if a.ndim != 2:
        raise ValueError(f"words must be a (rows, k) array, got shape {a.shape}")
    rows, k = a.shape
    ranks = np.zeros(rows, dtype=np.int64)
    if a.size == 0:
        return ranks
    if a.dtype.kind not in "iu":
        raise ValueError(f"words must be integers, got dtype {a.dtype}")
    if a.min() < 0 or a.max() >= (1 << n):
        raise ValueError(f"vector out of range for n={n}")
    dtype = _word_dtype(n)
    block = max(1, _RANK_BLOCK_CELLS // k)
    for start in range(0, rows, block):
        m = a[start:start + block].T.astype(dtype, order="C")
        flipped = np.empty_like(m)
        rank = ranks[start:start + block]
        for _ in range(min(n, k)):
            top = m.max(axis=0)
            rank += top != 0
            np.bitwise_xor(m, top, out=flipped)
            np.minimum(m, flipped, out=m)
    return ranks


def fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform; fwht(fwht(v)) == len(v) * v.

    Works along the last axis, which must be a power of two. Input is real
    only and the result is float64; complex input raises ValueError. The
    input is not modified.
    """
    a = np.asarray(vec)
    if np.iscomplexobj(a):
        raise ValueError("fwht takes real input only")
    a = a.astype(np.float64)
    n = a.shape[-1]
    if n & (n - 1) or n == 0:
        raise ValueError(f"length must be a power of two, got {n}")
    fwht_inplace(a, n)
    return a


@lru_cache(maxsize=None)
def _sylvester(bits: int, dtype: np.dtype) -> np.ndarray:
    """The 2^bits-point Hadamard matrix of +-1 entries, H[i, j] =
    (-1)^(i . j), symmetric; one per (bits, dtype), read-only."""
    i = np.arange(1 << bits)
    parity = (np.bitwise_count(i[:, None] & i) & 1).astype(np.int64)
    h = (1 - 2 * parity).astype(dtype)
    h.flags.writeable = False
    return h


def _factor_bits(bits: int) -> list[int]:
    """The fewest near-equal widths of at most _WHT_FACTOR_BITS that sum to
    bits, the smaller ones first."""
    count = -(-bits // _WHT_FACTOR_BITS)
    return [bits // count + (j >= count - bits % count) for j in range(count)]


def fwht_inplace(a: np.ndarray, size: int, right: int = 1) -> None:
    """Unnormalized Walsh-Hadamard transform of a C-contiguous array in
    place, along the axis of length `size` (a power of two) of its
    (left, size, right) view.

    Sylvester's H_(2^(s+t)) = H_(2^s) (x) H_(2^t) splits the transform
    into a few small ones, one per factor of the axis's bits (see
    ``_factor_bits``), lowest bits first. Each is one matrix product with
    the factor's +-1 matrix on the array's (P, F, Q) view: the (P, F) rows
    times H when Q = 1, else H times each (F, Q) slab. The products go
    tile by tile, over P and, where F * Q exceeds a tile, over Q too, each
    into one scratch of at most _WHT_TILE elements and copied back. On
    integer-valued input every result is exact; on floats the sums run in
    the matrix product's order, not a butterfly's.
    """
    if not a.flags.c_contiguous:
        raise ValueError("fwht_inplace works through views of a C-contiguous array")
    scratch = np.empty(min(_WHT_TILE, a.size), dtype=a.dtype)
    q = right
    for bits in _factor_bits(size.bit_length() - 1):
        f, h = 1 << bits, _sylvester(bits, a.dtype)
        if q == 1:
            rows = a.reshape(-1, f)
            step = _WHT_TILE // f
            for r0 in range(0, len(rows), step):
                piece = rows[r0:r0 + step]
                if len(piece) == 1:
                    # numpy takes a one-row product as a matrix-vector one,
                    # which sums in another order than the rows of a matrix
                    # product: pad it with a zero row
                    piece[...] = np.matmul(np.vstack([piece, np.zeros_like(piece)]), h)[:1]
                    continue
                out = scratch[:piece.size].reshape(piece.shape)
                np.matmul(piece, h, out=out)
                piece[...] = out
        else:
            slabs = a.reshape(-1, f, q)
            step, width = max(1, _WHT_TILE // (f * q)), min(q, _WHT_TILE // f)
            for p0 in range(0, len(slabs), step):
                for c0 in range(0, q, width):
                    piece = slabs[p0:p0 + step, :, c0:c0 + width]
                    out = scratch[:piece.size].reshape(piece.shape)
                    np.matmul(h, piece, out=out)
                    piece[...] = out
        q *= f
