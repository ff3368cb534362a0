"""GF(2) words, incremental row echelon bases, period solving, batched rank
tests, and the Walsh-Hadamard transform.

Words are plain python ints carrying their width explicitly (``BitWord``)
or implicitly (most internal call sites). Widths are capped at 24 bits:
everything here is meant for desk-scale experiments where 2^n tables are
materialized.

``Gf2Basis`` keeps a basis and is what period solving needs; a caller that
only asks for ranks hands all its rows to ``batch_rank`` at once, which
eliminates one pivot bit at a time across every row with numpy bit ops (the
plain bit-sliced form of M4RI-style elimination).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MAX_WIDTH = 24
# Words per block of batch_rank: bounds its working arrays to a few hundred
# KiB whatever the number of rows.
_RANK_BLOCK_CELLS = 1 << 16


def _check_width(width: int) -> None:
    if not 1 <= width <= MAX_WIDTH:
        raise ValueError(f"width must be in [1, {MAX_WIDTH}], got {width}")


@dataclass(frozen=True)
class BitWord:
    """An unsigned value of a fixed bit width."""

    value: int
    width: int

    def __post_init__(self) -> None:
        _check_width(self.width)
        if not 0 <= self.value < (1 << self.width):
            raise ValueError(f"value {self.value} does not fit in {self.width} bits")

    def __xor__(self, other: "BitWord") -> "BitWord":
        if other.width != self.width:
            raise ValueError("width mismatch")
        return BitWord(self.value ^ other.value, self.width)

    def bit(self, i: int) -> int:
        return (self.value >> i) & 1

    def hex(self) -> str:
        return f"0x{self.value:0{(self.width + 3) // 4}x}"

    def bits(self) -> str:
        return format(self.value, f"0{self.width}b")


def parity(x: int) -> int:
    """Parity of the popcount of x."""
    return x.bit_count() & 1


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

    def contains(self, u: int) -> bool:
        return self.reduce(u) == 0

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
    # to be useful to a caller; otherwise just report the basis.
    dim = n - r
    if dim <= 12:
        cands = []
        for mask in range(1, 1 << dim):
            v = 0
            for i in range(dim):
                if (mask >> i) & 1:
                    v ^= null[i]
            cands.append(v)
        return PeriodSolution("ambiguous", None, r, tuple(sorted(cands)))
    return PeriodSolution("ambiguous", None, r, tuple(null))


def _word_dtype(n: int) -> type:
    """Narrowest unsigned dtype that holds n bits."""
    if n <= 8:
        return np.uint8
    return np.uint16 if n <= 16 else np.uint32


def batch_rank(words, n: int) -> np.ndarray:
    """GF(2) rank of each row of a (rows, k) array of n-bit words.

    For each pivot bit from n-1 down to 0, the first word of a row with
    that bit set is XORed into every word of the row that has it, and the
    row's rank counts one pivot. Rows are processed in blocks of bounded
    size in the narrowest unsigned dtype that holds n bits.
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
        m = a[start:start + block].astype(dtype)
        lanes = np.arange(len(m))
        rank = ranks[start:start + block]
        for bit in range(n - 1, -1, -1):
            mask = dtype(1 << bit)
            has = (m & mask) != 0
            pivot = m[lanes, has.argmax(axis=1)]
            # a row with no word holding the bit gets a pivot without it
            rank += (pivot & mask) != 0
            m ^= has * pivot[:, None]
    return ranks


def rank_of(vectors: Iterable[int], n: int) -> int:
    """Rank of a set of words in F_2^n."""
    return int(batch_rank(np.asarray(list(vectors)).reshape(1, -1), n)[0])


def fwht(vec: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard transform; fwht(fwht(v)) == len(v) * v.

    Works along the last axis, which must be a power of two. Real input is
    promoted to float64; complex input stays complex.
    """
    a = np.asarray(vec)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=True)
    n = a.shape[-1]
    if n & (n - 1) or n == 0:
        raise ValueError(f"length must be a power of two, got {n}")
    h = 1
    while h < n:
        a = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack([top, bot], axis=-2).reshape(a.shape[:-3] + (n,))
        h *= 2
    return a
