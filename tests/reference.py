"""Brute-force references the tests check the package against.

Each one computes its answer the slow, direct way, independently of the
kernel or attack it is compared with: a collision count shift by shift, a
key search over the whole key space, a register read off a basis index,
and the stage-by-stage Walsh-Hadamard transform that the in-place kernel
replaced.
"""

import numpy as np

from offline_simon.primitives import (IterFxInstance, RelatedKeyOracle, ifx_encrypt,
                                      related_key_query)


def brute_collision_prob(table, n: int, t: int) -> float:
    """Pr_x[h(x ^ t) = h(x)] for a single shift t, by direct count (an
    exact multiple of 2^-n)."""
    table = np.asarray(table)
    xs = np.arange(1 << n)
    return float(np.count_nonzero(table[xs ^ t] == table[xs])) / (1 << n)


def exhaustive_related_key_search(oracle: RelatedKeyOracle, probes: int = 4) -> list[int]:
    """All keys consistent with a few difference probes (normally a single
    key at toy scale)."""
    deltas = list(range(probes))
    targets = [related_key_query(oracle, d) for d in deltas]
    hits = []
    for key in range(1 << oracle.family.m):
        if all(
            oracle.family.encrypt(key ^ d, oracle.msg) == t
            for d, t in zip(deltas, targets)
        ):
            hits.append(key)
    return hits


def exhaustive_ifx_search(inst: IterFxInstance) -> list[tuple[int, int]]:
    """All (k1, k2) over the full key space that reproduce the codebook."""
    hits = []
    targets = [ifx_encrypt(inst, x) for x in range(1 << inst.n)]
    for k1 in range(1 << inst.n):
        for k2 in range(1 << inst.m):
            ok = True
            for x, t in zip(range(1 << inst.n), targets):
                y = x
                for _ in range(inst.rounds):
                    y = inst.family.encrypt(k2, y ^ k1)
                if y ^ k1 != t:
                    ok = False
                    break
            if ok:
                hits.append((k1, k2))
    return hits


def register_value(layout, index: int, name: str) -> int:
    """The value of register `name` in the basis state `index`."""
    return (index >> layout.shift(name)) & ((1 << layout.width(name)) - 1)


def stacking_fwht(vec):
    """The stage-by-stage transform ``gf2.fwht`` replaced: reshape, then
    np.stack, on a float (or complex) copy of the last axis."""
    a = np.asarray(vec)
    a = a.astype(np.result_type(a.dtype, np.float64), copy=True)
    n = a.shape[-1]
    h = 1
    while h < n:
        a = a.reshape(a.shape[:-1] + (n // (2 * h), 2, h))
        top = a[..., 0, :] + a[..., 1, :]
        bot = a[..., 0, :] - a[..., 1, :]
        a = np.stack([top, bot], axis=-2).reshape(a.shape[:-3] + (n,))
        h *= 2
    return a
