"""Brute-force references the tests check the package against.

Each one computes its answer the slow, direct way, independently of the
kernel or attack it is compared with: the scalar oracle of each
construction, one query at a time, a collision count shift by shift, a key
search over the whole key space, a register read off a basis index, the
exact circuit with its check's output bit simulated as a qubit and its
queries as XORs into the y registers (and the exact database damage of one
such check), the same circuit with its y registers in their Hadamard
basis, held as registers or run label tuple by label tuple, the
stage-by-stage Walsh-Hadamard transform that the in-place kernels
replaced (and the bound a float transform keeps to the exact one), the
per-key family draw, the per-class sampler and the call-by-call carve
families that the numpy gathers replaced.
"""

import numpy as np

from offline_simon import analysis, qaa, qsim, search
from offline_simon.gf2 import fwht
from offline_simon.primitives import (BeetleToyInstance, ChaskeyToyInstance,
                                      EvenMansourInstance, FxInstance, IterFxInstance,
                                      RelatedKeyOracle)


def em_encrypt(inst: EvenMansourInstance, x: int) -> int:
    return inst.perm(x ^ inst.k1) ^ inst.k2


def fx_encrypt(inst: FxInstance, x: int) -> int:
    return inst.family.encrypt(inst.k, x ^ inst.k_in) ^ inst.k_out


def ifx_encrypt(inst: IterFxInstance, x: int) -> int:
    for _ in range(inst.rounds):
        x = inst.family.encrypt(inst.k2, x ^ inst.k1)
    return x ^ inst.k1


def chaskey_tag(inst: ChaskeyToyInstance, m1: int, m2: int) -> int:
    state = inst.perm(inst.k ^ m1)
    return inst.perm(state ^ m2 ^ inst.k1) ^ inst.k1


def beetle_init(inst: BeetleToyInstance, nonce: int) -> int:
    if not 0 <= nonce < (1 << inst.rate):
        raise ValueError("nonce wider than the rate")
    state = ((inst.k1 ^ nonce) << inst.capacity) | inst.k2
    return inst.perm(state)


def related_key_query(oracle: RelatedKeyOracle, delta: int) -> int:
    return oracle.family.encrypt(oracle.k ^ delta, oracle.msg)


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


def exact_layout(n: int, l: int, copies: int, m: int = 0) -> qsim.RegisterLayout:
    """The registers of the whole exact circuit but its check's output bit,
    highest bits first: the index, the x registers, the y registers."""
    regs = [("idx", m)] if m > 0 else []
    regs += [(f"x{k}", n) for k in range(copies)]
    regs += [(f"y{k}", l) for k in range(copies)]
    return qsim.RegisterLayout(*regs)


def prepare_database(state: qsim.QState, table, copies: int) -> None:
    """The database, each copy sum_x |x>|table[x]>, on the |+...+> state
    with every y register in its Hadamard basis: one parity phase per
    copy over its (x, y) registers."""
    phases = search._parity_table(table, state.layout.width("y0"))
    for k in range(copies):
        qsim.apply_phase_oracle(state, phases, (f"x{k}", f"y{k}"))


def apply_rank_phase(state: qsim.QState, n: int, copies: int) -> None:
    """The check in its phase form: -1 on the components whose sample words
    do not span F_2^n, read in the Hadamard basis of the x registers."""
    xs = [f"x{k}" for k in range(copies)]
    for name in xs:
        qsim.apply_h(state, name)
    qsim.apply_phase_oracle(state, search._rank_predicate(n, copies), xs)
    for name in xs:
        qsim.apply_h(state, name)


def label_tuple_index_distribution(instance, copies: int, r: int) -> np.ndarray:
    """The exact backend's index marginal as the average, at unit weight,
    over every one of the 2^(l * copies) tuples of y labels of a circuit
    on the index and x registers alone (``label_tuple_marginal``)."""
    l = instance.l
    total = np.zeros(1 << instance.m)
    for packed in range(1 << (l * copies)):
        total += label_tuple_marginal(
            instance, [(packed >> (k * l)) & ((1 << l) - 1) for k in range(copies)], r)
    return total / (1 << (l * copies))


def label_tuple_marginal(instance, labels, r: int) -> np.ndarray:
    """The index marginal of the circuit on the index and x registers of
    one tuple of y labels, one copy per label, run with the simulator's
    kernels: each copy k with label v takes the query phases
    (-1)^(v . g(x_k)) and (-1)^(v . f_i(x_k)), the y registers themselves
    never being held."""
    n, m, copies = instance.n, instance.m, len(labels)
    layout = qsim.RegisterLayout(("idx", m), *[(f"x{k}", n) for k in range(copies)])
    g_parity = [np.bitwise_count(instance.g & v) & 1 for v in labels]
    f_parity = [np.bitwise_count(instance.family.reshape(-1) & v) & 1 for v in labels]
    state = qsim.init_plus(layout)
    for k in range(copies):
        qsim.apply_phase_oracle(state, g_parity[k], f"x{k}")
    for _ in range(r):
        for k in range(copies):
            qsim.apply_phase_oracle(state, f_parity[k], ("idx", f"x{k}"))
        apply_rank_phase(state, n, copies)
        for k in range(copies):
            qsim.apply_phase_oracle(state, f_parity[k], ("idx", f"x{k}"))
        qaa.diffusion(state)
    return qsim.marginal(state, "idx")


def ancilla_layout(n: int, l: int, copies: int, m: int = 0) -> qsim.RegisterLayout:
    """The exact circuit's layout with the check's output bit simulated as
    a one-qubit register "b", below the others."""
    return qsim.RegisterLayout(*exact_layout(n, l, copies, m).registers, ("b", 1))


def bitflip_database(state: qsim.QState, table, copies: int) -> None:
    """The database on a |0...0> state as the circuit builds it: H on each
    x register, then the query XORed into its y register, copy by copy."""
    for k in range(copies):
        qsim.apply_h(state, f"x{k}")
        qsim.apply_oracle_xor(state, table, f"x{k}", f"y{k}")


def apply_rank_xor(state: qsim.QState, n: int, copies: int) -> None:
    """The check in its bit-flip form: the rank predicate of the x
    registers, read in their Hadamard basis, XORed into "b"."""
    xs = [f"x{k}" for k in range(copies)]
    for name in xs:
        qsim.apply_h(state, name)
    qsim.apply_oracle_xor(state, search._rank_predicate(n, copies), xs, "b")
    for name in xs:
        qsim.apply_h(state, name)


def ancilla_index_distribution(instance, copies: int, r: int) -> np.ndarray:
    """The exact backend's index marginal from the bit-flip circuit: queries
    XORed into the y registers, and "b" prepared in |-> and flipped by the
    bit-flip check, all of which the backend's phase form folds away."""
    n, l, m = instance.n, instance.l, instance.m
    state = qsim.init_zero(ancilla_layout(n, l, copies, m))
    bitflip_database(state, instance.g, copies)
    qsim.apply_h(state, "idx")
    qsim.apply_x(state, "b")
    qsim.apply_h(state, "b")
    for _ in range(r):
        for k in range(copies):
            qsim.apply_indexed_oracle(state, instance.family, "idx", f"x{k}", f"y{k}")
        apply_rank_xor(state, n, copies)
        for k in range(copies):
            qsim.apply_indexed_oracle(state, instance.family, "idx", f"x{k}", f"y{k}")
        qaa.diffusion(state)
    return qsim.marginal(state, "idx")


def exact_check(table, n: int, l: int, copies: int, b: int = 0) -> tuple[qsim.QState, float]:
    """One bit-flip check on a freshly prepared branch database with output
    bit b: the state after it, and its distance from the ideal outcome (the
    database untouched, b flipped exactly when the branch is periodic)."""
    state = qsim.init_zero(ancilla_layout(n, l, copies))
    bitflip_database(state, table, copies)
    if b:
        qsim.apply_x(state, "b")
    ideal = state.copy()
    apply_rank_xor(state, n, copies)
    if analysis.find_periods(table, n):
        qsim.apply_x(ideal, "b")
    return state, qsim.distance(state, ideal)


def restoration_distance(table, n: int, l: int, copies: int) -> float:
    """Exact database damage of one check on the given branch table."""
    return exact_check(table, n, l, copies)[1]


def register_value(layout, index: int, name: str) -> int:
    """The value of register `name` in the basis state `index`."""
    return (index >> layout.shift(name)) & ((1 << layout.width(name)) - 1)


def stacking_fwht(vec):
    """The stage-by-stage transform ``gf2.fwht`` replaced: reshape, then
    np.stack, on a float copy of the last axis (np.longdouble input stays
    np.longdouble, which makes it the exact reference for float64 input)."""
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


def fwht_error_bound(vec, axis=-1):
    """Bound on the error of a float64 Walsh-Hadamard transform of `vec`
    along `axis`, against the exact one: log2(size) * eps * sum |v| over
    each line, broadcast along it. Integer-valued input transforms exactly
    in any order of summation; on normal draws the kernels err by a few
    hundredths to a few tenths of eps * sum |v|."""
    v = np.asarray(vec, dtype=np.float64)
    eps = np.finfo(np.float64).eps
    return np.log2(v.shape[axis]) * eps * np.abs(v).sum(axis=axis, keepdims=True)


def stacked_family_table(m: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The (2^m, 2^n) table ``BlockCipherFamily`` drew before its in-place
    shuffle: one ``rng.permutation(2^n)`` per key, stacked, then cast."""
    return np.stack([rng.permutation(1 << n) for _ in range(1 << m)]).astype(np.int64)


def per_class_sample(h, count: int, rng: np.random.Generator, n: int) -> np.ndarray:
    """The sampler ``simon.sample`` replaced: one ``np.unique``, one class
    indicator transform and one ``rng.choice`` per hit class, in increasing
    order of output value."""
    table = np.asarray(h, dtype=np.int64)
    size = 1 << n
    _, codes = np.unique(table, return_inverse=True)
    xs = rng.integers(0, size, size=count)
    hit = codes[xs]
    out = np.empty(count, dtype=np.int64)
    for code in np.unique(hit):
        where = np.nonzero(hit == code)[0]
        spectrum = fwht((codes == code).astype(float))
        law = spectrum * spectrum
        law /= law.sum()
        out[where] = rng.choice(size, size=len(where), p=law)
    return out


def scalar_carve_family(kind: str, inst, u: int | None) -> np.ndarray:
    """The branch family an attack kind carves from its instance, one
    permutation or cipher call per entry: row i, column x of the family of
    ``attacks.TARGETS[kind].carve(inst, u, 0)``."""
    if kind in ("em-q1", "chaskey"):
        w = inst.n - u
        rows = [[inst.perm((x << w) | i) for x in range(1 << u)] for i in range(1 << w)]
    elif kind == "fx-q2":
        enc = inst.family.encrypt
        rows = [[enc(i, 2 * x) ^ enc(i, 2 * x + 1) for x in range(1 << (inst.n - 1))]
                for i in range(1 << inst.m)]
    elif kind == "fx-q1":
        w = inst.n - u
        rows = [[inst.family.encrypt(i, (x << w) | j) for x in range(1 << u)]
                for i in range(1 << inst.m) for j in range(1 << w)]
    elif kind == "beetle":
        hi, cpty = inst.rate - u, inst.capacity
        rows = [[inst.perm((((a << u) | x) << cpty) | b) for x in range(1 << u)]
                for a in range(1 << hi) for b in range(1 << cpty)]
    elif kind == "related-key":
        m = inst.family.m - u
        rows = [[inst.family.encrypt((x << m) | j, inst.msg) for x in range(1 << u)]
                for j in range(1 << m)]
    elif kind == "slide-ifx":
        size = 1 << inst.n
        codebook = [ifx_encrypt(inst, x) for x in range(size)]
        rows = []
        for j in range(1 << inst.m):
            enc = [inst.family.encrypt(j, x) for x in range(size)]
            rows.append([codebook[enc[x]] ^ x for x in range(size)]
                        + [enc[codebook[x]] ^ x for x in range(size)])
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return np.array(rows, dtype=np.int64)
