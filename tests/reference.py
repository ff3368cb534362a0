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
families that the numpy gathers replaced, and the Grover circuit, with its
noisy check's output bit and noise qubit simulated as qubits, that
``analysis.run_grover``'s runs on the index amplitudes replaced. The simulator kernels
that only these circuits use (``init_plus``, ``apply_phase_oracle``,
``apply_controlled_ry``, ``measure``) live here too.
"""

import math

import numpy as np

from offline_simon import analysis, qsim, search
from offline_simon.analysis import _indicator
from offline_simon.qsim import (QState, RegisterLayout, _checked_table, _input_regs,
                                _register_view, _size, marginal)
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
    if not 0 <= delta < (1 << oracle.m):
        raise ValueError("delta wider than the key")
    return int(oracle.column[oracle.k ^ delta])


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
    for key in range(1 << oracle.m):
        if all(int(oracle.column[key ^ d]) == t for d, t in zip(deltas, targets)):
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


# The simulator kernels only the reference circuits use: the |+...+> start,
# the phase oracle, the controlled rotation and the measurement.


def init_plus(layout: RegisterLayout) -> QState:
    """All-qubit |+...+> state, H on every register of ``init_zero``;
    rejects layouts over the qubit cap."""
    size = _size(layout)
    return QState(layout, np.full(size, 1.0 / math.sqrt(size)))


def apply_phase_oracle(state: QState, f, in_reg) -> QState:
    """Phase map |x> -> (-1)^f(x) |x>, in place: ``apply_oracle_xor`` into
    an output bit held in |->, which the map leaves in |-> (phase kickback),
    so the bit need not be simulated.

    in_reg and f as for ``apply_oracle_xor``, with f's values in {0, 1}; a
    short table or another value raises ValueError before the state is
    touched. The signs are reshaped onto the register axes of the state's
    view and multiplied in, so nothing of the state's size is allocated.
    """
    in_regs = _input_regs(in_reg)
    if len(set(in_regs)) != len(in_regs):
        raise ValueError("input registers must be distinct")
    layout = state.layout
    table = _checked_table(layout, f, in_regs, 1)
    signs = (1.0 - 2.0 * table).reshape([1 << layout.width(name) for name in in_regs])
    # the view's register axes follow the layout, the packing follows in_regs
    order = sorted(range(len(in_regs)), key=lambda k: -layout.shift(in_regs[k]))
    signs = signs.transpose(order)
    view = _register_view(state, *in_regs)
    shape = [1] * view.ndim
    shape[1::2] = signs.shape
    view *= signs.reshape(shape)
    return state


def apply_controlled_ry(state: QState, target: str, angle: float, control: str,
                        table) -> QState:
    """Ry(angle) on a 1-qubit register where the control register's value
    has table[value] = 1: the deliberate-noise knob for checking-error
    tests. table is a 0/1 table over the control's values; a short table or
    another value raises ValueError before the state is touched."""
    layout = state.layout
    if layout.width(target) != 1:
        raise ValueError("rotation target must be a 1-qubit register")
    if control == target:
        raise ValueError("rotation control cannot be its target")
    rows = np.flatnonzero(_checked_table(layout, table, (control,), 1))
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    view = _register_view(state, target, control)
    # the view's register axes are 1 and 3, the higher register first
    t_axis = 1 if layout.shift(target) > layout.shift(control) else 3
    zero = [slice(None)] * view.ndim
    zero[4 - t_axis] = rows
    one = list(zero)
    zero[t_axis], one[t_axis] = 0, 1
    zero, one = tuple(zero), tuple(one)
    a0, a1 = view[zero], view[one]
    rotated = c * a0 - s * a1
    view[one] = s * a0 + c * a1
    view[zero] = rotated
    return state


def measure(state: QState, register: str, rng: np.random.Generator) -> tuple[int, QState]:
    """Sample the register, collapse, renormalize."""
    probs = marginal(state, register)
    total = probs.sum()
    if total < 1e-12:
        raise ValueError("measuring a zero-norm branch")
    outcome = int(rng.choice(len(probs), p=probs / total))
    view = _register_view(state, register)
    view[:, :outcome, :] = 0
    view[:, outcome + 1:, :] = 0
    view[:, outcome, :] /= math.sqrt(probs[outcome])
    return outcome, state


# The Grover circuit that analysis.run_grover's index amplitudes replaced,
# with its check in both forms: the bit-flip form XORs the predicate into
# "b", the phase-flip form sandwiches "b" in |->.


def diffusion(state: qsim.QState, register: str = "idx") -> qsim.QState:
    """-A S_0 A^(-1) on the register, A = full Hadamard."""
    qsim.apply_h(state, register)
    qsim.apply_reflection_about_zero(state, register)
    qsim.apply_h(state, register)
    return state.scale(-1.0)


def grover_state(m: int, marked, j: int) -> qsim.QState:
    """Exact state after j iterations on the index register alone."""
    table = _indicator(m, marked)
    state = init_plus(qsim.RegisterLayout(("idx", m)))
    for _ in range(j):
        apply_phase_oracle(state, table, "idx")
        diffusion(state)
    return state


def noisy_check_bit(state: qsim.QState, marked, beta: float) -> qsim.QState:
    """Bit-flip check with injected error: XOR the predicate into "b", then
    rotate the "noise" qubit by Ry(2 beta) on marked components.

    The per-call deviation is bounded by bit_flip_error(beta); the derived
    phase-flip form carries the doubled budget 2 * bit_flip_error(beta).
    (The sandwich error is (delta_0 - delta_1)/sqrt(2) over orthogonal
    ancilla branches, so the doubled budget is a bound the tests verify,
    not a value they can saturate.)"""
    table = _indicator(state.layout.width("idx"), marked)
    qsim.apply_oracle_xor(state, table, "idx", "b")
    if beta != 0.0:
        apply_controlled_ry(state, "noise", 2.0 * beta, "idx", table)
    return state


def phase_flip_check(state: qsim.QState, marked, beta: float) -> qsim.QState:
    """Phase-flip form of the same check: |-> sandwich on "b"."""
    qsim.apply_x(state, "b")
    qsim.apply_h(state, "b")
    noisy_check_bit(state, marked, beta)
    qsim.apply_h(state, "b")
    qsim.apply_x(state, "b")
    return state


def run_grover_noisy(m: int, marked, beta: float, j: int) -> float:
    """Success probability after j iterations with the noisy check inside
    the phase-flip sandwich; compare against analysis.amplified_success
    +- 4 j eps."""
    table = _indicator(m, marked)
    layout = qsim.RegisterLayout(("idx", m), ("b", 1), ("noise", 1))
    state = qsim.init_zero(layout)
    qsim.apply_h(state, "idx")
    for _ in range(j):
        phase_flip_check(state, marked, beta)
        diffusion(state)
    return float(qsim.marginal(state, "idx")[table == 1].sum())


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
        apply_phase_oracle(state, phases, (f"x{k}", f"y{k}"))


def apply_rank_phase(state: qsim.QState, n: int, copies: int) -> None:
    """The check in its phase form: -1 on the components whose sample words
    do not span F_2^n, read in the Hadamard basis of the x registers."""
    xs = [f"x{k}" for k in range(copies)]
    for name in xs:
        qsim.apply_h(state, name)
    apply_phase_oracle(state, search._rank_predicate(n, copies), xs)
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
    state = init_plus(layout)
    for k in range(copies):
        apply_phase_oracle(state, g_parity[k], f"x{k}")
    for _ in range(r):
        for k in range(copies):
            apply_phase_oracle(state, f_parity[k], ("idx", f"x{k}"))
        apply_rank_phase(state, n, copies)
        for k in range(copies):
            apply_phase_oracle(state, f_parity[k], ("idx", f"x{k}"))
        diffusion(state)
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
        diffusion(state)
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
        m = inst.m - u
        rows = [[int(inst.column[(x << m) | j]) for x in range(1 << u)] for j in range(1 << m)]
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
