"""Key-recovery attacks on the toy targets, built on the offline search.

Each target is one `Target` record (its CLI sizing, instance draw, carve into
Problem-3 shape, key assembly, checks and cost ledger) and every attack runs
through one function, `run_attack`, which documents the shared arc. The
public `attack_<kind>` functions are thin entry points into it.

Counter conventions: D counts online data (classical queries, or quantum
ones for the Q2 attack), T counts offline F/P evaluations, Q is the qubit
footprint an exact run of the same shape would need, M counts classical
table words held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from . import analysis, primitives, search, simon
from .primitives import (
    BeetleToyInstance,
    ChaskeyToyInstance,
    EvenMansourInstance,
    FxInstance,
    IterFxInstance,
    RelatedKeyOracle,
)


class DegenerateInstanceError(ValueError):
    """The derived branch family failed the degeneracy screen."""


@dataclass
class AttackReport:
    """Key-recovery outcome plus the cost ledger of the run."""

    target: str
    keys: dict[str, int] | None
    verified: bool
    planted_match: bool | None
    search_report: search.Report
    d_online: int
    t_offline: int
    q_qubits: int
    m_memory: int
    tradeoff: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        base = self.search_report.as_dict()
        base["recovered"] = (
            {name: f"0x{v:x}" for name, v in self.keys.items()} if self.keys else None
        )
        base["correct"] = self.verified
        base.update({
            "target": self.target,
            "verified": self.verified,
            "planted_match": self.planted_match,
            "D": self.d_online,
            "T": self.t_offline,
            "Q": self.q_qubits,
            "M": self.m_memory,
            # every attack here fixes its queries in advance
            "adaptive": False,
            "tradeoff": self.tradeoff,
            "notes": list(self.notes),
        })
        return base


# ---------------------------------------------------------------------------
# Shared plumbing
# ---------------------------------------------------------------------------


def _screen_or_raise(instance: search.SearchInstance, target: Target) -> search.ScreenResult:
    """Degeneracy screen: exactly one periodic branch, sitting at the planted
    index, with exactly the planted period. Targets whose planted period can
    legitimately vanish (the periodic branch collapses to a constant) pass
    that case through when their `constant_branch` is set. The screen is
    kept on the instance, so the search that follows does not redo it."""
    scr = instance.screened
    i0 = instance.planted_index
    if scr.periodic_indices != (i0,):
        raise DegenerateInstanceError(
            f"{target.kind}: periodic branches {scr.periodic_indices}, expected ({i0},)")
    periods = simon._periods(scr.collisions[i0])
    full = (1 << instance.n) - 1
    if instance.planted_period:
        if periods != (instance.planted_period,):
            raise DegenerateInstanceError(
                f"{target.kind}: branch periods {periods}, expected the planted one")
    else:
        if not (target.constant_branch and len(periods) == full):
            raise DegenerateInstanceError(f"{target.kind}: planted period is zero")
    return scr


def _tradeoff_identity(d_log2: int, grover_bits: int, target_log2: int) -> dict:
    """Exact and floor-rounded forms of the data/time tradeoff product."""
    r = analysis.grover_iterations(grover_bits)
    exact = d_log2 + grover_bits
    lo = (1 << d_log2) * (r * 4.0 / math.pi) ** 2
    hi = (1 << d_log2) * ((r + 1) * 4.0 / math.pi) ** 2
    return {
        "d_log2": d_log2,
        "grover_iterations": r,
        "dt2_exact_log2": exact,
        "target_log2": target_log2,
        "identity_exact": exact == target_log2,
        "identity_floor_consistent": lo <= (1 << target_log2) <= hi or r == 0,
    }


def _agrees(inst, keys: dict | None, *inputs) -> bool:
    """The target re-keyed with `keys` answers like the real one on every
    query in `inputs`, the instance call's arguments as arrays (the keys'
    names are the instance's key fields)."""
    return keys is not None and np.array_equal(replace(inst, **keys)(*inputs), inst(*inputs))


def _window(u: int, shift: int) -> np.ndarray:
    """The 2^u inputs x << shift of a data window."""
    return np.arange(1 << u, dtype=np.int64) << shift


def _codebook(inst, rng) -> tuple[np.ndarray]:
    """Every n-bit input of the target: its full codebook (a `Target.codebook`
    that draws nothing from rng)."""
    return (_window(inst.n, 0),)


def _window_carve(table: np.ndarray, u: int, above: int,
                  online: Callable[[np.ndarray], np.ndarray], key: int, l: int,
                  outer: int = 0) -> search.SearchInstance:
    """The chosen-window carve of the attacks whose key XORs into the input
    of a public table: row r of `table` (rows, 2^N) maps N-bit inputs, and
    the target answers table[outer, x ^ key] up to a constant XORed onto
    the output. An input splits into its top `above` bits a, u window bits
    and the `below` = N - above - u bits b under them. The data window is
    the 2^u inputs that are zero outside the window bits, answered by
    `online` (the target's own oracle, queried with the whole window);
    family row (r, a, b) is x -> table[r, a || x || b]. The guess index
    packs `outer` with the key's bits above and below the window, and the
    key's window bits are the branch period (they may vanish: the planted
    branch is then constant)."""
    rows, size = table.shape
    below = size.bit_length() - 1 - above - u
    if u < 1 or min(above, below) < 0:
        raise ValueError("need 1 <= u <= n")
    g = online(_window(u, below))
    family = np.ascontiguousarray(
        table.reshape(rows, 1 << above, 1 << u, 1 << below)
        .transpose(0, 1, 3, 2).reshape(-1, 1 << u))
    return search.SearchInstance(
        n=u, m=rows.bit_length() - 1 + above + below, l=l, family=family, g=g,
        planted_index=(((outer << above) | (key >> (below + u))) << below)
        | (key & ((1 << below) - 1)),
        planted_period=(key >> below) & ((1 << u) - 1),
        u=u,
    )


# ---------------------------------------------------------------------------
# Targets and the shared attack arc
# ---------------------------------------------------------------------------


class Shape(NamedTuple):
    """Search dimensions of an attack at given CLI sizes: the branch domain
    width n, the guess-index width m, the branch output width l, and the
    primitive widths the sizes imply."""

    n: int
    m: int
    l: int
    widths: tuple[int, ...]


def _window_shape(n: int, u: int, m_extra: int, widths: tuple[int, ...]) -> Shape:
    """Shape of a search over a 2^u window of an n-bit input whose remaining
    n - u bits (plus m_extra cipher-key bits) are guessed."""
    if not 1 <= u <= n:
        raise ValueError("need 1 <= u <= n")
    return Shape(u, m_extra + n - u, n, widths)


@dataclass(frozen=True)
class Cut:
    """One target instance carved into Problem-3 shape. `window` indexes the
    data window the screen accepted (the first message block of the Chaskey
    walk; 0 for single-window targets)."""

    inst: Any
    s_inst: search.SearchInstance
    window: int


def _window_ledger(cut: Cut, rep: search.Report) -> dict:
    """Ledger of an attack on one collected window of 2^n inputs: D is the
    window, M holds the branch family plus the window."""
    s = cut.s_inst
    return {
        "d_online": 1 << s.n,
        "m_memory": (1 << (s.m + s.n)) + (1 << s.n),
        "tradeoff": _tradeoff_identity(s.n, s.m, s.m + s.n),
        "notes": [],
    }


@dataclass(frozen=True)
class Target:
    """Everything that differs between attack kinds.

    CLI side: `defaults` fills the toy sizes into the size flags, and its
    keys (with --c) are the size flags the kind reads; `shape` validates
    them and gives the capacity dimensions, `draw` builds a seeded instance
    and returns the positional arguments of `attack_<kind>`. `gen`
    writes the first of them, the instance, as a descriptor that rebuilds
    its permutation or family from the seed, so `draw` takes that first.

    Attack side (key dicts name the instance's key fields, so a proposal
    re-keys a copy of the instance, and the instance is its own oracle):
    `carve(inst, u, window)` cuts the instance into Problem-3 shape (the
    five chosen-window targets through `_window_carve`) and does not screen
    it: `run_attack` screens each carve, and a zero planted period (a
    constant planted branch) passes the screen only where `constant_branch`
    is set; per period candidate, `assemble` lists the key proposals, each
    checked against the collected data on the queries `probes(cut)`
    returns, at a T charge of `check_cost(cut)`; the final re-encryption
    check runs on the queries `codebook(inst, rng)` returns; `ledger` gives
    the D/M/tradeoff/notes terms.
    """

    kind: str
    name: str
    defaults: Callable[[Any], dict]
    shape: Callable[[dict], Shape]
    draw: Callable[[dict, np.random.Generator], tuple]
    carve: Callable[[Any, int | None, int], search.SearchInstance]
    assemble: Callable[[Cut, int, int], list[dict]]
    probes: Callable[[Cut], tuple]
    check_cost: Callable[[Cut], int]
    codebook: Callable[[Any, np.random.Generator], tuple]
    ledger: Callable[[Cut, search.Report], dict] = _window_ledger
    quantum_queries: bool = False     # Q2 search, else Q1
    windows: int = 1                  # data windows tried before giving up
    constant_branch: bool = False     # the planted period may be zero
    c_times_block: bool = False       # c multiplies the block width l, not n
    f_calls_per_query: int = 1        # primitive calls behind one f query
    online_counts: Callable[[Cut], tuple[int, int] | None] = lambda cut: None

    @property
    def entry(self) -> str:
        """Name of this kind's public attack function in this module."""
        return "attack_" + self.kind.replace("-", "_")

    def copies(self, c: int | None, n: int, m: int, l: int) -> int:
        """Sample copies per database: c times the copy width, or the
        default constant for an m-bit index over n-bit branches."""
        if not c:
            return analysis.default_copies(m, n)
        return c * (l if self.c_times_block else n)


def run_attack(target: Target, inst, u: int | None, c: int | None,
               backend: str, rng: np.random.Generator) -> AttackReport:
    """Problem 3 of Leander-May, "Grover meets Simon" (ASIACRYPT 2017), on
    one target instance:

    1. carve: cut the target into an online function over a small data
       window plus an offline guess family whose one periodic branch sits at
       the key's index part (walking data windows until the screen accepts);
    2. search: amplify over the family index with the Q1 (codebook) or Q2
       (superposition) database (only the counters differ), then recover
       the period of the branch the search returns, once;
    3. candidates: the periods consistent with that recovery's samples
       (the search report's `solution`), then zero;
    4. assemble and check: turn each (index, period) pair into key
       proposals and keep the first that reproduces the collected data;
    5. verify by re-encryption (planted keys are never trusted alone:
       equivalent keys pass, wrong keys fail) and report the D/T/Q/M ledger.

    u is the data-window width (None where the target fixes it); the trial
    rng is consumed by the search (its shots, then its one recovery) and,
    for some targets, the verification, in that order.
    """
    for window in range(target.windows):
        try:
            s_inst = target.carve(inst, u, window)
            _screen_or_raise(s_inst, target)
            break
        except DegenerateInstanceError:
            if window + 1 == target.windows:
                raise
    cut = Cut(inst, s_inst, window)
    n, m, l = s_inst.n, s_inst.m, s_inst.l
    copies = target.copies(c, n, m, l)
    find = search.alg_poly_q2 if target.quantum_queries else search.alg_exp_q1
    i_hat, rep = find(s_inst, copies, backend, rng, online_counts=target.online_counts(cut))
    # zero is always a candidate: for some targets the honest answer is
    # the constant branch
    candidates = [*rep.solution.candidates, 0]
    t_extra = copies
    keys = None
    probes = target.probes(cut)
    for proposal in (k for period in candidates for k in target.assemble(cut, i_hat, period)):
        t_extra += target.check_cost(cut)
        if _agrees(inst, proposal, *probes):
            keys = proposal
            break
    return AttackReport(
        target=target.name,
        keys=keys,
        verified=_agrees(inst, keys, *target.codebook(inst, rng)),
        planted_match=bool(keys) and all(getattr(inst, k) == v for k, v in keys.items()),
        search_report=rep,
        t_offline=target.f_calls_per_query * rep.counters.f_queries + t_extra,
        q_qubits=search.qubit_footprint(m, copies, n, l),
        **target.ledger(cut, rep),
    )


# ---------------------------------------------------------------------------
# Even-Mansour, Q1
# ---------------------------------------------------------------------------


def _em_assemble(cut: Cut, i: int, period: int) -> list[dict]:
    k1 = (period << cut.s_inst.m) | i
    return [{"k1": k1, "k2": int(cut.s_inst.g[0]) ^ cut.inst.perm(k1)}]


# Data window: the 2^u plaintexts with zero low bits; family row i is
# x -> P((x << w) | i) with w = n - u. The guess index runs over the low w
# bits of k1; the branch period is k1's high part, and may vanish.
EM_Q1 = Target(
    kind="em-q1",
    name="em-q1",
    defaults=lambda a: {"n": a.n or 9, "u": a.u or 3},
    shape=lambda p: _window_shape(p["n"], p["u"], 0, (p["n"],)),
    draw=lambda p, rng: (
        EvenMansourInstance(p["n"], primitives.random_permutation(p["n"], rng),
                            int(rng.integers(1 << p["n"])), int(rng.integers(1 << p["n"]))),
        p["u"]),
    carve=lambda inst, u, _: _window_carve(inst.perm.table[None], u, 0, inst, inst.k1, inst.n),
    assemble=_em_assemble,
    probes=lambda cut: (_window(cut.s_inst.n, cut.s_inst.m),),
    check_cost=lambda cut: 1 + (1 << cut.s_inst.n),
    codebook=_codebook,
    constant_branch=True,
)


def attack_em_q1(inst: EvenMansourInstance, u: int, c: int | None, backend: str,
                 rng: np.random.Generator) -> AttackReport:
    """Whitening-key recovery from 2^u chosen plaintexts: Grover over the
    low k1 bits against the collected window, then period recovery for the
    high bits, then k2 = E(0) ^ P(k1)."""
    return run_attack(EM_Q1, inst, u, c, backend, rng)


# ---------------------------------------------------------------------------
# FX, Q2
# ---------------------------------------------------------------------------


def fx_q2_search_instance(inst: FxInstance) -> search.SearchInstance:
    """Pair x with x^1 to cancel the output whitening. The paired functions
    are invariant under that flip, so the search runs on the quotient domain
    of the pairs (n-1 bits); the planted quotient period is k_in >> 1, which
    is why k_in in {0,1} is rejected as degenerate."""
    n, m = inst.n, inst.m
    if inst.k_in in (0, 1):
        raise DegenerateInstanceError("fx-q2: k_in pairs to a zero period")
    dim = n - 1
    evens = _window(dim, 1)
    g = inst(evens) ^ inst(evens + 1)
    tables = inst.family.tables()
    family = tables[:, 0::2] ^ tables[:, 1::2]
    return search.SearchInstance(
        n=dim, m=m, l=n, family=family, g=g,
        planted_index=inst.k,
        planted_period=inst.k_in >> 1,
    )


FX_Q2_PROBES = (1, 2, 3)


def _fx_q2_assemble(cut: Cut, i: int, period: int) -> list[dict]:
    """The quotient period fixes k_in up to its low bit; try both."""
    fx0 = cut.inst(0)
    return [{"k": i, "k_in": k_in, "k_out": fx0 ^ cut.inst.family.encrypt(i, k_in)}
            for k_in in (period << 1, (period << 1) | 1) if k_in]


def _fx_q2_ledger(cut: Cut, rep: search.Report) -> dict:
    online_extra = 1 + len(FX_Q2_PROBES)
    return {
        **_window_ledger(cut, rep),
        "d_online": online_extra,
        "tradeoff": {
            "quantum_online": rep.counters.quantum_online,
            "fx_queries_online": 2 * rep.counters.quantum_online + online_extra,
            "time_log2": analysis.fx_q2_costs(cut.inst.n, cut.inst.m)["time_log2"],
        },
        "notes": ["each paired query costs two FX calls"],
    }


FX_Q2 = Target(
    kind="fx-q2",
    name="fx-q2",
    defaults=lambda a: {"n": a.n or 4, "m": a.m or 3},
    shape=lambda p: Shape(p["n"] - 1, p["m"], p["n"], (p["n"], p["m"])),
    draw=lambda p, rng: (
        FxInstance(p["n"], p["m"], primitives.random_cipher_family(p["m"], p["n"], rng),
                   int(rng.integers(1 << p["m"])), int(rng.integers(2, 1 << p["n"])),
                   int(rng.integers(1 << p["n"]))),),
    carve=lambda inst, _, __: fx_q2_search_instance(inst),
    assemble=_fx_q2_assemble,
    probes=lambda cut: (np.array(FX_Q2_PROBES),),
    check_cost=lambda cut: 1 + len(FX_Q2_PROBES),
    codebook=_codebook,
    ledger=_fx_q2_ledger,
    quantum_queries=True,
    c_times_block=True,
    f_calls_per_query=2,
)


def attack_fx_q2(inst: FxInstance, c: int | None, backend: str,
                 rng: np.random.Generator) -> AttackReport:
    """Full (k, k_in, k_out) recovery with superposition queries: Grover over
    the cipher key against the paired online function, then the quotient
    period plus a low-bit probe for k_in, then k_out = FX(0) ^ E_k(k_in)."""
    return run_attack(FX_Q2, inst, None, c, backend, rng)


# ---------------------------------------------------------------------------
# FX, Q1
# ---------------------------------------------------------------------------


def _fx_q1_assemble(cut: Cut, i: int, period: int) -> list[dict]:
    if period == 0:
        return []
    w = cut.inst.n - cut.s_inst.n
    k, k_in = i >> w, (period << w) | (i & ((1 << w) - 1))
    return [{"k": k, "k_in": k_in,
             "k_out": int(cut.s_inst.g[0]) ^ cut.inst.family.encrypt(k, k_in)}]


# Joint Grover over the cipher key and the low w = n - u bits of k_in
# against the 2^u-plaintext window: row (i << w) | j, column x is
# E_i((x << w) | j). The branch period is k_in's high part.
FX_Q1 = Target(
    kind="fx-q1",
    name="fx-q1",
    defaults=lambda a: {"n": a.n or 6, "m": a.m or 3, "u": a.u or 3},
    shape=lambda p: _window_shape(p["n"], p["u"], p["m"], (p["n"], p["m"])),
    draw=lambda p, rng: (
        FxInstance(p["n"], p["m"], primitives.random_cipher_family(p["m"], p["n"], rng),
                   int(rng.integers(1 << p["m"])),
                   int(rng.integers(1 << (p["n"] - p["u"]), 1 << p["n"])),
                   int(rng.integers(1 << p["n"]))),
        p["u"]),
    carve=lambda inst, u, _: _window_carve(inst.family.tables(), u, 0, inst, inst.k_in,
                                           inst.n, outer=inst.k),
    assemble=_fx_q1_assemble,
    probes=lambda cut: (_window(cut.s_inst.n, cut.inst.n - cut.s_inst.n),),
    check_cost=lambda cut: 1 + (1 << cut.s_inst.n),
    codebook=_codebook,
)


def attack_fx_q1(inst: FxInstance, u: int, c: int | None, backend: str,
                 rng: np.random.Generator) -> AttackReport:
    """Classical-query FX attack: collect the 2^u window, Grover jointly over
    (k, low k_in bits), recover the high k_in bits as the branch period."""
    return run_attack(FX_Q1, inst, u, c, backend, rng)


# ---------------------------------------------------------------------------
# Chaskey toy
# ---------------------------------------------------------------------------


def _chaskey_carve(inst: ChaskeyToyInstance, u: int, m1: int) -> search.SearchInstance:
    """With the first block fixed, the tag is an Even-Mansour instance in the
    second block: tag(m2) = pi(m2 ^ kappa1) ^ kappa2 with kappa1 = pi(k ^ m1)
    ^ k1 and kappa2 = k1. A block width under 3 bits has fewer first blocks
    than the walk tries; the ones past 2^n are degenerate."""
    if m1 >> inst.n:
        raise DegenerateInstanceError(f"chaskey: no first block {m1} at n = {inst.n}")
    kappa1 = inst.perm(inst.k ^ m1) ^ inst.k1
    return _window_carve(inst.perm.table[None], u, 0, lambda m2: inst(m1, m2), kappa1, inst.n)


def _chaskey_assemble(cut: Cut, i: int, period: int) -> list[dict]:
    """The search recovers the Even-Mansour keys (kappa1, kappa2) of the
    fixed first block; peel the last permutation call for K."""
    perm = cut.inst.perm
    kappa1 = (period << cut.s_inst.m) | i
    kappa2 = int(cut.s_inst.g[0]) ^ perm(kappa1)
    return [{"k": perm.inverse(kappa1 ^ kappa2) ^ cut.window, "k1": kappa2}]


def _chaskey_codebook(inst: ChaskeyToyInstance, rng) -> tuple[np.ndarray, np.ndarray]:
    """Ten fresh (m1, m2) pairs, drawn whatever the outcome, after the
    search."""
    return tuple(rng.integers(0, 1 << inst.n, size=(10, 2)).T)


def _chaskey_ledger(cut: Cut, rep: search.Report) -> dict:
    return {
        **_window_ledger(cut, rep),
        "d_online": (cut.window + 1) << cut.s_inst.n,
        "notes": [f"first block {m1} screened out" for m1 in range(cut.window)],
    }


CHASKEY = Target(
    kind="chaskey",
    name="chaskey-toy",
    defaults=lambda a: {"n": a.n or 8, "u": a.u or 3},
    shape=lambda p: _window_shape(p["n"], p["u"], 0, (p["n"],)),
    draw=lambda p, rng: (
        ChaskeyToyInstance(p["n"], primitives.random_permutation(p["n"], rng),
                           int(rng.integers(1 << p["n"])), int(rng.integers(1 << p["n"]))),
        p["u"]),
    carve=_chaskey_carve,
    assemble=_chaskey_assemble,
    probes=lambda cut: (cut.window, _window(cut.s_inst.n, cut.s_inst.m)),
    check_cost=lambda cut: 1 + (1 << cut.s_inst.n),
    codebook=_chaskey_codebook,
    ledger=_chaskey_ledger,
    windows=8,
    constant_branch=True,
)


def attack_chaskey(inst: ChaskeyToyInstance, u: int, c: int | None, backend: str,
                   rng: np.random.Generator) -> AttackReport:
    """Recover K1 and then K by peeling the last permutation call: run the
    Even-Mansour attack on tag(m1, .) for a fixed m1, walking m1 = 0, 1, ...
    past any first block whose derived instance fails the screen."""
    return run_attack(CHASKEY, inst, u, c, backend, rng)


# ---------------------------------------------------------------------------
# Beetle toy
# ---------------------------------------------------------------------------


def _beetle_shape(p: dict) -> Shape:
    rate, cpty, k = p["rate"], p["capacity"], p["u"]
    if not 1 <= k <= rate:
        raise ValueError("need 1 <= nonce window <= rate")
    return Shape(k, rate - k + cpty, rate + cpty, (rate, cpty, rate + cpty))


def _beetle_assemble(cut: Cut, i: int, period: int) -> list[dict]:
    cpty = cut.inst.capacity
    return [{"k1": ((i >> cpty) << cut.s_inst.n) | period, "k2": i & ((1 << cpty) - 1)}]


# 2^k consecutive nonces give an affine window on the rate part of the
# state (K1 ^ N) || K2: row (a << capacity) | b, column x is
# perm((((a << k) | x) << capacity) | b). The guess index packs the high
# rate - k bits of K1 with all of K2; the branch period is K1's low k bits.
BEETLE = Target(
    kind="beetle",
    name="beetle-toy",
    defaults=lambda a: {"rate": a.rate or 6, "capacity": a.capacity or 4, "u": a.u or 3},
    shape=_beetle_shape,
    draw=lambda p, rng: (
        BeetleToyInstance(p["rate"], p["capacity"],
                          primitives.random_permutation(p["rate"] + p["capacity"], rng),
                          int(rng.integers(1 << p["rate"])),
                          int(rng.integers(1 << p["capacity"]))),
        p["u"]),
    carve=lambda inst, k, _: _window_carve(
        inst.perm.table[None], k, inst.rate - k, lambda s: inst(s >> inst.capacity),
        (inst.k1 << inst.capacity) | inst.k2, inst.rate + inst.capacity),
    assemble=_beetle_assemble,
    probes=lambda cut: (_window(cut.s_inst.n, 0),),
    check_cost=lambda cut: 1 << cut.s_inst.n,
    codebook=lambda inst, rng: (_window(inst.rate, 0),),
    constant_branch=True,
)


def attack_beetle(inst: BeetleToyInstance, k: int, c: int | None, backend: str,
                  rng: np.random.Generator) -> AttackReport:
    """Recover K1 || K2 from the initialization leakage of 2^k consecutive
    nonces: Grover over (high K1 bits, K2), period recovery for K1's low
    bits."""
    return run_attack(BEETLE, inst, k, c, backend, rng)


# ---------------------------------------------------------------------------
# Related-key
# ---------------------------------------------------------------------------


def _related_key_shape(p: dict) -> Shape:
    n, u = p["n"], p["u"]
    if not 1 <= u < n:
        third = f" (a third of key width {n})" if u == round(n / 3) else ""
        raise ValueError(f"need 1 <= u < key width {n}, got u = {u}{third}")
    return Shape(u, n - u, n, (n,))


# Difference queries on the high u key bits form the online function; row
# j, column x of the family is E_{(x << m) | j}(msg) with m = key width - u,
# so the guess index is the low key bits and the branch period is the high
# key part itself.
RELATED_KEY = Target(
    kind="related-key",
    name="related-key",
    defaults=lambda a: {"n": a.n or 9, "u": a.u or round((a.n or 9) / 3)},
    shape=_related_key_shape,
    draw=lambda p, rng: (
        RelatedKeyOracle(p["n"], p["n"], primitives.random_cipher_seed(rng),
                         int(rng.integers(1 << (p["n"] - p["u"]), 1 << p["n"])),
                         int(rng.integers(1 << p["n"]))),
        p["u"]),
    carve=lambda oracle, u, _: _window_carve(oracle.column[None], u, 0, oracle, oracle.k,
                                             oracle.n),
    assemble=lambda cut, j, period: [{"k": (period << cut.s_inst.m) | j}] if period else [],
    probes=lambda cut: (_window(cut.s_inst.n, cut.s_inst.m),),
    check_cost=lambda cut: 1 << cut.s_inst.n,
    codebook=lambda oracle, rng: (_window(oracle.m, 0),),
)


def attack_related_key(oracle: RelatedKeyOracle, u: int, c: int | None, backend: str,
                       rng: np.random.Generator) -> AttackReport:
    """Full-key recovery from 2^u related-key queries: Grover over the low
    key bits, period recovery for the high u (a third of the key at the
    CLI's default)."""
    return run_attack(RELATED_KEY, oracle, u, c, backend, rng)


# ---------------------------------------------------------------------------
# Slide attack on iterated FX
# ---------------------------------------------------------------------------


def slide_search_instance(inst: IterFxInstance) -> search.SearchInstance:
    """Self-similarity search over the collected codebook: for a guess j of
    the round key, pair the two sandwich orders

        b=0:  iFX(E_j(x)) ^ x      b=1:  E_j(iFX(x)) ^ x

    on the (1+n)-bit domain. At j = k2 the slide identity makes the pair one
    function with hidden period (1, k1); wrong guesses are aperiodic."""
    n, m = inst.n, inst.m
    size = 1 << n
    xs = np.arange(size)
    codebook = inst(xs)
    enc = inst.family.tables()  # row j is E_j
    family = np.concatenate([codebook[enc] ^ xs, enc[:, codebook] ^ xs], axis=1)
    return search.SearchInstance(
        n=n + 1, m=m, l=n, family=family,
        g=np.zeros(2 * size, dtype=np.int64),
        planted_index=inst.k2,
        planted_period=(1 << n) | inst.k1,
    )


def _slide_assemble(cut: Cut, j: int, period: int) -> list[dict]:
    """Only periods of the form (1, k1) pair the two sandwich orders."""
    n = cut.inst.n
    return [{"k1": period & ((1 << n) - 1), "k2": j}] if period >> n == 1 else []


def _slide_ledger(cut: Cut, rep: search.Report) -> dict:
    n, s = cut.inst.n, cut.s_inst
    return {
        "d_online": 1 << n,
        "m_memory": (1 << (s.m + s.n)) + (1 << n),
        "tradeoff": {"d_log2": n, "codebook": True},
        "notes": ["verification re-encrypts the full codebook with the recovered keys"],
    }


SLIDE_IFX = Target(
    kind="slide-ifx",
    name="slide-ifx",
    defaults=lambda a: {"n": a.n or 6, "m": a.m or 3, "rounds": a.rounds or 3},
    shape=lambda p: Shape(p["n"] + 1, p["m"], p["n"], (p["n"], p["m"])),
    draw=lambda p, rng: (
        IterFxInstance(p["n"], p["m"], primitives.random_cipher_family(p["m"], p["n"], rng),
                       int(rng.integers(1 << p["n"])), int(rng.integers(1 << p["m"])),
                       p["rounds"]),),
    carve=lambda inst, _, __: slide_search_instance(inst),
    assemble=_slide_assemble,
    # the consistency check already covers the full codebook
    probes=lambda cut: (_window(cut.inst.n, 0),),
    check_cost=lambda cut: (1 << cut.inst.n) * cut.inst.rounds,
    codebook=_codebook,
    ledger=_slide_ledger,
    # the online object is the n-bit codebook, not the (n+1)-bit search domain
    online_counts=lambda cut: (1 << cut.inst.n, 0),
)


def attack_slide_ifx(inst: IterFxInstance, c: int | None, backend: str,
                     rng: np.random.Generator) -> AttackReport:
    """Recover (k1, k2) of the iterated-FX cipher from its full codebook:
    Grover over the round-key guess, slide period (1, k1) from the winner."""
    return run_attack(SLIDE_IFX, inst, None, c, backend, rng)


TARGETS = {t.kind: t for t in (EM_Q1, FX_Q2, FX_Q1, CHASKEY, BEETLE, RELATED_KEY, SLIDE_IFX)}

