"""Toy keyed primitives: random permutations, block cipher families, and the
constructions the attacks target (Even-Mansour, FX, iterated FX, a two-block
Chaskey-style MAC, a Beetle-style sponge init, related-key oracles).

Everything is table-based and seeded. Block and key widths are desk-scale:
a cipher family is one (2^m, 2^n) table, drawn from its seed at its first
read, so an instance that is only described (by `gen`, or a descriptor
load) draws none.

The related-key oracle draws no cipher family. It encrypts one fixed message
under every key, and in the ideal-cipher model the keys' permutations are
independent and uniform, so that one column of the cipher, E_key(msg) over
all 2^m keys, is exactly 2^m independent uniform n-bit words. The oracle
draws those words, from its seed and message, and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .gf2 import _check_width


@dataclass
class Permutation:
    """A bijection on {0,1}^n stored as a lookup table."""

    n: int
    table: np.ndarray
    _inverse: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_width(self.n)
        self.table = np.asarray(self.table, dtype=np.int64)
        if self.table.shape != (1 << self.n,):
            raise ValueError(f"table must have 2^{self.n} entries")
        if not np.array_equal(np.sort(self.table), np.arange(1 << self.n)):
            raise ValueError("table is not a bijection")

    def __call__(self, x: int) -> int:
        return int(self.table[_in_domain(x, self.n)])

    def inverse(self, y: int) -> int:
        if self._inverse is None:
            inv = np.empty_like(self.table)
            inv[self.table] = np.arange(1 << self.n)
            self._inverse = inv
        return int(self._inverse[_in_domain(y, self.n)])


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    """Uniform random permutation of {0,1}^n (Fisher-Yates, seeded)."""
    _check_width(n)
    return Permutation(n, rng.permutation(1 << n))


class BlockCipherFamily:
    """A family of independent random permutations indexed by an m-bit key.

    The family is one (2^m, 2^n) table, deterministic in (seed, m, n) and
    drawn at its first read (`tables`, `key_table` or `encrypt`): building
    a family allocates nothing, and copies of an instance that share the
    family share the one table.
    """

    def __init__(self, m: int, n: int, seed: int):
        _check_width(m, "key width")
        _check_width(n, "block width")
        self.m = m
        self.n = n
        self.seed = seed

    @cached_property
    def _table(self) -> np.ndarray:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, self.m, self.n]))
        # one shuffle per row in place: the rows, and the generator state
        # after them, are those of one rng.permutation(2^n) per key
        full = np.tile(np.arange(1 << self.n, dtype=np.int64), (1 << self.m, 1))
        return rng.permuted(full, axis=1, out=full)

    def key_table(self, key: int) -> np.ndarray:
        """The full codebook of E_key as an array of 2^n ints."""
        if not 0 <= key < (1 << self.m):
            raise ValueError("key out of range")
        return self._table[key]

    def encrypt(self, key: int, x: int) -> int:
        return int(self.key_table(key)[_in_domain(x, self.n)])

    def tables(self) -> np.ndarray:
        """The codebook of every key as one (2^m, 2^n) array, row k being
        key_table(k); callers must not write to it."""
        return self._table


def random_cipher_seed(rng: np.random.Generator) -> int:
    """A seeded cipher's seed, drawn once from rng."""
    return int(rng.integers(0, 2**63 - 1))


def random_cipher_family(m: int, n: int, rng: np.random.Generator) -> BlockCipherFamily:
    """Seeded cipher family; the seed is drawn once from rng."""
    return BlockCipherFamily(m, n, random_cipher_seed(rng))


def key_column(m: int, n: int, seed: int, msg: int) -> np.ndarray:
    """E_key(msg) for every m-bit key of the seeded ideal cipher on n-bit
    blocks: 2^m independent uniform n-bit words (see RelatedKeyOracle)."""
    _check_width(m, "key width")
    _check_width(n, "block width")
    rng = np.random.default_rng(np.random.SeedSequence([seed, m, n, msg]))
    return rng.integers(0, 1 << n, size=1 << m, dtype=np.int64)


def _answer(y):
    """An oracle's answer: an int for one query, the int64 array for an
    array of them."""
    return int(y) if np.ndim(y) == 0 else y


def _in_domain(query, bits: int, what: str = "query", width: str = "block"):
    """The query (an int or an int array), once every entry lies in
    [0, 2^bits): a table gather would wrap a negative one round."""
    if not np.all((0 <= query) & (query < 1 << bits)):
        raise ValueError(f"{what} wider than the {width}")
    return query


# Each construction below is its own online oracle: calling an instance
# answers one query (an int) or a whole batch (an int64 array) by gathering
# from its permutation or cipher table.


@dataclass
class EvenMansourInstance:
    """E(x) = P(x ^ k1) ^ k2 with a public permutation P."""

    n: int
    perm: Permutation
    k1: int
    k2: int

    def __call__(self, x):
        return _answer(self.perm.table[_in_domain(x, self.n) ^ self.k1] ^ self.k2)


@dataclass
class FxInstance:
    """FX(x) = E_k(x ^ k_in) ^ k_out over a cipher family E."""

    n: int
    m: int
    family: BlockCipherFamily
    k: int
    k_in: int
    k_out: int

    def __call__(self, x):
        return _answer(self.family.key_table(self.k)[_in_domain(x, self.n) ^ self.k_in]
                       ^ self.k_out)


@dataclass
class IterFxInstance:
    """Iterated FX: rounds of x -> E_{k2}(x ^ k1), then a final ^ k1."""

    n: int
    m: int
    family: BlockCipherFamily
    k1: int
    k2: int
    rounds: int

    def __call__(self, x):
        table = self.family.key_table(self.k2)
        x = _in_domain(x, self.n)
        for _ in range(self.rounds):
            x = table[x ^ self.k1]
        return _answer(x ^ self.k1)


@dataclass
class ChaskeyToyInstance:
    """Two-block Chaskey-style MAC over a public permutation pi.

    tag(m1, m2) = pi(pi(k ^ m1) ^ m2 ^ k1) ^ k1. The tag is emitted at full
    state width (no truncation).
    """

    n: int
    perm: Permutation
    k: int
    k1: int

    def __call__(self, m1, m2):
        table = self.perm.table
        m1, m2 = (_in_domain(m, self.n, "message block", "state") for m in (m1, m2))
        return _answer(table[table[self.k ^ m1] ^ m2 ^ self.k1] ^ self.k1)


@dataclass
class BeetleToyInstance:
    """Sponge initialization: state (K1 ^ N) || K2 through a public f.

    rate/capacity split the (rate+capacity)-bit state; the nonce sits in the
    rate part. The toy observable is the full post-permutation state.
    """

    rate: int
    capacity: int
    perm: Permutation
    k1: int
    k2: int

    def __call__(self, nonce):
        nonce = _in_domain(nonce, self.rate, "nonce", "rate")
        return _answer(self.perm.table[((self.k1 ^ nonce) << self.capacity) | self.k2])


@dataclass
class RelatedKeyOracle:
    """Encrypts a fixed message under k ^ delta for attacker-chosen delta.

    `column` holds E_key(msg) for each of the 2^m keys of the ideal cipher
    on n-bit blocks seeded by `seed`. The keys' permutations are independent
    and uniform, so their values at one message are independent and uniform
    too: the column has the law of 2^m independent uniform words
    (`key_column`), and the 2^n - 1 columns no query reads are not drawn.
    The column is derived from the seed and the message on construction
    (so a copy with another message holds that message's column, drawn
    apart from this one's), and a delta, or an array of them, is answered by
    one gather from it."""

    n: int
    m: int
    seed: int
    k: int
    msg: int
    column: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.column = key_column(self.m, self.n, self.seed, self.msg)

    def __call__(self, delta):
        return _answer(self.column[self.k ^ _in_domain(delta, self.m, "delta", "key")])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def save_permutation(path: str | Path, perm: Permutation) -> None:
    """Write 'n=<width>' then the table as whitespace-separated hex."""
    lines = [f"n={perm.n}"]
    lines.append(" ".join(f"{int(v):x}" for v in perm.table))
    Path(path).write_text("\n".join(lines) + "\n")


def load_permutation(path: str | Path) -> Permutation:
    n, _, values = _load_table_file(path, expect_l=False)
    return Permutation(n, np.array(values, dtype=np.int64))


def save_function_table(path: str | Path, n: int, l: int, table) -> None:
    """Codebook of an n-bit to l-bit function: permutation format plus 'l='."""
    _check_width(n)
    _check_width(l, "output width")
    table = np.asarray(table, dtype=np.int64)
    if table.shape != (1 << n,):
        raise ValueError(f"table must have 2^{n} entries")
    if table.min() < 0 or table.max() >= (1 << l):
        raise ValueError("table values exceed the output width")
    lines = [f"n={n}", f"l={l}", " ".join(f"{int(v):x}" for v in table)]
    Path(path).write_text("\n".join(lines) + "\n")


def load_function_table(path: str | Path) -> tuple[int, int, np.ndarray]:
    n, l, values = _load_table_file(path, expect_l=True)
    return n, l, np.array(values, dtype=np.int64)


def _parse_int(path: str | Path, token: str, base: int, what: str) -> int:
    """int(token, base); a ValueError naming the file, `what` and the token
    if the token is not one."""
    try:
        return int(token, base)
    except ValueError:
        raise ValueError(f"{path}: {what} {token!r} is not a base-{base} integer") from None


def _load_table_file(path: str | Path, expect_l: bool) -> tuple[int, int | None, list[int]]:
    tokens = Path(path).read_text().split()
    if not tokens or not tokens[0].startswith("n="):
        raise ValueError(f"{path}: expected 'n=<width>' header")
    n = _parse_int(path, tokens[0][2:], 10, "'n=' width")
    _check_width(n)
    rest = tokens[1:]
    l = None
    if expect_l:
        if not rest or not rest[0].startswith("l="):
            raise ValueError(f"{path}: expected 'l=<width>' header")
        l = _parse_int(path, rest[0][2:], 10, "'l=' width")
        _check_width(l, "output width")
        rest = rest[1:]
    values = [_parse_int(path, t, 16, "value") for t in rest]
    if len(values) != 1 << n:
        raise ValueError(f"{path}: expected {1 << n} values, got {len(values)}")
    limit = 1 << (l if l is not None else n)
    if any(not 0 <= v < limit for v in values):
        raise ValueError(f"{path}: value out of range")
    return n, l, values


# ---------------------------------------------------------------------------
# JSON instance descriptors
# ---------------------------------------------------------------------------

# Descriptor kind -> (instance class, size fields, key field -> the size
# field that is its width). The table object is not stored: it rebuilds from
# the seed by its field, a `perm` of width n (or rate + capacity), an
# (m, n) `family` or a related-key oracle's cipher `seed` (its column
# derives from that), whose key is m bits wide and its message n.
_KINDS = {
    "even-mansour": (EvenMansourInstance, ("n",), {"k1": "n", "k2": "n"}),
    "fx": (FxInstance, ("n", "m"), {"k": "m", "k_in": "n", "k_out": "n"}),
    "iterated-fx": (IterFxInstance, ("n", "m", "rounds"), {"k1": "n", "k2": "m"}),
    "chaskey-toy": (ChaskeyToyInstance, ("n",), {"k": "n", "k1": "n"}),
    "beetle-toy": (BeetleToyInstance, ("rate", "capacity"), {"k1": "rate", "k2": "capacity"}),
    "related-key": (RelatedKeyOracle, ("n", "m"), {"k": "m", "msg": "n"}),
}


def _hex(v: int) -> str:
    return f"0x{v:x}"


def instance_to_json(seed: int, inst) -> str:
    """Descriptor carrying kind (read off the instance's class), widths,
    the seed, and keys in hex.

    Tables regenerate from the seed, so descriptors stay small.
    """
    for kind, (cls, sizes, keys) in _KINDS.items():
        if type(inst) is cls:
            break
    else:
        raise ValueError(f"no descriptor kind for {type(inst).__name__}")
    doc = {f: getattr(inst, f) for f in sizes}
    doc.update(kind=kind, seed=seed, keys={k: _hex(getattr(inst, k)) for k in keys})
    return json.dumps(doc, sort_keys=True)


def _field(doc: dict, name: str, label: str | None = None):
    """doc[name]; ValueError naming the field (as `label`) if it is missing."""
    if name not in doc:
        raise ValueError(f"descriptor has no field {label or name!r}")
    return doc[name]


def _integer_field(doc: dict, name: str) -> int:
    """doc[name] as an int; ValueError naming the field if it is missing or
    not an integer (a bool is not one)."""
    value = _field(doc, name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} = {value!r} must be an integer")
    return value


def instance_from_json(text: str):
    """Rebuild an instance from its descriptor (deterministic in the seed).
    Each size field (a width or a round count) must be an integer of at
    least 1, as the CLI's size flags must, the seed one of at least 0, and
    each key a hex string in [0, 2^w) for w its width field; a descriptor
    that is not a JSON object, or lacks a field, is refused by name too
    (ValueError)."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"a descriptor must be a JSON object, got {type(doc).__name__}")
    kind = _field(doc, "kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown instance kind {kind!r}")
    cls, sizes, keys = _KINDS[kind]
    values = {f: _integer_field(doc, f) for f in sizes}
    for f, value in values.items():
        if value < 1:
            raise ValueError(f"{f} = {value} must be at least 1")
    seed = _integer_field(doc, "seed")
    if seed < 0:
        raise ValueError(f"seed = {seed} must be at least 0")
    hexes = _field(doc, "keys")
    if not isinstance(hexes, dict):
        raise ValueError("keys must be a JSON object")
    for k, width in keys.items():
        key = _field(hexes, k, f"keys.{k}")
        try:
            values[k] = int(key, 16)
        except (TypeError, ValueError):
            raise ValueError(f"key {k} = {key!r} is not a hex string") from None
        if not 0 <= values[k] < 1 << values[width]:
            raise ValueError(f"key {k} = {key} outside [0, 2^{width}) "
                             f"with {width} = {values[width]}")
    rng = np.random.default_rng(seed)
    names = [f.name for f in fields(cls) if f.init]
    if "perm" in names:
        width = values["n"] if "n" in values else values["rate"] + values["capacity"]
        values["perm"] = random_permutation(width, rng)
    elif "family" in names:
        values["family"] = random_cipher_family(values["m"], values["n"], rng)
    else:
        values["seed"] = random_cipher_seed(rng)
    return cls(**{f: values[f] for f in names})
