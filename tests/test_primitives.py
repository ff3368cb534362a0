import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from offline_simon.primitives import (
    BeetleToyInstance,
    BlockCipherFamily,
    ChaskeyToyInstance,
    EvenMansourInstance,
    FxInstance,
    IterFxInstance,
    Permutation,
    RelatedKeyOracle,
    instance_from_json,
    instance_to_json,
    key_column,
    load_function_table,
    load_permutation,
    random_permutation,
    save_function_table,
    save_permutation,
)
from offline_simon import primitives

import reference
from reference import stacked_family_table


def test_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        Permutation(2, np.array([0, 0, 1, 2]))


def test_permutation_inverse():
    rng = np.random.default_rng(0)
    perm = random_permutation(6, rng)
    for x in range(1 << 6):
        assert perm.inverse(perm(x)) == x


def test_cipher_family_deterministic_and_bijective():
    fam1 = BlockCipherFamily(4, 5, seed=99)
    fam2 = BlockCipherFamily(4, 5, seed=99)
    for key in range(1 << 4):
        t1, t2 = fam1.key_table(key), fam2.key_table(key)
        assert np.array_equal(t1, t2)
        assert np.array_equal(np.sort(t1), np.arange(1 << 5))
    # another seed draws another family
    assert not np.array_equal(fam1.tables(), BlockCipherFamily(4, 5, seed=100).tables())


def _drawn(family: BlockCipherFamily) -> bool:
    """Whether the family's table has been drawn (by a first read)."""
    return "_table" in vars(family)


@pytest.mark.parametrize("m, n", [(1, 1), (3, 4), (3, 6), (9, 9), (12, 4), (4, 12), (2, 1),
                                  (13, 2), (16, 1)])
def test_family_table_is_the_per_key_draw(monkeypatch, m, n):
    """The in-place shuffle, made at the first read, gives the table of one
    rng.permutation per key, bit for bit, at every key width, and leaves
    the family's generator where that draw did."""
    drawn = []

    def capture(*args):
        drawn.append(real(*args))
        return drawn[-1]

    real = np.random.default_rng
    fam = BlockCipherFamily(m, n, seed=1234 + m)
    monkeypatch.setattr(np.random, "default_rng", capture)
    got = fam.tables()
    monkeypatch.undo()
    rng = np.random.default_rng(np.random.SeedSequence([1234 + m, m, n]))
    want = stacked_family_table(m, n, rng)
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert np.array_equal(got, want)
    assert all(np.array_equal(fam.key_table(k), want[k]) for k in (0, (1 << m) - 1))
    assert len(drawn) == 1 and drawn[0].random() == rng.random()


def test_family_draws_nothing_until_its_first_read():
    """Building a family allocates no table (the 2^10 x 2^12 one would
    take 32 MiB), and a key read draws the whole table that tables() then
    returns."""
    tracemalloc.start()
    try:
        fam = BlockCipherFamily(10, 12, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20 and not _drawn(fam)
    fam = BlockCipherFamily(4, 5, seed=77)
    row = fam.key_table(9)
    assert _drawn(fam) and np.shares_memory(row, fam.tables())
    assert fam.tables() is fam.tables()


def test_em_encrypt_shape():
    rng = np.random.default_rng(1)
    inst = EvenMansourInstance(5, random_permutation(5, rng), 0b10110, 0b01011)
    for x in range(1 << 5):
        assert inst(x) == inst.perm(x ^ inst.k1) ^ inst.k2


def test_fx_encrypt_shape():
    fam = BlockCipherFamily(3, 5, seed=2)
    inst = FxInstance(5, 3, fam, 0b101, 0b11010, 0b00111)
    for x in range(1 << 5):
        assert inst(x) == fam.encrypt(0b101, x ^ 0b11010) ^ 0b00111


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=30, deadline=None)
def test_slide_identity(n, seed):
    """One more round commutes with the whitening: iFX(E(z^k1)) equals
    E(iFX(z))^k1 for every z."""
    rng = np.random.default_rng(seed)
    m = 3
    fam = BlockCipherFamily(m, n, seed=seed)
    inst = IterFxInstance(n, m, fam, int(rng.integers(1 << n)),
                          int(rng.integers(1 << m)), rounds=3)
    for z in range(1 << n):
        lhs = inst(fam.encrypt(inst.k2, z ^ inst.k1))
        rhs = fam.encrypt(inst.k2, inst(z)) ^ inst.k1
        assert lhs == rhs


def test_chaskey_tag_is_even_mansour_in_second_block():
    rng = np.random.default_rng(7)
    inst = ChaskeyToyInstance(6, random_permutation(6, rng), 0b110101, 0b001100)
    m1 = 0b010010
    kappa1 = inst.perm(inst.k ^ m1) ^ inst.k1
    kappa2 = inst.k1
    for m2 in range(1 << 6):
        assert inst(m1, m2) == inst.perm(m2 ^ kappa1) ^ kappa2


def test_beetle_init_layout():
    rng = np.random.default_rng(8)
    inst = BeetleToyInstance(4, 3, random_permutation(7, rng), 0b1010, 0b011)
    out = inst(0b0110)
    assert 0 <= out < 1 << 7
    assert out == inst.perm(((0b1010 ^ 0b0110) << 3) | 0b011)
    with pytest.raises(ValueError, match="nonce wider than the rate"):
        inst(1 << 4)


def test_related_key_query():
    oracle = RelatedKeyOracle(4, 4, seed=3, k=0b1001, msg=0b0110)
    column = key_column(4, 4, 3, 0b0110)
    for delta in range(1 << 4):
        assert oracle(delta) == column[0b1001 ^ delta]


def test_related_key_oracle_holds_one_word_per_key():
    """The oracle holds its column, 2^m int64 words of n bits, and no other
    table, at the CLI defaults, at a key width other than the block width
    and at key width 13. A copy re-keyed to another key keeps the column;
    one with another message holds that message's column."""
    for m, n in [(9, 9), (6, 4), (13, 4)]:
        oracle = RelatedKeyOracle(n, m, seed=5, k=1, msg=0)
        tables = [v for v in vars(oracle).values() if isinstance(v, np.ndarray)]
        assert len(tables) == 1 and tables[0] is oracle.column
        assert oracle.column.shape == (1 << m,) and oracle.column.dtype == np.int64
        assert 0 <= oracle.column.min() and oracle.column.max() < 1 << n
        assert np.array_equal(replace(oracle, k=2).column, oracle.column)
        assert np.array_equal(replace(oracle, msg=1).column, key_column(m, n, 5, 1))


def _chi_square(cells, bins):
    counts = np.bincount(cells.ravel(), minlength=bins)
    expected = cells.size / bins
    return ((counts - expected) ** 2 / expected).sum()


def test_key_column_words_are_uniform():
    """The law of one message's column under independent uniform keyed
    permutations: words uniform, and the words of two keys independent.
    Pooled over 2000 seeded columns at m = n = 4, the 32000 words pass a
    chi-square test of the uniform law on 16 values (15 degrees of freedom,
    refused above 37.70, the 0.1% tail), and the 16000 pairs of keys 2i and
    2i + 1 one of the uniform law on 256 pairs (255 degrees of freedom,
    refused above 330.5, the 0.1% tail). A column that never repeats a word
    (one permutation) fails the second: its 16 equal pairs stay empty."""
    columns = np.stack([key_column(4, 4, seed, seed % 16) for seed in range(2000)])
    assert _chi_square(columns, 16) < 37.70
    assert _chi_square((columns[:, 0::2] << 4) | columns[:, 1::2], 256) < 330.5


def _oracle_cases(lazy: bool):
    """(instance, scalar reference oracle, its full query domain) for each
    construction. The cipher family is drawn before the cases are
    returned, or (lazy) left for the instances' first call to draw, at
    key width 13; the related-key oracle's column spans the same key
    width."""
    rng = np.random.default_rng(12)
    m = 13 if lazy else 4
    n = 3 if lazy else 5
    family = BlockCipherFamily(m, n, seed=21)
    if not lazy:
        family.tables()

    def key(bits):
        return int(rng.integers(1 << bits))

    xs = np.arange(1 << n)
    chaskey = ChaskeyToyInstance(6, random_permutation(6, rng), key(6), key(6))
    m1, m2 = (a.ravel() for a in np.meshgrid(np.arange(64), np.arange(64), indexing="ij"))
    return [
        (EvenMansourInstance(6, random_permutation(6, rng), key(6), key(6)),
         reference.em_encrypt, (np.arange(64),)),
        (FxInstance(n, m, family, key(m), key(n), key(n)), reference.fx_encrypt, (xs,)),
        (IterFxInstance(n, m, family, key(n), key(m), 3), reference.ifx_encrypt, (xs,)),
        (chaskey, reference.chaskey_tag, (m1, m2)),
        (BeetleToyInstance(4, 3, random_permutation(7, rng), key(4), key(3)),
         reference.beetle_init, (np.arange(16),)),
        (RelatedKeyOracle(n, m, 21, key(m), key(n)), reference.related_key_query,
         (np.arange(1 << m),)),
    ]


@pytest.mark.parametrize("lazy", [False, True], ids=["full", "lazy"])
def test_instance_call_refuses_queries_outside_its_domain(lazy):
    """Each construction refuses -1 and 2^width in each of its arguments,
    as an int and inside an array, with ValueError: a table gather would
    wrap -1 round to the last entry and raise IndexError past the end."""
    for inst, _, domain in _oracle_cases(lazy):
        for arg, values in enumerate(domain):
            top = 1 << int(values.max()).bit_length()
            for bad in (-1, top, np.array([-1, 0]), np.array([0, top])):
                query = [0] * len(domain)
                query[arg] = bad
                with pytest.raises(ValueError, match=" wider than the "):
                    inst(*query)


@pytest.mark.parametrize("lazy", [False, True], ids=["full", "lazy"])
def test_permutation_and_family_refuse_inputs_outside_the_block(lazy):
    """A permutation, its inverse and a family's encrypt refuse -1 and 2^n
    with ValueError: the gather would wrap -1 round to the last entry and
    raise IndexError past the end. The family's table is drawn before, or
    (lazy, at key width 13) by the first encrypt."""
    n = 3
    perm = random_permutation(n, np.random.default_rng(12))
    family = BlockCipherFamily(13 if lazy else 4, n, seed=13)
    if not lazy:
        family.tables()
    for call in (perm, perm.inverse, lambda x: family.encrypt(1, x)):
        assert call(0) == call(np.int64(0))
        for bad in (-1, 1 << n, np.int64(-1), np.int64(1 << n)):
            with pytest.raises(ValueError, match="query wider than the block"):
                call(bad)


@pytest.mark.parametrize("lazy", [False, True], ids=["full", "lazy"])
def test_instance_call_is_the_scalar_oracle(lazy):
    """Each construction's call answers an int query with the int, and an
    int64 array of queries with the int64 array of answers, that its scalar
    oracle gives query by query, over the whole query domain (every
    (m1, m2) pair for the MAC), whether its family's table was drawn
    before or (lazy) is drawn by the call. The reference runs on a twin
    whose family is rebuilt from the seed, so no key table is shared with
    the call."""
    cases = _oracle_cases(lazy)
    assert _drawn(cases[1][0].family) != lazy
    for inst, oracle, domain in cases:
        twin = inst
        if hasattr(inst, "family"):
            fam = inst.family
            twin = replace(inst, family=BlockCipherFamily(fam.m, fam.n, fam.seed))
        elif hasattr(inst, "column"):
            twin = replace(inst)
        queries = list(zip(*(a.tolist() for a in domain)))
        want = [oracle(twin, *query) for query in queries]
        got = inst(*domain)
        assert got.dtype == np.int64 and got.tolist() == want
        for query, y in zip(queries, want):
            answer = inst(*query)
            assert type(answer) is int and answer == y


def test_permutation_file_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    perm = random_permutation(7, rng)
    path = tmp_path / "perm.txt"
    save_permutation(path, perm)
    back = load_permutation(path)
    assert back.n == 7
    assert np.array_equal(back.table, perm.table)


def test_function_table_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    table = rng.integers(0, 1 << 3, size=1 << 5, dtype=np.int64)
    path = tmp_path / "fn.txt"
    save_function_table(path, 5, 3, table)
    n, l, back = load_function_table(path)
    assert (n, l) == (5, 3)
    assert np.array_equal(back, table)
    with pytest.raises(ValueError):
        save_function_table(tmp_path / "bad.txt", 5, 2, table)


@pytest.mark.parametrize("n,l", [(0, 3), (25, 3), (4, 0), (4, 30)])
def test_save_function_table_checks_widths_like_its_loader(tmp_path, n, l):
    path = tmp_path / "fn.txt"
    with pytest.raises(ValueError, match="must be in"):
        save_function_table(path, n, l, np.zeros(16, dtype=np.int64))
    assert not path.exists()


def test_function_table_rejects_truncated(tmp_path):
    path = tmp_path / "trunc.txt"
    path.write_text("n=3\nl=3\n1 2 3\n")
    with pytest.raises(ValueError):
        load_function_table(path)


@pytest.mark.parametrize("load, text, message", [
    (load_permutation, "n=2\n0 1 g 3\n", "value 'g' is not a base-16 integer"),
    (load_permutation, "n=abc\n0 1 2 3\n", "'n=' width 'abc' is not a base-10 integer"),
    (load_permutation, "n=\n0\n", "'n=' width '' is not a base-10 integer"),
    (load_function_table, "n=2\nl=2\n0 1 2 zz\n", "value 'zz' is not a base-16 integer"),
    (load_function_table, "n=x\nl=2\n0 1 2 3\n", "'n=' width 'x' is not a base-10 integer"),
    (load_function_table, "n=2\nl=x\n0 1 2 3\n", "'l=' width 'x' is not a base-10 integer"),
], ids=["perm-value", "perm-n", "perm-empty-n", "table-value", "table-n", "table-l"])
def test_table_files_name_their_bad_token(tmp_path, load, text, message):
    # each was int()'s message, without the file's path
    path = tmp_path / "table.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        load(path)


@pytest.mark.parametrize("kind", ["even-mansour", "fx", "iterated-fx",
                                  "chaskey-toy", "beetle-toy", "related-key"])
def test_instance_json_roundtrip(kind):
    seed = 77
    build_rng = np.random.default_rng(seed)
    if kind == "even-mansour":
        inst = EvenMansourInstance(6, random_permutation(6, build_rng), 9, 4)
    elif kind == "fx":
        # families regenerate from the stored seed, so build like the loader
        from offline_simon.primitives import random_cipher_family
        inst = FxInstance(5, 3, random_cipher_family(3, 5, build_rng), 2, 17, 8)
    elif kind == "iterated-fx":
        from offline_simon.primitives import random_cipher_family
        inst = IterFxInstance(5, 3, random_cipher_family(3, 5, build_rng), 12, 5, 3)
    elif kind == "chaskey-toy":
        inst = ChaskeyToyInstance(6, random_permutation(6, build_rng), 33, 14)
    elif kind == "beetle-toy":
        inst = BeetleToyInstance(4, 3, random_permutation(7, build_rng), 5, 2)
    else:
        from offline_simon.primitives import random_cipher_seed
        inst = RelatedKeyOracle(5, 5, random_cipher_seed(build_rng), 19, 7)
    text = instance_to_json(seed, inst)
    doc = json.loads(text)
    assert doc["kind"] == kind and doc["seed"] == seed
    back = instance_from_json(text)
    if kind == "even-mansour":
        assert (back.n, back.k1, back.k2) == (inst.n, inst.k1, inst.k2)
        assert np.array_equal(back.perm.table, inst.perm.table)
    elif kind == "fx":
        assert (back.k, back.k_in, back.k_out) == (inst.k, inst.k_in, inst.k_out)
        assert np.array_equal(back.family.key_table(2), inst.family.key_table(2))
    elif kind == "iterated-fx":
        assert (back.k1, back.k2, back.rounds) == (inst.k1, inst.k2, inst.rounds)
    elif kind == "chaskey-toy":
        assert (back.k, back.k1) == (inst.k, inst.k1)
    elif kind == "beetle-toy":
        assert (back.rate, back.capacity, back.k1, back.k2) == (4, 3, 5, 2)
    else:
        assert (back.n, back.m, back.seed, back.k, back.msg) \
            == (inst.n, inst.m, inst.seed, inst.k, inst.msg)
        assert np.array_equal(back.column, inst.column)


@pytest.mark.parametrize("n, m, u", [(9, 9, 3), (4, 6, 2)], ids=["defaults", "kw6-n4"])
def test_related_key_descriptor_answers_every_delta_as_drawn(n, m, u):
    """A related-key oracle drawn as `attack related-key` draws it (its
    cipher seed first, then k and msg) and rebuilt from its descriptor answers
    every delta alike, at the CLI defaults and at a key width other than
    the block width."""
    from offline_simon import attacks

    seed = 41
    rng = np.random.default_rng(seed)
    if n == m:
        oracle, _ = attacks.RELATED_KEY.draw({"n": n, "u": u}, rng)
    else:
        oracle = RelatedKeyOracle(n, m, primitives.random_cipher_seed(rng),
                                  int(rng.integers(1 << m)), int(rng.integers(1 << n)))
    back = instance_from_json(instance_to_json(seed, oracle))
    deltas = np.arange(1 << m)
    assert (back.n, back.m, back.k, back.msg) == (n, m, oracle.k, oracle.msg)
    assert np.array_equal(back(deltas), oracle(deltas))
    assert all(back(d) == oracle(d) for d in range(1 << m))


def test_instance_to_json_refuses_an_instance_of_no_kind():
    with pytest.raises(ValueError, match="no descriptor kind for Permutation"):
        instance_to_json(0, random_permutation(3, np.random.default_rng(0)))


# Descriptor kind -> (sizes, key field -> its width in those sizes). The
# related-key oracle has a 5-bit key over 4-bit messages, so its two key
# fields take different widths.
KEY_WIDTHS = {
    "even-mansour": ({"n": 4}, {"k1": 4, "k2": 4}),
    "fx": ({"n": 4, "m": 3}, {"k": 3, "k_in": 4, "k_out": 4}),
    "iterated-fx": ({"n": 4, "m": 3, "rounds": 2}, {"k1": 4, "k2": 3}),
    "chaskey-toy": ({"n": 4}, {"k": 4, "k1": 4}),
    "beetle-toy": ({"rate": 4, "capacity": 3}, {"k1": 4, "k2": 3}),
    "related-key": ({"n": 4, "m": 5}, {"k": 5, "msg": 4}),
}


def _descriptor(kind, key, value):
    sizes, widths = KEY_WIDTHS[kind]
    keys = {k: f"{value if k == key else 0:#x}" for k in widths}
    return json.dumps({"kind": kind, "seed": 3, **sizes, "keys": keys})


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, (_, widths) in KEY_WIDTHS.items()
                                       for key in widths])
def test_instance_from_json_takes_keys_only_inside_their_widths(kind, key):
    width = KEY_WIDTHS[kind][1][key]
    for value in (-1, 1 << width):
        with pytest.raises(ValueError, match=f"key {key} = "):
            instance_from_json(_descriptor(kind, key, value))
    assert getattr(instance_from_json(_descriptor(kind, key, (1 << width) - 1)), key) \
        == (1 << width) - 1


@pytest.mark.parametrize("kind, size", [(kind, size) for kind, (sizes, _) in KEY_WIDTHS.items()
                                        for size in sizes])
def test_instance_from_json_takes_sizes_of_at_least_one(kind, size):
    # an iterated-fx descriptor with rounds 0 would build a cipher that
    # runs no rounds
    sizes, widths = KEY_WIDTHS[kind]
    for value in (0, -2):
        doc = {"kind": kind, "seed": 3, **sizes, size: value, "keys": dict.fromkeys(widths, "0x0")}
        with pytest.raises(ValueError, match=f"{size} = {value} must be at least 1"):
            instance_from_json(json.dumps(doc))


def _malformed(**changes):
    """A valid iterated-fx descriptor with fields replaced (None drops one)."""
    doc = {"kind": "iterated-fx", "seed": 3, "n": 4, "m": 3, "rounds": 2,
           "keys": {"k1": "0x1", "k2": "0x2"}}
    doc.update(changes)
    return json.dumps({k: v for k, v in doc.items() if v is not None})


@pytest.mark.parametrize("text, message", [
    (_malformed(keys=None), "no field 'keys'"),
    (_malformed(kind=None), "no field 'kind'"),
    (_malformed(seed=None), "no field 'seed'"),
    (_malformed(rounds=None), "no field 'rounds'"),
    (_malformed(keys={"k1": "0x1"}), "no field 'keys.k2'"),
    (_malformed(n="4"), "n = '4' must be an integer"),
    (_malformed(n=4.5), "n = 4.5 must be an integer"),
    (_malformed(rounds=True), "rounds = True must be an integer"),
    (_malformed(seed=1.5), "seed = 1.5 must be an integer"),
    (_malformed(seed=-1), "seed = -1 must be at least 0"),
    (_malformed(kind=["fx"]), "unknown instance kind"),
    (_malformed(keys=["0x1", "0x2"]), "keys must be a JSON object"),
    (_malformed(keys={"k1": "zz", "k2": "0x2"}), "key k1 = 'zz' is not a hex string"),
    (_malformed(keys={"k1": 1, "k2": "0x2"}), "key k1 = 1 is not a hex string"),
    (_malformed(keys={"k1": "0x1", "k2": None}), "key k2 = None is not a hex string"),
    (json.dumps([{"kind": "fx"}]), "must be a JSON object, got list"),
    (json.dumps("fx"), "must be a JSON object, got str"),
], ids=["no-keys", "no-kind", "no-seed", "no-size", "no-key", "string-size", "float-size",
        "bool-size", "float-seed", "negative-seed", "list-kind", "list-keys", "non-hex-key", "int-key",
        "null-key", "list-document", "string-document"])
def test_instance_from_json_refuses_malformed_descriptors_by_field(text, message):
    # each was a KeyError or TypeError, or (a bool size) read as 1
    with pytest.raises(ValueError, match=re.escape(message)):
        instance_from_json(text)
    assert instance_from_json(_malformed()).rounds == 2


def test_width_overflow_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        random_permutation(40, rng)
    with pytest.raises(ValueError):
        BlockCipherFamily(40, 4, seed=0)
    with pytest.raises(ValueError):
        RelatedKeyOracle(4, 40, seed=0, k=0, msg=0)
