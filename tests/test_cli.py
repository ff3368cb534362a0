import csv
import dataclasses
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from offline_simon import attacks, cli, primitives, search, simon
from offline_simon.primitives import (
    BlockCipherFamily,
    EvenMansourInstance,
    Permutation,
    instance_from_json,
    load_function_table,
    load_permutation,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text())


def run_cli(args):
    return cli.main(args)


def argv_cases(*cases):
    """(argv, expected error) pairs as test cases named after their argv."""
    return [pytest.param(argv, error, id="_".join(argv).replace("--", ""))
            for argv, error in cases]


def test_attack_output_is_byte_identical(tmp_path):
    args = ["attack", "em-q1", "--n", "7", "--u", "3", "--trials", "3", "--seed", "7"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_attack_workers_do_not_change_output(tmp_path):
    base = ["attack", "fx-q2", "--trials", "4", "--seed", "5"]
    a, b = tmp_path / "w1.json", tmp_path / "w2.json"
    assert run_cli(base + ["--workers", "1", "--out", str(a)]) == 0
    assert run_cli(base + ["--workers", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_attack_document_shape(tmp_path):
    out = tmp_path / "run.json"
    assert run_cli(["attack", "slide-ifx", "--n", "5", "--trials", "3",
                    "--seed", "2", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    jsonschema.validate(doc, SCHEMA)
    assert doc["command"] == "attack"
    assert doc["summary"]["runs"] == 3
    assert 0.0 <= doc["summary"]["success_rate"] <= 1.0
    assert len(doc["trials"]) == 3
    assert [row["trial"] for row in doc["trials"]] == [0, 1, 2]


def test_attack_csv_parses(tmp_path):
    out = tmp_path / "run.csv"
    assert run_cli(["attack", "em-q1", "--n", "7", "--u", "3", "--trials", "3",
                    "--seed", "1", "--format", "csv", "--out", str(out)]) == 0
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[0] == list(cli._CSV_COLUMNS) + ["keys"]
    assert len(rows) == 4
    for row in rows[1:]:
        assert row[1] in ("True", "False")
        json.loads(row[-1])


def test_attack_rejects_oversized_width(capsys):
    assert run_cli(["attack", "em-q1", "--n", "40"]) == 2
    assert "width must be in [1, 24], got 40" in capsys.readouterr().err


def test_attack_rejects_oversized_family(capsys):
    assert run_cli(["attack", "fx-q1", "--n", "20", "--m", "8", "--u", "4"]) == 2
    assert "family table" in capsys.readouterr().err


class Drawn(Exception):
    """A run got past its parameter checks to its first draw."""


def _stop_at_draw(monkeypatch, kind):
    def draw(p, rng):
        raise Drawn(kind)

    stopped = dataclasses.replace(attacks.TARGETS[kind], draw=draw)
    monkeypatch.setitem(attacks.TARGETS, kind, stopped)


def test_attack_rejects_a_sampled_shot_over_the_cell_cap(capsys, monkeypatch):
    # r * 2^m * copies = 201 * 2^16 * 39 cells, a 3.8 GiB uniform block
    _stop_at_draw(monkeypatch, "fx-q1")
    assert run_cli(["attack", "fx-q1", "--m", "13", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: a sampled shot needs 513736704 rank-sample cells" in err
    assert f"cap is 2^{search.SHOT_CELL_CAP_LOG2}" in err


@pytest.mark.parametrize("argv, error", argv_cases(
    (["fx-q2", "--n", "1"], "error: search dimension 0 must be at least 1"),
    (["em-q1", "--n", "24", "--u", "21"], "error: search dimension 21 exceeds the simulable 20"),
    (["fx-q1", "--n", "20", "--m", "8", "--u", "4"],
     "error: family table needs 2^28 entries, cap is 2^22"),
    (["fx-q1", "--m", "13"], "error: a sampled shot needs 513736704 rank-sample cells"),
    (["fx-q2", "--backend", "exact-circuit", "--c", "1"],
     "error: exact backend needs 32 qubits, cap is 26"),
))
def test_attack_refuses_each_search_limit_before_the_draw(capsys, monkeypatch, argv, error):
    monkeypatch.delenv("OFFLINE_SIMON_QUBIT_CAP", raising=False)
    _stop_at_draw(monkeypatch, argv[0])
    assert run_cli(["attack", *argv, "--trials", "1"]) == 2
    assert error in capsys.readouterr().err


def test_chaskey_below_three_bits_runs_out_of_first_blocks(capsys):
    # 2^2 first blocks exist, fewer than the 8 the window walk tries
    assert run_cli(["attack", "chaskey", "--n", "2", "--u", "1", "--trials", "2"]) == 2
    assert "error: chaskey: 50 consecutive instances failed the screen" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["em-q1", "--n", "15", "--u", "5"],
    ["fx-q1", "--n", "7", "--u", "6", "--m", "13"],
    ["fx-q1", "--m", "13", "--backend", "structured"],
], ids=["em-q1-n15-u5", "fx-q1-n7-u6-m13", "fx-q1-m13-structured"])
def test_attack_under_the_cell_cap_reaches_the_draw(monkeypatch, argv):
    _stop_at_draw(monkeypatch, argv[0])
    with pytest.raises(Drawn):
        run_cli(["attack", *argv, "--trials", "1"])


def test_attack_rejects_zero_trials(capsys):
    assert run_cli(["attack", "em-q1", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_attack_rejects_nonpositive_workers(capsys, monkeypatch, workers):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_attack_trial", no_trial)
    assert run_cli(["attack", "fx-q2", "--trials", "2", "--workers", workers]) == 2
    assert "error: workers must be at least 1" in capsys.readouterr().err


def test_exact_backend_capacity_gate(capsys, monkeypatch):
    monkeypatch.setenv("OFFLINE_SIMON_QUBIT_CAP", "12")
    assert run_cli(["attack", "em-q1", "--n", "7", "--u", "3",
                    "--backend", "exact-circuit", "--trials", "1"]) == 2
    assert "qubits" in capsys.readouterr().err


def test_a_non_integer_qubit_cap_exits_2_naming_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("OFFLINE_SIMON_QUBIT_CAP", "abc")
    assert run_cli(["attack", "fx-q2", "--backend", "exact-circuit", "--trials", "1"]) == 2
    err = capsys.readouterr().err
    assert "error: OFFLINE_SIMON_QUBIT_CAP must be an integer, got 'abc'" in err


def test_estimate_text_default(capsys):
    assert run_cli(["estimate", "--preset", "desx"]) == 0
    out = capsys.readouterr().out
    assert "q2.online_queries = 135" in out
    assert "q1.data_log2 = 42" in out


def test_estimate_json_and_csv(tmp_path, capsys):
    assert run_cli(["estimate", "--preset", "chaskey", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["q1"]["time_log2"] == 59.0

    out = tmp_path / "est.csv"
    assert run_cli(["estimate", "--n", "64", "--m", "64", "--data-limit", "43",
                    "--format", "csv", "--out", str(out)]) == 0
    rows = dict(csv.reader(out.read_text().splitlines()[1:]))
    assert float(rows["c_paper"]) == 2.5
    assert int(rows["dt2_log2"]) == 128


def test_estimate_requires_preset_or_params(capsys):
    assert run_cli(["estimate"]) == 2
    assert "preset" in capsys.readouterr().err


@pytest.mark.parametrize("argv, error", argv_cases(
    (["--n", "8", "--m", "4", "--data-limit", "40"], "data limit must be in [0, n=8], got 40"),
    (["--n", "8", "--m", "4", "--data-limit", "-3"], "data limit must be in [0, n=8], got -3"),
    (["--preset", "desx", "--n", "5"], "a preset fixes its own sizes"),
    (["--preset", "desx", "--m", "5"], "a preset fixes its own sizes"),
    (["--preset", "desx", "--data-limit", "3"], "a preset fixes its own sizes"),
    (["--n", "8", "--m", "3000"], "m must be in [1, 512], got 3000"),
    (["--n", "3000", "--m", "8", "--data-limit", "2"], "n must be in [1, 512], got 3000"),
))
def test_estimate_rejects_inputs_it_would_ignore_or_misread(tmp_path, capsys, argv, error):
    out = tmp_path / "est.json"
    assert run_cli(["estimate", *argv, "--out", str(out)]) == 2
    assert f"error: {error}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_bounds_passes(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    assert run_cli(["verify-bounds", "--trials", "400", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) >= 8
    assert all(line.startswith("PASS") for line in lines)
    doc = json.loads(out.read_text())
    assert doc["all_ok"] is True
    names = [c["name"] for c in doc["checks"]]
    assert "period-recovery-rate" in names
    assert "qaa-noisy-interval" in names


# SHA-256 of `verify-bounds --seed 0 --trials 50 --out FILE` (the JSON
# document) and of what it prints, recorded before screens transformed all
# branches of an instance at once. The p_bad bounds and eps go through
# `simon.distribution`, so a change to that path that moves a bit shows here.
GOLDEN_VERIFY_BOUNDS = (
    "11f03919fc7b6fc12265c06bc29fbe45e6e44d4baeb2f8bf662ad00f9496ef7a",
    "2a418002904e99dd8082cb611ee04bf7ee8366c0896d45e3feb08a9f01ff7fa4",
)


def test_verify_bounds_golden_report(tmp_path, capsys):
    out = tmp_path / "bounds.json"
    assert run_cli(["verify-bounds", "--seed", "0", "--trials", "50", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert (hashlib.sha256(out.read_bytes()).hexdigest(),
            hashlib.sha256(printed.encode()).hexdigest()) == GOLDEN_VERIFY_BOUNDS


# SHA-256 of `estimate <args> --out FILE`: every preset in every format,
# and the generic (n, m) path over a small grid with no data limit, a limit
# of 0 and a limit of n. Recorded while the estimator and its aliases lived
# in `attacks`, so every estimate kept its bytes when they moved.
GOLDEN_ESTIMATE_DIGESTS = {
    ("--preset", "desx", "--format", "text"):
        "0e34ba85156549909b555063ba191cca7c54f822edeb92f67ba821da154090c9",
    ("--preset", "desx", "--format", "csv"):
        "eaf9e41a4a5d255c562c69b15c663abff7aee6e1969fe1b8584fdf878e1aa698",
    ("--preset", "desx", "--format", "json"):
        "655b03bda36765911333e7695db05d454669ab986a1118f81584aa6c4c42ed96",
    ("--preset", "prince", "--format", "text"):
        "42da8976e8caff7bdc053dd3de7ee0764b57db3964415c04cad4cc9c39398fc4",
    ("--preset", "prince", "--format", "csv"):
        "f1e7df37dc08ee517b1cdf1853699a8efe4cf4ad8f7978a30d05c1d1b08623d7",
    ("--preset", "prince", "--format", "json"):
        "35bd3268f989d25d2b8bf2d161b300f2b5a4d4bcfcdf8cf66a5cd6588f42b677",
    ("--preset", "pride", "--format", "text"):
        "fd8a3044e7e1646970bdb8ee53a8fabb1037d044c5721b8c78de44ad15290b3a",
    ("--preset", "pride", "--format", "csv"):
        "bfba1fa94834ad1992bba7104dd9697deaf5daa98a3361ad89facd501eb7ce04",
    ("--preset", "pride", "--format", "json"):
        "60ad8f9fe11eca4a54f929708541db11bcfa2f9b9b0e090d2348b90f962ce84e",
    ("--preset", "chaskey", "--format", "text"):
        "1942dadba9895fb155d500451a54a68fff64bdf70eb51ea7c2bc4c42fe25a6b1",
    ("--preset", "chaskey", "--format", "csv"):
        "f8305ebf353ac266c7eb78b8d80dbe55033eab7c310b6059d6edca2d4d26b2e5",
    ("--preset", "chaskey", "--format", "json"):
        "3d999eec10571a86c4fdef77133fe73d9acf9b8b2fc5b246287025c1268d38c8",
    ("--preset", "beetle-light", "--format", "text"):
        "8d55bcd526c989417c0f52575410fe1950bbd62397718f776e5b882b83e936ab",
    ("--preset", "beetle-light", "--format", "csv"):
        "aa1ddb4b704f6421709f2bb7b5f40768abbe1edf0ee0e3540e9840f355f90792",
    ("--preset", "beetle-light", "--format", "json"):
        "5af41c95da5562d6fa84277267f81775cae277616c71e6c683c1cdb3293bfcca",
    ("--preset", "beetle-secure", "--format", "text"):
        "2df59735ad252e7d81cd72d618e5be88978e974c8b722c96807fb55b9cb4e0ed",
    ("--preset", "beetle-secure", "--format", "csv"):
        "30553e5bf795320d37f30dc1dd141e800e02b57942068002becd22caab306e4b",
    ("--preset", "beetle-secure", "--format", "json"):
        "492f2537c2135a7195ca840dd546d146b8e8bcf8b501ca5c5c3856878efc59b5",
    ("--preset", "saturnin16", "--format", "text"):
        "1b3912c0d49ae445075b8758c3d383b50b481c5f275166354cf15a1d05a8452d",
    ("--preset", "saturnin16", "--format", "csv"):
        "23609f3983832520bcdb4abef17bb4b10ec1a8b000ed8c0ed51e3ff80011a636",
    ("--preset", "saturnin16", "--format", "json"):
        "457c7dedf3e2ce969572be4369742220bc92d6e691e993a67ffd1127d9a38fbf",
    ("--n", "1", "--m", "1", "--format", "json"):
        "8111af874685f14783df20fe65fe6ca8af2852661fa15d2492a3f1b05b78cd3d",
    ("--n", "1", "--m", "1", "--data-limit", "0", "--format", "json"):
        "2eda05271198ba7cadc962413450deb4d9334574ed66a95595e984e9efd1bbd4",
    ("--n", "1", "--m", "1", "--data-limit", "1", "--format", "json"):
        "36e6c80c83c20f324d1afe1686939dfc1e2b34a8ce78a0f269822dfb0b52e838",
    ("--n", "8", "--m", "4", "--format", "json"):
        "603fa64f0ba7ea002832de2053e4a22b023c61da30aacf7040974c50a71b15b6",
    ("--n", "8", "--m", "4", "--data-limit", "0", "--format", "json"):
        "e992ca755ef273c1edecf268019d5616ee8b573d059ec2cefbd90a422886cc12",
    ("--n", "8", "--m", "4", "--data-limit", "8", "--format", "json"):
        "a9d25f54d56704a3da96388eb7ec372e75fac9f6d260886442a9ec68208e5ca5",
    ("--n", "64", "--m", "56", "--format", "json"):
        "9ae75562ce772e7b88cf09aad0da8ae9f28056c139ef086afb536ae0e83abdbe",
    ("--n", "64", "--m", "56", "--data-limit", "0", "--format", "json"):
        "e18113db1cc512c8bfe8855fcb53c13c1d33ea32d534530186da0602542ae116",
    ("--n", "64", "--m", "56", "--data-limit", "64", "--format", "json"):
        "0479c61a1676d1eff93a9c0b3166de2a7057c1f78b1db44b89af905905d39c45",
    ("--n", "512", "--m", "512", "--format", "json"):
        "61ae411c3886a7635e621f8124ca6876aaba5d7491981ebfc803bca1c90cb916",
    ("--n", "512", "--m", "512", "--data-limit", "0", "--format", "json"):
        "e0f3f8f021cd5d86f3631e75d009d4efc5feaaa377111bbc00ca0361e4e51591",
    ("--n", "512", "--m", "512", "--data-limit", "512", "--format", "json"):
        "586e2bcfe56d6b45991082d5aafba5fb2163ded39e6d96d8bb4b3e3ae171ec53",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_ESTIMATE_DIGESTS),
                         ids=lambda args: "_".join(args).replace("--", ""))
def test_estimate_golden_report(tmp_path, args):
    out = tmp_path / "est"
    assert run_cli(["estimate", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ESTIMATE_DIGESTS[args]


def test_verify_bounds_flags_small_c(capsys):
    assert run_cli(["verify-bounds", "--trials", "80", "--c", "1", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "c-too-small" in out
    assert "FAIL" not in out


def test_verify_bounds_rejects_zero_trials(capsys):
    assert run_cli(["verify-bounds", "--trials", "0"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("n", [21, 30])
def test_verify_bounds_rejects_unsimulable_n_before_any_table(capsys, monkeypatch, n):
    def no_table(*args, **kwargs):
        raise AssertionError("a 2^n table was drawn")

    monkeypatch.setattr(simon, "random_periodic_function", no_table)
    assert run_cli(["verify-bounds", "--trials", "1", "--n", str(n)]) == 2
    assert f"error: --n {n} exceeds the simulable {simon.MAX_N}" in capsys.readouterr().err


def test_verify_bounds_takes_the_widest_simulable_n(monkeypatch):
    def stop(n, *args, **kwargs):
        raise Drawn(n)

    monkeypatch.setattr(simon, "random_periodic_function", stop)
    with pytest.raises(Drawn, match=str(simon.MAX_N)):
        run_cli(["verify-bounds", "--trials", "1", "--n", str(simon.MAX_N)])


def test_gen_permutation_roundtrip(tmp_path):
    out = tmp_path / "perm.txt"
    assert run_cli(["gen", "permutation", "--n", "6", "--seed", "3",
                    "--out", str(out)]) == 0
    perm = load_permutation(out)
    assert sorted(perm.table.tolist()) == list(range(64))
    again = tmp_path / "perm2.txt"
    assert run_cli(["gen", "permutation", "--n", "6", "--seed", "3",
                    "--out", str(again)]) == 0
    assert out.read_bytes() == again.read_bytes()


def test_gen_instance_roundtrip(tmp_path):
    out = tmp_path / "em.json"
    assert run_cli(["gen", "em", "--n", "7", "--seed", "5", "--out", str(out)]) == 0
    inst = instance_from_json(out.read_text())
    assert isinstance(inst, EvenMansourInstance)
    assert inst.n == 7
    assert sorted(inst.perm.table.tolist()) == list(range(128))


# SHA-256 of `gen function-table --seed 5 [sizes]` output, recorded before
# `search` took over the qubit cap; with --n alone, l defaults to n.
GOLDEN_FUNCTION_TABLE_DIGESTS = {
    ("--n", "4", "--l", "3"): "a2fcce4390bb26fe10bb293a5a7a3c09735f6499593783a7324fb2c77a4444fd",
    ("--n", "4"): "804220988bbee7070976219f84554bd04ddb03a01d3b7c8be7e6df5097c45b9d",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_FUNCTION_TABLE_DIGESTS),
                         ids=lambda args: "_".join(args).replace("--", ""))
def test_gen_function_table_golden(tmp_path, args):
    out = tmp_path / "fn.txt"
    assert run_cli(["gen", "function-table", *args, "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FUNCTION_TABLE_DIGESTS[args]
    n = int(args[1])
    l = int(args[3]) if len(args) > 2 else n
    drawn = np.random.default_rng(5).integers(0, 1 << l, size=1 << n, dtype=np.int64)
    got_n, got_l, table = load_function_table(out)
    assert (got_n, got_l) == (n, l)
    assert table.dtype == np.int64 and np.array_equal(table, drawn)


def test_gen_rejects_function_table_its_loader_rejects(tmp_path, capsys):
    out = tmp_path / "fn.txt"
    assert run_cli(["gen", "function-table", "--n", "4", "--l", "30", "--out", str(out)]) == 2
    assert "output width must be in [1, 24]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["attack", "em-q1", "--n", "0"],
    ["attack", "em-q1", "--u", "0"],
    ["attack", "em-q1", "--c", "0"],
    ["attack", "em-q1", "--c", "-1"],
    ["attack", "fx-q2", "--m", "0"],
    ["attack", "beetle", "--rate", "0"],
    ["attack", "beetle", "--capacity", "0"],
    ["attack", "slide-ifx", "--rounds", "0"],
    ["gen", "em", "--n", "0"],
    ["gen", "function-table", "--l", "0"],
    ["gen", "related-key", "--u", "-2"],
    ["gen", "ifx", "--rounds", "0"],
    ["verify-bounds", "--n", "0"],
    ["verify-bounds", "--c", "0"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_size_flags_below_one_are_rejected(tmp_path, capsys, monkeypatch, argv):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_attack_trial", no_trial)
    out = tmp_path / "out"
    flag, value = argv[-2:]
    assert run_cli(argv + ["--out", str(out)]) == 2
    assert f"error: {flag} must be at least 1, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["attack", "em-q1"],
    ["gen", "em"],
    ["verify-bounds"],
], ids=lambda argv: "_".join(argv))
def test_a_negative_seed_is_rejected_by_name(tmp_path, capsys, argv):
    # numpy refused it as "expected non-negative integer", naming no flag
    out = tmp_path / "out"
    assert run_cli(argv + ["--seed", "-1", "--out", str(out)]) == 2
    assert "error: --seed must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# SHA-256 of `gen <kind> --seed 5 [sizes]` output, recorded before `gen`
# drew its instances through `attacks.TARGETS`. Only `gen fx` with no size
# flags was re-recorded then: it takes fx-q2's default n=4 (it was n=6;
# `gen fx --n 6` keeps the old digest).
GOLDEN_GEN_DIGESTS = {
    ("em",): "b4b2492e21c5ae4e84768c6c911927eda041f4c38b0a46f49d65d2adac381783",
    ("em", "--n", "7"): "cbdff8d5fab4f047f138275d27b795ea78551d011c8abb5f3e806e4a0f453f63",
    ("fx",): "ee8cec88c26c81fc053a00626b7d94eb0cf218ca431bc615b5dac2e49405e3b4",
    ("fx", "--n", "6"): "b7545271f7c5dd67f630e45e815c929c3e709576c7a6390566c5d824c5a8c481",
    ("fx", "--n", "5", "--m", "2"):
        "4ad809ae1708f196ae46f20c3edacf3cb20182b5bc9692d6dbbbcf5c8e0574e3",
    ("ifx",): "d8eea4f6a67fb0b0359efe96d37a9d2a16147fa77493771dd5983b1d74569d4c",
    ("ifx", "--n", "5", "--m", "2", "--rounds", "4"):
        "78fb4bd15e1d7639b4ded1669424adf4b4f16e6e18c9a1f080ee6701e5e425af",
    ("chaskey",): "9a007ebc3a9584c91cdd94ad18b7e75b464244655c1eb614920b1e7e0247e7a6",
    ("chaskey", "--n", "6"): "67e8773e34e9184382192ed2a174e3ae3181d24772e5fb6037c86070e1920894",
    ("beetle",): "bc71c8b13adef7f4a01a0be0dde0520dff55df5811fa9cd15b65ce3a07a2e786",
    ("beetle", "--rate", "5", "--capacity", "3"):
        "480ad5350311391708a83379968723d5c1a9c396923887038dfdb6fceb3302b8",
    ("related-key",): "e2739f2ce6ba7c24b8e76c515097810ef766ee380986bf807fdd5d7a6f2b12ed",
    ("related-key", "--n", "6", "--u", "2"):
        "9dd1a192288584ffb7c16d181c27a71adc8ed6647a96d3c651fc33b600af8f70",
}


@pytest.mark.parametrize("args", sorted(GOLDEN_GEN_DIGESTS),
                         ids=lambda args: "_".join(args).replace("--", ""))
def test_gen_golden_instance(tmp_path, args):
    out = tmp_path / "inst.json"
    assert run_cli(["gen", *args, "--seed", "5", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_GEN_DIGESTS[args]


def _tables(value):
    """A permutation's or a cipher family's full table, else the value."""
    if isinstance(value, Permutation):
        return value.table
    if isinstance(value, BlockCipherFamily):
        return np.stack([value.key_table(k) for k in range(1 << value.m)])
    return value


@pytest.mark.parametrize("kind", sorted(cli.GEN_TARGETS))
def test_gen_file_loads_to_the_drawn_instance(tmp_path, kind):
    out = tmp_path / "inst.json"
    assert run_cli(["gen", kind, "--seed", "5", "--out", str(out)]) == 0
    target = attacks.TARGETS[cli.GEN_TARGETS[kind]]
    drawn = target.draw(target.defaults(cli.build_parser().parse_args(["gen", kind])),
                        np.random.default_rng(5))[0]
    loaded = instance_from_json(out.read_text())
    assert type(loaded) is type(drawn)
    for field in dataclasses.fields(drawn):
        want, got = _tables(getattr(drawn, field.name)), _tables(getattr(loaded, field.name))
        assert np.array_equal(got, want), field.name


@pytest.mark.parametrize("n, l, what", [("25", "3", "width"), ("4", "25", "output width")])
def test_gen_function_table_checks_widths_before_drawing(tmp_path, capsys, monkeypatch,
                                                         n, l, what):
    class NoDraw:
        def integers(self, *args, **kwargs):
            raise AssertionError("the table was drawn")

    monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraw())
    out = tmp_path / "fn.txt"
    assert run_cli(["gen", "function-table", "--n", n, "--l", l, "--out", str(out)]) == 2
    assert f"error: {what} must be in [1, 24], got 25" in capsys.readouterr().err
    assert not out.exists()


# argparse rejects a flag the subcommand never takes; `gen` rejects a size
# flag its kind does not read by the rule `attack` uses
@pytest.mark.parametrize("argv, error", argv_cases(
    (["attack", "em-q1", "--l", "5"], "unrecognized arguments: --l"),
    (["verify-bounds", "--m", "3"], "unrecognized arguments: --m"),
    (["verify-bounds", "--l", "3"], "unrecognized arguments: --l"),
    (["verify-bounds", "--u", "3"], "unrecognized arguments: --u"),
    (["gen", "em", "--c", "3"], "unrecognized arguments: --c"),
    (["gen", "em", "--m", "3"], "error: gen em does not read --m"),
    (["gen", "permutation", "--l", "3"], "error: gen permutation does not read --l"),
    (["gen", "fx", "--u", "2"], "error: gen fx does not read --u"),
))
def test_flags_the_subcommand_never_reads_are_rejected(tmp_path, capsys, monkeypatch, argv,
                                                       error):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    def no_draw(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli, "_attack_trial", no_trial)
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    out = tmp_path / "out"
    try:
        code = run_cli(argv + ["--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    assert error in capsys.readouterr().err
    assert not out.exists()


# One size flag per attack kind that `attack` takes but the kind's record
# never reads: the kind reads the keys of its `defaults`, plus --c.
UNREAD_SIZE_FLAGS = {
    "em-q1": "--m",
    "fx-q2": "--u",
    "fx-q1": "--rate",
    "chaskey": "--rounds",
    "beetle": "--n",
    "related-key": "--capacity",
    "slide-ifx": "--u",
}


def test_unread_size_flags_cover_every_kind():
    assert sorted(UNREAD_SIZE_FLAGS) == sorted(cli.ATTACK_KINDS)
    for kind, flag in UNREAD_SIZE_FLAGS.items():
        reads = attacks.TARGETS[kind].defaults(cli.build_parser().parse_args(["attack", kind]))
        assert flag[2:] not in {"c", *reads}


@pytest.mark.parametrize("kind", sorted(UNREAD_SIZE_FLAGS))
def test_attack_rejects_size_flags_its_kind_does_not_read(tmp_path, capsys, monkeypatch,
                                                           kind):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_attack_trial", no_trial)
    out = tmp_path / "out"
    flag = UNREAD_SIZE_FLAGS[kind]
    assert run_cli(["attack", kind, flag, "3", "--trials", "1", "--out", str(out)]) == 2
    assert f"error: attack {kind} does not read {flag}" in capsys.readouterr().err
    assert not out.exists()


# each window `attack` refuses, `gen` refuses with the same message, before
# it draws or writes anything
@pytest.mark.parametrize("argv", [
    ["em-q1", "--n", "5", "--u", "9"],
    ["chaskey", "--n", "4", "--u", "7"],
    ["beetle", "--rate", "3", "--u", "6"],
    ["related-key", "--n", "4", "--u", "4"],
    ["related-key", "--n", "3", "--u", "5"],
], ids=lambda argv: "_".join(argv).replace("--", ""))
def test_gen_refuses_the_windows_attack_refuses(tmp_path, capsys, monkeypatch, argv):
    def no_draw(*args):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(cli, "_attack_trial", no_draw)
    assert run_cli(["attack", *argv, "--trials", "1"]) == 2
    error = capsys.readouterr().err
    assert error.startswith("error: need 1 <= ")
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    kind = {record: kind for kind, record in cli.GEN_TARGETS.items()}[argv[0]]
    out = tmp_path / "inst.json"
    assert run_cli(["gen", kind, *argv[1:], "--out", str(out)]) == 2
    assert capsys.readouterr().err == error
    assert not out.exists()


def test_gen_describes_an_instance_whose_table_would_not_fit(tmp_path):
    # the 2^12 x 2^24 family table would take 512 GiB; the descriptor
    # needs its seed only, and loading it draws no table either
    out = tmp_path / "inst.json"
    assert run_cli(["gen", "fx", "--m", "12", "--n", "24", "--out", str(out)]) == 0
    loaded = instance_from_json(out.read_text())
    assert (loaded.m, loaded.n) == (12, 24)
    assert "_table" not in vars(loaded.family)


@pytest.mark.parametrize("argv", [
    ["attack", "em-q1", "--trials", "3"],
    ["estimate", "--preset", "desx"],
    ["verify-bounds", "--trials", "1"],
    ["gen", "em"],
], ids=lambda argv: argv[0])
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_an_unwritable_out_exits_2_with_an_error(tmp_path, capsys, argv, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    assert run_cli([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and str(out) in err and err.count("\n") == 1


def test_attack_checks_out_before_its_first_trial(monkeypatch, tmp_path, capsys):
    """An --out under a missing directory fails before any trial runs (or
    any of verify-bounds' draws); a path the check passes is neither created
    nor truncated until the report is written."""
    calls, seen = [], []
    attack_trial, default_rng = cli._attack_trial, np.random.default_rng
    monkeypatch.setattr(cli, "_attack_trial", lambda *args: calls.append(args))
    monkeypatch.setattr(np.random, "default_rng", lambda *args: calls.append(args))
    missing = tmp_path / "missing" / "x.json"
    assert run_cli(["attack", "em-q1", "--trials", "3", "--out", str(missing)]) == 2
    assert run_cli(["verify-bounds", "--trials", "1", "--out", str(missing)]) == 2
    assert not calls
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n" * 2
    monkeypatch.setattr(np.random, "default_rng", default_rng)

    def trial(kind, p, t):
        seen.append([out.read_text() if out.exists() else None for out in (kept, fresh)])
        return attack_trial(kind, p, t)

    monkeypatch.setattr(cli, "_attack_trial", trial)
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("kept\n")
    for out in (kept, fresh):
        assert run_cli(["attack", "em-q1", "--trials", "2", "--out", str(out)]) == 0
    assert seen == [["kept\n", None]] * 2 + [[kept.read_text(), None]] * 2
    assert kept.read_text() == fresh.read_text() != "kept\n"


def test_gen_rejects_oversized(capsys):
    assert run_cli(["gen", "permutation", "--n", "40", "--out", "/tmp/nope.txt"]) == 2
    capsys.readouterr()


def test_gen_requires_out(capsys):
    assert run_cli(["gen", "permutation"]) == 2
    assert "--out" in capsys.readouterr().err


# What the console-script wrapper generated by pip does: load the declared
# entry point, name the program after the script, exit with main()'s code.
CONSOLE_SCRIPT_WRAPPER = """\
import sys
from importlib.metadata import EntryPoint
name, value = sys.argv[1:3]
main = EntryPoint(name, value, "console_scripts").load()
sys.argv = [name] + sys.argv[3:]
sys.exit(main())
"""


def test_console_script_is_installed():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    args = ["estimate", "--preset", "desx"]
    commands = [[sys.executable, "-c", CONSOLE_SCRIPT_WRAPPER,
                 "offline-simon", scripts["offline-simon"], *args]]
    exe = shutil.which("offline-simon")
    if exe:
        commands.append([exe, *args])
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=60,
                              env=package_env())
        assert proc.returncode == 0
        assert "q2.online_queries = 135" in proc.stdout


# SHA-256 of `attack <kind> --trials 3 --seed 11 [extra]` output, recorded
# before the attacks were folded into `attacks.run_attack`, except for the
# c2 digests of em-q1, fx-q1, chaskey and beetle: those were re-recorded
# when the attack began to take its period candidates from the search's
# own recovery (an ambiguous low-copy recovery then proposes its keys in
# another order, so T moved in one trial or two), and for the related-key
# digests that moved when its oracle began to draw only the one cipher
# column it answers from (the c2 one here, and its shape and exact-backend
# digests below): the same law of cipher words, other words drawn, while
# its defaults and structured digests kept every byte. The digests depend on
# numpy's Generator streams (PCG64 and its integers/choice algorithms): a
# numpy release that changes those streams changes every digest.
GOLDEN_ATTACK_DIGESTS = {
    ("defaults", "em-q1"): "d33068bee5197ee130ef60d304cfd130793dc9dea21a11b2a997ce127e30e656",
    ("defaults", "fx-q2"): "59c6ef0da51d8b70f920eac6a2ea5a9db3eb4586ab2b861eb1a98086fb8e7ddc",
    ("defaults", "fx-q1"): "522dc4a730403930f4a2457ebd1e27d5a4a298a24c1d65fc2fc8ac4c84f64b82",
    ("defaults", "chaskey"): "b6ec9bec743ed452f522e04e12498700f7834e1bf88524a19e917b60fef4c971",
    ("defaults", "beetle"): "d93fff40a67181dc96599d26f2727f254bd5e26e53657c47af6b8e6ec9d29721",
    ("defaults", "related-key"): "8904efc0b47485a297a0a9c340948b82cf2e6e8257acde61da86e81b66cb1b1c",
    ("defaults", "slide-ifx"): "fc878ea9d9c4c98aaaf160c750dce6ac3ea432715da28e98f0dece2db6ba82fb",
    ("structured", "em-q1"): "73f4fd69b14f7005c7f1261b655bcdbdce307a456673c7d80630fd3ed811ee03",
    ("structured", "fx-q2"): "2a51b3d358050c991f126842e87933bf7756c7f20cc104326b47c13adb599490",
    ("structured", "fx-q1"): "a0a45ab9ff430441d334b0d345671d78d0485247562ed7ffeb96bc7580ee5ff4",
    ("structured", "chaskey"): "fe45d50392d7249f081385dd70800c163881531357e43ab3890e3fe6225367eb",
    ("structured", "beetle"): "c76a986017b97a54332c9ca484f78c21c832b70add2e562e122c48022090458a",
    ("structured", "related-key"): "cb66456351149be02aff17dd0e78b3dd429e72296af3ba038c2b34ad4986169d",
    ("structured", "slide-ifx"): "e98a04d71a8e2f03912e7d5f5b1e89c7e9401bdd512a5d8774e3871da44b6e32",
    ("c2", "em-q1"): "96fca4ec869d1b6e4198210751b600db6bac0fa76aba71fee56fe92fc73f67ab",
    ("c2", "fx-q2"): "868a4f64b004337fc90ca4848ef2d8f235e54e565788b3e71fddb1c18d686ed6",
    ("c2", "fx-q1"): "71eefb64a7f40584033ac2a709288c4a030597e678341fe63fcd54d5ac4978d8",
    ("c2", "chaskey"): "63fc30b940b670653f32452322d71d48550fbb6766873d91afc4005fcc7b1160",
    ("c2", "beetle"): "ac41ecbb253617f2a49abd0a694b08290fe24dae61dc1cc48b9fa70917f4fa4a",
    ("c2", "related-key"): "57805e21acaf0b36389d89cfc5f0db80eee6c43d7ee1760c8466559c2b67b53b",
    ("c2", "slide-ifx"): "f3781631d49fe42b6ecd00c2590c54a7d55105d977b488d5ee6338b08bf3cf68",
}
GOLDEN_CONFIGS = {"defaults": [], "structured": ["--backend", "structured"],
                  "c2": ["--c", "2"]}
# The same command at a second size per kind (the second shape of each kind
# in test_attacks.CARVE_SIZES) and at a window as wide as the block
# (u = n), recorded before the five chosen-window carves became one.
GOLDEN_SHAPE_DIGESTS = {
    "em-q1 --n 5 --u 2": "286628d12bb8e31a4d0d27ad7d6facdf78c10ad8c77f4112c5205acb703f49c2",
    "em-q1 --n 6 --u 6": "d9751ea393b6851f6517218a20f217cd397f6645caa79036fc4129af2022b4cf",
    "fx-q2 --n 5 --m 2": "34032f4b414be483e2a076bc20a67eb60016c030f94d6f8473cf6b7f9fe33cf9",
    "fx-q1 --n 5 --m 2 --u 2": "18b3148098d6cab2d0c3cf38b9f5b702cc6c1832f4bfa8e1aaf552ecbca816d3",
    "chaskey --n 6 --u 4": "8dca16c126fb6a68d84f3fb3e5987420a0881f4192e043a9ef6cf5bd664b2198",
    "beetle --rate 4 --capacity 3 --u 2":
        "97a246d13bbb2d4aea99afe24c284db8ef10d93d6159049ab625d8ec196771ff",
    "related-key --n 7 --u 2": "0a23e2f3b4e0e45a57d0ceaaa53b8343219eb80f42371902930051bbf8c45947",
    "slide-ifx --n 4 --m 2 --rounds 2":
        "2937f61ddc0be6d7f1922da7dd5d46e9c6baca929991029a69f99fb3b30203b3",
}


# The same command on the exact-circuit backend at the tiny shape of each
# kind that passes its screen there (fx-q2 and slide-ifx fail it 50 times
# at such sizes), recorded with one period recovery per search.
GOLDEN_EXACT_DIGESTS = {
    "em-q1 --n 4 --u 2 --c 1": "333a07fe107116838ae45d37d4d79042dd0c176c02d511e76f44ea0a0e97e375",
    "chaskey --n 4 --u 2 --c 1": "32c7a616b9067b6e59aa14355d00fef4bfd719d9d7a46dae19efd286a332aa48",
    "beetle --rate 2 --capacity 1 --u 1 --c 1":
        "7e3c28ec65ea43f92f73a85403060974fbae04341f7a26fdca0a710e3aee125c",
    "related-key --n 4 --u 2 --c 1":
        "dc8b818b56bd3e4077cd23c77bebc0997cd6e9c84dbe09e5aa86fbe5173a0b62",
    "fx-q1 --n 3 --m 1 --u 2 --c 1":
        "369e3f44ce9e1a7bde9ad41e3f7fecfcb2b88b9876b8caf25ceb51ea0dd37608",
}


# One trial at a width where the screen has 2^12-input branches (the
# carve's (n, m) = (12, 2)), recorded before the screen counted each
# branch's equal-value pairs, when it transformed every output class; and
# one whose screen is a (1024, 2^5) stack (the carve's (n, m) = (5, 10)),
# recorded while that stack still compared its cells, before every stack
# of more than 2^14 cells sorted.
GOLDEN_WIDE_DIGESTS = {
    "em-q1 --n 14 --u 12 --trials 1 --seed 3":
        "cd11f07037ab4288159e78c805e8c0a02b358aedfc3793e7ee1cc4d773611ce5",
    "em-q1 --n 15 --u 5 --trials 1 --seed 3":
        "0d7f6fa016629983a51d160aaeeabda585c5e1f07e46e288022375aa9deaa15b",
}


@pytest.mark.parametrize("config,kind", sorted(GOLDEN_ATTACK_DIGESTS))
def test_attack_golden_report(tmp_path, config, kind):
    out = tmp_path / "run.json"
    assert run_cli(["attack", kind, "--trials", "3", "--seed", "11", "--out", str(out)]
                   + GOLDEN_CONFIGS[config]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ATTACK_DIGESTS[config, kind]


@pytest.mark.parametrize("args", sorted(GOLDEN_SHAPE_DIGESTS))
def test_attack_golden_report_at_other_shapes(tmp_path, args):
    out = tmp_path / "run.json"
    assert run_cli(["attack", *args.split(), "--trials", "3", "--seed", "11",
                    "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_SHAPE_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(GOLDEN_EXACT_DIGESTS))
def test_attack_golden_report_on_the_exact_backend(tmp_path, args):
    out = tmp_path / "run.json"
    assert run_cli(["attack", *args.split(), "--backend", "exact-circuit", "--trials", "3",
                    "--seed", "11", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_EXACT_DIGESTS[args]


@pytest.mark.parametrize("args", sorted(GOLDEN_WIDE_DIGESTS))
def test_attack_golden_report_at_a_wide_shape(tmp_path, args):
    out = tmp_path / "run.json"
    assert run_cli(["attack", *args.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_WIDE_DIGESTS[args]


@pytest.mark.parametrize("kind", cli.ATTACK_KINDS)
def test_capacity_footprint_matches_reported_q(tmp_path, kind):
    out = tmp_path / "run.json"
    assert run_cli(["attack", kind, "--c", "1", "--backend", "structured",
                    "--trials", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    p = doc["parameters"]
    target = attacks.TARGETS[kind]
    n, m, l, _ = target.shape(p)
    footprint = search.qubit_footprint(m, target.copies(p["c"], n, m, l), n, l)
    assert footprint == doc["trials"][0]["Q"]


def test_exact_capacity_counts_fx_q2_copies_per_block_bit(capsys, monkeypatch):
    # fx-q2 --c C takes C * n copies (the block width, not the n-1 bit
    # search width): 3 + 4 * (3 + 4) + 1 = 32 qubits at the defaults.
    def no_draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.delenv("OFFLINE_SIMON_QUBIT_CAP", raising=False)
    monkeypatch.setattr(primitives, "random_cipher_family", no_draw)
    assert run_cli(["attack", "fx-q2", "--backend", "exact-circuit", "--c", "1"]) == 2
    assert "needs 32 qubits" in capsys.readouterr().err


@pytest.mark.parametrize("n, error", [
    ("22", "error: a sampled shot needs 172163072 rank-sample cells"),
    ("23", "error: family table needs 2^23 entries, cap is 2^22"),
], ids=["22", "23"])
def test_related_key_bounds_its_cipher_family_before_any_draw(capsys, monkeypatch, n, error):
    # the carve reads one 2^n-word cipher column, the table of its m + n = n
    # bit family: u = 7 at n = 22 passes the table cap and breaks the shot
    # cap (m = 15), and n = 23 breaks the table cap
    def no_draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.setattr(primitives, "random_cipher_seed", no_draw)
    monkeypatch.setattr(primitives, "key_column", no_draw)
    assert run_cli(["attack", "related-key", "--n", n, "--trials", "1"]) == 2
    assert error in capsys.readouterr().err


def test_related_key_runs_where_a_whole_cipher_family_would_not_fit(tmp_path):
    # a whole cipher family at n = 12 (2^12 keys x 2^12 messages) would be
    # 2^24 words, over the 2^22 cap; the column the oracle holds is 2^12
    out = tmp_path / "run.json"
    assert run_cli(["attack", "related-key", "--n", "12", "--trials", "1",
                    "--out", str(out)]) == 0
    assert json.loads(out.read_text())["summary"]["verified"] == 1


def test_related_key_draws_no_cipher_family(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("related-key built a cipher family")

    monkeypatch.setattr(BlockCipherFamily, "__init__", refuse)
    assert run_cli(["attack", "related-key", "--trials", "2",
                    "--out", str(tmp_path / "run.json")]) == 0


def test_related_key_names_the_window_it_refuses(capsys):
    # no --u: the window defaults to a third of the key width, 0 at --n 1
    assert run_cli(["attack", "related-key", "--n", "1", "--trials", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: need 1 <= u < key width 1, got u = 0 (a third of key width 1)\n")


@pytest.mark.parametrize("backend", ["sampled", "structured"])
@pytest.mark.parametrize("kind", cli.ATTACK_KINDS)
def test_attack_recovers_the_period_once_per_trial(monkeypatch, tmp_path, kind, backend):
    """The search recovers the period of the branch it returns, once, and
    the attack takes its candidates from that recovery."""
    calls = []
    recover = simon.recover

    def spy(*args, **kwargs):
        calls.append(args)
        return recover(*args, **kwargs)

    monkeypatch.setattr(simon, "recover", spy)
    assert run_cli(["attack", kind, "--trials", "2", "--backend", backend,
                    "--out", str(tmp_path / "r.json")]) == 0
    assert len(calls) == 2


def test_attack_pool_starts_no_more_workers_than_it_can_use(tmp_path, monkeypatch):
    import concurrent.futures

    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records the worker count it is
        asked for and maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    base = ["attack", "fx-q2", "--trials", "3", "--seed", "5"]
    a, b = tmp_path / "w1.json", tmp_path / "w64.json"
    assert run_cli(base + ["--workers", "1", "--out", str(a)]) == 0
    assert sizes == []
    assert run_cli(base + ["--workers", "64", "--out", str(b)]) == 0
    assert all(1 < size <= min(3, os.cpu_count() or 1) for size in sizes)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind", cli.ATTACK_KINDS)
def test_attack_screens_each_carve_once(monkeypatch, tmp_path, kind):
    screened, searched = [], []
    screen, alg_q1, alg_q2 = search.screen, search.alg_exp_q1, search.alg_poly_q2

    def count_screen(instance):
        screened.append(instance)
        return screen(instance)

    def spy(alg):
        def run(instance, *args, **kwargs):
            searched.append(instance)
            return alg(instance, *args, **kwargs)
        return run

    monkeypatch.setattr(search, "screen", count_screen)
    monkeypatch.setattr(search, "alg_exp_q1", spy(alg_q1))
    monkeypatch.setattr(search, "alg_poly_q2", spy(alg_q2))
    assert run_cli(["attack", kind, "--trials", "2", "--out", str(tmp_path / "r.json")]) == 0
    assert len(searched) == 2
    # the lists keep every instance alive, so ids are not reused
    screened_ids = [id(inst) for inst in screened]
    assert len(set(screened_ids)) == len(screened_ids)
    assert {id(inst) for inst in searched} <= set(screened_ids)


@pytest.mark.parametrize("backend", ["sampled", "structured"])
@pytest.mark.parametrize("kind", cli.ATTACK_KINDS)
def test_attack_transforms_each_branch_once(monkeypatch, tmp_path, kind, backend):
    """Every branch of a searched instance goes through the class-indicator
    transform exactly once: all 2^m branch tables in one simon.distributions
    call, and no simon.distribution call on any of them."""
    stacks, singles, searched = [], [], []
    distributions, distribution = simon.distributions, simon.distribution
    alg_q1, alg_q2 = search.alg_exp_q1, search.alg_poly_q2

    def spy_distributions(tables, n=None):
        stacks.append(np.array(tables, dtype=np.int64))
        return distributions(tables, n)

    def spy_distribution(h, n=None):
        singles.append(np.array(h, dtype=np.int64))
        return distribution(h, n)

    def spy(alg):
        def run(instance, *args, **kwargs):
            searched.append(instance)
            return alg(instance, *args, **kwargs)
        return run

    monkeypatch.setattr(simon, "distributions", spy_distributions)
    monkeypatch.setattr(simon, "distribution", spy_distribution)
    monkeypatch.setattr(search, "alg_exp_q1", spy(alg_q1))
    monkeypatch.setattr(search, "alg_poly_q2", spy(alg_q2))
    assert run_cli(["attack", kind, "--trials", "2", "--backend", backend,
                    "--out", str(tmp_path / "r.json")]) == 0
    assert len(searched) == 2
    for inst in searched:
        branches = inst.family ^ inst.g
        assert sum(np.array_equal(tables, branches) for tables in stacks) == 1
        rows = {row.tobytes() for row in branches}
        assert not any(h.tobytes() in rows for h in singles)


def package_env() -> dict:
    """The environment with this checkout's package first on the path."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_one_parser_serves_every_call_without_carrying_state(tmp_path):
    """`main` reuses one parser: a sequence of calls in one process, a
    parse error among them, writes what each command writes when run
    first in a fresh process."""
    assert cli.build_parser() is cli.build_parser()
    commands = [
        ["attack", "em-q1", "--n", "6", "--u", "2", "--trials", "2", "--seed", "4"],
        ["attack", "em-q1", "--trials", "2", "--seed", "4"],
        ["estimate", "--n", "64", "--m", "56", "--data-limit", "20", "--format", "json"],
        ["gen", "em", "--seed", "3"],
        ["attack", "em-q1", "--n", "6", "--u", "2", "--trials", "2", "--seed", "4"],
    ]
    for i, argv in enumerate(commands):
        if i == 2:
            with pytest.raises(SystemExit):
                cli.main(["attack", "em-q1", "--rate", "x"])
        assert cli.main([*argv, "--out", str(tmp_path / f"in-process-{i}")]) == 0
    for i, argv in enumerate(commands[:4]):
        fresh = tmp_path / f"fresh-{i}"
        subprocess.run([sys.executable, "-m", "offline_simon.cli", *argv, "--out", str(fresh)],
                       check=True, env=package_env(), timeout=120)
        assert (tmp_path / f"in-process-{i}").read_bytes() == fresh.read_bytes()
    assert (tmp_path / "in-process-4").read_bytes() == (tmp_path / "fresh-0").read_bytes()


@pytest.mark.parametrize("argv, handler", [
    (["attack", "em-q1"], cli.cmd_attack),
    (["estimate"], cli.cmd_estimate),
    (["verify-bounds"], cli.cmd_verify_bounds),
    (["gen", "em"], cli.cmd_gen),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_each_subcommand_parses_to_its_own_handler(argv, handler):
    assert cli.build_parser().parse_args(argv).run is handler


def test_no_command_loads_the_simulator(tmp_path):
    """The CLI, the attacks and every backend run without `qsim`: the
    qubit cap the exact backend checks is `search`'s own."""
    runs = [["attack", "em-q1", "--trials", "1"],
            ["attack", "em-q1", "--n", "4", "--u", "2", "--c", "1", "--trials", "1",
             "--backend", "exact-circuit"],
            ["attack", "em-q1", "--trials", "1", "--backend", "structured"]]
    code = ("import sys, offline_simon.cli as cli\n"
            "print('offline_simon.qsim' in sys.modules)\n"
            f"for i, argv in enumerate({runs!r}):\n"
            f"    assert cli.main([*argv, '--out', {str(tmp_path)!r} + f'/run-{{i}}.json']) == 0\n"
            "print('offline_simon.qsim' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), timeout=120, check=True)
    assert proc.stdout.split() == ["False", "False"]
    assert len(list(tmp_path.glob("run-*.json"))) == len(runs)


def test_cli_imports_no_process_pool_until_workers_ask_for_one():
    code = ("import sys, offline_simon.cli; "
            "print(any(m.startswith('concurrent.futures') for m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=package_env(), timeout=60, check=True)
    assert proc.stdout.strip() == "False"
