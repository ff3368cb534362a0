import csv
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from offline_simon import attacks, cli, primitives, search
from offline_simon.primitives import (
    EvenMansourInstance,
    instance_from_json,
    load_permutation,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" / "report-schema.json").read_text())


def run_cli(args):
    return cli.main(args)


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
    assert "width 40" in capsys.readouterr().err


def test_attack_rejects_oversized_family(capsys):
    assert run_cli(["attack", "fx-q1", "--n", "20", "--m", "8", "--u", "4"]) == 2
    assert "family table" in capsys.readouterr().err


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


def test_verify_bounds_flags_small_c(capsys):
    assert run_cli(["verify-bounds", "--trials", "80", "--c", "1", "--n", "8"]) == 0
    out = capsys.readouterr().out
    assert "c-too-small" in out
    assert "FAIL" not in out


def test_verify_bounds_rejects_zero_trials(capsys):
    assert run_cli(["verify-bounds", "--trials", "0"]) == 2
    capsys.readouterr()


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
        proc = subprocess.run(command, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "q2.online_queries = 135" in proc.stdout


# SHA-256 of `attack <kind> --trials 3 --seed 11 [extra]` output, recorded
# before the attacks were folded into `attacks.run_attack`. The digests
# depend on numpy's Generator streams (PCG64 and its integers/choice
# algorithms): a numpy release that changes those streams changes every
# digest.
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
    ("c2", "em-q1"): "a3842bed2124bca7085aed7bd171076990e64610965bdb0ae45e62bdd4e9a9b2",
    ("c2", "fx-q2"): "868a4f64b004337fc90ca4848ef2d8f235e54e565788b3e71fddb1c18d686ed6",
    ("c2", "fx-q1"): "aaf2af476c23708670da095d232159d7cff68d6640c4a26f2bebfcc42402276d",
    ("c2", "chaskey"): "2aaaf57f27f21ab4c6328bf69f739a87255e3e43bfd47b81f15d50e07497f55e",
    ("c2", "beetle"): "3c0e5ddc32ed97b3c55643930563f373f7d8a3570e4c6f42ce6923ea071cc5a9",
    ("c2", "related-key"): "7b247d0192d17139fbc6920e451670d18a8a2de08baf8f5c9439957fdd5e18bf",
    ("c2", "slide-ifx"): "f3781631d49fe42b6ecd00c2590c54a7d55105d977b488d5ee6338b08bf3cf68",
}
GOLDEN_CONFIGS = {"defaults": [], "structured": ["--backend", "structured"],
                  "c2": ["--c", "2"]}


@pytest.mark.parametrize("config,kind", sorted(GOLDEN_ATTACK_DIGESTS))
def test_attack_golden_report(tmp_path, config, kind):
    out = tmp_path / "run.json"
    assert run_cli(["attack", kind, "--trials", "3", "--seed", "11", "--out", str(out)]
                   + GOLDEN_CONFIGS[config]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_ATTACK_DIGESTS[config, kind]


@pytest.mark.parametrize("kind", cli.ATTACK_KINDS)
def test_capacity_footprint_matches_reported_q(tmp_path, kind):
    out = tmp_path / "run.json"
    assert run_cli(["attack", kind, "--c", "1", "--backend", "structured",
                    "--trials", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    footprint = attacks.TARGETS[kind].footprint(doc["parameters"])
    assert footprint == doc["trials"][0]["Q"]


def test_exact_capacity_counts_fx_q2_copies_per_block_bit(capsys, monkeypatch):
    # fx-q2 --c C takes C * n copies (the block width, not the n-1 bit
    # search width): 3 + 4 * (3 + 4) + 1 = 32 qubits at the defaults.
    def no_draw(*args, **kwargs):
        raise AssertionError("an instance was drawn")

    monkeypatch.delenv("OFFLINE_SIMON_QUBIT_CAP", raising=False)
    for owner in (primitives, cli):
        monkeypatch.setattr(owner, "random_cipher_family", no_draw)
    assert run_cli(["attack", "fx-q2", "--backend", "exact-circuit", "--c", "1"]) == 2
    assert "needs 32 qubits" in capsys.readouterr().err


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
