"""Command-line behavior: formats, exit codes, guards, round-trips."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orbifold.chains as chains
import orbifold.group_algebra as group_algebra
from orbifold.cli import main
from orbifold.group_algebra import GroupAlgebraElement as GA
from orbifold.params import (
    CoboundaryData,
    DeformationParams,
    add_coboundary,
    build_candidate,
    closed_form,
)
from orbifold.rewriting import RuleSet
import orbifold.solver as solver
from orbifold.solver import records_to_csv
from test_chains import LARGEST_ACCEPTED_DEGREE
from test_pbw import from_elements, perturbed

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerate:
    def test_text_census_and_total(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "3")
        assert code == 0
        assert "census for p = 3 (total solutions: 81)" in out
        assert "k = 0: 18 b-value(s), 1 solution(s) per b" in out
        assert "k = 3: 1 b-value(s), 27 solution(s) per b" in out

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 81
        assert len(payload["records"]) == 27
        assert {row["k"] for row in payload["census"]} == {0, 1, 2, 3}

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--p", "3", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 82

    def test_brute_force_guard(self, capsys):
        code, _, err = run(capsys, "enumerate", "--p", "7", "--mode", "brute_force")
        assert code == 1
        assert err == "error: p^(2p) = 678223072849 (a, b) pairs is past the limit of 10000000\n"


# sha256 of the stdout of each p = 5 command, so the outputs are pinned
# without a golden file of about a megabyte each.
P5_STDOUT_SHA256 = {
    ("table", "--p", "5"):
        "63fe8986c81c25e885fe00e2306499466ad0212d77fd6770666468ce3a0b51f5",
    ("enumerate", "--p", "5", "--format", "json"):
        "49106bede28fa91f002c4ec4bca6b20d61303e549578128b44331e22e4b40328",
    ("enumerate", "--p", "5", "--format", "csv"):
        "23dcd21ad3fb0c1aa1761d4821ea2af237ede1b432d13f51fd9d396f4f0393b2",
    ("enumerate", "--p", "5", "--format", "text"):
        "1db9ce2fd35bb75c104a5ed7abcf4b3290818e7e47c1145c92423fd5a9f1952e",
    ("enumerate", "--p", "5", "--mode", "brute_force", "--format", "csv"):
        "193d388a19e33e9a68dbc4cac27718a7c98bfba82fdf3958f28413e5bc089af6",
    ("enumerate", "--p", "5", "--mode", "brute_force", "--format", "json"):
        "21041e844c94fa93560a476cc4216dcce0b2726ae8f88249960fc9825f721582",
    ("table", "--p", "5", "--format", "json"):
        "ff532492bb36f9b65904ce97b41be6cef48a8d495f59ecde44cc084916fa93ac",
    ("table", "--p", "5", "--format", "csv"):
        "23dcd21ad3fb0c1aa1761d4821ea2af237ede1b432d13f51fd9d396f4f0393b2",
    ("enumerate", "--p", "5", "--mode", "brute_force", "--format", "text"):
        "1a9572c69854077fa7f017a6e0835413d05c102ebce5c3375dc0a0eaf627b27d",
}


@pytest.mark.parametrize("argv", list(P5_STDOUT_SHA256), ids=" ".join)
def test_p5_stdout_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == P5_STDOUT_SHA256[argv]


# The brute-force listings at p = 3; the JSON carries the c of every pair.
P3_BRUTE_FORCE_STDOUT_SHA256 = {
    ("enumerate", "--p", "3", "--mode", "brute_force", "--format", "csv"):
        "ba41ea54d4c84c5cbe9e7e8b1b61120a56bab0caa943e96ee70e204ea7089641",
    ("enumerate", "--p", "3", "--mode", "brute_force", "--format", "json"):
        "51bd5b82dd97f263609016428b6e5e787394a346e74d2bc88468dec0582cbd32",
}


@pytest.mark.parametrize("argv", list(P3_BRUTE_FORCE_STDOUT_SHA256), ids=" ".join)
def test_p3_brute_force_stdout_is_pinned(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == P3_BRUTE_FORCE_STDOUT_SHA256[argv]


def test_p3_json_stdout_is_pinned(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "3", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9f7018eb4131b64ce3a97f186660ef94e12d0b2d05442846ebcf8457b8ef616a"
    )


@pytest.mark.parametrize("command", ["table", "enumerate"])
def test_p11_fails_at_once_naming_the_row_limit(capsys, command):
    code, out, err = run(capsys, command, "--p", "11")
    assert code == 1
    assert out == ""
    assert err.startswith("error: p^p = 285311670611 coefficient rows")
    assert "10000000" in err


class TestCheck:
    @pytest.fixture()
    def params_file(self, tmp_path):
        params = closed_form(GA.from_text(3, "1-g"), [-1])
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params.to_json()))
        return path

    def test_solution_exits_zero(self, capsys, params_file):
        code, out, _ = run(capsys, "check", str(params_file))
        assert code == 0
        assert "PBW: yes" in out

    def test_oracle_flag(self, capsys, params_file):
        code, out, _ = run(capsys, "check", str(params_file), "--oracle", "--degree", "4")
        assert code == 0
        assert "oracle (degree 4): pass" in out

    def test_oracle_json_key_set(self, capsys, params_file, tmp_path):
        keys = {"degree", "associative", "witness", "dimension", "dimension_rows"}
        code, out, _ = run(capsys, "check", str(params_file), "--oracle", "--format", "json")
        assert code == 0
        oracle = json.loads(out)["oracle"]
        assert set(oracle) == keys
        assert oracle["associative"] is True and oracle["witness"] is None
        assert [row["degree"] for row in oracle["dimension_rows"]] == [0, 1, 2, 3, 4]

        params = build_candidate(GA.from_text(3, "g"), GA.from_text(3, "1-g"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(params.to_json()))
        code, out, _ = run(capsys, "check", str(path), "--oracle", "--format", "json")
        assert code == 2
        oracle = json.loads(out)["oracle"]
        assert set(oracle) == keys
        assert oracle["associative"] is False
        assert set(oracle["witness"]) == {"x", "y", "z", "lhs", "rhs"}

    def test_oracle_degree_guard(self, capsys, params_file):
        code, _, err = run(capsys, "check", str(params_file), "--oracle", "--degree", "2")
        assert code == 1
        assert "degree bound must be >= 3" in err

    def test_oracle_degree_ceiling(self, capsys, params_file):
        code, out, err = run(capsys, "check", str(params_file), "--oracle", "--degree", "1500")
        assert code == 1
        assert out == ""
        assert err == "error: degree bound must be <= 16, got 1500\n"

    @pytest.mark.parametrize("degree, message", [
        ("2", "degree bound must be >= 3, got 2"), ("1500", "degree bound must be <= 16, got 1500"),
    ])
    def test_degree_is_guarded_without_the_oracle(self, capsys, params_file, degree, message):
        code, out, err = run(capsys, "check", str(params_file), "--degree", degree)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_nonsolution_exits_two_with_witness(self, capsys, tmp_path):
        params = build_candidate(GA.from_text(3, "g"), GA.from_text(3, "1-g"))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(params.to_json()))
        code, out, _ = run(capsys, "check", str(path), "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["pbw"] is False
        assert payload["conditions"]["2"]["witnesses"]

    def test_malformed_json_exits_one(self, capsys, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "check", str(path))
        assert code == 1
        assert "cannot load" in err

    @pytest.mark.parametrize("edit", [
        lambda obj: obj.update(kappaC=[0.5, 0, 0]),
        lambda obj: obj["lambda"][1][0].__setitem__(0, float("nan")),
        lambda obj: obj.update(p=3.7),
    ], ids=["float_coefficient", "nan_coefficient", "float_p"])
    def test_non_integer_numbers_exit_one(self, capsys, tmp_path, edit):
        obj = closed_form(GA.from_text(3, "1-g"), [-1]).to_json()
        edit(obj)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", str(path), "--format", "json")
        assert code == 1 and out == ""
        assert err.startswith("cannot load parameters: ")

    @pytest.mark.parametrize("edit, message", [
        (lambda obj: obj["lambda"][1].append([2, 2, 2]),
         "lambda row at g^1 must be two coefficient lists, got "
         "[[0, 1, 2], [1, 0, 1], [2, 2, 2]]"),
        (lambda obj: obj["kappaL"].update(v3=[1, 1, 1]),
         "unexpected key 'v3' in the kappaL object; expected v1, v2"),
        (lambda obj: obj.update(comment="x"),
         "unexpected key 'comment' in the parameter object; expected p, lambda, kappaC, kappaL"),
        (lambda obj: obj["lambda"][1].__setitem__(1, [1, 2]),
         "lambda(g^1, v2) needs 3 coefficients, got 2"),
    ], ids=["third_lambda_list", "kappaL_key", "top_level_key", "short_lambda_list"])
    def test_ignored_entries_exit_one_naming_them(self, capsys, tmp_path, edit, message):
        obj = closed_form(GA.from_text(3, "1-g"), [-1]).to_json()
        edit(obj)
        path = tmp_path / "params.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", str(path), "--oracle")
        assert (code, out, err) == (1, "", f"cannot load parameters: {message}\n")

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 1

    def test_deeply_nested_file_exits_one_without_traceback(self, tmp_path):
        # An array nested 100,000 deep passes the JSON decoder's recursion limit.
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        proc = run_module("check", str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("cannot load parameters: ")
        assert "Traceback" not in proc.stderr

    def test_p_option_is_refused(self, capsys, params_file):
        # check reads p from the parameter file; it takes no --p beside it.
        code, out, err = run(capsys, "check", "--p", "3", str(params_file))
        assert code == 1 and out == ""
        assert "unrecognized arguments" in err and "--p" in err


class TestTable:
    def test_matches_golden(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "3")
        assert code == 0
        assert out == (GOLDEN / "table_p3.txt").read_text()

    def test_csv_matches_exporter(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "3", "--format", "csv")
        assert code == 0
        exported = io.StringIO()
        records_to_csv(3, exported)
        assert out == exported.getvalue()

    def test_p5_generates(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "5", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 5**6 + 1

    @pytest.mark.parametrize("fmt", ["text", "csv", "json"])
    def test_count_mismatch_exits_two(self, capsys, monkeypatch, fmt):
        # One pair goes missing from the first chunk that has a b with more
        # than one solution: table reports the mismatch, as enumerate does.
        listing, dropped = solver._listing, []

        def short(*args, **kw):
            chunk = listing(*args, **kw)
            i = int(chunk.counts.argmax())
            if dropped or chunk.counts[i] < 2:
                return chunk
            dropped.append(i)
            ends = chunk.ends.copy()
            ends[i:] -= 1
            keep = np.arange(chunk.total) != chunk.ends[i] - 1
            c = None if chunk.c is None else chunk.c[keep]
            return dataclasses.replace(chunk, ends=ends, c=c, a=chunk.a[keep])

        monkeypatch.setattr(solver, "_listing", short)
        code, _, err = run(capsys, "table", "--p", "3", "--format", fmt)
        assert dropped and code == 2
        assert err == "count mismatch: 80 != 81\n"


class HashingOut:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.digest = hashlib.sha256()

    def write(self, text):
        self.digest.update(text.encode())

    def flush(self):
        pass


def test_p7_table_is_pinned():
    # The class walk at p = 7 crosses chunks in every class, and the zero b
    # alone has 7^7 solutions; the 120 MB of text is hashed as it is written.
    out = HashingOut()
    with contextlib.redirect_stdout(out):
        assert main(["table", "--p", "7"]) == 0
    assert out.digest.hexdigest() == (
        "7642a36dd689c9ddc7914891ab28a2ecf43d5855a9fce610d2a7f2f7b63109f9"
    )


# Every pinned p = 3 and p = 5 listing: enumerate and table, each format, both modes.
LISTING_PINS = {
    **P5_STDOUT_SHA256,
    **P3_BRUTE_FORCE_STDOUT_SHA256,
    ("enumerate", "--p", "3", "--format", "json"):
        "9f7018eb4131b64ce3a97f186660ef94e12d0b2d05442846ebcf8457b8ef616a",
    ("table", "--p", "3"): hashlib.sha256((GOLDEN / "table_p3.txt").read_bytes()).hexdigest(),
}


def chunk_cases():
    """(argv, chunk rows, piece pairs or None) for each pinned listing: chunks of
    1 (at p = 3 only: 3125 chunks at p = 5 take a second a command), 7 and
    64 b rows with the default pieces, and chunks of 7 rows in pieces of 7
    pairs, which split every b with 9 and more solutions."""
    for argv in LISTING_PINS:
        for rows in (1, 7, 64) if argv[2] == "3" else (7, 64):
            yield pytest.param(argv, rows, None, id=f"{' '.join(argv)}-rows-{rows}")
        yield pytest.param(argv, 7, 7, id=f"{' '.join(argv)}-rows-7-pieces-7")


@pytest.mark.parametrize("argv, rows, pairs", chunk_cases())
def test_listings_are_the_same_in_any_chunks(capsys, monkeypatch, argv, rows, pairs):
    # The zero b, with p^p solutions, opens the first chunk of the row walk
    # and is a chunk of its own in the class walk; in pieces of 7 pairs its
    # solutions cross piece boundaries up to the chunk boundary after it.
    monkeypatch.setattr(solver, "LISTING_CHUNK_ROWS", rows)
    if pairs:
        monkeypatch.setattr(solver, "WRITE_PIECE_PAIRS", pairs)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == LISTING_PINS[argv]


class TestChaincheck:
    def test_p3_passes(self, capsys):
        code, out, _ = run(capsys, "chaincheck", "--p", "3", "--degree", "3")
        assert code == 0
        assert "chain maps: ok" in out

    def test_degree_guard(self, capsys):
        code, out, err = run(capsys, "chaincheck", "--p", "3", "--degree", "-1")
        assert code == 1 and out == ""
        assert err == "error: chain check degree must be >= 0, got -1\n"
        # At p = 3 the batch terms of degrees <= 15 are the first past the limit.
        code, out, err = run(capsys, "chaincheck", "--p", "3", "--degree", "15")
        assert code == 1 and out == ""
        assert err == ("error: chain check to degree 15: degrees 0..15 = 15728685 batch terms "
                       "is past the limit of 10000000\n")

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "chaincheck", "--p", "3", "--degree", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert any(c["identity"] == "pi_iota_identity" for c in payload["checks"])

    def test_tensor_limit_fails_at_once(self, capsys):
        code, out, err = run(capsys, "chaincheck", "--p", "97", "--degree", "4")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "batch terms" in err
        assert f"past the limit of {group_algebra.MAX_WORK}" in err


# sha256 of the stdout of chaincheck reports, so that every identity line and
# witness is pinned.
CHAINCHECK_STDOUT_SHA256 = {
    ("--p", "3", "--degree", "6", "--format", "json"):
        "1b151ac6a4a5baa41965e2ff83948c437c970cec60c826e2109e634c362c5007",
    ("--p", "5", "--degree", "4", "--format", "json"):
        "762462ec1bce887d0e1fe554a1ab347e3ee0989944b1f68b45c7a42cbb58546f",
    ("--p", "7", "--degree", "3", "--format", "json"):
        "cdd7ca64928862130786259d7a9f911ccca9557c1d5c7f838e822c60f697239c",
    ("--p", "7", "--degree", "4", "--format", "text"):
        "9589c8197d9274e39bae971e555176811eaed9d70c7470a5b315fa7f962e90ee",
    # Sweeps whose degrees take many generator batches, and so many reductions.
    ("--p", "3", "--degree", "13", "--format", "json"):
        "dee03c807d892bd604e5bb67670a575a41712d010898f88b1decc74487649a18",
    ("--p", "13", "--degree", "4", "--format", "json"):
        "75edebde09e0738df7bfc1e63fb487b73012732680dbe5087c138561dd609fcd",
    ("--p", "97", "--degree", "2", "--format", "json"):
        "5ec351db98e0c9fa1aeeff5288b70ae12c74b1029f6fcc92e890ceee8a8944c3",
    ("--p", "5", "--degree", "7", "--format", "json"):
        "39b24acc86414933a9055fe9a0df124d1251980f364863286a9d1396ffc81a48",
}


@pytest.mark.parametrize("argv", list(CHAINCHECK_STDOUT_SHA256), ids=" ".join)
def test_chaincheck_stdout_is_pinned(capsys, argv):
    code, out, _ = run(capsys, "chaincheck", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CHAINCHECK_STDOUT_SHA256[argv]


def check_files(p=3):
    """A PBW parameter set and one that fails each of conditions 1, 2 and 3 first."""
    z = GA.zero(p)
    return {
        "pbw": closed_form(GA.from_text(p, "1-g"), [-1]),
        "condition1": from_elements(p, [(z, z), (GA.one(p), z)] + [(z, z)] * (p - 2), z, (z, z)),
        "condition2": build_candidate(GA.g(p), GA.from_text(p, "1-g")),
        "condition3": from_elements(p, [(z, z)] * p, z, (z, GA.one(p))),
    }


# sha256 of the stdout of check on each file of check_files, so that every
# condition line and witness is pinned; the exit code is 0 for the PBW file
# and 2 for the others, and stderr is empty.
CHECK_STDOUT_SHA256 = {
    ("pbw", "json", False): "170866a3fba86818e460c9d1bf32e32d010797a6bc7b5baadde61dbf056df700",
    ("pbw", "json", True): "216c7a02c95eb09bfb1cc9226b483da49dac2adbb3e57b1a5c002d1fc852ff86",
    ("pbw", "text", False): "7a308cc89d404d362e924577c0bcaf0fce7e8293af163f9a4c039d44912f5344",
    ("pbw", "text", True): "0adae3fd82814687f9c2ceedfad1f6062b56d0e6f513dac775e46e1f8bec9be6",
    ("condition1", "json", False):
        "042f25c89d543cd6b62346aacf3655f6b1424a10099cadaff27381089fbd9abe",
    ("condition1", "json", True):
        "61490591da645cf8f20a3935a497108dff86b23f8c42abe943a008215464ef97",
    ("condition1", "text", False):
        "6ddf53d2e77783515f1d862dcc1803acc3d4efa23f8ee356b50529a2ebb076ed",
    ("condition1", "text", True):
        "45dbefde5cce79f2cc60b5a2743ea2de2baea545aba74a1a0716a5122b57fa8c",
    ("condition2", "json", False):
        "e677fa6029265d59b915f9990625b26a5122fe911f0c449a594a7b42ef49cecd",
    ("condition2", "json", True):
        "700596c4d1e01ce04f3a0aa1c04db55fce105c5496060ecd3aab7abe72d1f2e2",
    ("condition2", "text", False):
        "5863954240daa30aed7ed47df1b7159e31273d7f6f9a11bf07cd8bd9cb77ec96",
    ("condition2", "text", True):
        "adf66c624c88d2b5446c2d6a54a7f32365d1c3e1a4e3a15a79afe92fc26fa67d",
    ("condition3", "json", False):
        "a4e945b8c698a7a318a989f45e64ca66c3d98f4a1e2b0e400a8d7ac5107ac188",
    ("condition3", "json", True):
        "3400bcd83ed9f97f5126b1258904e540e9210d59c22495f9d17e8f1eba12beb4",
    ("condition3", "text", False):
        "b213ce21617e929d65dae50460f86f0647258296f02310088f3697ae3b7cdb91",
    ("condition3", "text", True):
        "282cb8d9c6e92683f52ba9d4092d7d2fec2c1a006961e34c37f1802969de3536",
}


@pytest.mark.parametrize(
    "case", list(CHECK_STDOUT_SHA256),
    ids=lambda case: f"{case[0]}-{case[1]}{'-oracle' if case[2] else ''}",
)
def test_check_stdout_is_pinned(capsys, tmp_path, case):
    name, fmt, oracle = case
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(check_files()[name].to_json()))
    code, out, err = run(capsys, "check", str(path), "--format", fmt, *(["--oracle"] if oracle else []))
    assert (code, err) == ((0 if name == "pbw" else 2), "")
    assert hashlib.sha256(out.encode()).hexdigest() == CHECK_STDOUT_SHA256[case]


@functools.lru_cache(maxsize=1)
def oracle_files():
    """Files whose oracle output is pinned below: a dense p = 97 closed form
    with a random coboundary and its twin with one lambda coefficient moved
    (a g^m*v2*v1 witness), and two p = 5 tables that fail condition 1 alone
    (a g^a*g^b*v_x witness)."""
    rng = random.Random(97)
    p = 97
    b = GA.random(rng, p)
    d = [rng.randrange(p) for _ in range(b.gminus1_factor().k)]
    dense = add_coboundary(
        closed_form(b, d, GA.random(rng, p)),
        CoboundaryData(GA.random(rng, p), GA.random(rng, p)),
    )
    return {
        "p97": dense,
        "p97_moved": perturbed(dense, 5, 2, 7),
        "condition1_v1": perturbed(DeformationParams.zero(5), 2, 1, 2),
        "condition1_v2": perturbed(closed_form(GA.zero(5), [1, 2, 3, 4, 0]), 2, 2, 3),
    }


# sha256 of the stdout of check --oracle --degree 4 on each file of
# oracle_files, as the word reducer resolved the overlaps.
ORACLE_STDOUT_SHA256 = {
    ("p97", "json"): "09385298b3fb2f5ab993442cd85c0715963e3cf5f076ae1b18db810203eb0f30",
    ("p97", "text"): "0adae3fd82814687f9c2ceedfad1f6062b56d0e6f513dac775e46e1f8bec9be6",
    ("p97_moved", "json"): "310b1449bab9632a76622990f3a67af2e18707e2ca26d6e3c584b9b3bc6165d2",
    ("p97_moved", "text"): "e7e4213ee8dce4d19dc2cd62096da3b86bb67b195a78f72d037a1d19c283d84d",
    ("condition1_v1", "json"): "cfdf28fe675e4205e8634dcd294a7b820c57a8f66c0028cbc607f389ce3178f9",
    ("condition1_v1", "text"): "223768f183e1dbdc82c65f9733349e287a1f2770bdea3429aab04c415bda27c3",
    ("condition1_v2", "json"): "982750d62b4c2275c72de096d2b28c6d6bf19674347deca24672e6b06e2967ae",
    ("condition1_v2", "text"): "0581adb0445ff0010a2b8d19e21351f80b15b9b792c63055f6f6747df4349f72",
}


@pytest.mark.parametrize(
    "case",
    [*ORACLE_STDOUT_SHA256, ("pbw", "json"), ("pbw", "text"), ("condition2", "json"), ("condition2", "text")],
    ids="-".join,
)
def test_oracle_stdout_is_pinned_without_the_reducer(capsys, tmp_path, monkeypatch, case):
    """check --oracle gives the reducer's exact output with the reducer refused:
    no overlap is resolved, and no dimension row counted, by reducing words."""
    def refuse(self, word, rightmost=False):
        raise AssertionError(f"check --oracle reduced {word}")

    monkeypatch.setattr(RuleSet, "reduce_word", refuse)
    name, fmt = case
    params = oracle_files()[name] if case in ORACLE_STDOUT_SHA256 else check_files()[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(params.to_json()))
    code, out, err = run(capsys, "check", str(path), "--oracle", "--degree", "4", "--format", fmt)
    assert (code, err) == ((0 if name in ("pbw", "p97") else 2), "")
    expected = ORACLE_STDOUT_SHA256.get(case) or CHECK_STDOUT_SHA256[(name, fmt, True)]
    assert hashlib.sha256(out.encode()).hexdigest() == expected


def test_check_witnesses_print_as_plain_ints(capsys, tmp_path):
    """Array-computed witnesses reach the output as ints: no np.int64(...)
    in the text, and the JSON loads."""
    path = tmp_path / "condition1.json"
    path.write_text(json.dumps(check_files()["condition1"].to_json()))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 2 and "np." not in out
    assert out == (
        "condition 1: FAIL\n"
        "  witness: ((1, 1, 1), [0, 1, 0])\n"
        "  witness: ((1, 1, 2), [0, 2, 0])\n"
        "  witness: ((1, 2, 1), [0, 0, 2])\n"
        "  witness: ((1, 2, 2), [0, 0, 1])\n"
        "  witness: ((2, 1, 1), [0, 0, 2])\n"
        "condition 2: pass\n"
        "condition 3: FAIL\n"
        "  witness: ((1, 0), [1, 0])\n"
        "condition 4: pass\n"
        "condition 5: pass\n"
        "condition 6: pass\n"
        "PBW: no\n"
    )
    code, out, _ = run(capsys, "check", str(path), "--format", "json")
    assert code == 2
    assert json.loads(out)["conditions"]["1"]["witnesses"] == [
        [[1, 1, 1], [0, 1, 0]], [[1, 1, 2], [0, 2, 0]], [[1, 2, 1], [0, 0, 2]],
        [[1, 2, 2], [0, 0, 1]], [[2, 1, 1], [0, 0, 2]], [[2, 2, 1], [1, 0, 0]],
    ]


# sha256 of the stdout of build, with the implied-a line it writes to stderr,
# so that every table entry is pinned: unit and non-unit b, empty and
# non-empty d, with and without kappa^C and a coboundary map.
BUILD_STDOUT_SHA256 = {
    ("--p", "3", "--b", "1+g", "--format", "json"): (
        "implied a = g",
        "0fa72cfc0bd836032b4f1a5506ea0df209d24cd33f82650c97152b87a2a4e289"),
    ("--p", "3", "--b", "1+g", "--format", "text"): (
        "implied a = g",
        "4772ae1b3cd7616e76f039dc0b5f3120d5421a2fec26a7200ba8fd409ad84c39"),
    ("--p", "3", "--b", "1-g", "--d", "-1", "--format", "json"): (
        "implied a = -1 + g + g^2",
        "ddc71e8b205251734969237b0b5df729275b77a22f82efe7394739394ac59b83"),
    ("--p", "3", "--b", "1-g", "--d", "-1", "--format", "text"): (
        "implied a = -1 + g + g^2",
        "5c6e43fe5dbcdcc7d849d54e8a8c0ec80f3826fa06ce09bba563b9b29bf12544"),
    ("--p", "3", "--b", "1-g", "--d", "-1", "--kappaC", "1+g", "--f", "v1:g",
     "--format", "json"): (
        "implied a = -1 + g + g^2",
        "da5390370c3cf130c47e832459c6f119f9f8ab99f731b5ec752a489d834e0682"),
    ("--p", "3", "--b", "1-g", "--d", "-1", "--kappaC", "1+g", "--f", "v1:g",
     "--format", "text"): (
        "implied a = -1 + g + g^2",
        "08226434bc18e6112676eff14c38267e33394943e33cd72e76ac390995a2be13"),
    ("--p", "3", "--b", "0", "--d", "1,2,1", "--f", "v1:1-g^2,v2:g", "--format", "json"): (
        "implied a = g",
        "a029c239a063583c7f9e1e01666650593c34e6287e807e0dfe623906f2f00b27"),
    ("--p", "3", "--b", "0", "--d", "1,2,1", "--f", "v1:1-g^2,v2:g", "--format", "text"): (
        "implied a = g",
        "33c3a815c911aa5d71cf69c10be164cd22cd1020309e080c45748915f0bb5e5f"),
    ("--p", "5", "--b", "2+g^3", "--kappaC", "1-g^4", "--format", "json"): (
        "implied a = 2*g^3",
        "635fe01e1168b80ac15741ffa519c5bc0c37bf92195c5a0d0963e71770485bda"),
    ("--p", "5", "--b", "2+g^3", "--kappaC", "1-g^4", "--format", "text"): (
        "implied a = 2*g^3",
        "656b4b6a919d0b133d2ccb0f53423ef84b5c3c947bdadb835efdc4b2918d167f"),
    ("--p", "5", "--b", "1-2g+g^2", "--d", "1,3", "--f", "v1:2g^3+1", "--format", "json"): (
        "implied a = -2 - g + g^2 - g^3",
        "4d72911dd9b6bcd425b91f52274990bd9d08bd713f560094fb2702401c963992"),
    ("--p", "5", "--b", "1-2g+g^2", "--d", "1,3", "--f", "v1:2g^3+1", "--format", "text"): (
        "implied a = -2 - g + g^2 - g^3",
        "8c560c7dbf0389dc957e3b4c549b06bd2faa8c09ea7310c17b79ebebced83b5f"),
    ("--p", "5", "--b", "g^2-g^3", "--d", "4", "--kappaC", "2g", "--f", "v1:g+g^4,v2:3",
     "--format", "json"): (
        "implied a = -1 - g + g^2 + g^3 + g^4",
        "a265c5bc03cec91bd412f28c6deedec74cd651bd53f65ce11c580130a494de82"),
    ("--p", "5", "--b", "g^2-g^3", "--d", "4", "--kappaC", "2g", "--f", "v1:g+g^4,v2:3",
     "--format", "text"): (
        "implied a = -1 - g + g^2 + g^3 + g^4",
        "b3a1f5bf254674f914e2d7022e8eff3ed898035d80951bb37cb2f9490c3cb737"),
}


@pytest.mark.parametrize("argv", list(BUILD_STDOUT_SHA256), ids=" ".join)
def test_build_stdout_is_pinned(capsys, argv):
    implied, digest = BUILD_STDOUT_SHA256[argv]
    code, out, err = run(capsys, "build", *argv)
    assert (code, err) == (0, implied + "\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def class_b_text(p, k):
    """(g-1)^k (1 + g), of (g-1)-adic class k, expanded by the binomial theorem."""
    coeffs = [0] * p
    for i in range(k + 1):
        term = math.comb(k, i) * (-1) ** (k - i)
        coeffs[i % p] += term
        coeffs[(i + 1) % p] += term
    return GA.from_coeffs(p, coeffs).to_text()


def class_commands(command, p):
    """One argv of command per class k of p: build gets the d-values 1..k;
    a command such as "kernel --brute" puts its flags after the b."""
    name, *flags = command.split()
    for k in range(p + 1):
        argv = [name, "--p", str(p), f"--b={class_b_text(p, k)}", *flags]
        if name == "build" and k:
            argv.append("--d=" + ",".join(str(m) for m in range(1, k + 1)))
        yield argv + (["--format", "json"] if name == "kernel" else [])


# sha256 of the exit codes, stdout and stderr of build and kernel for one b
# of every class, so that the factorization and the implied a (build's
# stderr) are pinned in every class.  kernel --brute also pins the exhaustive
# sweep of phi_b, the one command that reads phi_b's matrix.
CLASS_TRANSCRIPT_SHA256 = {
    ("build", 3):
        "895ba07875615ab75a197cf8ca248f3ff97d11e6c018a7ab188f745c5503a325",
    ("build", 5):
        "56e5174c4c7e9bf815c09696a92efc28b3276d37b074af67b0202638341b1f74",
    ("build", 7):
        "9784e28d1a180f98139013a4e6a35d4f8f87a7db12c08e3a9f7831f9b9fb4db6",
    ("kernel", 3):
        "172cd9aaf122b70bdc3e87bd520fe2b087ce7f93993aa52cb18f15e26022cf7b",
    ("kernel", 5):
        "d3733ed7a68deec870884c5140a0d205ffeaa40084ed04777add7e0d956dacf7",
    ("kernel", 7):
        "2b9e2badf3071752379d5e04ec830956b2c63dfbaa175d5fef2b168d4b408f54",
    ("kernel", 97):
        "f26345146104fc463d570ca357371e54279710da55f193ec8324936da97b7fc0",
    ("kernel --brute", 3):
        "86a8b54c2911c581f4693d6b23c6b14f60cd5eff076e960e6634fcb2705de7c7",
    ("kernel --brute", 5):
        "76d7241b3234ae1b62db7b9e452b6cd5ea47cd78fd4c92ed3b2527e4f9e80687",
    ("kernel --brute", 7):
        "89e669d7b0d369203f11df7dca240c9eb6fd0eca090633b4107371ba15ffd2c8",
}


def class_transcript(capsys, command, p):
    parts = []
    for argv in class_commands(command, p):
        code, out, err = run(capsys, *argv)
        parts.append(f"$ {' '.join(argv)}\nexit {code}\nstdout:\n{out}stderr:\n{err}")
    return "".join(parts)


@pytest.mark.parametrize("command, p", list(CLASS_TRANSCRIPT_SHA256))
def test_every_class_is_pinned(capsys, command, p):
    transcript = class_transcript(capsys, command, p)
    assert hashlib.sha256(transcript.encode()).hexdigest() == CLASS_TRANSCRIPT_SHA256[command, p]


def report_sweep():
    """argv of every report command in every format, the listings at p = 3 and
    four refusals; a check argv names its file, written from report_files."""
    both, all_three = ("json", "text"), ("json", "csv", "text")
    for name, fmt, flags in itertools.product(
        report_files(), both, [(), ("--oracle",), ("--oracle", "--degree", "6")]
    ):
        yield ["check", name, "--format", fmt, *flags]
    for p in (3, 5, 7, 97):
        yield from (["census", "--p", str(p), "--format", fmt] for fmt in all_three)
        for fmt in both:
            common = ["--p", str(p), "--format", fmt]
            yield ["chaincheck", *common, "--degree", "2"]
            for b in ("0", "1", "1-g", "g^2-2g+1", "2+g"):
                yield ["kernel", *common, f"--b={b}"]
                if p <= 5:
                    yield ["kernel", *common, f"--b={b}", "--brute"]
            yield ["build", *common, "--b=1-g", "--d=1", "--kappaC=2+g", "--f=v1:g,v2:1"]
            yield ["build", *common, "--b=0", "--d=" + ",".join(map(str, range(p)))]
    for fmt in all_three:
        yield ["enumerate", "--p", "3", "--format", fmt]
        yield ["enumerate", "--p", "3", "--format", fmt, "--mode", "brute_force"]
        yield ["table", "--p", "3", "--format", fmt]
    yield ["census", "--p", "9"]
    yield ["kernel", "--p", "3", "--b=g^5"]
    yield ["build", "--p", "3", "--b=1-g", "--d=1,2"]
    yield ["chaincheck", "--p", "3", "--degree", "99"]


def report_files():
    """A PBW file and a non-PBW file at p = 3 and at p = 5, by name."""
    return {
        f"{name}_p{p}.json": check_files(p)[name] for p in (3, 5) for name in ("pbw", "condition2")
    }


# sha256 of the exit codes, stdout and stderr of report_sweep, so that each
# report command's output is pinned in every format it writes.
REPORT_SWEEP_SHA256 = "b64d5eb2748ee087d51e238830b89f870cc3c07f65dfe9a5590a0b4361f275e4"


def test_report_sweep_is_pinned(capsys, tmp_path):
    files = report_files()
    for name, params in files.items():
        (tmp_path / name).write_text(json.dumps(params.to_json()))
    parts = []
    for argv in report_sweep():
        code, out, err = run(capsys, *(str(tmp_path / a) if a in files else a for a in argv))
        parts.append(f"$ {' '.join(argv)}\nexit {code}\nstdout:\n{out}stderr:\n{err}")
    transcript = "".join(parts)
    assert hashlib.sha256(transcript.encode()).hexdigest() == REPORT_SWEEP_SHA256


@pytest.mark.parametrize("argv, factorizations", [
    (["kernel", "--p", "5", "--b", "1-g"], 1),
    (["build", "--p", "5", "--b", "1-g", "--d", "1"], 1),
    (["build", "--p", "5", "--b", "1-g", "--d", "1", "--kappaC", "g", "--f", "v1:g"], 1),
    # The sweep checks kernel_basis(b) itself, which factors b once more.
    (["kernel", "--p", "5", "--b", "1-g", "--brute"], 2),
])
def test_build_and_kernel_factor_b_once(capsys, monkeypatch, argv, factorizations):
    calls, factor = [], group_algebra.gminus1_factor_rows
    counted = lambda p, rows: calls.append(len(rows)) or factor(p, rows)
    monkeypatch.setattr(group_algebra, "gminus1_factor_rows", counted)
    assert run(capsys, *argv)[0] == 0
    assert calls == [1] * factorizations


class TestBuild:
    def test_running_example(self, capsys):
        code, out, err = run(capsys, "build", "--p", "3", "--b", "1-g", "--d", "-1")
        assert code == 0
        assert "implied a = -1 + g + g^2" in err
        params = DeformationParams.from_json(json.loads(out))
        assert params == closed_form(GA.from_text(3, "1-g"), [-1])

    def test_wrong_d_length_names_k(self, capsys):
        code, _, err = run(capsys, "build", "--p", "3", "--b", "1-g", "--d", "1,2")
        assert code == 1
        assert "k=1" in err

    def test_coboundary_shift_still_checks(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "build", "--p", "3", "--b", "1-g", "--d", "-1",
            "--kappaC", "1+g", "--f", "v1:g",
        )
        assert code == 0
        path = tmp_path / "shifted.json"
        path.write_text(out)
        code, out, _ = run(capsys, "check", str(path), "--oracle")
        assert code == 0

    @pytest.mark.parametrize("d, entry", [
        ("1,,2", ""), ("1,2,", ""), (",1", ""), ("1_0", "1_0"), ("x", "x"), ("1.0", "1.0"),
        ("+-1", "+-1"), (" , ", " "),
    ])
    def test_malformed_d_entry_exits_one_naming_it(self, capsys, d, entry):
        # Empty entries used to be dropped, and int() reads "1_0" as 10.
        code, out, err = run(capsys, "build", "--p", "3", "--b", "1+g+g^2", "--d=" + d)
        assert (code, out) == (1, "")
        assert err == f"error: bad --d entry {entry!r} in {d!r}: expected an integer\n"

    @pytest.mark.parametrize("d, values", [("", 0), (" ", 0), (" 1 , -2 ", 2), ("+1,2", 2)])
    def test_well_formed_d_lists(self, capsys, d, values):
        # k = 2 for 1 + g + g^2 at p = 3, so only two values build.
        code, _, err = run(capsys, "build", "--p", "3", "--b", "1+g+g^2", "--d=" + d)
        assert code == (0 if values == 2 else 1)
        if values != 2:
            assert f"expected 2 d-values, got {values}" in err

    def test_bad_element_text(self, capsys):
        code, _, err = run(capsys, "build", "--p", "3", "--b", "1-q", "--d", "")
        assert code == 1
        assert "--b" in err

    @pytest.mark.parametrize("text", ["2*", "2*+g"])
    def test_dangling_star_exits_one(self, capsys, text):
        code, out, err = run(capsys, "build", "--p", "3", "--b", text)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad --b: parse error at position 1")

    @pytest.mark.parametrize("argv", [
        ["kernel", "--p", "3", "--b", "\u0661"],
        ["build", "--p", "5", "--b", "\u0661-g^\u0662"],
    ])
    def test_non_ascii_digits_exit_one(self, capsys, argv):
        # An Arabic-Indic one and two: int() reads them, the element grammar does not.
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad --b: parse error at position 0")

    @pytest.mark.parametrize("f, message", [
        ("v1:g,v1:1", "bad --f entry 'v1:1': repeated vector 'v1'"),
        ("v2:g, v2:1", "bad --f entry ' v2:1': repeated vector 'v2'"),
        ("v1:g,v3:1", "bad --f entry 'v3:1': unknown vector 'v3'"),
    ])
    def test_bad_coboundary_entry_exits_one_naming_it(self, capsys, f, message):
        code, out, err = run(capsys, "build", "--p", "3", "--b", "1-g", "--d", "-1", "--f", f)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"


# Values that start with "-" read as they do attached with "=": a separate
# "--d -2,-1" or "--b -g" used to stop argparse with "expected one argument".
# Each command maps to its exit code.
DASH_VALUES = {
    ("build", "--p", "3", "--b", "1-g", "--d", "-2,-1"): 1,  # k = 1 takes one d-value
    ("build", "--p", "3", "--b", "1+g+g^2", "--d", "-2,-1"): 0,
    ("build", "--p", "3", "--b", "-g", "--format", "text"): 0,
    ("build", "--p", "3", "--b", "1-g", "--d", "-1", "--kappaC", "-g-g^2"): 0,
    ("build", "--p", "3", "--b", "1-g", "--d", "-1", "--f", "-v1:g"): 1,  # no vector -v1
    ("kernel", "--p", "3", "--b", "-g", "--brute"): 0,
    ("kernel", "--p", "3", "--b", "-g^2", "--brute", "--format", "json"): 0,
}


def attached(argv):
    """argv with each value that starts with "-" attached to its option by "="."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--b", "--d", "--kappaC", "--f") and arg.startswith("-"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@pytest.mark.parametrize("argv", list(DASH_VALUES), ids=" ".join)
def test_dash_values_read_as_attached(capsys, argv):
    result = run(capsys, *argv)
    assert result == run(capsys, *attached(argv))
    assert result[0] == DASH_VALUES[argv]
    assert "expected one argument" not in result[2]


def test_option_without_value_still_fails(capsys):
    code, out, err = run(capsys, "kernel", "--p", "3", "--b", "--brute")
    assert (code, out) == (1, "")
    assert "argument --b: expected one argument" in err


class TestCensusAndKernel:
    def test_census_json(self, capsys):
        code, out, _ = run(capsys, "census", "--p", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["total"] == 5**6
        assert payload["rows"][0] == {"k": 0, "b_class_size": 4 * 5**4, "a_per_b": 1}

    def test_census_csv(self, capsys):
        code, out, _ = run(capsys, "census", "--p", "3", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "k,b_class_size,a_per_b"
        assert "3,1,27" in out

    def test_kernel_with_bruteforce(self, capsys):
        code, out, _ = run(capsys, "kernel", "--p", "3", "--b", "1-g", "--brute")
        assert code == 0
        assert "k = 1" in out
        assert "brute-force sweep agrees: True" in out

    def test_kernel_json(self, capsys):
        code, out, _ = run(capsys, "kernel", "--p", "5", "--b", "0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k"] == 5
        assert payload["kernel_size"] == 5**5

    @pytest.mark.parametrize("argv", [
        ("census", "--p", "3", "--seed", "1"),
        ("kernel", "--p", "3", "--b", "1-g", "--degree", "3"),
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv", [
        ("kernel", "--p", "3", "--b", "1-g"),
        ("build", "--p", "3", "--b", "1-g", "--d", "-1"),
    ])
    def test_csv_is_rejected_where_no_csv_is_written(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 1
        assert out == ""
        assert "invalid choice: 'csv'" in err


def module_command(*argv):
    # The child sees the package through PYTHONPATH, as pytest's own
    # pythonpath setting only reaches this process.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return [sys.executable, "-m", "orbifold.cli", *argv], {**os.environ, "PYTHONPATH": path}


def run_module(*argv):
    command, env = module_command(*argv)
    return subprocess.run(command, capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv, first", [
    pytest.param(("enumerate", "--format", "csv"), b"b,a\n", id="csv"),
    pytest.param(("enumerate", "--format", "json"), b'{"p": 5, ', id="json"),
    pytest.param(("enumerate", "--format", "text"), b"census for", id="text"),
    pytest.param(("table",), b"solution t", id="table-text"),
])
def test_closed_pipe_exits_one_without_traceback(argv, first):
    # A reader that stops early, as `| head -c 10` does: the listing is about
    # 1 MB, far past what the pipe holds, so later writes find it closed.
    command, env = module_command(*argv, "--p", "5")
    with subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(10)
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 1
    assert head.startswith(first)
    assert "Traceback" not in err
    assert "BrokenPipeError" not in err


@pytest.mark.parametrize("p", [11, 13])
def test_kernel_brute_past_the_row_limit_fails_at_once(p):
    # The sweep is refused before any work, with the row guard's message.
    proc = run_module("kernel", "--p", str(p), "--b", "1", "--brute")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == f"error: p^p = {p**p} coefficient rows is past the limit of 10000000\n"
    assert "Traceback" not in proc.stderr


def test_listing_warmups_leave_numpy_ma_unloaded():
    # numpy imports numpy.ma on its first plain np.unique, about 20 ms and
    # 1 MB; the listings and kernel --brute need none of it.  The warm-ups of
    # the benchmark's enumerate workload and one brute kernel run in a fresh
    # interpreter.
    perfbench = SRC.parent / "perfbench"
    script = (
        f"import sys; sys.path[:0] = [{str(perfbench)!r}, {str(SRC)!r}]\n"
        "import setup_probe, orbifold.cli\n"
        "ops = setup_probe.warmup_ops('enumerate', '')\n"
        "ops.append((['kernel', '--p', '3', '--b', '1-g', '--brute'], 0))\n"
        "for argv, code in ops:\n"
        "    assert setup_probe.run_quietly(orbifold.cli.main, argv)[0] == code, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_chaincheck_leaves_numpy_ma_unloaded():
    # The chain check reduces its batches by sorting, never by a plain
    # np.unique, which would import numpy.ma.  The warm-ups of the
    # benchmark's chains workload and one chaincheck run in a fresh interpreter.
    perfbench = SRC.parent / "perfbench"
    script = (
        f"import sys; sys.path[:0] = [{str(perfbench)!r}, {str(SRC)!r}]\n"
        "import setup_probe, orbifold.cli\n"
        "ops = setup_probe.warmup_ops('chains', '')\n"
        "ops.append((['chaincheck', '--p', '7', '--degree', '3', '--format', 'json'], 0))\n"
        "for argv, code in ops:\n"
        "    assert setup_probe.run_quietly(orbifold.cli.main, argv)[0] == code, argv\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_module_entry_point_runs():
    proc = run_module("census", "--p", "3")
    assert proc.returncode == 0
    assert "total solutions: 81" in proc.stdout


def test_usage_error_exit_code():
    proc = run_module("enumerate")
    assert proc.returncode == 1


CONTRACT_PRIMES = (3, 5, 7, 11, 13, 97)


def contract_files():
    """check's inputs by name: a PBW file and a failing one at each contract
    prime, and the malformed files."""
    files = {f"{name}_p{p}.json": json.dumps(check_files(p)[name].to_json())
             for p in CONTRACT_PRIMES for name in ("pbw", "condition2")}
    return {**files, **malformed_files()}


def malformed_files():
    obj = check_files(3)["pbw"].to_json()
    text = json.dumps(obj)
    return {
        "truncated.json": text[:len(text) // 2],
        "list.json": "[1, 2, 3]",
        "unknown_key.json": json.dumps({**obj, "comment": "x"}),
        "float.json": json.dumps({**obj, "p": 3.0}),
        "bool.json": json.dumps({**obj, "p": True}),
        "deep.json": "[" * 100_000 + "]" * 100_000,
    }


def contract_runs():
    """(argv, refused) of every subcommand at the contract primes in each
    format, with the option extremes; refused marks the runs past the work
    limit.  The accepted p = 7 listings are left out (2-3 s each;
    test_p7_table_is_pinned runs one)."""
    for p in CONTRACT_PRIMES:
        rows_past = p**p > group_algebra.MAX_WORK
        for fmt in ("json", "csv", "text"):
            common = ["--p", str(p), "--format", fmt]
            yield ["census", *common], False
            if p != 7:
                yield ["enumerate", *common], rows_past
                yield ["table", *common], rows_past
        top = LARGEST_ACCEPTED_DEGREE[p]
        for fmt in ("json", "text"):
            common = ["--p", str(p), "--format", fmt]
            yield ["kernel", *common, "--b", "1-g"], False
            yield ["kernel", *common, "--b", "0", "--brute"], rows_past
            yield ["build", *common, "--b", "1-g", "--d", "1", "--kappaC", "g", "--f", "v1:g"], False
            yield ["build", *common, "--b", "0", "--d", "1,2"], False
            for degree in (-1, 0, top, top + 1, 10**20):
                yield ["chaincheck", *common, "--degree", str(degree)], degree > top
            for name in (f"pbw_p{p}.json", f"condition2_p{p}.json"):
                yield ["check", name, "--format", fmt], False
        yield ["check", f"pbw_p{p}.json", "--oracle"], False
    for p, fmt in itertools.product((5, 7), ("json", "csv", "text")):
        yield ["enumerate", "--p", str(p), "--format", fmt, "--mode", "brute_force"], p == 7
    for degree in (-1, 0, 16, 17, 10**20):
        for flags in ((), ("--oracle",)):
            yield ["check", "pbw_p3.json", *flags, "--degree", str(degree)], False
    for name in malformed_files():
        yield ["check", name, "--format", "json"], False
        yield ["check", name, "--oracle"], False


class WorkStarted(Exception):
    """Raised by a sweep entry point that a refused run must not reach."""


def work_started(*args, **kwargs):
    raise WorkStarted


def test_contract_sweep(capsys, monkeypatch, tmp_path):
    # Every run exits 0, 1 or 2 with no traceback.  Each run past the work
    # limit exits 1 naming it, with the sweep entry points patched to raise,
    # so that the refusal comes before any work.
    files = contract_files()
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    for argv, refused in contract_runs():
        argv = [str(tmp_path / a) if a in files else a for a in argv]
        with monkeypatch.context() as patch:
            if refused:
                for module, name in ((solver, "_listing"), (solver, "_sweep_hits"),
                                     (chains, "_generators")):
                    patch.setattr(module, name, work_started)
            code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2) and "Traceback" not in err, argv
        assert ("past the limit" in err) == refused, argv
        if refused:
            assert (code, out) == (1, "") and err.startswith("error: "), argv
