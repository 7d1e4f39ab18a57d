"""Command-line behavior: formats, exit codes, guards, round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orbifold.cli import main
from orbifold.group_algebra import GroupAlgebraElement as GA
from orbifold.params import DeformationParams, closed_form
from orbifold.solver import enumerate_solutions, records_to_csv

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
        assert "pair sweep" in err


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
        from orbifold.params import build_candidate

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

    def test_nonsolution_exits_two_with_witness(self, capsys, tmp_path):
        from orbifold.params import build_candidate

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

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, _ = run(capsys, "check", str(tmp_path / "absent.json"))
        assert code == 1


class TestTable:
    def test_matches_golden(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "3")
        assert code == 0
        assert out == (GOLDEN / "table_p3.txt").read_text()

    def test_csv_matches_exporter(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "3", "--format", "csv")
        assert code == 0
        assert out == records_to_csv(enumerate_solutions(3))

    def test_p5_generates(self, capsys):
        code, out, _ = run(capsys, "table", "--p", "5", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 5**6 + 1


class TestChaincheck:
    def test_p3_passes(self, capsys):
        code, out, _ = run(capsys, "chaincheck", "--p", "3", "--degree", "3")
        assert code == 0
        assert "chain maps: ok" in out

    def test_degree_guard(self, capsys):
        code, _, err = run(capsys, "chaincheck", "--p", "3", "--degree", "7")
        assert code == 1
        assert "<= 6" in err

    def test_json_report(self, capsys):
        code, out, _ = run(capsys, "chaincheck", "--p", "3", "--degree", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert any(c["identity"] == "pi_iota_identity" for c in payload["checks"])


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

    def test_bad_element_text(self, capsys):
        code, _, err = run(capsys, "build", "--p", "3", "--b", "1-q", "--d", "")
        assert code == 1
        assert "--b" in err


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


def run_module(*argv):
    # The child sees the package through PYTHONPATH, as pytest's own
    # pythonpath setting only reaches this process.
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "orbifold.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_module_entry_point_runs():
    proc = run_module("census", "--p", "3")
    assert proc.returncode == 0
    assert "total solutions: 81" in proc.stdout


def test_usage_error_exit_code():
    proc = run_module("enumerate")
    assert proc.returncode == 1
