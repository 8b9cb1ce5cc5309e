import csv
import json
from pathlib import Path

import pytest

from gapfem.cli import main
from gapfem.duality import JUMP_TOL

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"

# the benchmark's `run` workloads, whose reports must not change by a byte
REFERENCE_RUNS = {
    "tg-uniform": ["taylor-green", "--mode", "uniform", "--max-iter", "4"],
    "lshape-adaptive": ["lshape", "--mode", "adaptive", "--theta", "0.5",
                        "--max-iter", "13"],
    "cook-adaptive": ["cook", "--mode", "adaptive", "--theta", "0.5",
                      "--max-iter", "24"],
}


class TestRun:
    def test_unknown_problem_exit_code(self, capsys):
        assert main(["run", "nosuch"]) == 1
        assert "unknown problem" in capsys.readouterr().err

    def test_uniform_run_csv(self, tmp_path, capsys):
        out = tmp_path / "tg.csv"
        code = main(
            ["run", "taylor-green", "--mode", "uniform", "--max-iter", "3",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 4
        header = lines[0].split(",")
        k_eoc = header.index("eoc_err_primal")
        last = lines[-1].split(",")
        assert abs(float(last[k_eoc]) - 1.0) < 0.05

    def test_json_output(self, tmp_path):
        out = tmp_path / "tg.json"
        code = main(
            ["run", "taylor-green", "--mode", "uniform", "--max-iter", "2",
             "--out", str(out), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert [r["num_dof"] for r in payload["records"]] == [840, 3280]

    @pytest.mark.parametrize("problem", ["taylor-green", "cook"])
    def test_json_certificate_fields(self, problem, tmp_path):
        out = tmp_path / "report.json"
        args = ["run", problem, "--max-iter", "2", "--format", "json"]
        assert main(args + ["--out", str(out)]) == 0
        records = json.loads(out.read_text())["records"]
        assert len(records) == 2
        for r in records:
            assert 0.0 <= r["backward_error"] <= 1e-10
            assert 0.0 <= r["reconstruction_jump"] <= JUMP_TOL
            assert 0.0 <= r["optimality_residual"] <= 1e-10

    def test_csv_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "taylor-green", "--mode", "uniform", "--max-iter", "2"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_flag_rejected(self):
        assert main(["run", "taylor-green", "--seed", "3"]) == 1

    @pytest.mark.parametrize("argv", [
        ["verify-identity", "--levels", "0"],
        ["verify-identity", "--seeds", "0"],
        ["verify-identity", "--seed", "-5000"],
        ["run", "taylor-green", "--theta", "2"],
        ["run", "taylor-green", "--max-iter", "0"],
        ["run", "taylor-green", "--eps-stop", "nan"],
        ["run", "taylor-green", "--eps-stop", "-1"],
        ["table1", "--max-iter", "0"],
        ["verify-identity", "--threshold", "nan"],
        ["verify-identity", "--threshold", "inf"],
        ["verify-identity", "--threshold", "0"],
        ["verify-identity", "--threshold", "-1"],
    ])
    def test_out_of_range_rejected(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert "error:" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
    def test_reference_csv_byte_identical(self, name, tmp_path):
        out = tmp_path / f"{name}.csv"
        assert main(["run"] + REFERENCE_RUNS[name] + ["--out", str(out)]) == 0
        assert out.read_bytes() == (REFERENCE / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("argv", [
    ["run", "taylor-green", "--mode", "uniform", "--max-iter", "1"],
    ["run", "taylor-green", "--mode", "uniform", "--max-iter", "1", "--format", "json"],
    ["verify-identity", "--levels", "1", "--seeds", "1"],
    ["verify-identity", "--levels", "1", "--seeds", "1", "--format", "json"],
    ["table1", "--max-iter", "1"],
])
def test_unwritable_out_path(argv, tmp_path, capsys):
    """A report path in a missing directory exits 1 with a message."""
    out = tmp_path / "missing" / "report.csv"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: cannot write report {out}" in err
    assert "Traceback" not in err
    assert not out.parent.exists()


class TestVerifyIdentity:
    def test_two_levels_row_count(self, tmp_path, capsys):
        out = tmp_path / "iden.csv"
        code = main(
            ["verify-identity", "--levels", "2", "--seeds", "3",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 2 * 3
        worst = max(float(line.split(",")[-1]) for line in lines[1:])
        assert worst <= 1e-6

    def test_single_seed_row_count(self, tmp_path):
        out = tmp_path / "iden.csv"
        code = main(
            ["verify-identity", "--levels", "2", "--seeds", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 1 + 2

    def test_tampered_perturbation_fails(self, capsys):
        code = main(
            ["verify-identity", "--levels", "1", "--seeds", "1", "--debug-tamper"]
        )
        assert code == 2
        assert "FAILED" in capsys.readouterr().err

    def test_reference_columns(self, tmp_path):
        # the benchmark's identity workload at seed offset 0
        out = tmp_path / "iden.csv"
        args = ["verify-identity", "--levels", "3", "--seeds", "16"]
        assert main(args + ["--out", str(out)]) == 0
        with open(out) as f:
            got = list(csv.DictReader(f))
        with open(REFERENCE / "identity.csv") as f:
            want = list(csv.DictReader(f))
        keys = ("level", "sample", "num_dof")
        assert [[r[k] for k in keys] for r in got] == [[r[k] for k in keys] for r in want]
        assert all(float(r["err_iden"]) <= 1e-6 for r in got)

    def test_non_stokes_rejected(self, capsys):
        assert main(["verify-identity", "--problem", "cook"]) == 1

    def test_csv_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["verify-identity", "--levels", "1", "--seeds", "2", "--seed", "5"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestTable1:
    def test_columns_and_values(self, tmp_path):
        out = tmp_path / "table1.csv"
        code = main(["table1", "--max-iter", "2", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "num_dof,err_u,eoc_u,err_T,eoc_T"
        first = lines[1].split(",")
        assert first[0] == "840"
        assert abs(float(first[1]) - 0.1830) / 0.1830 < 0.05
        assert abs(float(first[3]) - 0.1573) / 0.1573 < 0.05

    def test_format_flag_rejected(self, tmp_path):
        out = tmp_path / "t.json"
        args = ["table1", "--max-iter", "1", "--format", "json", "--out", str(out)]
        assert main(args) == 1
        assert not out.exists()
