import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gapfem import cli
from gapfem.cli import main
from gapfem.duality import JUMP_TOL, AdmissibilityError
from gapfem.forms import AssemblyError, SingularSystemError

REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"
TEST_REFERENCE = Path(__file__).resolve().parent / "reference"

# the benchmark's `run` workloads, whose reports must not change by a byte
REFERENCE_RUNS = {
    "tg-uniform": ["taylor-green", "--mode", "uniform", "--max-iter", "4"],
    "lshape-adaptive": ["lshape", "--mode", "adaptive", "--theta", "0.5",
                        "--max-iter", "13"],
    "cook-adaptive": ["cook", "--mode", "adaptive", "--theta", "0.5",
                      "--max-iter", "24"],
}


# what `import gapfem.cli` adds to a fresh interpreter that has numpy and
# scipy's sparse modules loaded
IMPORT_BUDGET = """
import sys
import numpy, scipy.sparse, scipy.sparse.linalg
before = set(sys.modules)
import gapfem.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_import_adds_only_gapfem_modules():
    # numpy's Gauss-Legendre nodes replace scipy.special, and a numpy loop
    # finds the Dirichlet pieces in place of scipy.sparse.csgraph: neither
    # import may come back, nor any other beyond the sparse modules
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    added = subprocess.run(
        [sys.executable, "-c", IMPORT_BUDGET], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "gapfem.cli" in added
    assert [m for m in added if m != "gapfem" and not m.startswith("gapfem.")] == []


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

    def test_adaptive_taylor_green_csv_byte_identical(self, tmp_path):
        # adaptive refinement of a mixed-boundary mesh: the estimate runs on
        # Neumann meshes whose grad u and p rows are carried across refinement
        out = tmp_path / "taylor-green-adaptive.csv"
        argv = ["run", "taylor-green", "--mode", "adaptive", "--max-iter", "8"]
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_bytes() == (TEST_REFERENCE / "taylor-green-adaptive.csv").read_bytes()


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


@pytest.mark.parametrize("argv", [
    ["run", "taylor-green", "--max-iter", "1", "--format", "json"],
    ["run", "taylor-green", "--max-iter", "1", "--format", "csv"],
    ["verify-identity", "--levels", "1", "--seeds", "1", "--format", "json"],
])
def test_format_without_out_rejected(argv, capsys):
    """A report format without a report file is a usage error, not ignored."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert "error: --format needs --out" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("theta", ["0.7", "7"])
def test_theta_with_uniform_mode_rejected(theta, capsys):
    """Uniform refinement uses no marking fraction, so --theta is a usage
    error there, whether or not its value is in range."""
    assert main(["run", "taylor-green", "--mode", "uniform", "--theta", theta]) == 1
    out, err = capsys.readouterr()
    assert "error: --theta needs --mode adaptive" in err
    assert "Traceback" not in err and out == ""


@pytest.mark.parametrize("argv, theta", [
    (["--mode", "adaptive"], 0.5),
    (["--mode", "adaptive", "--theta", "0.25"], 0.25),
    (["--mode", "uniform"], 0.0),
])
def test_theta_reaches_config(argv, theta, monkeypatch):
    """Adaptive mode marks with --theta, 0.5 when it is not given."""
    seen = []

    def fake_run(problem, config):
        seen.append(config)
        raise SystemExit(0)

    monkeypatch.setattr(cli, "run_adaptive", fake_run)
    with pytest.raises(SystemExit):
        main(["run", "taylor-green"] + argv)
    assert seen[0].theta == theta


@pytest.mark.parametrize("argv", [
    ["run", "taylor-green", "--max-iter", "1"],
    ["verify-identity", "--levels", "1", "--seeds", "1"],
    ["table1", "--max-iter", "1"],
])
def test_singular_system_exit_code(argv, monkeypatch, capsys):
    """A singular system in any command exits 2 with a message."""

    def singular(*args, **kwargs):
        raise SingularSystemError("factor is singular")

    monkeypatch.setattr(cli, "run_adaptive", singular)
    monkeypatch.setattr(cli, "identity_rows", singular)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure: factor is singular" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("error", [AssemblyError, AdmissibilityError])
def test_numerical_failure_exit_code(error, monkeypatch, capsys):
    """Every numerical failure, not only a singular system, exits 2."""

    def failing(*args, **kwargs):
        raise error("no trustworthy result")

    monkeypatch.setattr(cli, "run_adaptive", failing)
    assert main(["run", "taylor-green", "--max-iter", "1"]) == 2
    err = capsys.readouterr().err
    assert "numerical failure: no trustworthy result" in err
    assert "Traceback" not in err


def test_nan_indicator_exit_code(monkeypatch, capsys):
    """A nan gap indicator stops the adaptive loop at marking with exit 2."""
    from gapfem import adaptive

    estimate = adaptive.estimate_stokes

    def nan_indicator(solution, problem, v):
        gap, errors = estimate(solution, problem, v)
        return np.full_like(gap, np.nan), errors

    monkeypatch.setattr(adaptive, "estimate_stokes", nan_indicator)
    argv = ["run", "taylor-green", "--mode", "adaptive", "--max-iter", "2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "numerical failure: indicators must be finite and nonnegative" in err
    assert "Traceback" not in err


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
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        # the failure names where it broke
        assert "identity error: inf at level 1, sample 1 " in captured.out

    def test_tamper_breaks_every_sample(self, tmp_path, capsys):
        out = tmp_path / "iden.csv"
        args = ["verify-identity", "--levels", "2", "--seeds", "4", "--debug-tamper"]
        assert main(args + ["--out", str(out)]) == 2
        with open(out) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2 * 4
        assert all(float(r["err_iden"]) == float("inf") for r in rows)

    def test_tamper_json_report_is_strict_json(self, tmp_path, capsys):
        # JSON has no Infinity or NaN: a parser that refuses them reads the
        # report, and each non-finite value comes back through float()
        out = tmp_path / "iden.json"
        args = ["verify-identity", "--levels", "1", "--seeds", "2", "--debug-tamper",
                "--out", str(out), "--format", "json"]
        assert main(args) == 2

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        rows = json.loads(out.read_text(), parse_constant=refuse)
        assert len(rows) == 2
        for row in rows:
            assert float(row["err_iden"]) == math.inf
            assert float(row["gap"]) == math.inf
            assert math.isfinite(row["rho_primal"]) and math.isfinite(row["rho_dual"])

    def test_reference_columns(self, tmp_path, capsys):
        # the benchmark's identity workload at seed offset 0
        out = tmp_path / "iden.csv"
        args = ["verify-identity", "--levels", "3", "--seeds", "16"]
        assert main(args + ["--out", str(out)]) == 0
        with open(out) as f:
            got = list(csv.DictReader(f))
        with open(REFERENCE / "identity.csv") as f:
            want = list(csv.DictReader(f))
        # every column but err_iden, a difference of nearly equal terms that
        # moves at roundoff, is pinned byte for byte
        keys = ("level", "sample", "num_dof", "rho_primal", "rho_dual", "gap")
        assert [[r[k] for k in keys] for r in got] == [[r[k] for k in keys] for r in want]
        assert all(float(r["err_iden"]) <= 1e-6 for r in got)
        worst = max(got, key=lambda r: float(r["err_iden"]))
        where = f"at level {worst['level']}, sample {worst['sample']} "
        assert where in capsys.readouterr().out

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
        code = main(["table1", "--max-iter", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines == [
            "num_dof,err_u,eoc_u,err_T,eoc_T",
            "840,0.184003,-,0.156633,-",
            "3280,0.091048,1.032983,0.078882,1.007120",
            "12960,0.045535,1.008573,0.039420,1.009721",
            "51520,0.022767,1.004512,0.019707,1.004701",
        ]
        first = lines[1].split(",")
        assert first[0] == "840"
        assert abs(float(first[1]) - 0.1830) / 0.1830 < 0.05
        assert abs(float(first[3]) - 0.1573) / 0.1573 < 0.05

    def test_format_flag_rejected(self, tmp_path):
        out = tmp_path / "t.json"
        args = ["table1", "--max-iter", "1", "--format", "json", "--out", str(out)]
        assert main(args) == 1
        assert not out.exists()
