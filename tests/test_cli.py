import json
import math
import os
import subprocess
import sys

import pytest

from noncoh import capacity
from noncoh.cli import main

RUN = [sys.executable, "-m", "noncoh.cli"]


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("NONCOH_FAULT_INJECT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(RUN + args, capture_output=True, text=True, env=env)


class TestMiCommand:
    def test_basic(self, capsys):
        rc = main(["mi", "--a2", "0.5", "--x2", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "I(X;Y)" in out
        # H(X) = log 2 echoed at a2 = 1/2
        assert f"{math.log(2.0):.17g}" in out

    def test_degenerate_zero(self, capsys):
        rc = main(["mi", "--a2", "0", "--x2", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "I(X;Y)  = 0" in out

    def test_verify_flag(self, capsys):
        rc = main(["mi", "--a2", "0.4", "--x2", "2", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "|closed - oracle|" in out

    def test_json_schema(self, capsys):
        rc = main(["mi", "--a2", "0.4", "--x2", "2", "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["command"] == "mi"
        assert "i_nats" in doc["results"]

    def test_json_series_diagnostics(self, capsys):
        # alpha(x2) = 1 with beta < 1: both J still report their series
        rc = main(["mi", "--a2", "0.2", "--x2", "1", "--json"])
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert rc == 0
        for j in ("j0", "jx2"):
            assert diag[f"{j}_terms"] > 0
            assert 0.0 <= diag[f"{j}_truncation_bound"] <= 1e-16

    def test_invalid_a2_exits_2(self):
        res = run_cli(["mi", "--a2", "1.5", "--x2", "1"])
        assert res.returncode == 2

    def test_missing_flag_exits_2(self):
        res = run_cli(["mi", "--a2", "0.5"])
        assert res.returncode == 2


class TestDerivCommand:
    def test_capacity_mode(self, capsys):
        rc = main(["deriv", "--a2", "0.3", "--snr-db", "0", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "dI/da2" in out

    def test_fixed_mode(self, capsys):
        rc = main(["deriv", "--a2", "0.4", "--x2", "2", "--verify"])
        assert rc == 0

    def test_modes_are_exclusive(self):
        res = run_cli(["deriv", "--a2", "0.4", "--x2", "2", "--snr-db", "0"])
        assert res.returncode == 2


class TestProfileCommand:
    def test_row_count(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["profile", "--snr-db", "-5", "--points", "10", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "a2,i_nats"
        assert len(lines) == 11

    def test_shape_at_minus5db(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = main(["profile", "--snr-db", "-5", "--points", "60", "--out", str(out)])
        assert rc == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
        vals = [float(v) for _, v in rows]
        assert vals[0] < 1e-4 and vals[-1] < 1e-4
        assert max(vals) > 0.05


class TestSweepCommand:
    def test_schema_and_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--from-db", "-4", "--to-db", "4", "--step-db", "2",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == (
            "snr_db,snr_linear,a2_star,x2_star,i_star_nats,regime,"
            "roots_found,solver_residual"
        )
        assert len(lines) == 6
        first = lines[1].split(",")
        assert float(first[0]) == -4.0
        # 17 significant digits round-trip
        assert float(first[2]) == float(f"{float(first[2]):.17g}")
        regimes = {line.split(",")[5] for line in lines[1:]}
        assert regimes <= {"Capacity", "LowerBound", "TwoPointOptimum"}

    def test_json_reports_the_solver_work_per_point(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        rc = main(["sweep", "--from-db", "-4", "--to-db", "4", "--step-db", "2",
                   "--out", str(out), "--json"])
        record = json.loads(capsys.readouterr().out)
        assert rc == 0
        points = record["diagnostics"]["points"]
        assert [p["snr_db"] for p in points] == pytest.approx([-4, -2, 0, 2, 4])
        for p in points:
            assert p["grid_rows"] == capacity._GRID_POINTS
            assert p["root_evaluations"] >= p["root_iterations"] > 0
            assert p["mi_calls"] == 3  # its root and both scan edges
        assert out.read_text().splitlines()[0].endswith("roots_found,solver_residual")

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["--from-db", "-3", "--to-db", "3", "--step-db", "1"]
        assert main(["sweep", *args, "--out", str(a)]) == 0
        assert main(["sweep", *args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["sweep", "--from-db", "-10", "--to-db", "30", "--step-db", "1"],
    ["profile", "--snr-db", "-5", "--points", "10"],
], ids=["sweep", "profile"])
def test_sign_fault_is_an_internal_consistency_failure(argv, tmp_path):
    # the batched I keeps the [0, H(X)] check and reads the fault hook
    res = run_cli([*argv, "--out", str(tmp_path / "out.csv")],
                  env_extra={"NONCOH_FAULT_INJECT": "flip-2f1-sign"})
    assert res.returncode == 3
    assert "internal consistency failure" in res.stderr
    assert "Traceback" not in res.stderr


class TestVerifyCommand:
    def test_quick_passes(self, capsys):
        rc = main(["verify", "--quick"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "FAIL" not in out

    def test_fault_injection_detected(self, tmp_path):
        res = run_cli(["verify", "--quick"],
                      env_extra={"NONCOH_FAULT_INJECT": "flip-2f1-sign"})
        assert res.returncode == 1
        assert "FAIL" in res.stdout


class TestMcCommand:
    def test_requires_seed(self):
        res = run_cli(["mc", "--a2", "0.5", "--x2", "1", "--samples", "1000"])
        assert res.returncode == 2

    def test_deterministic_given_seed(self, capsys):
        args = ["mc", "--a2", "0.5", "--x2", "1", "--samples", "50000",
                "--seed", "9", "--json"]
        rc = main(args)
        first = json.loads(capsys.readouterr().out)
        rc2 = main(args)
        second = json.loads(capsys.readouterr().out)
        assert rc == rc2 == 0
        assert first == second


@pytest.mark.parametrize("argv", [
    ["sweep", "--from-db", "0", "--to-db", "1", "--step-db", "0"],
    ["sweep", "--from-db", "5", "--to-db", "0", "--step-db", "1"],
    ["profile", "--snr-db", "0", "--points", "0"],
    ["profile", "--snr-db", "0", "--points", "-3"],
    ["mc", "--a2", "0.5", "--x2", "1", "--samples", "0", "--seed", "1"],
    ["sweep", "--from-db", "0", "--to-db", "1", "--step-db", "nan"],
    ["sweep", "--from-db", "nan", "--to-db", "1", "--step-db", "1"],
    ["sweep", "--from-db", "0", "--to-db", "inf", "--step-db", "1"],
    ["sweep", "--from-db", "0", "--to-db", "1", "--step-db", "1", "--solver-tol", "nan"],
    ["sweep", "--from-db", "0", "--to-db", "1", "--step-db", "1", "--solver-tol", "-1"],
], ids=["sweep-step-zero", "sweep-reversed", "profile-points-zero",
        "profile-points-negative", "mc-samples-zero", "sweep-step-nan", "sweep-from-nan",
        "sweep-to-inf", "sweep-solver-tol-nan", "sweep-solver-tol-negative"])
def test_invalid_values_exit_2(argv, tmp_path, capsys):
    # the invalid-arguments code, not 1 (verification failed) with a traceback
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "s.csv")]
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err


class TestNoConfigFile:
    def test_config_flag_is_a_usage_error(self):
        # the tolerances are fixed; a script still passing --config gets a
        # usage error, not a traceback
        res = run_cli(["--config", "x", "mi", "--a2", "0.4", "--x2", "2"])
        assert res.returncode == 2
        assert "Traceback" not in res.stderr


class TestSolverTolPrecedence:
    """--solver-tol beats SweepConfig's default of 1e-10."""

    @pytest.mark.parametrize("flags,expected", [
        ([], 1e-10),
        (["--solver-tol", "1e-6"], 1e-6),
    ], ids=["default", "flag"])
    def test_levels(self, tmp_path, monkeypatch, flags, expected):
        seen = []

        def sweep_stub(cfg, ch):
            seen.append(cfg.solver_tol)
            return []

        monkeypatch.setattr(capacity, "sweep", sweep_stub)
        argv = ["sweep", "--from-db", "0", "--to-db", "0", "--step-db", "1",
                "--out", str(tmp_path / "s.csv"), *flags]
        assert main(argv) == 0
        assert seen == [expected]
