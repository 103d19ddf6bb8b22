import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from noncoh import capacity, cli, mi, oracle, verify
from noncoh.channel import ChannelParams, TwoPointInput, snr_from_db
from noncoh.cli import main

RUN = [sys.executable, "-m", "noncoh.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("NONCOH_FAULT_INJECT", None)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
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

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_verify_skips_one_mass_point(self, as_json, capsys, monkeypatch):
        # x2^2 = 1e-320 is not zero, but b = 1 + sigma2/x2^2 overflows and
        # mutual_information answers one mass point: I = 0 and no oracle
        def oracle_ran(inp, ch):
            raise AssertionError("the quadrature oracle ran on one mass point")

        monkeypatch.setattr(oracle, "mi_quadrature", oracle_ran)
        rc = main(["mi", "--a2", "0.5", "--x2", "1e-160", "--verify",
                   *(["--json"] if as_json else [])])
        out = capsys.readouterr().out
        assert rc == 0
        if as_json:
            record = json.loads(out)
            assert record["results"]["i_nats"] == 0.0
            assert "oracle_delta" not in record["diagnostics"]
        else:
            assert "I(X;Y)  = 0 nats" in out and "oracle" not in out

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

    @pytest.mark.parametrize("argv,fd_args", [
        (["--a2", "0.4", "--x2", "2"], (0.4, 2.0)),
        (["--a2", "0.3", "--snr-db", "0"], (0.3, None)),
    ], ids=["fixed", "capacity"])
    def test_verify_keeps_the_oracle_stencil_inside(self, argv, fd_args, capsys):
        # the check differences I as oracle.fd_derivative does, with the
        # step scaled by lam = min(a2, 1 - a2), so a2 +- 2h stays inside
        assert main(["deriv", *argv, "--verify", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        a2, x2 = fd_args
        ch = ChannelParams(sigma2=1.0, power_budget=1.0)  # 0 dB

        def f(a):
            return mi.mutual_information(TwoPointInput(a, x2 or math.sqrt(1.0 / a)), ch).nats

        lam = min(a2, 1.0 - a2)
        fd = oracle.fd_derivative(lambda s: f(a2 + lam * s), 0.0) / lam
        value = record["results"]["dI_da2"]
        assert record["diagnostics"]["fd_relative_delta"] == abs(value - fd) / abs(fd)

    @pytest.mark.parametrize("a2", ["0.999999", "1e-6", "0.9995"])
    def test_verify_near_the_ends_of_a2(self, a2, capsys):
        # the five-point stencil's a2 +- 2h would leave [0, 1]: it shrinks
        # to stay inside, and the input is not blamed
        rc = main(["deriv", "--a2", a2, "--x2", "1e3", "--verify", "--json"])
        diag = json.loads(capsys.readouterr().out)["diagnostics"]
        assert rc == 0
        assert diag["fd_relative_delta"] < 1e-5

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    def test_verify_allows_the_stencils_noise(self, as_json, capsys):
        # dI/da2 = 6.1e-17 at x2 = 1e-3: the stencil's noise from I's
        # absolute rounding, near 1e-13, is far above 1e-5 |dI/da2|, and the
        # check allows for it and reports the allowance
        rc = main(["deriv", "--a2", "0.5", "--x2", "1e-3", "--verify",
                   *(["--json"] if as_json else [])])
        out = capsys.readouterr().out
        assert rc == 0
        if as_json:
            diag = json.loads(out)["diagnostics"]
            assert 1e-13 < diag["fd_noise_allowance"] < 1e-10
        else:
            assert "noise allowance" in out

    @pytest.mark.parametrize("sigma2", ["1e-310", "7.3", "1e300"])
    def test_capacity_mode_is_taken_in_the_snr(self, sigma2, capsys):
        # dI/da2 depends on SNR/a2 alone: no power budget SNR sigma2 is
        # formed, so an extreme sigma2 gives the sigma2 = 1 value, and only
        # x2 carries the unit sigma
        argv = ["deriv", "--a2", "0.3", "--snr-db", "90", "--json"]
        assert main(argv) == 0
        want = json.loads(capsys.readouterr().out)["results"]
        assert main([*argv, "--sigma2", sigma2]) == 0
        got = json.loads(capsys.readouterr().out)["results"]
        assert got["dI_da2"] == want["dI_da2"]
        assert got["x2"] == math.sqrt(float(sigma2)) * want["x2"]
        assert main(["deriv", "--a2", "0.3", "--snr-db", "90", "--sigma2", sigma2,
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "dI/da2 = 0.84729770685310946  [capacity" in out
        assert "finite-difference check" in out

    def test_verify_differences_as_the_derivative_family_does(self, capsys, monkeypatch):
        # deriv --verify and verify's derivative family take their finite
        # difference from one function: at each point the family draws, the
        # CLI at the same input gets the same value, bit for bit
        calls = []
        real = verify.fd_mi_derivative

        def record(inp, ch):
            calls.append((inp.a2, inp.x2, ch, real(inp, ch)))
            return calls[-1][-1]

        monkeypatch.setattr(verify, "fd_mi_derivative", record)
        verify.check_derivative()
        drawn, checked = calls[:], []
        for a2, x2, ch, fd in drawn:
            if ch.power_budget is None:
                argv = ["--x2", repr(x2)]
            else:
                snr_db = 10.0 * math.log10(ch.power_budget)
                if snr_from_db(snr_db) != ch.power_budget:
                    continue  # the CLI could not be given this SNR exactly
                argv = ["--snr-db", repr(snr_db)]
            calls.clear()
            assert main(["deriv", "--a2", repr(a2), *argv, "--verify", "--json"]) == 0
            diag = json.loads(capsys.readouterr().out)["diagnostics"]
            assert [c[-1] for c in calls] == [fd]
            assert diag["fd_noise_allowance"] == fd[1]
            checked.append(ch.power_budget is None)
        assert checked.count(True) >= 10 and checked.count(False) >= 10


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
            assert p["root_iterations"] > 0
            # the kernel rows: no I is computed after the refinement
            assert p.keys() == {"snr_db", "grid_rows", "root_iterations"}
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
    ["sweep", "--from-db", "3100", "--to-db", "3100", "--step-db", "1"],
    ["profile", "--snr-db", "4000"],
    ["deriv", "--a2", "0.3", "--snr-db", "4000"],
    ["mi", "--a2", "0.5", "--x2", "1e200"],
    ["deriv", "--a2", "0.5", "--x2", "1e200"],
    ["mc", "--a2", "0.5", "--x2", "1e200", "--seed", "1"],
    ["deriv", "--a2", "0.5", "--x2", "1e-200"],
    ["deriv", "--a2", "0.5", "--x2", "1e-160"],
    ["profile", "--snr-db", "3000", "--points", "5"],
    ["sweep", "--from-db", "3000", "--to-db", "3000", "--step-db", "1"],
    ["sweep", "--from-db", "-3100", "--to-db", "-3100", "--step-db", "1"],
    ["profile", "--snr-db", "-3100", "--points", "5"],
    ["deriv", "--a2", "0.3", "--snr-db", "-3100"],
    ["mi", "--a2", "0.5", "--x2", "1e150", "--sigma2", "1e-10"],
    ["mi", "--a2", "5e-324", "--x2", "1"],
    ["deriv", "--a2", "0.5", "--x2", "1e150", "--sigma2", "1e-10"],
    ["deriv", "--a2", "5e-324", "--x2", "1"],
    ["mi", "--a2", "0.5", "--x2", "1", "--sigma2", "inf"],
    ["mc", "--a2", "0.5", "--x2", "1", "--sigma2", "inf", "--seed", "1"],
    ["deriv", "--a2", "0.5", "--x2", "2", "--sigma2", "inf"],
    ["sweep", "--from-db", "0", "--to-db", "1", "--step-db", "1", "--sigma2", "inf"],
    ["deriv", "--a2", "0", "--snr-db", "0"],
    ["deriv", "--a2", "-0.5", "--snr-db", "0"],
    ["sweep", "--from-db", "0", "--to-db", "1", "--step-db", "1e-321"],
    ["sweep", "--from-db=-1e308", "--to-db", "1e308", "--step-db", "1"],
    ["mc", "--a2", "0.5", "--x2", "1", "--seed", "-1", "--samples", "10"],
    ["deriv", "--a2", "1e-320", "--snr-db", "0"],
    ["sweep", "--from-db", "-1e308", "--to-db", "1e308", "--step-db", "1"],
    ["sweep", "--from-db", "0", "--to-db", "1", "--step-db", "1e-7"],
    ["profile", "--snr-db", "0", "--points", "1000000000"],
], ids=["sweep-step-zero", "sweep-reversed", "profile-points-zero",
        "profile-points-negative", "mc-samples-zero", "sweep-step-nan", "sweep-from-nan",
        "sweep-to-inf", "sweep-snr-overflow", "profile-snr-overflow", "deriv-snr-overflow",
        "mi-x2-square-overflow", "deriv-x2-square-overflow", "mc-x2-square-overflow",
        "deriv-x2-square-underflow", "deriv-b-overflow", "profile-u-overflow",
        "sweep-u-overflow", "sweep-b-overflow", "profile-b-overflow", "deriv-snr-b-overflow",
        "mi-x2-u-overflow", "mi-a2-u-overflow", "deriv-x2-u-overflow", "deriv-a2-u-overflow",
        "mi-sigma2-inf", "mc-sigma2-inf", "deriv-sigma2-inf", "sweep-sigma2-inf",
        "deriv-snr-a2-zero", "deriv-snr-a2-negative", "sweep-step-count-overflow",
        "sweep-span-overflow", "mc-seed-negative", "deriv-snr-a2-t-overflow",
        "sweep-span-overflow-spaced", "sweep-too-many-points", "profile-too-many-points"])
def test_invalid_values_exit_2(argv, tmp_path, capsys):
    # the invalid-arguments code, not 1 (verification failed) with a traceback;
    # an SNR whose 2F1 arguments overflow is named, before the kernel sees it
    if argv[0] == "sweep":
        argv = [*argv, "--out", str(tmp_path / "s.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "Traceback" not in err
    assert "hyp2f1_1b" not in err
    if {"3000", "-3100"} & set(argv):
        assert "SNR" in err
    if "1e-160" in argv:  # x2^2 = 1e-320 > 0, but b overflows: one mass point
        assert "b = 1 + sigma2/x2^2 overflows" in err
    if {"1e150", "5e-324"} & set(argv):  # u overflows at a fixed x2: the input is named
        assert all(f"{name}=" in err for name in ("a2", "x2", "sigma2"))
    if "inf" in argv and argv[argv.index("inf") - 1] == "--sigma2":
        assert "sigma2" in err
    if argv[:3] == ["deriv", "--a2", "1e-320"]:  # t = SNR/a2 overflows, not x2
        assert "SNR 1 is out of range" in err
    if {"1e-7", "1000000000"} & set(argv):  # refused before the grid is built
        assert f"cap of {capacity.MAX_GRID_POINTS}" in err
        assert ("1e+07 points" if "1e-7" in argv else "--points 1000000000") in err


_MC = ["--samples", "1000", "--seed", "1"]


@pytest.mark.parametrize("argv", [
    *([command, "--a2", "0.5", "--x2", x2, *extra]
      for x2 in ("1e-160", "2e-154", "1e-150")
      for command, extra in (("mi", ["--verify"]), ("deriv", ["--verify"]), ("mc", _MC))
      if (command, x2) != ("deriv", "1e-160")),
    *([command, "--a2", "1e-300", "--x2", "1", *extra]
      for command, extra in (("mi", ["--verify"]), ("deriv", ["--verify"]), ("mc", _MC))),
], ids=lambda argv: "-".join(argv[:5:2]))
def test_valid_boundary_values_exit_0(argv, capsys):
    # valid inputs at the edge of the float range exit 0 with nothing on
    # stderr, where a warning would be a traceback: one mass point (x2^2 =
    # 1e-320), two mass points whose oracle breakpoints overflow (x2^2/sigma2
    # = 4e-308) or do not (1e-300), and a2 = 1e-300.  deriv refuses the one
    # mass point (test_invalid_values_exit_2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    assert (rc, capsys.readouterr().err) == (0, "")


@pytest.mark.parametrize("argv,flag,value,error", [
    (["sweep", "--to-db", "0", "--step-db", "5"], "--from-db", "-1e1", None),
    (["deriv", "--a2", "0.3", "--json"], "--snr-db", "-1.5e-3", None),
    (["profile", "--points", "5"], "--snr-db", "-2E1", None),
    (["mi", "--a2", "0.5", "--sigma2", "2"], "--x2", "-1e-3", "x2 must be nonnegative"),
    (["sweep", "--to-db", "0", "--step-db", "5"], "--from-db", "-inf",
     "snr_db_start must be finite"),
], ids=["sweep-from-db", "deriv-snr-db", "profile-snr-db", "mi-negative-x2",
        "sweep-from-db-minus-inf"])
def test_negative_float_literals_are_values(argv, flag, value, error, tmp_path, capsys):
    # "--flag -1e1" reads as "--flag=-1e1", as "--flag -10" always did; an
    # invalid value reaches the input checks and exits 2 from there
    out = tmp_path / "s.csv"
    runs = []
    for pair in ([flag, value], [f"{flag}={value}"]):
        rc = main([*argv, *pair, *(["--out", str(out)] if argv[0] == "sweep" else [])])
        stdout, err = capsys.readouterr()
        runs.append((rc, stdout, err, out.read_text() if out.exists() else None))
    (rc, _, err, _), again = runs
    assert again == runs[0]
    assert (rc, err) == ((0, "") if error is None else (2, f"error: {error}\n"))


@pytest.mark.parametrize("grid,sigma2", [
    (["-10", "-9", "1"], "1e300"), (["-10", "30", "1"], "1e300"), (["-10", "-9", "1"], "1e-310"),
], ids=["sigma2-1e300-2-points", "sigma2-1e300-41-points", "sigma2-1e-310-2-points"])
def test_extreme_sigma2_sweeps_match_unit_sigma2(grid, sigma2, tmp_path):
    # the solve runs in the SNR alone: sigma2 only sets the unit of x2*
    start, stop, step = grid
    rows = {}
    for s2 in (sigma2, "1"):
        out = tmp_path / f"{s2}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["sweep", "--from-db", start, "--to-db", stop, "--step-db", step,
                         "--sigma2", s2, "--out", str(out)]) == 0
        rows[s2] = [line.split(",") for line in out.read_text().splitlines()]
    x2_col = rows["1"][0].index("x2_star")
    assert len(rows[sigma2]) == len(rows["1"]) > 2
    for got, want in zip(rows[sigma2], rows["1"]):
        assert got[:x2_col] + got[x2_col + 1:] == want[:x2_col] + want[x2_col + 1:]


@pytest.mark.parametrize("x2,sigma2", [("1e-160", "1e-320"), ("1e150", "1e300")])
def test_extreme_sigma2_mi_matches_unit_sigma2(x2, sigma2, capsys):
    # x2/sigma = 1 in both: I is that of x2 = 1, sigma2 = 1
    results = []
    for argv in (["--x2", x2, "--sigma2", sigma2], ["--x2", "1"]):
        assert main(["mi", "--a2", "0.5", *argv, "--json"]) == 0
        results.append(json.loads(capsys.readouterr().out)["results"]["i_nats"])
    assert abs(results[0] - results[1]) <= 1e-15


@pytest.mark.parametrize("command", ["mi", "mc"])
def test_sigma2_over_x2_square_overflow_is_degenerate(command, capsys):
    # x2^2 = 1e-320: sigma^2/x2^2, and so the 2F1 parameter b, overflows, and
    # the input counts as one mass point like x2^2 = 0
    argv = [command, "--a2", "0.5", "--x2", "1e-160", "--json"]
    if command == "mc":
        argv += ["--seed", "1", "--samples", "1000"]
    rc = main(argv)
    results = json.loads(capsys.readouterr().out)["results"]
    assert rc == 0
    assert results["i_nats" if command == "mi" else "closed_form_nats"] == 0.0


@pytest.mark.parametrize("a2,x2", [("0.5", "1e-200"), ("1", "1"), ("0.5", "1e-160")],
                         ids=["x2-square-underflow", "a2-one", "sigma2-over-x2-square-overflow"])
def test_mc_reports_degenerate_inputs_without_estimating(a2, x2, capsys, monkeypatch):
    # every input mutual_information calls one mass point gets I = 0 from
    # mc too, with no estimate and no z-score from a zero standard error
    def estimator(*args):
        raise AssertionError("the estimator ran on a degenerate input")

    monkeypatch.setattr(oracle, "mi_monte_carlo", estimator)
    rc = main(["mc", "--a2", a2, "--x2", x2, "--seed", "1", "--samples", "1000", "--json"])
    results = json.loads(capsys.readouterr().out)["results"]
    assert rc == 0
    assert results == {"closed_form_nats": 0.0, "estimate_nats": None,
                       "std_error": None, "z_score": None}
    assert main(["mc", "--a2", a2, "--x2", x2, "--seed", "1", "--samples", "1000"]) == 0
    assert "z =" not in capsys.readouterr().out


def test_x2_square_underflow_is_degenerate(capsys):
    # x2^2 = 0 in floats: a single mass point, so I = 0, not a division by 0
    rc = main(["mi", "--a2", "0.5", "--x2", "1e-200", "--json"])
    record = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert record["results"]["i_nats"] == 0.0


@pytest.mark.parametrize("argv,key,text", [
    (["mi", "--a2", "0", "--x2", "1"], "j0", "J(0)    = nan"),
    (["mc", "--a2", "0.5", "--x2", "1", "--samples", "1", "--seed", "1"], "z_score",
     "(z = +inf)"),
], ids=["mi-one-mass-point", "mc-zero-std-error"])
def test_json_is_standard_json(argv, key, text, capsys):
    # a non-finite result reads null, which strict parsers accept where they
    # reject NaN and Infinity; the text output keeps it
    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")

    assert main([*argv, "--json"]) == 0
    record = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert record["results"][key] is None
    assert main(argv) == 0
    assert text in capsys.readouterr().out


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("argv,oracle_name,key,message", [
    (["mi", "--a2", "0.4", "--x2", "2"], "mi_quadrature", "oracle_delta",
     "closed form disagrees with quadrature"),
    (["deriv", "--a2", "0.4", "--x2", "2"], "fd_derivative", "fd_relative_delta",
     "derivative disagrees with finite differences"),
    (["deriv", "--a2", "0.3", "--snr-db", "0"], "fd_derivative", "fd_relative_delta",
     "derivative disagrees with finite differences"),
], ids=["mi", "deriv-fixed", "deriv-capacity"])
def test_verify_disagreement_exits_3(argv, oracle_name, key, message, as_json, capsys,
                                     monkeypatch):
    # an oracle 1e-6 off in I, or 1e-4 off in relative terms in dI/da2, fails
    # --verify: exit 3 with the reason on stderr, and the record still on
    # stdout with the delta that failed
    if oracle_name == "mi_quadrature":
        def wrong(inp, ch):
            return mi.mutual_information(inp, ch).nats + 1e-6
    else:
        real = oracle.fd_derivative

        def wrong(f, x):
            return real(f, x) * (1.0 + 1e-4)
    monkeypatch.setattr(oracle, oracle_name, wrong)
    rc = main([*argv, "--verify", *(["--json"] if as_json else [])])
    out, err = capsys.readouterr()
    assert rc == 3
    assert err == f"consistency failure: {message}\n"
    if as_json:
        assert json.loads(out)["diagnostics"][key] > 1e-6
    else:
        assert ("|closed - oracle|" if key == "oracle_delta"
                else "finite-difference check: relative delta") in out


class TestNoConfigFile:
    def test_config_flag_is_a_usage_error(self):
        # the tolerances are fixed; a script still passing --config gets a
        # usage error, not a traceback
        res = run_cli(["--config", "x", "mi", "--a2", "0.4", "--x2", "2"])
        assert res.returncode == 2
        assert "Traceback" not in res.stderr


def test_the_parser_is_built_once_and_keeps_no_state(capsys):
    assert cli.build_parser() is cli.build_parser()
    # what one in-process call parsed does not reach the next
    assert main(["deriv", "--a2", "0.3", "--snr-db", "0", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["inputs"]["snr_db"] == 0.0
    assert main(["deriv", "--a2", "0.3", "--x2", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("dI/da2 = ") and out.rstrip().endswith("[fixed x2]")


_IMPORT_GUARD = """
import contextlib, io, sys
import noncoh, noncoh.cli
out = sys.argv[1]
value_path = [
    ["mi", "--a2", "0.3", "--x2", "2"],
    ["deriv", "--a2", "0.3", "--x2", "2"],
    ["deriv", "--a2", "0.3", "--snr-db", "5"],
    ["profile", "--snr-db", "3", "--points", "50"],
    ["sweep", "--from-db", "-4", "--to-db", "4", "--step-db", "2", "--out", out],
    ["mc", "--a2", "0.3", "--x2", "2", "--samples", "1000", "--seed", "1"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [noncoh.cli.main(argv) for argv in value_path]
    oracles = [noncoh.cli.main(["verify", "--quick"]),
               noncoh.cli.main(["mi", "--a2", "0.4", "--x2", "2", "--verify"]),
               noncoh.cli.main(["deriv", "--a2", "0.4", "--x2", "2", "--verify"])]
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(codes, oracles, loaded)
"""


def test_value_path_commands_load_no_scipy(tmp_path):
    # a fresh interpreter that runs every command, the oracle checks of
    # verify and --verify included, never imports scipy
    env = dict(os.environ)
    env.pop("NONCOH_FAULT_INJECT", None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path / "s.csv")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] [0, 0, 0] []"


def _verify_draws(n, seed):
    """n seeded (a2, x2, sigma2): a2 logit-uniform over [1e-8, 1 - 1e-8],
    x2 log-uniform over [1e-4, 1e4], sigma2 over [1e-3, 1e3]."""
    rng = np.random.default_rng(seed)
    return [(float(1.0 / (1.0 + 10.0 ** rng.uniform(-8.0, 8.0))),
             float(10.0 ** rng.uniform(-4.0, 4.0)),
             float(10.0 ** rng.uniform(-3.0, 3.0))) for _ in range(n)]


# Draws on which a --verify run once failed a right answer: mi --verify from
# the quadrature's miss of the boundary layer at the mixture crossover (up to
# 5e-5 in I), deriv --verify from a stencil step fixed at FD_STEP while a2 or
# 1 - a2 was a few FD_STEP (up to 5e-3 relative).  The first two are the
# reported cases; the rest are every failing draw of _verify_draws(300, 7).
_PINNED_VERIFY_DRAWS = [
    (0.46, 133.0, 1.0),
    (0.00184, 7.69, 0.014),
    (0.009866571278082237, 1505.6027792216312, 45.0935203961963),
    (0.9999963407595124, 7.949079385257059, 0.0018350675171716544),
    (0.9999880207645436, 34.37612873408928, 0.015982339210181516),
    (0.4107884886874142, 598.6899542328244, 6.891329278095971),
    (0.9999990747198754, 5459.915019128344, 8.842282383285967),
    (0.3824718271676949, 64.09075156617907, 0.022831839150016),
    (0.9965684513508877, 3845.851327217833, 2.7542052745452823),
    (0.3143653608561321, 1487.0452693586378, 28.615708905875604),
    (0.0029532364655456963, 7.691415708659685, 0.014044816859951034),
    (0.14561133561992812, 59.30915658932218, 0.19443086862108272),
    (0.9988904907949335, 6.306633417720363, 0.0025025877305662214),
    (0.004999422221686671, 4022.559893992226, 0.3989771544531185),
    (0.9977079728206691, 22.764412026861176, 0.017956614005796994),
    (0.2976816654062686, 70.27337998484576, 0.0032251310644594217),
    (0.8745663793898014, 50.48094983103499, 0.0016081931261960297),
    (0.9830430784167288, 763.2547039963001, 3.000793739686703),
    (0.005059178320835832, 0.10303388425968482, 6.652442391041723),
    (0.9986124647372702, 139.97201902385677, 0.8481424786698606),
    (0.9997938639121133, 218.53693415394318, 0.012717546342331708),
    (0.01318782483350416, 0.17803203624926614, 0.3203121521317858),
    (0.002432237332601495, 6.350113077478332, 42.976936213236264),
    (0.9999736188417013, 4234.948010631985, 207.57875296362687),
    (0.9976525521925347, 1.2677041716713442, 0.0012941280461915199),
    (0.9997151851331875, 1544.1351328541336, 12.099657598716302),
    (0.0067033591066360705, 83.83575628669199, 0.1860243013754531),
    (0.999981128336723, 70.2194960738504, 0.047000251454096795),
    (0.7561281415710612, 757.0163943394854, 0.48801437824055144),
    (0.9999990046182228, 1197.3901003264543, 0.6997005688615122),
    (0.03593747147130096, 264.37902309904666, 2.008279165314503),
    (0.9979865510745825, 3189.1377739710942, 0.0015781449461493616),
    (0.9999967885318188, 318.3049189098406, 0.29279113379830685),
    (0.023380330459025923, 41.60643376739215, 0.10362293521469705),
    (0.14976612653098, 8.776123680975404, 0.004002065151332051),
]


def test_verify_passes_right_answers_over_the_domain(capsys):
    # mi --verify and deriv --verify in both modes exit 0 on every draw:
    # each closed form is right there (the quadrature and mpmath agree with
    # it), so a failure would blame a right answer.  profile and mc at the
    # same draw exit 0 too; every record is strict JSON whose numbers are
    # finite (a non-finite one would read null)
    def reject(constant):
        raise ValueError(f"{constant} is not standard JSON")

    for a2, x2, s2 in dict.fromkeys([*_PINNED_VERIFY_DRAWS, *_verify_draws(300, 7)]):
        point = ["--a2", repr(a2), "--sigma2", repr(s2)]
        snr_db = repr(10.0 * math.log10(a2 * x2 * x2 / s2))
        for argv in (["mi", "--x2", repr(x2), *point, "--verify"],
                     ["deriv", "--x2", repr(x2), *point, "--verify"],
                     ["deriv", "--snr-db", snr_db, *point, "--verify"],
                     ["profile", "--snr-db", snr_db, "--points", "5"],
                     ["mc", "--x2", repr(x2), *point, "--samples", "200", "--seed", "1"]):
            rc = main([*argv, "--json"])
            out, err = capsys.readouterr()
            assert rc == 0, (argv, err)
            record = json.loads(out, parse_constant=reject)
            assert all(math.isfinite(v) for part in ("results", "diagnostics")
                       for v in record[part].values() if isinstance(v, float)), argv
