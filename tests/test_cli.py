import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from noncoh import capacity, cli, mi, oracle
from noncoh.channel import ChannelParams, TwoPointInput
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
        # away from the ends of a2 the check differences I exactly as
        # oracle.fd_derivative(f, a2) does
        assert main(["deriv", *argv, "--verify", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        a2, x2 = fd_args
        ch = ChannelParams(sigma2=1.0, power_budget=1.0)  # 0 dB

        def f(a):
            return mi.mutual_information(TwoPointInput(a, x2 or math.sqrt(1.0 / a)), ch).nats

        fd = oracle.fd_derivative(f, a2)
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
], ids=["sweep-step-zero", "sweep-reversed", "profile-points-zero",
        "profile-points-negative", "mc-samples-zero", "sweep-step-nan", "sweep-from-nan",
        "sweep-to-inf", "sweep-snr-overflow", "profile-snr-overflow", "deriv-snr-overflow",
        "mi-x2-square-overflow", "deriv-x2-square-overflow", "mc-x2-square-overflow",
        "deriv-x2-square-underflow", "deriv-b-overflow", "profile-u-overflow",
        "sweep-u-overflow", "sweep-b-overflow", "profile-b-overflow", "deriv-snr-b-overflow",
        "mi-x2-u-overflow", "mi-a2-u-overflow", "deriv-x2-u-overflow", "deriv-a2-u-overflow",
        "mi-sigma2-inf", "mc-sigma2-inf", "deriv-sigma2-inf", "sweep-sigma2-inf",
        "deriv-snr-a2-zero", "deriv-snr-a2-negative"])
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
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    oracles = [noncoh.cli.main(["verify", "--quick"]),
               noncoh.cli.main(["mi", "--a2", "0.4", "--x2", "2", "--verify"])]
print(codes, loaded, oracles)
"""


def test_value_path_commands_load_no_scipy(tmp_path):
    # scipy serves the quadrature oracles alone: a fresh interpreter that runs
    # every value-path command never imports it, and the oracle commands
    # still load it and pass
    env = dict(os.environ)
    env.pop("NONCOH_FAULT_INJECT", None)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-c", _IMPORT_GUARD, str(tmp_path / "s.csv")],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0, 0] [] [0, 0]"
