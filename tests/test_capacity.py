import math

import numpy as np
import pytest

from mp_reference import mi_derivative_a2 as mp_mi_derivative_a2
from noncoh import capacity, cli, mi, specfun
from noncoh.capacity import (
    CapacityPoint,
    SweepConfig,
    classify_regime,
    mi_profile,
    solve_a2_star,
    sweep,
)
from noncoh.channel import ChannelParams, TwoPointInput, snr_to_db
from noncoh.errors import SolverFailure

LOG2 = math.log(2.0)


def _mi_capacity(a2, snr):
    ch = ChannelParams(sigma2=1.0, power_budget=snr)
    return mi.mutual_information(TwoPointInput(a2, math.sqrt(snr / a2)), ch).nats


class TestSolve:
    def test_residual_contract_at_0db(self):
        pt = solve_a2_star(1.0)
        assert pt.solver_residual <= 1e-10
        assert 0.0 < pt.a2_star < 1.0
        assert 0.0 < pt.i_star_nats < LOG2

    def test_against_grid_maximum(self):
        snr = 10.0**-0.5
        pt = solve_a2_star(snr)
        grid = np.linspace(1e-4, 1.0 - 1e-4, 4001)
        best = max(_mi_capacity(float(a), snr) for a in grid)
        assert pt.i_star_nats >= best - 1e-9
        assert pt.i_star_nats - best <= 5e-7  # grid-sampling gap bound

    def test_root_is_a_maximum(self):
        pt = solve_a2_star(2.0)
        for off in (-1e-9, 1e-9):
            assert _mi_capacity(pt.a2_star + off, 2.0) <= pt.i_star_nats + 1e-15

    def test_high_snr_asymptote(self):
        pt = solve_a2_star(1e6)
        assert abs(pt.i_star_nats - LOG2) <= 1e-2
        assert abs(pt.a2_star - 0.5) <= 2e-2

    def test_reparameterization_consistency(self):
        for snr in (0.5, 3.0, 50.0):
            a = solve_a2_star(snr, sigma2=1.0)
            b = solve_a2_star(snr, sigma2=2.0)
            assert a.a2_star == pytest.approx(b.a2_star, abs=1e-10)
            assert a.i_star_nats == pytest.approx(b.i_star_nats, abs=1e-10)
            # x2* carries the sqrt(sigma2) unit
            assert b.x2_star == pytest.approx(a.x2_star * math.sqrt(2.0), rel=1e-9)

    def test_roots_found_reported(self):
        pt = solve_a2_star(1.0)
        assert pt.roots_found >= 1

    def test_invalid_snr(self):
        with pytest.raises(SolverFailure):
            solve_a2_star(0.0)


def _scalar_deriv(a2, ch):
    return mi.mi_derivative_a2(TwoPointInput(a2, math.sqrt(ch.power_budget / a2)), ch)


def _scalar_grid_derivs(grid, ch):
    """The bracketing scan one scalar derivative at a time."""
    return np.array([_scalar_deriv(float(a), ch) for a in grid])


def _scalar_lock_step_derivs(a2, p, s2):
    """capacity._deriv one scalar derivative at a time."""
    a2, p = np.broadcast_arrays(a2, p)
    return np.array([_scalar_deriv(float(a), ChannelParams(sigma2=s2, power_budget=float(q)))
                     for a, q in zip(a2.flat, p.flat)]).reshape(a2.shape)


@pytest.mark.parametrize("sigma2", [1.0, 7.3])
@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 30.0])
class TestBatchedGridScan:
    def test_matches_scalar_derivatives(self, snr_db, sigma2):
        snr = 10.0 ** (snr_db / 10.0)
        ch = ChannelParams(sigma2=sigma2, power_budget=snr * sigma2)
        grid = np.linspace(1e-6, 1.0 - 1e-6, capacity._GRID_POINTS)
        batched = capacity._deriv(grid, snr * sigma2, sigma2)
        scalar = _scalar_grid_derivs(grid, ch)
        # a2 = 1e-6 puts sigma^2/x2^2 = a2/snr within 1e-5 of an integer
        # (alpha next to 1/n); it takes the same analytic formula
        assert grid[0] / snr < 1e-5
        assert batched[0] == pytest.approx(
            mp_mi_derivative_a2(grid[0], sigma2, power_budget=snr * sigma2), rel=1e-10)
        np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=0.0)
        assert np.array_equal(np.sign(batched), np.sign(scalar))

    def test_solver_unchanged(self, snr_db, sigma2, monkeypatch):
        snr = 10.0 ** (snr_db / 10.0)
        batched = solve_a2_star(snr, sigma2=sigma2)
        monkeypatch.setattr(capacity, "_deriv", _scalar_lock_step_derivs)
        scalar = solve_a2_star(snr, sigma2=sigma2)
        assert batched.roots_found == scalar.roots_found
        assert batched.a2_star == pytest.approx(scalar.a2_star, abs=1e-12)


# the benchmark's sweep shape: 81 points at 0.5 dB from about -10 dB
LOCK_STEP_GRIDS = [(0.1, -10.13), (1.0, -10.0), (7.3, -9.77)]


def _bench_sweep(sigma2, start):
    cfg = SweepConfig(snr_db_start=start, snr_db_stop=start + 40.0, snr_db_step=0.5)
    return cfg, sweep(cfg, ChannelParams(sigma2=sigma2))


class TestLockStep:
    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_matches_per_point_solves(self, sigma2, start):
        cfg, points = _bench_sweep(sigma2, start)
        assert len(points) == 81
        for pt in points:
            one = solve_a2_star(pt.snr_linear, cfg, sigma2=sigma2)
            assert pt.roots_found == one.roots_found
            assert pt.a2_star == pytest.approx(one.a2_star, abs=1e-12, rel=0.0)
            assert pt.i_star_nats == pytest.approx(one.i_star_nats, abs=1e-13, rel=0.0)
            assert pt.solver_residual <= cfg.solver_tol

    def test_array_and_float_calls(self):
        pts = solve_a2_star(np.array([0.5, 2.0]))
        assert [p.snr_linear for p in pts] == [0.5, 2.0]
        assert solve_a2_star(2.0) == pts[1]
        with pytest.raises(SolverFailure):
            solve_a2_star(np.array([1.0, -1.0]))

    def test_one_failed_bracket_fails_only_its_point(self, monkeypatch, tmp_path):
        real = capacity.find_root
        failed_p = []

        def failing_find_root(f, init, *, args, tolerances):
            res = real(f, init, args=args, tolerances=tolerances)
            k = min(3, res.success.size - 1)
            res.success[k], res.status[k] = False, -2
            failed_p.append(float(args[0][k]))
            return res

        monkeypatch.setattr(capacity, "find_root", failing_find_root)
        points = sweep(SweepConfig(snr_db_start=-10.0, snr_db_stop=30.0, snr_db_step=0.5))
        bad = [p for p in points if p.regime == "FAILED"]
        assert len(points) == 81 and len(bad) == 1
        assert bad[0].snr_linear == pytest.approx(failed_p[0])
        assert all(0.0 < p.a2_star < 1.0 and p.solver_residual <= 1e-10
                   for p in points if p is not bad[0])
        with pytest.raises(SolverFailure, match="did not converge"):
            solve_a2_star(1.0)
        argv = ["sweep", "--from-db", "-10", "--to-db", "30", "--step-db", "0.5",
                "--out", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 3
        rows = (tmp_path / "s.csv").read_text().splitlines()[1:]
        assert len(rows) == 81 and sum(",FAILED," in r for r in rows) == 1

    @pytest.mark.parametrize("golden", [False, True], ids=["roots", "golden"])
    def test_diagnostics_count_the_work(self, golden, monkeypatch):
        kernel_rows = []
        real_kernel, real_deriv = specfun.hyp2f1_1b, capacity._deriv

        def counting_kernel(b, u):
            kernel_rows.append(np.broadcast(b, u).size)
            return real_kernel(b, u)

        monkeypatch.setattr(specfun, "hyp2f1_1b", counting_kernel)
        if golden:  # no sign change anywhere: only the scan edges are scored
            monkeypatch.setattr(capacity, "_deriv",
                                lambda a2, p, s2: np.abs(real_deriv(a2, p, s2)) + 1.0)
        cfg = SweepConfig(snr_db_start=-10.0, snr_db_stop=30.0, snr_db_step=5.0)
        points = sweep(cfg)
        diags = [p.diagnostics for p in points]
        assert all(p.roots_found == (0 if golden else 1) for p in points)
        assert all(d["grid_rows"] == capacity._GRID_POINTS for d in diags)
        assert all((d["root_evaluations"] == 0) is golden for d in diags)
        assert all(d["root_iterations"] <= d["root_evaluations"] for d in diags)
        # the scan, the root-finder and one row per scored candidate
        assert sum(kernel_rows) == sum(d["grid_rows"] + d["root_evaluations"] + d["mi_calls"]
                                       for d in diags)
        # the roots, then both scan edges
        assert all(d["mi_calls"] == (2 if golden else 3) for d in diags)
        if golden:
            edges = (capacity._A2_EDGE, 1.0 - capacity._A2_EDGE)
            assert all(p.a2_star in edges for p in points)

    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_rows_agree_with_the_scalar_api(self, sigma2, start):
        _, points = _bench_sweep(sigma2, start)
        for pt in points:
            ch = ChannelParams(sigma2=sigma2, power_budget=pt.snr_linear * sigma2)
            inp = TwoPointInput(pt.a2_star, pt.x2_star)
            assert abs(pt.i_star_nats - mi.mutual_information(inp, ch).nats) <= 1e-14
            assert pt.solver_residual == abs(mi.mi_derivative_a2(inp, ch))


class TestRegime:
    def test_thresholds(self):
        assert classify_regime(-3.0) == "Capacity"
        assert classify_regime(0.0) == "Capacity"
        assert classify_regime(5.0) == "LowerBound"
        assert classify_regime(10.0) == "LowerBound"
        assert classify_regime(15.0) == "TwoPointOptimum"


class TestSweep:
    def test_grid_and_ordering(self):
        cfg = SweepConfig(snr_db_start=-10.0, snr_db_stop=30.0, snr_db_step=5.0)
        points = sweep(cfg)
        assert len(points) == 9
        dbs = [p.snr_db for p in points]
        assert dbs == sorted(dbs)
        assert all(0.0 < p.a2_star < 1.0 for p in points)
        assert all(p.regime != "FAILED" for p in points)
        assert all(p.i_star_nats <= LOG2 for p in points)
        for p in points:
            assert p.regime == classify_regime(p.snr_db)
            assert p.x2_star == pytest.approx(math.sqrt(p.snr_linear / p.a2_star))

    def test_i_star_nondecreasing(self):
        cfg = SweepConfig(snr_db_start=-10.0, snr_db_stop=30.0, snr_db_step=2.0)
        points = sweep(cfg)
        vals = [p.i_star_nats for p in points]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_a2_star_nondecreasing_regression(self):
        # observed curve shape; a regression property, not a theorem
        cfg = SweepConfig(snr_db_start=-10.0, snr_db_stop=30.0, snr_db_step=2.0)
        points = sweep(cfg)
        vals = [p.a2_star for p in points]
        assert all(b >= a - 1e-6 for a, b in zip(vals, vals[1:]))

    def test_grid_stops_at_the_stop(self):
        # (1 - 0) / 0.6 rounds to 2 steps, which would write a 1.2 dB row
        points = sweep(SweepConfig(snr_db_start=0.0, snr_db_stop=1.0, snr_db_step=0.6))
        assert [p.snr_db for p in points] == pytest.approx([0.0, 0.6])

    @pytest.mark.parametrize("start,stop,step,count", [
        *((-10.0 + off, -10.0 + off + 80 * 0.5, 0.5, 81)
          for off in (0.0, 0.123456789, 0.25, 0.4999999)),
        (0.0, 0.3, 0.1, 4),  # 0.3 / 0.1 = 2.9999999999999996
    ])
    def test_grid_keeps_the_stop(self, start, stop, step, count, monkeypatch):
        def solve_stub(snr_linear, cfg, *, sigma2):
            return [CapacityPoint(snr_to_db(snr), snr, 0.5, 1.0, math.log1p(snr),
                                  "Capacity", 1, 0.0) for snr in snr_linear.tolist()]

        monkeypatch.setattr(capacity, "solve_a2_star", solve_stub)
        points = sweep(SweepConfig(snr_db_start=start, snr_db_stop=stop, snr_db_step=step))
        assert len(points) == count
        assert points[-1].snr_db == pytest.approx(stop)

    def test_thirty_db_endpoint(self):
        cfg = SweepConfig(snr_db_start=30.0, snr_db_stop=30.0, snr_db_step=1.0)
        (pt,) = sweep(cfg)
        assert abs(pt.i_star_nats - LOG2) <= 0.05


class TestProfile:
    def test_endpoints_vanish(self):
        snr = 10.0**-0.5
        pairs = mi_profile(snr, [1e-6, 0.5, 1.0 - 1e-6])
        assert pairs[0][1] <= 1e-4
        assert pairs[-1][1] <= 1e-4

    def test_single_interior_maximum_at_minus5db(self):
        snr = 10.0**-0.5
        grid = np.linspace(1e-6, 1.0 - 1e-6, 400)
        vals = [v for _, v in mi_profile(snr, grid)]
        diffs = np.sign(np.diff(vals))
        # sign pattern +...+ -...-: exactly one change
        changes = int(np.sum(diffs[:-1] != diffs[1:]))
        assert changes == 1

    def test_matches_solver_at_5db(self):
        snr = 10.0**0.5
        pt = solve_a2_star(snr)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 2001)
        best = max(v for _, v in mi_profile(snr, grid))
        assert pt.i_star_nats >= best - 1e-12
        assert pt.i_star_nats - best <= 1e-6

    def test_rejects_out_of_range(self):
        with pytest.raises(SolverFailure):
            mi_profile(1.0, [0.0, 0.5])

    @pytest.mark.parametrize("bad", [0.0, 1.0, math.nan])
    def test_rejects_each_invalid_value(self, bad):
        with pytest.raises(SolverFailure):
            mi_profile(1.0, [0.5, bad])

    def test_empty_grid(self):
        assert mi_profile(1.0, []) == []

    @pytest.mark.parametrize("snr_db", [-10.0, -5.0, 10.0])
    def test_matches_scalar_calls(self, snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 200)
        pairs = mi_profile(snr, grid, sigma2=7.3)
        assert [a for a, _ in pairs] == grid.tolist()
        ch = ChannelParams(sigma2=7.3, power_budget=snr * 7.3)
        for a2, val in pairs:
            inp = TwoPointInput(a2, math.sqrt(ch.power_budget / a2))
            assert abs(val - mi.mutual_information(inp, ch).nats) <= 1e-14
