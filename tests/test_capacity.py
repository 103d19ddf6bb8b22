import math
import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from scipy.optimize.elementwise import find_root

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
from noncoh.errors import DomainError, SolverFailure

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

    @pytest.mark.parametrize("sigma2", [1e-310, 1e-6, 0.1, 7.3, 1e300])
    def test_rows_do_not_depend_on_sigma2(self, sigma2):
        # the solve runs in the SNR alone: every bit of a row but x2*, which
        # carries the unit sigma, is that of sigma2 = 1
        snr = 10.0 ** ((-10.0 + 0.5 * np.arange(81)) / 10.0)
        sigma = math.sqrt(sigma2)
        for got, want in zip(solve_a2_star(snr, sigma2=sigma2), solve_a2_star(snr)):
            assert replace(got, x2_star=want.x2_star) == want
            assert got.diagnostics == want.diagnostics
            assert abs(got.x2_star / sigma - want.x2_star) <= 2.0 * math.ulp(want.x2_star)

    def test_roots_found_reported(self):
        pt = solve_a2_star(1.0)
        assert pt.roots_found >= 1

    def test_invalid_snr(self):
        with pytest.raises(SolverFailure):
            solve_a2_star(0.0)

    @pytest.mark.parametrize("snr,bad", [
        (math.nan, "nan"), (0.0, "0.0"), (-1.0, "-1.0"), (math.inf, "inf"),
        (np.array([1.0, math.nan, 2.0]), "nan"), (np.array([1.0, 2.0, -0.5, 0.0]), "-0.5"),
        (np.array([0.3, 0.0, math.nan]), "0.0")])
    def test_invalid_snr_is_named(self, snr, bad):
        # refused before any work, naming the first SNR that is not finite
        # and positive
        with pytest.raises(SolverFailure,
                           match=rf"^snr_linear must be finite and positive \(got {bad}\)$"):
            solve_a2_star(snr)

    @pytest.mark.parametrize("sigma2", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_sigma2(self, sigma2):
        with pytest.raises(DomainError, match="sigma2"):
            solve_a2_star(1.0, sigma2=sigma2)

    def test_refuses_a_grid_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(capacity, "_phi_deriv", None)  # no kernel call is made
        with pytest.raises(DomainError, match=f"has {capacity.MAX_GRID_POINTS + 1} points, "
                           f"more than the cap of {capacity.MAX_GRID_POINTS}"):
            solve_a2_star(np.full(capacity.MAX_GRID_POINTS + 1, 1.0))


def _scalar_deriv(a2, ch):
    return mi.mi_derivative_a2(TwoPointInput(a2, math.sqrt(ch.power_budget / a2)), ch)


def _scalar_grid_derivs(grid, ch):
    """The bracketing scan one scalar derivative at a time."""
    return np.array([_scalar_deriv(float(a), ch) for a in grid])


def _scalar_lock_step(a2, snr):
    """capacity._phi_deriv one scalar phi and derivative at a time: phi from
    the scalar kernel behind mutual_information, dI/da2 from the public
    mi_derivative_a2."""
    a2, snr = np.broadcast_arrays(a2, snr)
    out = []
    for a, q in zip(a2.flat, snr.flat):
        ch = ChannelParams(sigma2=1.0, power_budget=float(q))
        inp = TwoPointInput(float(a), math.sqrt(float(q) / float(a)))
        b, u = mi._phi_args(float(a), float(q) / float(a))
        out.append((specfun.hyp2f1_1b_value(b, u).value, mi.mi_derivative_a2(inp, ch)))
    return np.moveaxis(np.array(out), -1, 0).reshape((2,) + a2.shape)


@pytest.mark.parametrize("sigma2", [1.0, 7.3])
@pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 30.0])
class TestBatchedGridScan:
    def test_matches_scalar_derivatives(self, snr_db, sigma2):
        snr = 10.0 ** (snr_db / 10.0)
        ch = ChannelParams(sigma2=sigma2, power_budget=snr * sigma2)
        grid = np.exp(capacity._scan(np.array([snr]))[0])
        batched = capacity._mi_deriv(grid, snr)[1]
        scalar = _scalar_grid_derivs(grid, ch)
        # the scan's lower edge, 1e-6 min(snr, 1), puts sigma^2/x2^2 = a2/snr
        # within 1e-5 of an integer (alpha next to 1/n); it takes the same
        # analytic formula
        assert grid[0] / snr < 1e-5
        assert batched[0] == pytest.approx(
            mp_mi_derivative_a2(grid[0], sigma2, power_budget=snr * sigma2), rel=1e-10)
        np.testing.assert_allclose(batched, scalar, rtol=1e-12, atol=0.0)
        assert np.array_equal(np.sign(batched), np.sign(scalar))

    def test_solver_unchanged(self, snr_db, sigma2, monkeypatch):
        snr = 10.0 ** (snr_db / 10.0)
        batched = solve_a2_star(snr, sigma2=sigma2)
        monkeypatch.setattr(capacity, "_phi_deriv", _scalar_lock_step)
        scalar = solve_a2_star(snr, sigma2=sigma2)
        assert batched.roots_found == scalar.roots_found
        assert batched.a2_star == pytest.approx(scalar.a2_star, abs=1e-12)


# the benchmark's sweep shape: 81 points at 0.5 dB from about -10 dB
LOCK_STEP_GRIDS = [(0.1, -10.13), (1.0, -10.0), (7.3, -9.77)]


# the rows of each kernel call the solve makes on each of those grids: the
# scan, then one call per refinement iteration
LOCK_STEP_KERNEL_ROWS = {
    (0.1, -10.13): [648, 81, 81, 81, 81, 81, 81, 76, 43, 17, 1, 1, 1],
    (1.0, -10.0): [648, 81, 81, 81, 81, 81, 81, 75, 48, 15],
    (7.3, -9.77): [648, 81, 81, 81, 81, 81, 80, 74, 51, 22, 2],
}


def _bench_sweep(sigma2, start):
    cfg = SweepConfig(snr_db_start=start, snr_db_stop=start + 40.0, snr_db_step=0.5)
    return sweep(cfg, sigma2=sigma2)


class TestLockStep:
    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_matches_per_point_solves(self, sigma2, start):
        points = _bench_sweep(sigma2, start)
        assert len(points) == 81
        for pt in points:
            one = solve_a2_star(pt.snr_linear, sigma2=sigma2)
            assert pt.roots_found == one.roots_found
            assert pt.a2_star == pytest.approx(one.a2_star, abs=1e-12, rel=0.0)
            assert pt.i_star_nats == pytest.approx(one.i_star_nats, abs=1e-13, rel=0.0)
            assert pt.solver_residual <= 1e-10

    def test_array_and_float_calls(self):
        pts = solve_a2_star(np.array([0.5, 2.0]))
        assert [p.snr_linear for p in pts] == [0.5, 2.0]
        assert solve_a2_star(2.0) == pts[1]
        with pytest.raises(SolverFailure):
            solve_a2_star(np.array([1.0, -1.0]))

    def test_one_failed_bracket_fails_only_its_point(self, monkeypatch, tmp_path):
        real = capacity._refine
        failed_p = []

        def failing_refine(f, end1, end2, p):
            root, status, nit = real(f, end1, end2, p)
            k = min(3, status.size - 1)
            status[k] = -2
            failed_p.append(float(p[k]))
            return root, status, nit

        monkeypatch.setattr(capacity, "_refine", failing_refine)
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
        real_kernel, real_phi_deriv = specfun.hyp2f1_1b, capacity._phi_deriv

        def counting_kernel(b, u):
            kernel_rows.append(np.broadcast(b, u).size)
            return real_kernel(b, u)

        def no_sign_change(a2, snr):
            phi, d = real_phi_deriv(a2, snr)
            return phi, np.abs(d) + 1.0

        monkeypatch.setattr(specfun, "hyp2f1_1b", counting_kernel)
        if golden:  # no sign change anywhere: only the scan edges are candidates
            monkeypatch.setattr(capacity, "_phi_deriv", no_sign_change)
        cfg = SweepConfig(snr_db_start=-10.0, snr_db_stop=30.0, snr_db_step=5.0)
        points = sweep(cfg)
        diags = [p.diagnostics for p in points]
        assert all(p.roots_found == (0 if golden else 1) for p in points)
        assert all(d.keys() <= {"grid_rows", "root_iterations", "failure"} for d in diags)
        assert all(d["grid_rows"] == capacity._GRID_POINTS for d in diags)
        assert all((d["root_iterations"] == 0) is golden for d in diags)
        # the scan, then the refinement, which starts from the scan's values
        # at the bracket ends: one kernel row per iteration and bracket; the
        # candidates take I and dI/da2 from those calls, so none follows
        assert sum(kernel_rows) == sum(d["grid_rows"] + d["root_iterations"] for d in diags)
        iterations = max(d["root_iterations"] for d in diags)
        assert len(kernel_rows) == 1 + iterations
        if not golden:
            assert all(p.regime != "FAILED" and "failure" not in p.diagnostics for p in points)
            return
        # the better edge of each point's own scan wins: no root, so a
        # FAILED row that names that edge
        snr = np.array([p.snr_linear for p in points])
        edges = np.exp(capacity._scan(snr)[:, [0, -1]])
        for p, point_edges in zip(points, edges):
            assert p.regime == "FAILED" and math.isnan(p.a2_star)
            assert any(f"scan edge a2={float(a)!r}," in p.diagnostics["failure"]
                       for a in point_edges)
        with pytest.raises(SolverFailure, match="no root at snr=1.0: .* scan edge"):
            solve_a2_star(1.0)

    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_kernel_work_is_pinned(self, sigma2, start, monkeypatch):
        # the solve's kernel calls and their rows on the benchmark's grids,
        # so that no speedup of the sweep can come from doing less work
        rows = []
        real = specfun.hyp2f1_1b

        def counting_kernel(b, u):
            rows.append(np.broadcast(b, u).size)
            return real(b, u)

        monkeypatch.setattr(specfun, "hyp2f1_1b", counting_kernel)
        points = _bench_sweep(sigma2, start)
        assert rows == LOCK_STEP_KERNEL_ROWS[sigma2, start]
        assert sum(rows) == sum(p.diagnostics["grid_rows"] + p.diagnostics["root_iterations"]
                                for p in points)

    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_refinement_calls_are_one_star_block(self, sigma2, start, monkeypatch):
        # the premise of the refinement's cost: after the scan, each kernel
        # call of an 81-point solve is one block of the continuation family
        # holding every row
        calls = []
        real_blocks = specfun._row_blocks

        def recording_blocks(star, u):
            blocks = list(real_blocks(star, u))
            calls.append((u.size, [(family, rows) for family, rows, _, _ in blocks]))
            return iter(blocks)

        monkeypatch.setattr(specfun, "_row_blocks", recording_blocks)
        points = _bench_sweep(sigma2, start)
        assert len(calls) == 1 + max(p.diagnostics["root_iterations"] for p in points)
        assert calls[0][0] == 81 * capacity._GRID_POINTS
        for size, blocks in calls[1:]:
            assert blocks == [(specfun._family_star, slice(0, size))], size

    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_i_is_assembled_at_the_occupied_slots_alone(self, sigma2, start, monkeypatch):
        # one assembly of I, on each point's roots and two scan edges, not
        # on every one of its _GRID_POINTS + 2 candidate slots
        sizes = []
        real = capacity._mi_of_phi

        def recording(a2, snr, phi):
            sizes.append(np.shape(a2))
            return real(a2, snr, phi)

        monkeypatch.setattr(capacity, "_mi_of_phi", recording)
        points = _bench_sweep(sigma2, start)
        assert sizes == [(sum(p.roots_found for p in points) + 2 * len(points),)]

    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_roots_take_i_and_residual_from_mi_deriv(self, sigma2, start):
        # the refinement carries phi, and I comes from it at the candidates
        # alone: at each root, I* and the residual are mi._mi_deriv's I and
        # |dI/da2| at a2* = exp(root), bit for bit
        points = _bench_sweep(sigma2, start)
        snr = np.array([p.snr_linear for p in points])
        nats, d = mi._mi_deriv(np.array([p.a2_star for p in points]), snr)
        assert [p.i_star_nats for p in points] == nats.tolist()
        assert [p.solver_residual for p in points] == np.abs(d).tolist()

    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_rows_agree_with_the_scalar_api(self, sigma2, start):
        points = _bench_sweep(sigma2, start)
        for pt in points:
            ch = ChannelParams(sigma2=sigma2, power_budget=pt.snr_linear * sigma2)
            inp = TwoPointInput(pt.a2_star, pt.x2_star)
            assert abs(pt.i_star_nats - mi.mutual_information(inp, ch).nats) <= 1e-14
            # exactly, at the solver's own normalization sigma2 = 1
            ch = ChannelParams(1.0, power_budget=pt.snr_linear)
            inp = TwoPointInput(pt.a2_star, math.sqrt(pt.snr_linear / pt.a2_star))
            assert pt.solver_residual == abs(mi.mi_derivative_a2(inp, ch))


# the two-point I*/SNR at sigma2 = 1, from 60-digit mpmath I at the optimum
LOW_SNR_I_PER_SNR = {-70: 0.6541, -60: 0.6322, -50: 0.6057, -40: 0.5724,
                     -30: 0.5284, -20: 0.4653, -10: 0.3634}


class TestLowSnr:
    def test_contract_holds_down_to_minus_79db(self):
        # the scan's lower edge falls with the SNR, so the optimum stays
        # inside it; -80 dB is left out, where dI/da2's sign is noise
        cfg = SweepConfig(snr_db_start=-79.0, snr_db_stop=-10.0, snr_db_step=1.0)
        points = sweep(cfg)
        assert len(points) == 70
        for p in points:
            assert p.regime != "FAILED", p.diagnostics
            assert p.roots_found == 1, p.snr_db
            assert p.solver_residual <= 1e-10, p.snr_db
        per_snr = [p.i_star_nats / p.snr_linear for p in points]
        # rises strictly as the SNR falls, below the capacity per unit energy
        assert all(lo > hi for lo, hi in zip(per_snr, per_snr[1:]))
        assert per_snr[0] < 1.0
        for p, ratio in zip(points, per_snr):
            db = round(p.snr_db)
            if db in LOW_SNR_I_PER_SNR:
                assert round(ratio, 4) == LOW_SNR_I_PER_SNR[db], db

    @pytest.mark.parametrize("snr_db", [-300.0, -250.0, -200.0, -170.0])
    def test_no_optimum_beats_the_coherent_capacity(self, snr_db):
        # I* <= log(1+SNR) for every input; where the noisy dI/da2 gives a
        # larger I* the point is a FAILED row that gives both numbers
        snr = 10.0 ** (snr_db / 10.0)
        (p,) = solve_a2_star(np.array([snr]))
        assert p.regime == "FAILED" and math.isnan(p.i_star_nats)
        assert "exceeds the coherent capacity" in p.diagnostics["failure"]
        with pytest.raises(SolverFailure, match=r"log\(1\+SNR\) = "):
            solve_a2_star(snr)

    @pytest.mark.parametrize("snr_db", [-70.0, -40.0, -10.0, 0.0, 10.0, 20.0, 30.0])
    def test_a2_star_is_a_40_digit_root(self, snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        a2 = solve_a2_star(snr).a2_star
        with mpmath.workdps(40):
            root = mpmath.findroot(
                lambda t: mp_mi_derivative_a2(t, 1.0, power_budget=snr, dps=40),
                (a2 * (1.0 - 1e-9), a2 * (1.0 + 1e-9)), solver="secant")
            assert abs(a2 - root) <= 1e-13 * root


def _with_carry(f):
    """f(x, p) as capacity._refine takes it: (v, f(x, p)), with a value
    v = cos(x) + p carried along."""
    return lambda x, p: (np.cos(x) + p, f(x, p))


def _ends(g, x, p):
    """One bracket end per entry of x as capacity._refine takes them: rows
    x, v and y of g(x, p) = (v, y)."""
    return np.array([x, *g(x, p)])


def _refine_and_find_root(f, x1, x2, p, maxiter=None, g=None):
    """capacity._refine and scipy's find_root, its oracle, on the same
    brackets of f, _refine given g(x, p) = (v, f(x, p)) (a cosine carried
    along by default) and its values at the bracket ends; asserts that they
    agree bit for bit in x and exactly in status and iterations, that v and
    y at the result are g's there, NaN for a NaN result, and returns the
    statuses.  maxiter is find_root's cap, default its own."""
    g = g or _with_carry(f)
    ref = find_root(f, (x1, x2), args=(p,), tolerances={"xatol": capacity._XATOL},
                    maxiter=maxiter)
    (x, v, y), status, nit = capacity._refine(g, _ends(g, x1, p), _ends(g, x2, p), p)
    assert np.array_equal(x, ref.x, equal_nan=True)
    assert np.array_equal(np.signbit(x), np.signbit(ref.x))
    assert np.array_equal(status, ref.status)
    assert np.array_equal(status == 0, ref.success)
    assert np.array_equal(nit, ref.nit)
    assert np.array_equal(ref.nfev, ref.nit + 2)  # find_root evaluates the ends too
    at_x = np.isfinite(x)
    assert np.array_equal(np.isnan(x), np.isnan(v) & np.isnan(y))
    v_x, y_x = g(x[at_x], p[at_x])
    assert np.array_equal(v[at_x], v_x) and np.array_equal(y[at_x], y_x)
    return status


# x^3 - 2x - p, exp(x) - p and arctan(50 (x - p)) have one root in [0, 3]
# for p in (1, 3), [1, 20] and [0, 3]; x - p puts exact zeros on both ends;
# 1e-300 (x - p) falls below the smallest normal float (find_root's |f|
# test) within 2e-8 of its root
ANALYTIC = {
    "cubic": (lambda x, p: x**3 - 2.0 * x - p, np.linspace(1.1, 2.9, 7)),
    "exp": (lambda x, p: np.exp(x) - p, np.geomspace(1.0, 20.0, 7)),
    "steep": (lambda x, p: np.arctan(50.0 * (x - p)), np.linspace(0.0, 3.0, 7)),
    "linear-zero-at-ends": (lambda x, p: x - p, np.array([0.0, 0.7, 3.0])),
    "tiny-values": (lambda x, p: 1e-300 * (x - p), np.linspace(0.3, 2.7, 5)),
}


class TestRefine:
    @pytest.mark.parametrize("start", [-10.13, -10.0, -9.77])
    @pytest.mark.parametrize("sigma2", [0.1, 1.0, 7.3])
    def test_matches_find_root_on_the_solver_brackets(self, sigma2, start):
        self._solver_brackets(sigma2, start + 0.5 * np.arange(81))

    def test_matches_find_root_down_to_minus_79db(self):
        self._solver_brackets(1.0, np.arange(-79.0, -9.0))

    @staticmethod
    def _solver_brackets(sigma2, snr_db):
        # the SNR as mi_derivative_a2 forms it from power_budget = SNR sigma2,
        # which moves it by an ulp or so for sigma2 other than 1
        snr = 10.0 ** (snr_db / 10.0) * sigma2 / sigma2
        t = capacity._scan(snr)
        nats, dvals = capacity._mi_deriv(np.exp(t), snr[:, None])
        pt, lo = np.nonzero(dvals[:, :-1] * dvals[:, 1:] < 0.0)
        assert np.array_equal(np.unique(pt), np.arange(snr.size))

        def g(tt, pp):
            return capacity._mi_deriv(np.exp(tt), pp)

        # the scan's I and dI/da2 at the bracket ends, which the solver hands
        # to _refine, are what g gives there
        for end in (lo, lo + 1):
            assert np.array_equal(_ends(g, t[pt, end], snr[pt]),
                                  [t[pt, end], nats[pt, end], dvals[pt, end]])
        status = _refine_and_find_root(lambda tt, pp: g(tt, pp)[1], t[pt, lo], t[pt, lo + 1],
                                       snr[pt], g=g)
        assert (status == 0).all()

    @pytest.mark.parametrize("sigma2,start", LOCK_STEP_GRIDS)
    def test_carries_i_to_the_root(self, sigma2, start, monkeypatch):
        # the I and dI/da2 that _refine returns at each root, which the solver
        # compares and reports without a further kernel call, are those of
        # mi._mi_deriv at a2* = exp(root), bit for bit
        snr = 10.0 ** ((start + 0.5 * np.arange(81)) / 10.0) * sigma2 / sigma2
        t = capacity._scan(snr)
        scan = np.array([t, *capacity._mi_deriv(np.exp(t), snr[:, None])])
        pt, lo = np.nonzero(scan[2, :, :-1] * scan[2, :, 1:] < 0.0)
        (root, nats, d), status, _ = capacity._refine(
            lambda tt, pp: capacity._mi_deriv(np.exp(tt), pp), scan[:, pt, lo],
            scan[:, pt, lo + 1], snr[pt])
        assert (status == 0).all()
        a2 = np.exp(root)
        want_nats, want_d = mi._mi_deriv(a2, snr[pt])
        assert np.array_equal(nats, want_nats) and np.array_equal(d, want_d)
        # and the solver's rows are those values, with no kernel call after
        # the refinement's last iteration
        kernel_rows = []
        real_kernel = specfun.hyp2f1_1b

        def counting_kernel(b, u):
            kernel_rows.append(np.broadcast(b, u).size)
            return real_kernel(b, u)

        monkeypatch.setattr(specfun, "hyp2f1_1b", counting_kernel)
        points = solve_a2_star(snr)
        assert len(kernel_rows) == 1 + max(p.diagnostics["root_iterations"] for p in points)
        assert kernel_rows[-1] == np.count_nonzero(
            [p.diagnostics["root_iterations"] == len(kernel_rows) - 1 for p in points])
        assert [p.a2_star for p in points] == a2.tolist()
        assert [p.i_star_nats for p in points] == nats.tolist()
        assert [p.solver_residual for p in points] == np.abs(d).tolist()

    def test_solver_brackets_meet_the_precondition(self, monkeypatch):
        # _refine takes the scan's brackets as given: finite x and y at both
        # ends, the two y of strictly opposite signs (the scan's exact zeros
        # are roots of their own, not bracket ends); every bracket of every
        # sweep, over the headline grid and out to both sides of it
        real_refine = capacity._refine
        ends = []

        def recording_refine(f, end1, end2, p):
            ends.append((end1, end2))
            return real_refine(f, end1, end2, p)

        monkeypatch.setattr(capacity, "_refine", recording_refine)
        grids = [(-10.0, 30.0, 0.5), (-79.0, 40.0, 1.0), (-160.0, -80.0, 5.0),
                 (30.0, 290.0, 10.0)]
        for sigma2 in (0.1, 1.0, 7.3):
            for start, stop, step in grids:
                sweep(SweepConfig(start, stop, step), sigma2=sigma2)
        end1 = np.concatenate([e1 for e1, _ in ends], axis=1)
        end2 = np.concatenate([e2 for _, e2 in ends], axis=1)
        assert end1.shape == (3, 780)
        for end in (end1, end2):
            assert np.isfinite(end[[0, 2]]).all()
        assert (np.sign(end1[2]) * np.sign(end2[2]) == -1.0).all()

    def test_no_brackets_make_no_call(self):
        def g(x, p):
            raise AssertionError("_refine evaluated f with no bracket open")

        empty = np.empty((3, 0))
        root, status, nit = capacity._refine(g, empty, empty, np.empty(0))
        assert root.shape == (3, 0) and status.size == 0 and nit.size == 0

    @pytest.mark.parametrize("name", ANALYTIC)
    def test_matches_find_root_on_analytic_functions(self, name):
        f, p = ANALYTIC[name]
        x1, x2 = np.zeros_like(p), np.full_like(p, 3.0)
        status = _refine_and_find_root(f, x1, x2, p)
        assert (status == 0).all()
        if name == "linear-zero-at-ends":
            g = _with_carry(f)
            (x, _, _), _, nit = capacity._refine(g, _ends(g, x1, p), _ends(g, x2, p), p)
            assert x[[0, 2]].tolist() == [0.0, 3.0] and nit[[0, 2]].tolist() == [0, 0]

    def test_failures_match_find_root(self, monkeypatch):
        def f(x, p):
            # a NaN inside the bracket for p = 0, an ordinary root for the
            # rest (_refine takes brackets with a sign change alone)
            return np.where((p == 0.0) & (x > -1.0) & (x < 3.0), np.nan, x - p)

        p = np.array([0.0, 1.3, 2.9])
        x1, x2 = np.full(3, -1.0), np.full(3, 3.0)
        status = _refine_and_find_root(f, x1, x2, p)
        assert status.tolist() == [-3, 0, 0]
        # the iteration cap: the brackets still open report -2; the first
        # bisection lands on the root p = 1
        monkeypatch.setattr(capacity, "_MAX_ITER", 2)
        status = _refine_and_find_root(lambda x, p: np.arctan(x - p), np.full(3, -1.0),
                                       np.full(3, 3.0), np.array([0.1, 0.5, 1.0]), maxiter=2)
        assert status.tolist() == [-2, -2, 0]


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
        def solve_stub(snr_linear, *, sigma2):
            return [CapacityPoint(snr_to_db(snr), snr, 0.5, 1.0, math.log1p(snr),
                                  "Capacity", 1, 0.0) for snr in snr_linear.tolist()]

        monkeypatch.setattr(capacity, "solve_a2_star", solve_stub)
        points = sweep(SweepConfig(snr_db_start=start, snr_db_stop=stop, snr_db_step=step))
        assert len(points) == count
        assert points[-1].snr_db == pytest.approx(stop)

    @pytest.mark.parametrize("drop,warns", [(2e-9, True), (0.5e-9, False)],
                             ids=["beyond-1e-9", "within-1e-9"])
    def test_a_falling_i_star_warns(self, drop, warns, monkeypatch):
        # the second point's I* lies `drop` below the first's
        def solve_stub(snr_linear, *, sigma2):
            return [CapacityPoint(snr_to_db(snr), snr, 0.5, 1.0, 0.3 - k * drop, "Capacity",
                                  1, 0.0) for k, snr in enumerate(snr_linear.tolist())]

        monkeypatch.setattr(capacity, "solve_a2_star", solve_stub)
        cfg = SweepConfig(snr_db_start=0.0, snr_db_stop=1.0, snr_db_step=1.0)
        if warns:
            with pytest.warns(UserWarning, match=r"i_star decreased between 0\.0 dB and "):
                sweep(cfg)
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sweep(cfg)

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

    def test_refuses_a_grid_past_the_cap(self, monkeypatch):
        monkeypatch.setattr(capacity, "_mi_deriv", None)  # no kernel call is made
        grid = np.linspace(1e-6, 1.0 - 1e-6, capacity.MAX_GRID_POINTS + 1)
        with pytest.raises(DomainError, match=f"has {capacity.MAX_GRID_POINTS + 1} points, "
                           f"more than the cap of {capacity.MAX_GRID_POINTS}"):
            mi_profile(1.0, grid)

    @pytest.mark.parametrize("grid", [0.5, [[0.5, 0.3]], [[0.5], [0.3]]],
                             ids=["scalar", "row", "column"])
    def test_rejects_a_grid_that_is_not_1d(self, grid):
        with pytest.raises(SolverFailure, match="1-D"):
            mi_profile(1.0, grid)

    @pytest.mark.parametrize("snr_db", [-10.0, -5.0, 10.0])
    def test_matches_scalar_calls(self, snr_db):
        snr = 10.0 ** (snr_db / 10.0)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 200)
        pairs = mi_profile(snr, grid)
        assert [a for a, _ in pairs] == grid.tolist()
        ch = ChannelParams(sigma2=7.3, power_budget=snr * 7.3)
        for a2, val in pairs:
            inp = TwoPointInput(a2, math.sqrt(ch.power_budget / a2))
            assert abs(val - mi.mutual_information(inp, ch).nats) <= 1e-14


# the sweep's lower SNR edge (about -2962.5 dB): the smallest SNR whose scan
# keeps u = (a1/a2)(1 + t) finite at its lower edge, found by bisection on
# the floats; the float below it is refused
SWEEP_SNR_EDGE = 5.5626902089526504e-297
TINY = np.finfo(float).tiny
OK, REFUSED = "ok", DomainError


class TestCheckSnr:
    # mi._check_snr's verdict on each SNR and each form of a2 its callers
    # pass: mi_derivative_a2's float, mi_profile's 1-D grid (here holding the
    # extremes 5e-324 and 1 - 2^-53) and a _scan edge row; 0 at the scan
    # edge, 0/0 in t, warns (the solver refuses SNR <= 0 before it scans)
    @pytest.mark.parametrize("snr,float_a2,grid,edge_row", [
        (-1.0, REFUSED, REFUSED, REFUSED),
        (0.0, REFUSED, REFUSED, RuntimeWarning),
        (math.nextafter(TINY, 0.0), REFUSED, REFUSED, REFUSED),
        (TINY, OK, REFUSED, REFUSED),
        (1.0, OK, REFUSED, OK),
        (1e300, OK, REFUSED, REFUSED),
        (math.inf, REFUSED, REFUSED, REFUSED),
        (math.nan, REFUSED, REFUSED, REFUSED),
        (math.nextafter(SWEEP_SNR_EDGE, 0.0), OK, REFUSED, REFUSED),
        (SWEEP_SNR_EDGE, OK, REFUSED, OK),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_verdicts_at_the_range_edges(self, snr, float_a2, grid, edge_row):
        forms = (0.5, np.array([5e-324, 1.0 - 2.0**-53]),
                 np.array([[capacity._A2_EDGE * min(snr, 1.0), capacity._A2_TOP]]))
        for a2, want in zip(forms, (float_a2, grid, edge_row)):
            if want == OK:
                mi._check_snr(a2, snr)
                continue
            with pytest.raises(want) as err:
                mi._check_snr(a2, snr)
            if want is DomainError:
                assert str(err.value).startswith(f"SNR {snr:.6g} is out of range: ")


class TestCheckSnrOwner:
    # _check_snr pairs a2 and the SNR as they broadcast, and every
    # capacity-mode entry runs it before a number leaves the float range
    def test_names_the_refused_pair(self):
        # (0.5, 1e-10) is in range; at (1e-300, 1) t = 1e300 and u overflows
        with pytest.raises(DomainError, match=r"^SNR 1 is out of range: "):
            mi._check_snr(np.array([0.5, 1e-300]), np.array([1e-10, 1.0]))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_entry_names_a_subnormal_snr(self):
        snr = 1e-320
        calls = (
            lambda: mi._mi_deriv(np.array([0.5]), np.array([snr])),
            lambda: mi_profile(snr, [0.2, 0.5]),
            lambda: mi.mi_derivative_a2(TwoPointInput(0.5, math.sqrt(snr / 0.5)),
                                        ChannelParams(1.0, power_budget=snr)),
        )
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value).startswith(f"SNR {snr:.6g} is out of range: ")
