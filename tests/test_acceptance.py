"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line with its worst residual and runtime.  Tolerances are pinned here and
must not be loosened."""

import math
import os
import subprocess
import sys
import time

import numpy as np

from noncoh import mi, oracle, verify
from noncoh.capacity import SweepConfig, solve_a2_star, sweep
from noncoh.channel import ChannelParams, TwoPointInput

LOG2 = math.log(2.0)
HB_03 = 0.6108643020548935


def _report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"{status} criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num}: {detail}"


def _mi_capacity(a2, snr):
    ch = ChannelParams(sigma2=1.0, power_budget=snr)
    return mi.mutual_information(TwoPointInput(a2, math.sqrt(snr / a2)), ch).nats


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    res_j, res_i = verify.check_oracle_equivalence(n_a2=20, n_ratio=10)
    elapsed = time.time() - t0
    ok = res_j.worst <= 1e-8 and res_i.worst <= 1e-7 and elapsed <= 60.0
    _report(1, "closed form vs quadrature",
            ok,
            f"max|dJ|={res_j.worst:.3e} (tol 1e-8), max|dI|={res_i.worst:.3e} "
            f"(tol 1e-7), {elapsed:.1f}s (budget 60s)")


def test_criterion_02_continuation():
    t0 = time.time()
    res = verify.check_continuation(n_alpha=10, n_beta=10)
    elapsed = time.time() - t0
    ok = res.worst <= 1e-8 and elapsed <= 5.0
    _report(2, "continuation identity", ok,
            f"worst={res.worst:.3e} (tol 1e-8), {elapsed:.1f}s (budget 5s)")


def test_criterion_03_sin_identity():
    t0 = time.time()
    res = verify.check_sin_identity(alphas=(0.3, 0.6, 1.4, 2.0, 3.7, 5.5, 8.9))
    elapsed = time.time() - t0
    ok = res.worst <= 1e-8 and elapsed <= 10.0
    _report(3, "3F2(-1) sin identity", ok,
            f"worst={res.worst:.3e} (tol 1e-8), {elapsed:.1f}s (budget 10s)")


def test_criterion_04_derivative():
    t0 = time.time()
    res = verify.check_derivative(points=50, seed=99)
    elapsed = time.time() - t0
    ok = res.worst <= 1e-5 and elapsed <= 10.0
    _report(4, "analytic derivative vs finite differences", ok,
            f"worst rel={res.worst:.3e} (tol 1e-5), {elapsed:.1f}s (budget 10s)")


def test_criterion_05_partial_sum_bounds():
    t0 = time.time()
    res = verify.check_partial_sum_bounds(cases=1000, seed=2024)
    elapsed = time.time() - t0
    ok = res.passed and elapsed <= 1.0
    _report(5, "partial-sum bounds", ok,
            f"violations beyond 0: {res.worst:.1e}, {elapsed:.2f}s (budget 1s)")


def test_criterion_06_asymptotics():
    t0 = time.time()
    cfg = SweepConfig(snr_db_start=-10.0, snr_db_stop=30.0, snr_db_step=2.0)
    points = sweep(cfg)
    increasing = all(
        b.i_star_nats >= a.i_star_nats - 1e-12 for a, b in zip(points, points[1:])
    )
    top = points[-1].i_star_nats
    pt = solve_a2_star(1e6)
    elapsed = time.time() - t0
    ok = (
        increasing
        and top >= 0.64
        and abs(pt.i_star_nats - LOG2) <= 1e-2
        and abs(pt.a2_star - 0.5) <= 2e-2
    )
    _report(6, "asymptotics", ok,
            f"i*(30dB)={top:.4f} (>=0.64), increasing={increasing}, "
            f"|i*(1e6)-log2|={abs(pt.i_star_nats - LOG2):.2e} (tol 1e-2), "
            f"|a2*-1/2|={abs(pt.a2_star - 0.5):.2e} (tol 2e-2), {elapsed:.1f}s")


def test_criterion_07_entropy_limit():
    t0 = time.time()
    ch = ChannelParams(1.0)
    gaps = [
        HB_03 - mi.mutual_information(TwoPointInput(0.3, x2), ch).nats
        for x2 in (10.0, 100.0, 1000.0)
    ]
    elapsed = time.time() - t0
    ok = gaps[0] > gaps[1] > gaps[2] > 0.0 and gaps[2] <= 2e-3
    _report(7, "large-x2 entropy limit", ok,
            f"gaps={[f'{g:.2e}' for g in gaps]} strictly decreasing, "
            f"final <= 2e-3, {elapsed:.1f}s")


def test_criterion_08_scale_invariance():
    t0 = time.time()
    res = verify.check_scale_invariance(configs=20, seed=5)
    elapsed = time.time() - t0
    ok = res.worst <= 1e-12
    _report(8, "scale invariance", ok,
            f"worst={res.worst:.3e} (tol 1e-12), {elapsed:.1f}s")


def test_criterion_09_solver_vs_brute_force():
    t0 = time.time()
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(10):
        snr_db = float(rng.uniform(-10.0, 30.0))
        snr = 10.0 ** (snr_db / 10.0)
        pt = solve_a2_star(snr)
        grid = np.linspace(1e-6, 1.0 - 1e-6, 10_000)
        best = max(_mi_capacity(float(a), snr) for a in grid)
        assert pt.i_star_nats >= best - 1e-10
        worst = max(worst, pt.i_star_nats - best)
    # the worked -5 dB case against the quadrature back-end on its own grid
    snr = 10.0**-0.5
    pt = solve_a2_star(snr)
    ch = ChannelParams(sigma2=1.0, power_budget=snr)
    grid_q = np.linspace(1e-4, 1.0 - 1e-4, 10_000)
    best_q = max(
        oracle.mi_quadrature(TwoPointInput(float(a), math.sqrt(snr / a)), ch)
        for a in grid_q
    )
    gap_q = pt.i_star_nats - best_q
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and -1e-9 <= gap_q <= 1e-6
    _report(9, "solver vs brute-force grid", ok,
            f"max(i* - grid max)={worst:.3e} over 10 SNRs (tol 1e-6), "
            f"-5dB quadrature-grid gap={gap_q:.3e}, {elapsed:.1f}s")


def test_criterion_10_monte_carlo_concordance():
    t0 = time.time()
    rng = np.random.default_rng(77)
    ch = ChannelParams(1.0)
    within = 0
    n_cfg = 40
    for i in range(n_cfg):
        a2 = float(rng.uniform(0.05, 0.95))
        x2 = float(10 ** rng.uniform(-0.5, 1.0))
        inp = TwoPointInput(a2, x2)
        est, se = oracle.mi_monte_carlo(inp, ch, samples=10**6, seed=i)
        closed = mi.mutual_information(inp, ch).nats
        if abs(est - closed) <= 4.0 * se:
            within += 1
    elapsed = time.time() - t0
    ok = within >= 38 and elapsed <= 120.0
    _report(10, "Monte-Carlo concordance", ok,
            f"{within}/{n_cfg} within 4 standard errors (need >= 38), "
            f"{elapsed:.1f}s (budget 120s)")


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    env = dict(os.environ)
    env.pop("NONCOH_FAULT_INJECT", None)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [sys.executable, "-m", "noncoh.cli", "sweep",
            "--from-db", "-10", "--to-db", "30", "--step-db", "1"]
    r1 = subprocess.run(args + ["--out", str(a)], capture_output=True, env=env)
    r2 = subprocess.run(args + ["--out", str(b)], capture_output=True, env=env)
    identical = a.read_bytes() == b.read_bytes()
    rows = len(a.read_text().strip().splitlines()) - 1
    t_quick0 = time.time()
    rv = subprocess.run(
        [sys.executable, "-m", "noncoh.cli", "verify", "--quick"],
        capture_output=True,
        env=env,
        timeout=30,
    )
    t_quick = time.time() - t_quick0
    elapsed = time.time() - t0
    ok = (
        r1.returncode == 0
        and r2.returncode == 0
        and identical
        and rows == 41
        and rv.returncode == 0
        and t_quick <= 30.0
    )
    _report(11, "determinism", ok,
            f"sweep byte-identical={identical} ({rows} rows), "
            f"verify --quick rc={rv.returncode} in {t_quick:.1f}s (budget 30s), "
            f"total {elapsed:.1f}s")
