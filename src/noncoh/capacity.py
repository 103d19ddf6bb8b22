"""Capacity-mode optimization over the two-mass-point input.

For each SNR the nonzero mass point is tied to its probability through
x2^2 = P/a2, so the mutual information becomes a function of a2 alone;
the optimum satisfies dI/da2 = 0 and is located by scanning the analytic
derivative for sign changes and refining each bracket.  The whole scan grid
is evaluated in one array-valued dI/da2 call; brentq then refines each
bracket with scalar calls.  A sweep solves its SNR points in order on the
calling thread.  The maximum only depends on P and sigma^2 through their
ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .channel import ChannelParams, TwoPointInput, snr_to_db
from .errors import SolverFailure
from .mi import (
    DEFAULT_POLICY,
    EvalPolicy,
    mi_derivative_a2,
    mi_derivative_a2_capacity,
    mutual_information,
)

LOG2 = math.log(2.0)

_A2_EDGE = 1e-6  # x2^2 = P/a2 blows past float range at the ends; I -> 0 there


@dataclass(frozen=True)
class CapacityPoint:
    snr_db: float
    snr_linear: float
    a2_star: float
    x2_star: float
    i_star_nats: float
    regime: str
    roots_found: int
    solver_residual: float


@dataclass(frozen=True)
class SweepConfig:
    snr_db_start: float = -10.0
    snr_db_stop: float = 30.0
    snr_db_step: float = 1.0
    solver_tol: float = 1e-10
    grid_points_for_bracketing: int = 64

    def __post_init__(self):
        if self.snr_db_step <= 0.0:
            raise ValueError("snr_db_step must be positive")
        if self.snr_db_start > self.snr_db_stop:
            raise ValueError("snr_db_start must not exceed snr_db_stop")


def classify_regime(snr_db: float) -> str:
    """Two mass points achieve capacity up to ~0 dB and stay within 0.02
    nats of it up to 10 dB; beyond that the result is only the best
    two-point mutual information."""
    if snr_db <= 0.0:
        return "Capacity"
    if snr_db <= 10.0:
        return "LowerBound"
    return "TwoPointOptimum"


def _mi_at(a2: float, ch: ChannelParams, policy: EvalPolicy) -> float:
    inp = TwoPointInput(a2=a2, x2=math.sqrt(ch.power_budget / a2))
    return mutual_information(inp, ch, policy).nats


def _deriv_at(a2: float, ch: ChannelParams, policy: EvalPolicy) -> float:
    inp = TwoPointInput(a2=a2, x2=math.sqrt(ch.power_budget / a2))
    return mi_derivative_a2(inp, ch, policy)


def _golden_max(f, lo, hi, tol):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def solve_a2_star(
    snr_linear: float,
    cfg: SweepConfig = SweepConfig(),
    *,
    sigma2: float = 1.0,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> CapacityPoint:
    """Locate a2* = argmax of the two-point mutual information at this SNR.

    Scans dI/da2 on a bracketing grid over (eps, 1-eps) with one batched
    analytic call (every entry, alpha = 1/n included, comes from the closed
    form), refines every sign change by brentq on the scalar analytic
    derivative, and returns the root with maximal I (grid endpoints included
    as candidates).  If no sign change is found, falls back to golden-section
    maximization of I and reports roots_found = 0.
    """
    if snr_linear <= 0.0:
        raise SolverFailure("snr_linear must be positive")
    ch = ChannelParams(sigma2=sigma2, power_budget=snr_linear * sigma2)
    deriv = lambda a2: _deriv_at(a2, ch, policy)
    grid = np.linspace(_A2_EDGE, 1.0 - _A2_EDGE, cfg.grid_points_for_bracketing)
    dvals = mi_derivative_a2_capacity(grid, ch, policy)
    roots = []
    for i in range(len(grid) - 1):
        lo, hi = float(grid[i]), float(grid[i + 1])
        dlo, dhi = dvals[i], dvals[i + 1]
        if dlo == 0.0:
            roots.append(lo)
        elif dlo * dhi < 0.0:
            # xtol bounds the root location; the residual contract needs
            # |dI/da2| <= solver_tol, so refine well past it
            roots.append(
                brentq(deriv, lo, hi, xtol=max(1e-14, 0.01 * cfg.solver_tol),
                       rtol=8.9e-16)
            )
    if dvals[-1] == 0.0:
        roots.append(float(grid[-1]))
    candidates = list(roots) + [float(grid[0]), float(grid[-1])]
    if not roots:
        candidates.append(_golden_max(lambda a: _mi_at(a, ch, policy),
                                      _A2_EDGE, 1.0 - _A2_EDGE, cfg.solver_tol))
    best_a2, best_i = None, -math.inf
    for a2 in candidates:
        val = _mi_at(a2, ch, policy)
        if val > best_i:
            best_a2, best_i = a2, val
    if best_a2 is None or not best_i > 0.0:
        raise SolverFailure(f"no positive-MI optimum found at snr={snr_linear}")
    return CapacityPoint(
        snr_db=snr_to_db(snr_linear),
        snr_linear=snr_linear,
        a2_star=best_a2,
        x2_star=math.sqrt(ch.power_budget / best_a2),
        i_star_nats=best_i,
        regime=classify_regime(snr_to_db(snr_linear)),
        roots_found=len(roots),
        solver_residual=abs(deriv(best_a2)),
    )


def sweep(
    cfg: SweepConfig,
    ch: ChannelParams | None = None,
    *,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> list[CapacityPoint]:
    """One CapacityPoint per SNR grid value, ordered ascending in SNR.

    Failed points are recorded with regime "FAILED" rather than dropped.
    A nonmonotone i_star sequence (beyond 1e-9) raises a warning.
    """
    sigma2 = ch.sigma2 if ch is not None else 1.0
    # the slack absorbs rounding in the quotient without admitting a point
    # past snr_db_stop
    n_steps = math.floor((cfg.snr_db_stop - cfg.snr_db_start) / cfg.snr_db_step + 1e-9)
    points = []
    for i in range(n_steps + 1):
        db = cfg.snr_db_start + i * cfg.snr_db_step
        try:
            points.append(solve_a2_star(10.0 ** (db / 10.0), cfg, sigma2=sigma2,
                                        policy=policy))
        except SolverFailure:
            points.append(CapacityPoint(db, 10.0 ** (db / 10.0), math.nan, math.nan,
                                        math.nan, "FAILED", 0, math.nan))
    for prev, cur in zip(points, points[1:]):
        if (
            math.isfinite(prev.i_star_nats)
            and math.isfinite(cur.i_star_nats)
            and cur.i_star_nats < prev.i_star_nats - 1e-9
        ):
            warnings.warn(
                f"i_star decreased between {prev.snr_db} dB and {cur.snr_db} dB",
                stacklevel=2,
            )
    return points


def mi_profile(
    snr_linear: float,
    a2_grid,
    *,
    sigma2: float = 1.0,
    policy: EvalPolicy = DEFAULT_POLICY,
) -> list[tuple[float, float]]:
    """Mutual information along a grid of a2 values with x2^2 = P/a2."""
    ch = ChannelParams(sigma2=sigma2, power_budget=snr_linear * sigma2)
    out = []
    for a2 in a2_grid:
        if not 0.0 < a2 < 1.0:
            raise SolverFailure("profile grid values must lie in (0, 1)")
        out.append((float(a2), _mi_at(float(a2), ch, policy)))
    return out
