"""Capacity-mode optimization over the two-mass-point input.

For each SNR the nonzero mass point is tied to its probability through
x2^2 = P/a2, so the mutual information becomes a function of a2 alone;
the optimum satisfies dI/da2 = 0 and is located by scanning the analytic
derivative for sign changes on a short grid uniform in log a2 and
refining each bracket in log a2.  All SNR points of a call are solved in
lock-step: one array-valued dI/da2 call scans the bracketing grids of every
point (P as a column), one call of scipy's vectorized bracketing
root-finder (Chandrupatla's method) refines every sign change, and one more
batched call scores every point's candidates (its roots and both scan
edges) and gives the residual of the winner.  A point whose winner is a
scan edge, or whose I* exceeds the coherent capacity log(1+SNR), is a
FAILED row.  The maximum only depends on P and sigma^2 through their ratio.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq  # noqa: F401 - unused; bench/ traces this name
from scipy.optimize.elementwise import find_root

from .channel import ChannelParams, snr_from_db, snr_to_db
from .errors import DomainError, SolverFailure
from .mi import _check_snr, _mi_and_derivative
from .mi import mi_derivative_a2  # noqa: F401 - unused; bench/ traces this name
from .mi import mutual_information  # noqa: F401 - unused; bench/ traces this name

_A2_EDGE = 1e-6  # the scan's lower edge is _A2_EDGE min(SNR, 1); I -> 0 there
_A2_TOP = 1.0 - 1e-12  # the scan's upper edge; I -> 0 there too
_GRID_POINTS = 8  # the dI/da2 bracketing scan, uniform in log a2


@dataclass(frozen=True)
class CapacityPoint:
    """The optimum at one SNR.  diagnostics holds the solver's work for the
    point (see solve_a2_star); it takes no part in comparisons."""

    snr_db: float
    snr_linear: float
    a2_star: float
    x2_star: float
    i_star_nats: float
    regime: str
    roots_found: int
    solver_residual: float
    diagnostics: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class SweepConfig:
    snr_db_start: float = -10.0
    snr_db_stop: float = 30.0
    snr_db_step: float = 1.0

    def __post_init__(self):
        for name in ("snr_db_start", "snr_db_stop", "snr_db_step"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite")
        if self.snr_db_step <= 0.0:
            raise DomainError("snr_db_step must be positive")
        if self.snr_db_start > self.snr_db_stop:
            raise DomainError("snr_db_start must not exceed snr_db_stop")


def classify_regime(snr_db: float) -> str:
    """Two mass points achieve capacity up to ~0 dB and stay within 0.02
    nats of it up to 10 dB; beyond that the result is only the best
    two-point mutual information."""
    if snr_db <= 0.0:
        return "Capacity"
    if snr_db <= 10.0:
        return "LowerBound"
    return "TwoPointOptimum"


def _deriv(a2, p, s2):
    """dI/da2 with x2^2 = p/a2, elementwise over a2 and p (arrays that
    broadcast together), in one kernel call."""
    return _mi_and_derivative(a2, p / a2, s2, True)[1]


def _scan(snr, s2):
    """log a2 of each SNR's dI/da2 bracketing scan, one row per SNR (a 1-D
    array): _GRID_POINTS values uniform in log a2, from _A2_EDGE min(SNR, 1),
    which lies under every optimum, to _A2_TOP.  DomainError, naming the
    SNR, where phi's arguments overflow at an edge."""
    lo = _A2_EDGE * np.minimum(snr, 1.0)
    _check_snr(np.column_stack([lo, np.full_like(lo, _A2_TOP)]), snr, s2)
    return np.linspace(np.log(lo), math.log(_A2_TOP), _GRID_POINTS, axis=-1)


def _solve(snr: list[float], sigma2: float):
    """Every SNR point in lock-step, one CapacityPoint each; a failed point
    is a FAILED row whose diagnostics give the reason under "failure"."""
    n = len(snr)
    t = _scan(np.array(snr), sigma2)
    grid = np.exp(t)
    p = np.array(snr) * sigma2
    dvals = _deriv(grid, p[:, None], sigma2)
    # each point's roots in grid order: its exact zeros on the grid and one
    # in every sign change
    roots = np.where(dvals == 0.0, grid, np.nan)
    pt, lo = np.nonzero(dvals[:, :-1] * dvals[:, 1:] < 0.0)
    # refined in t = log a2, where xatol bounds the root's relative error
    res = find_root(
        lambda tt, pp: _deriv(np.exp(tt), pp, sigma2), (t[pt, lo], t[pt, lo + 1]),
        args=(p[pt],), tolerances={"xatol": 1e-15},
    )
    roots[pt, lo] = np.exp(res.x)
    n_roots = np.count_nonzero(~np.isnan(roots), axis=1)
    unconverged = np.bincount(pt[~res.success], minlength=n) > 0
    nit = np.bincount(pt, res.nit, minlength=n)
    nfev = np.bincount(pt, res.nfev, minlength=n)

    # each point's candidates, its roots and then both scan edges, scored in
    # one call; the first maximum wins, and its dI/da2 is the residual
    cand = np.column_stack([roots, grid[:, 0], grid[:, -1]])
    cand[unconverged] = np.nan
    kc, jc = np.nonzero(~np.isnan(cand))
    i_val = np.full(cand.shape, -math.inf)
    d_val = np.full(cand.shape, math.nan)
    i_val[kc, jc], d_val[kc, jc] = _mi_and_derivative(
        cand[kc, jc], p[kc] / cand[kc, jc], sigma2, True)
    best = np.argmax(i_val, axis=1)
    rows = np.arange(n)
    a2_star, i_star = cand[rows, best], i_val[rows, best]
    residual = np.abs(d_val[rows, best])
    mi_calls = np.bincount(kc, minlength=n)

    out = []
    for k in range(n):
        db = snr_to_db(snr[k])
        diag = {"grid_rows": _GRID_POINTS, "root_iterations": int(nit[k]),
                "root_evaluations": int(nfev[k]), "mi_calls": int(mi_calls[k])}
        if unconverged[k]:
            diag["failure"] = f"root-finder did not converge at snr={snr[k]}"
        elif not i_star[k] > 0.0:
            diag["failure"] = f"no positive-MI optimum found at snr={snr[k]}"
        elif best[k] >= _GRID_POINTS:
            diag["failure"] = (f"no root at snr={snr[k]}: the best candidate is the scan "
                               f"edge a2={float(a2_star[k])!r}, where |dI/da2| = "
                               f"{residual[k]:.3g}")
        elif i_star[k] > math.log1p(snr[k]):
            diag["failure"] = (f"I* = {float(i_star[k])!r} nats at snr={snr[k]} exceeds "
                               f"the coherent capacity log(1+SNR) = "
                               f"{math.log1p(snr[k])!r}")
        if "failure" in diag:
            out.append(CapacityPoint(db, snr[k], math.nan, math.nan, math.nan,
                                     "FAILED", 0, math.nan, diag))
            continue
        a2 = float(a2_star[k])
        out.append(CapacityPoint(db, snr[k], a2, math.sqrt(p[k] / a2), float(i_star[k]),
                                 classify_regime(db), int(n_roots[k]),
                                 float(residual[k]), diag))
    return out


def solve_a2_star(snr_linear, *, sigma2: float = 1.0):
    """Locate a2* = argmax of the two-point mutual information at each SNR.

    snr_linear is a float or a 1-D array of SNRs.  All points are solved
    in lock-step.  Each point's dI/da2 is scanned on its own 8-point grid,
    uniform in log a2 from 1e-6 min(SNR, 1), which lies under every optimum,
    to 1 - 1e-12, with every point in one batched analytic call (every
    entry, alpha = 1/n included, comes from the closed form).  Every sign
    change is refined in one call of scipy's vectorized find_root, in
    t = log a2 to an xatol of 1e-15, a relative tolerance in a2.  One more
    batched call gives I and dI/da2 at every point's candidates, its roots
    and both scan edges, and the first with maximal I wins, its |dI/da2|
    being the residual.

    An array returns one CapacityPoint per SNR.  A point is a FAILED row
    when its root-finder did not converge, when no candidate has positive
    I, when a scan edge wins (no root), or when the winner's I exceeds the
    coherent capacity log(1+SNR), which no input can beat; its diagnostics
    give the reason under "failure".  A float returns its
    CapacityPoint and raises SolverFailure with that reason instead.  Each
    point's diagnostics give its grid rows, the root-finder's iterations
    and evaluations over its brackets, and its number of I values
    (mi_calls).
    """
    snr = np.asarray(snr_linear, dtype=float)
    if snr.ndim > 1:
        raise SolverFailure("snr_linear must be a float or a 1-D array")
    if not (snr > 0.0).all():
        raise SolverFailure("snr_linear must be positive")
    points = _solve(np.atleast_1d(snr).tolist(), sigma2)
    if snr.ndim:
        return points
    (point,) = points
    if point.regime == "FAILED":
        raise SolverFailure(point.diagnostics["failure"])
    return point


def sweep(cfg: SweepConfig, ch: ChannelParams | None = None) -> list[CapacityPoint]:
    """One CapacityPoint per SNR grid value, ordered ascending in SNR, from
    one lock-step solve_a2_star call over the whole grid.

    Failed points are recorded with regime "FAILED" rather than dropped.
    A nonmonotone i_star sequence (beyond 1e-9) raises a warning.
    """
    sigma2 = ch.sigma2 if ch is not None else 1.0
    # the slack absorbs rounding in the quotient without admitting a point
    # past snr_db_stop
    n_steps = math.floor((cfg.snr_db_stop - cfg.snr_db_start) / cfg.snr_db_step + 1e-9)
    snr = [snr_from_db(cfg.snr_db_start + i * cfg.snr_db_step) for i in range(n_steps + 1)]
    points = solve_a2_star(np.array(snr), sigma2=sigma2)
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


def mi_profile(snr_linear: float, a2_grid) -> list[tuple[float, float]]:
    """Mutual information along a grid of a2 values with x2^2 = P/a2, in
    one batched call; it depends on P and sigma^2 only through the SNR."""
    a2 = np.asarray(a2_grid, dtype=float)
    if not ((0.0 < a2) & (a2 < 1.0)).all():
        raise SolverFailure("profile grid values must lie in (0, 1)")
    _check_snr(a2, snr_linear, 1.0)
    nats, _ = _mi_and_derivative(a2, snr_linear / a2, 1.0, True)
    return list(zip(a2.tolist(), nats.tolist()))
