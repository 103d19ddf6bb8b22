"""Capacity-mode optimization over the two-mass-point input.

For each SNR the nonzero mass point is tied to its probability through
x2^2 = P/a2, so the mutual information becomes a function of a2 alone;
the optimum satisfies dI/da2 = 0 and is located by scanning the analytic
derivative for sign changes on a short grid uniform in log a2 and
refining each bracket in log a2.  All SNR points of a call are solved in
lock-step: one array-valued dI/da2 call scans the bracketing grids of every
point (P as a column), Chandrupatla's bracketing iteration (_refine) refines
every sign change at once, starting from the scan's own dI/da2 at the
bracket ends and making one kernel call per iteration for the brackets
still open, and one more batched call scores every point's candidates (its
roots and both scan edges) and gives the residual of the winner.  A point
whose winner is a scan edge, or whose I* exceeds the coherent capacity
log(1+SNR), is a FAILED row.  The solver works in the SNR = P/sigma^2 alone
(t = x2^2/sigma^2 = SNR/a2, see mi); sigma^2 only sets the unit of x2*.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq  # noqa: F401 - unused; bench/ traces this name

from .channel import ChannelParams, snr_from_db, snr_to_db
from .errors import DomainError, SolverFailure
from .mi import _check_snr, _mi_and_derivative
from .mi import mi_derivative_a2  # noqa: F401 - unused; bench/ traces this name
from .mi import mutual_information  # noqa: F401 - unused; bench/ traces this name

_A2_EDGE = 1e-6  # the scan's lower edge is _A2_EDGE min(SNR, 1); I -> 0 there
_A2_TOP = 1.0 - 1e-12  # the scan's upper edge; I -> 0 there too
_GRID_POINTS = 8  # the dI/da2 bracketing scan, uniform in log a2
# _refine's stopping tests: xatol on t = log a2 is a relative tolerance on
# a2; the rest, and the cap (the bisections that fit in the normal floats),
# are the defaults of scipy.optimize.elementwise.find_root
_XATOL = 1e-15
_XRTOL = 4.0 * np.finfo(float).eps
_FATOL = np.finfo(float).tiny
_MAX_ITER = math.log2(np.finfo(float).max) - math.log2(np.finfo(float).tiny)


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


def _deriv(a2, snr):
    """dI/da2 with x2^2/sigma^2 = SNR/a2, elementwise over a2 and the SNR
    (arrays that broadcast together), in one kernel call."""
    return _mi_and_derivative(a2, snr / a2, True)[1]


def _scan(snr):
    """log a2 of each SNR's dI/da2 bracketing scan, one row per SNR (a 1-D
    array): _GRID_POINTS values uniform in log a2, from _A2_EDGE min(SNR, 1),
    which lies under every optimum, to _A2_TOP.  DomainError, naming the
    SNR, where a number of dI/da2 leaves the normal float range at an edge
    (see mi._check_snr)."""
    lo = _A2_EDGE * np.minimum(snr, 1.0)
    _check_snr(np.column_stack([lo, np.full_like(lo, _A2_TOP)]), snr)
    return np.linspace(np.log(lo), math.log(_A2_TOP), _GRID_POINTS, axis=-1)


def _refine(f, x1, x2, f1, f2, p):
    """The root of f(x, p) in each bracket [x1, x2] (1-D arrays, with f's
    values f1 and f2 at its ends), by Chandrupatla's hybrid inverse-quadratic
    / bisection iteration (Adv. Eng. Software 28(3), 1997), in lock-step: each
    iteration makes one call of f on the brackets still open, with their
    entries of p.  It takes the steps and stopping tests of scipy's
    find_root(f, (x1, x2), args=(p,), tolerances={"xatol": _XATOL}),
    which the tests hold it to bit for bit, without evaluating the ends.

    Returns x, status and iterations per bracket.  x is the end of the final
    bracket with the smaller |f|; status is 0 when |f| <= _FATOL there or the
    bracket is narrower than _XRTOL |x| + _XATOL, -1 when the ends' signs
    agree, -3 for a non-finite end or two NaN values (x is NaN for both) and
    -2 when _MAX_ITER iterations did not end it.  Each iteration evaluates f
    once per open bracket, so the iterations are also its evaluations.
    """
    n = x1.size
    x, status, nit = np.empty(n), np.empty(n, dtype=int), np.empty(n, dtype=int)
    with np.errstate(invalid="ignore"):  # 0 inf is NaN: no |f| test there
        ftol = _FATOL + 0.0 * np.minimum(np.abs(f1), np.abs(f2))
    open_ = np.arange(n)
    it, t = 0, 0.5
    while True:
        smaller = np.abs(f1) < np.abs(f2)
        xmin = np.where(smaller, x1, x2)
        done = np.abs(np.where(smaller, f1, f2)) <= ftol
        bad = (np.sign(f1) == np.sign(f2)) & ~done
        nonfinite = ~(np.isfinite(x1) & np.isfinite(x2)) | (np.isnan(f1) & np.isnan(f2))
        invalid = nonfinite & ~(done | bad)
        xmin[bad | invalid] = math.nan
        dx = np.abs(x2 - x1)
        tol = np.abs(xmin) * _XRTOL + _XATOL
        done |= dx < tol
        # at the cap the brackets still open stop too, with status -2
        stop = done | bad | invalid | (it >= _MAX_ITER)
        k = open_[stop]
        x[k], nit[k] = xmin[stop], it
        status[k] = np.where(done, 0, np.where(bad, -1, np.where(invalid, -3, -2)))[stop]
        if stop.all():
            return x, status, nit
        go = ~stop
        open_, x1, x2, f1, f2, p, ftol = (a[go] for a in (open_, x1, x2, f1, f2, p, ftol))
        if it:
            # the inverse-quadratic step where it is safe (Chandrupatla's
            # eq. 1), else bisection, kept half a tolerance inside the bracket
            x3, f3, dx, tol = x3[go], f3[go], dx[go], tol[go]
            xi1 = (x1 - x2) / (x3 - x2)
            with np.errstate(divide="ignore", invalid="ignore"):
                phi1 = (f1 - f2) / (f3 - f2)
            alpha = (x3 - x1) / (x2 - x1)
            j = ((1 - np.sqrt(1 - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
            f1j, f2j, f3j, alphaj = f1[j], f2[j], f3[j], alpha[j]
            t = np.full_like(alpha, 0.5)
            t[j] = (f1j / (f1j - f2j) * f3j / (f3j - f2j)
                    - alphaj * f1j / (f3j - f1j) * f2j / (f2j - f3j))
            tl = 0.5 * tol / dx
            t = np.clip(t, tl, 1 - tl)
        xn = x1 + t * (x2 - x1)
        fn = f(xn, p)
        # keep the end whose sign differs from the new point's
        same = np.sign(fn) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = xn, fn
        it += 1


def _solve(snr: list[float]):
    """Every SNR point in lock-step: arrays of a2*, I*, the roots found and
    |dI/da2| at a2*, and each point's diagnostics, which give the reason
    under "failure" for a point that failed."""
    n = len(snr)
    gamma = np.array(snr)
    t = _scan(gamma)
    grid = np.exp(t)
    dvals = _deriv(grid, gamma[:, None])
    # each point's roots in grid order: its exact zeros on the grid and one
    # in every sign change
    roots = np.where(dvals == 0.0, grid, np.nan)
    pt, lo = np.nonzero(dvals[:, :-1] * dvals[:, 1:] < 0.0)
    # refined in t = log a2, where _XATOL bounds the root's relative error,
    # from the scan's dI/da2 at the bracket ends
    t_root, status, nit = _refine(lambda tt, pp: _deriv(np.exp(tt), pp), t[pt, lo],
                                  t[pt, lo + 1], dvals[pt, lo], dvals[pt, lo + 1], gamma[pt])
    roots[pt, lo] = np.exp(t_root)
    n_roots = np.count_nonzero(~np.isnan(roots), axis=1)
    unconverged = np.bincount(pt[status != 0], minlength=n) > 0
    nit = np.bincount(pt, nit, minlength=n)

    # each point's candidates, its roots and then both scan edges, scored in
    # one call; the first maximum wins, and its dI/da2 is the residual
    cand = np.column_stack([roots, grid[:, 0], grid[:, -1]])
    cand[unconverged] = np.nan
    kc, jc = np.nonzero(~np.isnan(cand))
    i_val = np.full(cand.shape, -math.inf)
    d_val = np.full(cand.shape, math.nan)
    i_val[kc, jc], d_val[kc, jc] = _mi_and_derivative(
        cand[kc, jc], gamma[kc] / cand[kc, jc], True)
    best = np.argmax(i_val, axis=1)
    rows = np.arange(n)
    a2_star, i_star = cand[rows, best], i_val[rows, best]
    residual = np.abs(d_val[rows, best])
    mi_calls = np.bincount(kc, minlength=n)

    diags = []
    for k in range(n):
        diag = {"grid_rows": _GRID_POINTS, "root_iterations": int(nit[k]),
                "mi_calls": int(mi_calls[k])}
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
        diags.append(diag)
    return a2_star, i_star, n_roots, residual, diags


def solve_a2_star(snr_linear, *, sigma2: float = 1.0):
    """Locate a2* = argmax of the two-point mutual information at each SNR.

    snr_linear is a float or a 1-D array of SNRs.  All points are solved
    in lock-step.  Each point's dI/da2 is scanned on its own 8-point grid,
    uniform in log a2 from 1e-6 min(SNR, 1), which lies under every optimum,
    to 1 - 1e-12, with every point in one batched analytic call (every
    entry, alpha = 1/n included, comes from the closed form).  Every sign
    change is refined by Chandrupatla's bracketing iteration (_refine), in
    lock-step, in t = log a2 to an xatol of 1e-15, a relative tolerance in
    a2; it starts from the scan's dI/da2 at the bracket ends and makes one
    batched call per iteration for the brackets still open.  One more
    batched call gives I and dI/da2 at every point's candidates, its roots
    and both scan edges, and the first with maximal I wins, its |dI/da2|
    being the residual.

    An array returns one CapacityPoint per SNR.  A point is a FAILED row
    when its root-finder did not converge, when no candidate has positive
    I, when a scan edge wins (no root), or when the winner's I exceeds the
    coherent capacity log(1+SNR), which no input can beat; its diagnostics
    give the reason under "failure".  A float returns its
    CapacityPoint and raises SolverFailure with that reason instead.  Each
    point's diagnostics give its grid rows, the refinement's iterations over
    its brackets (root_iterations, also its kernel rows, since the bracket
    ends come from the scan), and its number of I values (mi_calls).  The
    solve runs in the SNR alone: sigma2 only sets x2* = sigma sqrt(SNR/a2*).
    """
    snr = np.asarray(snr_linear, dtype=float)
    if snr.ndim > 1:
        raise SolverFailure("snr_linear must be a float or a 1-D array")
    if not (snr > 0.0).all():
        raise SolverFailure("snr_linear must be positive")
    sigma = math.sqrt(ChannelParams(sigma2).sigma2)  # DomainError unless 0 < sigma2 < inf
    snr_list = np.atleast_1d(snr).tolist()
    a2_star, i_star, n_roots, residual, diags = _solve(snr_list)
    points = []
    for k, (s, diag) in enumerate(zip(snr_list, diags)):
        db = snr_to_db(s)
        if "failure" in diag:
            points.append(CapacityPoint(db, s, math.nan, math.nan, math.nan, "FAILED", 0,
                                        math.nan, diag))
            continue
        a2 = float(a2_star[k])
        points.append(CapacityPoint(db, s, a2, sigma * math.sqrt(s / a2), float(i_star[k]),
                                    classify_regime(db), int(n_roots[k]),
                                    float(residual[k]), diag))
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
    # the slack absorbs rounding in the quotient without admitting a point
    # past snr_db_stop
    n_steps = math.floor((cfg.snr_db_stop - cfg.snr_db_start) / cfg.snr_db_step + 1e-9)
    snr = [snr_from_db(cfg.snr_db_start + i * cfg.snr_db_step) for i in range(n_steps + 1)]
    points = solve_a2_star(np.array(snr), sigma2=ch.sigma2 if ch is not None else 1.0)
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
    one batched call, computed in t = SNR/a2 alone."""
    a2 = np.asarray(a2_grid, dtype=float)
    if not ((0.0 < a2) & (a2 < 1.0)).all():
        raise SolverFailure("profile grid values must lie in (0, 1)")
    _check_snr(a2, snr_linear)
    nats, _ = _mi_and_derivative(a2, snr_linear / a2, True)
    return list(zip(a2.tolist(), nats.tolist()))
