"""Capacity-mode optimization over the two-mass-point input.

For each SNR the nonzero mass point is tied to its probability through
x2^2 = P/a2, so the mutual information becomes a function of a2 alone;
the optimum satisfies dI/da2 = 0 and is located by scanning the analytic
derivative for sign changes on a short grid uniform in log a2 and
refining each bracket in log a2.  All SNR points of a call are solved in
lock-step: one array-valued call gives phi and dI/da2 on the bracketing
grids of every point (the SNR as a column), and Chandrupatla's bracketing
iteration (_refine) refines every sign change at once, starting from the
scan's values at the bracket ends and making one kernel call per iteration
for the brackets still open, carrying phi = 2F1(1, b; b+1; -u) beside
dI/da2.  Every candidate of a point (its roots and both scan edges) is then
a point where phi and dI/da2 are already in hand, so no kernel call follows
the refinement: I is assembled from phi at the candidates alone, the first
with maximal I wins, and its |dI/da2| is the residual.  A point whose
winner is a scan edge, or whose I* exceeds the coherent capacity
log(1+SNR), is a FAILED row.  The solver works in the SNR = P/sigma^2 alone
(t = x2^2/sigma^2 = SNR/a2, see mi); sigma^2 only sets the unit of x2*.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, snr_from_db, snr_to_db
from .errors import DomainError, SolverFailure
from .mi import _check_snr, _mi_deriv, _mi_of_phi, _phi_deriv
from .mi import mi_derivative_a2  # noqa: F401 - unused; bench/ traces this name
from .mi import mutual_information  # noqa: F401 - unused; bench/ traces this name

_A2_EDGE = 1e-6  # the scan's lower edge is _A2_EDGE min(SNR, 1); I -> 0 there
_A2_TOP = 1.0 - 1e-12  # the scan's upper edge; I -> 0 there too
_GRID_POINTS = 8  # the dI/da2 bracketing scan, uniform in log a2
_GRID_STEPS = np.arange(float(_GRID_POINTS))  # k = 0..7 of the scan's log a2 grid
_LOG_A2_TOP = math.log(_A2_TOP)
# _refine's stopping tests: xatol on t = log a2 is a relative tolerance on
# a2; the rest, and the cap (the bisections that fit in the normal floats),
# are the defaults of scipy.optimize.elementwise.find_root.  The operands of
# _refine's arithmetic are 0-d arrays: numpy converts a Python float operand
# anew on every call, at about as much as the arithmetic of 81 brackets
_XATOL = np.array(1e-15)
_XRTOL = np.array(4.0 * np.finfo(float).eps)
_HALF, _ONE = np.array(0.5), np.array(1.0)
_FATOL = np.finfo(float).tiny
_MAX_ITER = math.log2(np.finfo(float).max) - math.log2(np.finfo(float).tiny)
# the most points of a sweep or profile grid: a 10^5-point sweep takes about
# 2 s and 180 MB peak RSS on a 2-CPU x86-64 host, growing with the points
MAX_GRID_POINTS = 100_000


def __getattr__(name):
    """capacity.brentq: scipy's brentq, unused here, is imported and bound
    into this module on first lookup, so that bench/layertrace.py, which
    hooks it, finds it in vars(capacity) while the solver loads no scipy.
    Only the benchmark, which imports scipy itself, looks it up, so scipy
    is no runtime dependency (it is in the test extra).  The benchmark's
    trace update (ROADMAP item 14) deletes this shim."""
    if name == "brentq":
        from scipy.optimize import brentq

        globals()["brentq"] = brentq
        return brentq
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        if not math.isfinite((self.snr_db_stop - self.snr_db_start) / self.snr_db_step):
            raise DomainError("(snr_db_stop - snr_db_start)/snr_db_step, the number of "
                              "grid steps, must be finite")
        if self.points > MAX_GRID_POINTS:
            raise DomainError(f"the SNR grid has {self.points:.6g} points, more than the "
                              f"cap of {MAX_GRID_POINTS}")

    @property
    def points(self) -> int:
        """The grid's number of SNR points; the slack absorbs rounding in the
        quotient without admitting a point past snr_db_stop."""
        return math.floor((self.snr_db_stop - self.snr_db_start) / self.snr_db_step
                          + 1e-9) + 1


def classify_regime(snr_db: float) -> str:
    """Two mass points achieve capacity up to ~0 dB and stay within 0.02
    nats of it up to 10 dB; beyond that the result is only the best
    two-point mutual information."""
    if snr_db <= 0.0:
        return "Capacity"
    if snr_db <= 10.0:
        return "LowerBound"
    return "TwoPointOptimum"


def _scan(snr):
    """log a2 of each SNR's dI/da2 bracketing scan, one row per SNR (a 1-D
    array): _GRID_POINTS values uniform in log a2, from _A2_EDGE min(SNR, 1),
    which lies under every optimum, to _A2_TOP, with the arithmetic of
    np.linspace (k times the step, plus the start; the top itself last).
    DomainError, naming the SNR, where a number of dI/da2 leaves the normal
    float range at the lower edge, and so on the scan (see mi._check_snr)."""
    lo = _A2_EDGE * np.minimum(snr, 1.0)
    _check_snr(lo, snr)
    start = np.log(lo)[:, None]
    t = _GRID_STEPS * ((_LOG_A2_TOP - start) / (_GRID_POINTS - 1))
    t += start
    t[:, -1] = _LOG_A2_TOP
    return t


def _refine(f, end1, end2, p):
    """The root of y in each bracket, by Chandrupatla's hybrid inverse-
    quadratic / bisection iteration (Adv. Eng. Software 28(3), 1997), in
    lock-step.  f(x, p) returns (v, y): y, whose root is sought, and a value
    v carried along with each point (the solver carries phi, from which it
    assembles I at its candidates alone).  end1 and end2 are (3, brackets)
    arrays of x, v and y at the bracket ends: finite x and y, the two y of
    opposite signs or one of them 0, as the solver's scan hands them over.
    Each iteration makes one call of f on the brackets still open, with
    their entries of p.  It takes the steps and stopping tests of scipy's
    find_root(y, (x1, x2), args=(p,), tolerances={"xatol": _XATOL}), which
    the tests hold it to bit for bit, without evaluating the ends.

    Returns (x, v, y) at each bracket's result as one (3, brackets) array,
    and its status and iterations.  The result is the end of the final
    bracket with the smaller |y|; status is 0 when |y| <= _FATOL there or
    the bracket is narrower than _XRTOL |x| + _XATOL, -3 when y is NaN at a
    new point and at the end kept beside it (x, v and y are NaN) and -2 when
    _MAX_ITER iterations did not end it.  Each iteration evaluates f once
    per open bracket, so the iterations are also its evaluations.  Each step
    keeps a sign change between the ends, so only each new point is tested.
    """
    n = end1.shape[1]
    out = np.empty((3, n))
    status, nit = np.empty(n, dtype=int), np.empty(n, dtype=int)
    # end 1, end 2 and the point they last replaced, each as rows x, v, y
    pts = np.empty((3, 3, n))
    pts[0], pts[1] = end1, end2
    invalid = False  # status -3 needs a new point
    open_ = np.arange(n)
    it, t = 0, _HALF
    while True:
        # the end with the smaller |y| is the result if the bracket stops
        ay1, ay2 = np.abs(pts[0, 2]), np.abs(pts[1, 2])
        smaller = ay1 < ay2
        w = pts[1, 0] - pts[0, 0]
        dx = np.abs(w)
        tol = np.abs(np.where(smaller, pts[0, 0], pts[1, 0])) * _XRTOL + _XATOL
        done = np.where(smaller, ay1, ay2) <= _FATOL
        narrow = dx < tol
        stop = done | invalid | narrow
        if it >= _MAX_ITER:  # the brackets still open stop, with status -2
            stop[:] = True
        if np.count_nonzero(stop):
            # in order: |y| small enough, a fault of f, the width
            code = np.where(done, 0, np.where(invalid, -3, np.where(narrow, 0, -2)))[stop]
            k = open_[stop]
            out[:, k] = np.where(smaller, pts[0], pts[1])[:, stop]
            nit[k], status[k] = it, code
            go = np.flatnonzero(~stop)
            open_, pts, p = open_[go], pts[:, :, go], p[go]
            w, dx, tol = w[go], dx[go], tol[go]
        if not open_.size:  # at once when there are no brackets
            # x, v and y are NaN where f failed
            out[:, status == -3] = math.nan
            return out, status, nit
        x1, x2, x3 = pts[0, 0], pts[1, 0], pts[2, 0]
        f1, f2, f3 = pts[0, 2], pts[1, 2], pts[2, 2]
        if it:
            # the inverse-quadratic step where it is safe (Chandrupatla's
            # eq. 1), else bisection, kept half a tolerance inside the
            # bracket; the step is formed on every bracket and kept where
            # it is safe
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                d12, d32 = f1 - f2, f3 - f2
                xi1 = (x1 - x2) / (x3 - x2)
                phi1 = d12 / d32
                j = ((_ONE - np.sqrt(_ONE - xi1)) < phi1) & (phi1 < np.sqrt(xi1))
                # f2 - f3 is -d32 exactly
                t = np.where(j, f1 / d12 * f3 / d32
                             + (x3 - x1) / w * f1 / (f3 - f1) * f2 / d32, _HALF)
            tl = _HALF * tol / dx
            t = np.minimum(np.maximum(t, tl), _ONE - tl)
        xn = x1 + t * w
        vn, fn = f(xn, p)
        # status -3 where the new y and end 1's (the end kept when the new
        # y is NaN) are both NaN; x stays finite between finite ends
        invalid = np.isnan(np.fmax(fn, f1))
        # keep the end whose sign differs from the new point's: ends 2 and
        # 3 become (end 2, end 1) where the signs of y agree, else (end 1,
        # end 2)
        differ = np.sign(fn) != np.sign(f1)
        np.copyto(pts[2], pts[0])
        np.copyto(pts[2], pts[1], where=differ)
        np.copyto(pts[1], pts[0], where=differ)
        pts[0, 0], pts[0, 1], pts[0, 2] = xn, vn, fn
        it += 1


def solve_a2_star(snr_linear, *, sigma2: float = 1.0):
    """Locate a2* = argmax of the two-point mutual information at each SNR.

    snr_linear is a float or a 1-D array of at most MAX_GRID_POINTS SNRs
    (else DomainError), each finite and positive (else SolverFailure,
    naming the first that is not).  All
    points are solved in lock-step.  Each point's dI/da2 is scanned on its
    own 8-point grid, uniform in log a2 from 1e-6 min(SNR, 1), which lies
    under every optimum,
    to 1 - 1e-12, with every point in one batched analytic call (every
    entry, alpha = 1/n included, comes from the closed form).  Every sign
    change is refined by Chandrupatla's bracketing iteration (_refine), in
    lock-step, in t = log a2 to an xatol of 1e-15, a relative tolerance in
    a2; it starts from the scan's values at the bracket ends and makes one
    batched call per iteration for the brackets still open, each giving phi
    beside dI/da2.  Of every point's candidates, its roots and both scan
    edges, whose phi and dI/da2 the scan and the refinement have already
    computed, the first with maximal I, assembled from phi there, wins, its
    |dI/da2| being the residual; no kernel call follows the refinement.

    An array returns one CapacityPoint per SNR.  A point is a FAILED row
    when its root-finder did not converge, when no candidate has positive
    I, when a scan edge wins (no root), or when the winner's I exceeds the
    coherent capacity log(1+SNR), which no input can beat; its diagnostics
    give the reason under "failure".  A float returns its
    CapacityPoint and raises SolverFailure with that reason instead.  Each
    point's diagnostics give its grid rows and the refinement's iterations
    over its brackets (root_iterations); the two are its kernel rows, since
    the bracket ends and the candidates take their values from the scan and
    the refinement.  The solve runs in the SNR alone: sigma2 only sets x2* = sigma sqrt(SNR/a2*).
    """
    snr = np.asarray(snr_linear, dtype=float)
    if snr.ndim > 1:
        raise SolverFailure("snr_linear must be a float or a 1-D array")
    if snr.size > MAX_GRID_POINTS:
        raise DomainError(f"snr_linear has {snr.size} points, more than the cap of "
                          f"{MAX_GRID_POINTS}")
    fine = (snr > 0.0) & (snr < math.inf)
    if np.count_nonzero(fine) < fine.size:
        bad = snr.reshape(-1)[~fine.reshape(-1)][0].item()
        raise SolverFailure(f"snr_linear must be finite and positive (got {bad!r})")
    sigma = math.sqrt(ChannelParams(sigma2).sigma2)  # DomainError unless 0 < sigma2 < inf
    gamma = np.atleast_1d(snr)
    n = gamma.size
    t = _scan(gamma)
    # log a2, phi and dI/da2 on the scan, (3, points, _GRID_POINTS)
    scan = np.empty((3,) + t.shape)
    scan[0] = t
    scan[1], scan[2] = _phi_deriv(np.exp(t), gamma[:, None])
    dvals = scan[2]
    # each point's roots in grid order: its exact zeros on the grid and one
    # in every sign change, refined in t = log a2, where _XATOL bounds the
    # root's relative error, from the scan's values at the bracket ends
    pt, lo = np.nonzero(dvals[:, :-1] * dvals[:, 1:] < 0.0)
    roots, status, nit = _refine(lambda tt, pp: _phi_deriv(np.exp(tt), pp), scan[:, pt, lo],
                                 scan[:, pt, lo + 1], gamma[pt])
    # each point's candidates, its roots and then both scan edges, with the
    # phi and dI/da2 that the scan and the refinement computed there
    cand = np.concatenate([scan, scan[..., [0, -1]]], axis=-1)
    cand[0, :, :_GRID_POINTS][dvals != 0.0] = math.nan
    cand[:, pt, lo] = roots
    n_roots = np.count_nonzero(~np.isnan(cand[0, :, :_GRID_POINTS]), axis=1).tolist()
    unconverged = np.bincount(pt[status != 0], minlength=n) > 0
    cand[0, unconverged] = math.nan
    # I from phi at the occupied candidate slots alone (-inf at the others)
    occ = ~np.isnan(cand[0])
    i_occ = _mi_of_phi(np.exp(cand[0][occ]), gamma[np.nonzero(occ)[0]], cand[1][occ])
    cand[1] = -math.inf
    cand[1][occ] = i_occ
    # the first maximum of I wins, and its dI/da2 is the residual
    best = np.argmax(cand[1], axis=1)
    nit = np.bincount(pt, nit, minlength=n).astype(int).tolist()
    unconverged, edge = unconverged.tolist(), (best >= _GRID_POINTS).tolist()
    t_star, i_star, d_star = cand[:, np.arange(n), best]
    a2_star, i_star = np.exp(t_star).tolist(), i_star.tolist()
    residual = np.abs(d_star).tolist()

    points = []
    for k, s in enumerate(gamma.tolist()):
        a2, i, r = a2_star[k], i_star[k], residual[k]
        diag = {"grid_rows": _GRID_POINTS, "root_iterations": nit[k]}
        if unconverged[k]:
            diag["failure"] = f"root-finder did not converge at snr={s}"
        elif not i > 0.0:
            diag["failure"] = f"no positive-MI optimum found at snr={s}"
        elif edge[k]:
            diag["failure"] = (f"no root at snr={s}: the best candidate is the scan "
                               f"edge a2={a2!r}, where |dI/da2| = {r:.3g}")
        elif i > math.log1p(s):
            diag["failure"] = (f"I* = {i!r} nats at snr={s} exceeds the coherent "
                               f"capacity log(1+SNR) = {math.log1p(s)!r}")
        db = snr_to_db(s)
        if "failure" in diag:
            points.append(CapacityPoint(db, s, math.nan, math.nan, math.nan, "FAILED", 0,
                                        math.nan, diag))
        else:
            points.append(CapacityPoint(db, s, a2, sigma * math.sqrt(s / a2), i,
                                        classify_regime(db), n_roots[k], r, diag))
    if snr.ndim:
        return points
    (point,) = points
    if point.regime == "FAILED":
        raise SolverFailure(point.diagnostics["failure"])
    return point


def sweep(cfg: SweepConfig, *, sigma2: float = 1.0) -> list[CapacityPoint]:
    """One CapacityPoint per SNR grid value, ordered ascending in SNR, from
    one lock-step solve_a2_star call over the whole grid, passing sigma2 on.

    Failed points are recorded with regime "FAILED" rather than dropped.
    A nonmonotone i_star sequence (beyond 1e-9) raises a warning.
    """
    snr = [snr_from_db(cfg.snr_db_start + i * cfg.snr_db_step) for i in range(cfg.points)]
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
    one batched call, computed in t = SNR/a2 alone; a grid of more than
    MAX_GRID_POINTS values is a DomainError."""
    a2 = np.asarray(a2_grid, dtype=float)
    if a2.ndim != 1 or not ((0.0 < a2) & (a2 < 1.0)).all():
        raise SolverFailure("the profile grid must be a 1-D array of values in (0, 1)")
    if a2.size > MAX_GRID_POINTS:
        raise DomainError(f"the profile grid has {a2.size} points, more than the cap of "
                          f"{MAX_GRID_POINTS}")
    nats, _ = _mi_deriv(a2, snr_linear)
    return list(zip(a2.tolist(), nats.tolist()))
