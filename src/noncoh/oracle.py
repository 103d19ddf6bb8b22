"""Independent verification back-ends.

Adaptive quadrature of the defining integrals (two discretizations: the
u-substituted form on (0, 1) and a truncated direct form in y), a seeded
Monte-Carlo estimator of the mutual information, and finite-difference
derivatives.  These never touch the hypergeometric machinery, so agreement
with the closed forms is a genuine cross-check.

The quadrature is numpy alone: one adaptive Gauss-Kronrod G7/K15 rule
(QUADPACK's qk15 nodes and weights; Piessens et al., 1983) integrates every
panel of every integral of a batch in one array pass, then bisects only the
panels whose Kronrod-Gauss difference is over their share of the error
target.  Every integral keeps its own certified error, and no command loads
scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelParams, TwoPointInput
from .errors import DegenerateInput, DomainError, ToleranceNotMet

# The error target every integral must certify (the sum of its panels'
# error estimates, see _gauss_kronrod), and the number of panels it may
# spend on it.  Both are read at call time.
_ABS_TOL = 1e-10
_MAX_SUBDIVISIONS = 100_000

_EPS = float(np.finfo(float).eps)
# A panel's error estimate is never below 50 ulps of the integral of |f|
# over it, the floor QUADPACK puts under |K - G|: a target below the
# rounding of the sum cannot be certified.
_ROUNDING = 50.0 * _EPS

# QUADPACK qk15: the Kronrod nodes on [0, 1) from the outside in (the Gauss
# nodes are every second one, the centre included), then their weights.
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)
# the same on [-1, 1]: 15 nodes, their Kronrod weights and their Gauss
# weights (zero at the Kronrod-only nodes)
_X15 = np.array([-x for x in _XGK[:7]] + list(reversed(_XGK)))
_WK15 = np.array(_WGK[:7] + tuple(reversed(_WGK)))
_WG15 = np.array(_WG[:7] + tuple(reversed(_WG)))

# the boundary layer's breakpoints, in units of its width from the crossover
# of the mixture components (see j_quadrature)
_LAYER = (-64.0, -16.0, -4.0, -1.0, 0.0, 1.0, 4.0)


def _gauss_kronrod(f, params, points):
    """Integrals of f, one per row of points, each to the error target.

    Row i of the 2-D array points holds integral i's ends and breakpoints
    (NaN marks an unused slot); they cut it into its first panels.  f(t, *p)
    takes a (panels, 15) array of nodes t and, for each array in params (one
    value per integral), a (panels, 1) column of the owning integrals'
    values.  Each pass applies the 15-point rule to every open panel.  An
    integral whose summed error estimate (|K - G|, or the rounding floor
    where that is larger) is within _ABS_TOL is done; in the others
    every panel over its share of _ABS_TOL (in proportion to its length) is
    bisected, and the rest keep their estimates.  An integral that would need
    more than _MAX_SUBDIVISIONS panels raises ToleranceNotMet, naming it.
    """
    tol, cap = _ABS_TOL, _MAX_SUBDIVISIONS
    n = points.shape[0]
    pts = np.sort(points, axis=1)  # NaN sorts last
    lo, hi = pts[:, :-1], pts[:, 1:]
    first = hi > lo
    owner = np.nonzero(first)[0]
    a, b = lo[first], hi[first]
    share = tol / (np.nanmax(points, axis=1) - np.nanmin(points, axis=1))
    panels = np.bincount(owner, minlength=n)
    kept_value, kept_error = np.zeros(n), np.zeros(n)
    value = np.full(n, np.nan)
    while owner.size:
        half = 0.5 * (b - a)
        mid = a + half
        fx = f(mid[:, None] + half[:, None] * _X15, *(p[owner, None] for p in params))
        k = half * (fx @ _WK15)
        err = np.maximum(np.abs(k - half * (fx @ _WG15)), _ROUNDING * half * (np.abs(fx) @ _WK15))
        split = err > 2.0 * share[owner] * half
        kept_value += np.bincount(owner[~split], k[~split], n)
        kept_error += np.bincount(owner[~split], err[~split], n)
        total = kept_error + np.bincount(owner[split], err[split], n)
        done = (np.bincount(owner, minlength=n) > 0) & (total <= tol)
        value[done] = kept_value[done] + np.bincount(owner[split], k[split], n)[done]
        split &= ~done[owner]
        owner, a, b, mid = owner[split], a[split], b[split], mid[split]
        panels += np.bincount(owner, minlength=n)
        if owner.size and panels.max() > cap:
            i = int(np.argmax(panels > cap))
            raise ToleranceNotMet(
                f"quadrature of element {i}: error estimate {total[i]:.3e} exceeds "
                f"{tol:.3e} within {cap} panels")
        owner = np.concatenate((owner, owner))
        a, b = np.concatenate((a, mid)), np.concatenate((mid, b))
    return value


def _batch(x, inp):
    """(scalar, x, a2, x2): whether inp is one TwoPointInput, and x with the
    inputs' a2 and x2 as float arrays of one length.  DomainError, naming
    the element, for a NaN or infinite x."""
    scalar = isinstance(inp, TwoPointInput)
    inps = [inp] if scalar else list(inp)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (len(inps),):
        raise DomainError(f"the quadrature needs one x per input "
                          f"(got {x.size} x for {len(inps)} inputs)")
    bad = np.flatnonzero(~np.isfinite(x))
    if bad.size:
        raise DomainError(f"J(x) oracle needs a finite x (element {bad[0]}: x={x[bad[0]]})")
    return (scalar, x, np.array([i.a2 for i in inps], dtype=float),
            np.array([i.x2 for i in inps], dtype=float))


def _between(points, lo, hi):
    """points as columns, lo and hi first, with every breakpoint outside
    (lo, hi) (or NaN) made NaN: the rows _gauss_kronrod takes."""
    inner = np.column_stack(np.broadcast_arrays(*points))
    inner = np.where((inner > lo[:, None]) & (inner < hi[:, None]), inner, np.nan)
    return np.column_stack((lo, hi, inner))


def _log_weights(a2, s2, big):
    """log(a1/s2) and log(a2/big), -inf where that mass is zero."""
    with np.errstate(divide="ignore"):
        return np.log((1.0 - a2) / s2), np.log(a2 / big)


def _j_integrand(t, q, gap, log_a, log_b):
    # e^t * log(A e^(pt) + B e^(qt)), evaluated in log space
    return (q * t + np.logaddexp(log_b, log_a + gap * t)) * np.exp(t)


def j_quadrature(x, inp, ch: ChannelParams):
    """J(x): the Rayleigh-weighted integral of the log mixture density.

    Substituting u = exp(-y^2/(x^2+sigma^2)) maps the semi-infinite integral
    onto (0, 1):

        J(x) = int_0^1 log( (a1/s2) u^p + (a2/S2) u^q ) du,
        p = (x^2+s2)/s2,  q = (x^2+s2)/S2,  S2 = x2^2 + s2.

    The logarithmic endpoint singularity at u = 0 is removed by the further
    substitution u = e^t (t in (-inf, 0]), under which the integrand is
    smooth and decays like t e^t; truncation at t = -64 contributes < 1e-25.

    x and inp may be one magnitude and one TwoPointInput (a float is
    returned) or equal-length sequences of them (an array is returned); the
    whole batch is one _gauss_kronrod call.  Single-mass-point edge cases
    (a2 in {0, 1}) are accepted here: the mixture collapses to one term and
    the integral stays well defined.
    """
    scalar, x, a2, x2 = _batch(x, inp)
    bad = np.flatnonzero(~(x2 > 0.0))
    if bad.size:
        raise DegenerateInput(f"J(x) oracle needs x2 > 0 (element {bad[0]})")
    s2 = ch.sigma2
    big = x2 * x2 + s2
    q = (x * x + s2) / big
    gap = (x * x + s2) * (x2 * x2) / (s2 * big)  # p - q, free of cancellation
    log_a, log_b = _log_weights(a2, s2, big)
    # Breakpoints at the decay scales keep long, nearly empty panels from
    # passing unsampled.  The minor mixture component's log1p(e^(-gap |t -
    # t_c|)) tail lives within a few 1/gap of the crossover t_c, a boundary
    # layer that holds pi^2/(12 gap) of the integral (DLMF 25.12); the
    # breakpoints t_c + k/gap resolve it however narrow it is.
    with np.errstate(divide="ignore", invalid="ignore"):
        t_c = (log_b - log_a) / gap
        layer = [t_c + k / gap for k in _LAYER]
    fixed = [-0.5, -1.0, -2.0, -4.0, -8.0, -16.0, -32.0]
    points = _between([*fixed, *layer], np.full(x.size, -64.0), np.zeros(x.size))
    value = _gauss_kronrod(_j_integrand, (q, gap, log_a, log_b), points)
    return float(value[0]) if scalar else value


def j_quadrature_direct(x, inp, ch: ChannelParams):
    """Secondary oracle: the same integral in the original y variable,
    truncated at y_max^2 = 200 (x2^2 + sigma^2), on the same rule; x and inp
    as for j_quadrature."""
    scalar, x, a2, x2 = _batch(x, inp)
    bad = np.flatnonzero(~((a2 > 0.0) & (a2 < 1.0) & (x2 * x2 > 0.0)))
    if bad.size:
        raise DegenerateInput(
            f"J(x) oracle needs a nondegenerate input (element {bad[0]})")
    s2 = ch.sigma2
    big = x2 * x2 + s2
    a = x * x + s2
    log_a, log_b = _log_weights(a2, s2, big)

    def integrand(y, a, big, log_a, log_b):
        y2 = y * y
        mix = np.logaddexp(log_a - y2 / s2, log_b - y2 / big)
        return 2.0 * y / a * np.exp(-y2 / a) * mix

    # the Rayleigh weight lives on the scale sqrt(a), which can be far
    # smaller than the truncation point; seed the subdivision accordingly.
    # Where beta < 1 the components cross at y_c, and the exponents part at
    # the rate 2 y_c g, g = 1/s2 - 1/S2: t = -y^2/a maps j_quadrature's
    # breakpoints t_c + k/gap, gap = a g, to y_c - k/(2 y_c g) near y_c
    scale = np.sqrt(a)
    beta = (a2 / (1.0 - a2)) * (s2 / big)
    g = x2 * x2 / (s2 * big)
    with np.errstate(divide="ignore", invalid="ignore"):
        y_c = np.sqrt(-np.log(beta) / g)
        layer = [y_c - k / (2.0 * y_c * g) for k in _LAYER]
    points = _between([*(f * scale for f in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)), *layer],
                      np.zeros(x.size), np.sqrt(200.0 * big))
    value = _gauss_kronrod(integrand, (a, big, log_a, log_b), points)
    return float(value[0]) if scalar else value


def mi_from_j(inp: TwoPointInput, ch: ChannelParams, j0: float, j_x2: float) -> float:
    """Mutual information from J(0) and J(x2).  The input integral collapses
    onto the two mass points, so no 2-D quadrature is needed."""
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    return (
        -inp.a1
        - inp.a1 * math.log(s2)
        - inp.a2
        - inp.a2 * math.log(big)
        - inp.a1 * j0
        - inp.a2 * j_x2
    )


def mi_quadrature(inp: TwoPointInput, ch: ChannelParams) -> float:
    """Mutual information via the quadrature J's, both from one call."""
    if inp.is_degenerate():
        return 0.0
    j0, j_x2 = j_quadrature([0.0, inp.x2], [inp, inp], ch)
    return mi_from_j(inp, ch, float(j0), float(j_x2))


def mi_monte_carlo(
    inp: TwoPointInput,
    ch: ChannelParams,
    *,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo estimate of E[log f(Y|X) - log f(Y)] from samples >= 1
    draws, seeded by seed >= 0.

    X is sampled from the two-point law and Y|X=x by inverse CDF,
    Y = sqrt(-(x^2+sigma^2) log U).  Returns (estimate, standard error).
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1 (got {samples})")
    if seed < 0:
        raise DomainError(f"seed must be >= 0 (got {seed})")
    if inp.is_degenerate():
        raise DegenerateInput("Monte-Carlo estimator needs 0 < a2 < 1 and x2 > 0")
    rng = np.random.default_rng(seed)
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    log_a = math.log(inp.a1 / s2)
    log_b = math.log(inp.a2 / big)
    total = 0.0
    total_sq = 0.0
    remaining = samples
    while remaining > 0:
        n = min(remaining, 2_000_000)
        remaining -= n
        on = rng.random(n) < inp.a2
        scale = np.where(on, big, s2)
        y2 = -scale * np.log(rng.random(n))
        log_cond = math.log(2.0) + 0.5 * np.log(y2) - np.log(scale) - y2 / scale
        log_marg = (
            math.log(2.0)
            + 0.5 * np.log(y2)
            + np.logaddexp(log_a - y2 / s2, log_b - y2 / big)
        )
        g = log_cond - log_marg
        total += float(np.sum(g))
        total_sq += float(np.sum(g * g))
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    std_err = math.sqrt(var / samples)
    return mean, std_err


# fd_derivative's step at |x| <= 1
FD_STEP = _EPS ** (1.0 / 5.0)


def fd_derivative(f, x: float) -> float:
    """Five-point central finite difference with step eps^(1/5) scaled by
    max(1, |x|)."""
    h = FD_STEP * max(1.0, abs(x))
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12.0 * h)
