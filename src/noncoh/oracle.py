"""Independent verification back-ends.

Adaptive quadrature of the defining integrals (two discretizations: the
u-substituted form on (0, 1) and a truncated direct form in y), a seeded
Monte-Carlo mutual-information estimator, and finite-difference derivatives.
These never touch the hypergeometric machinery, so agreement with the
closed forms is a genuine cross-check.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .channel import ChannelParams, TwoPointInput
from .errors import DegenerateInput, DomainError, ToleranceNotMet

# The error target every quadrature must certify (scipy's own estimate of
# the absolute error), and the subdivision budget it may spend on it.
_ABS_TOL = 1e-10
_MAX_SUBDIVISIONS = 100_000


def _quad_checked(f, a, b, points=None):
    """scipy.integrate.quad with our own error policing; the warning is
    redundant with the ToleranceNotMet check."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        value, abserr = quad(
            f,
            a,
            b,
            epsabs=_ABS_TOL * 0.1,
            epsrel=1e-12,
            limit=_MAX_SUBDIVISIONS,
            points=points,
        )
    if abserr > _ABS_TOL:
        raise ToleranceNotMet(
            f"quadrature error estimate {abserr:.3e} exceeds {_ABS_TOL:.3e}"
        )
    return value


def _logaddexp(a: float, b: float) -> float:
    """log(e^a + e^b) in plain floats (either argument may be -inf)."""
    return max(a, b) + math.log1p(math.exp(-abs(a - b)))


def j_quadrature(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """J(x): the Rayleigh-weighted integral of the log mixture density.

    Substituting u = exp(-y^2/(x^2+sigma^2)) maps the semi-infinite integral
    onto (0, 1):

        J(x) = int_0^1 log( (a1/s2) u^p + (a2/S2) u^q ) du,
        p = (x^2+s2)/s2,  q = (x^2+s2)/S2,  S2 = x2^2 + s2.

    The logarithmic endpoint singularity at u = 0 is removed by the further
    substitution u = e^t (t in (-inf, 0]), under which the integrand is
    smooth and decays like t e^t; truncation at t = -64 contributes < 1e-25.
    The crossover of the two mixture components is declared as a breakpoint.

    Single-mass-point edge cases (a2 in {0, 1}) are accepted here: the
    mixture collapses to one term and the integral stays well defined.
    """
    if inp.x2 <= 0.0:
        raise DegenerateInput("J(x) oracle needs x2 > 0")
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    p = (x * x + s2) / s2
    q = (x * x + s2) / big
    log_a = math.log(inp.a1 / s2) if inp.a1 > 0.0 else -math.inf
    log_b = math.log(inp.a2 / big) if inp.a2 > 0.0 else -math.inf

    def integrand(t):
        # e^t * log(A e^(pt) + B e^(qt)), evaluated in log space
        return (q * t + _logaddexp(log_b, log_a + (p - q) * t)) * math.exp(t)

    # breakpoints at the decay scales and at the mixture crossover keep the
    # extrapolation honest (QAGS can falsely converge on long, nearly empty
    # panels otherwise)
    t_lo = -64.0
    points = [-0.5, -1.0, -2.0, -4.0, -8.0, -16.0, -32.0]
    if math.isfinite(log_a) and math.isfinite(log_b):
        points.append((log_b - log_a) / (p - q))
    points = sorted(t for t in set(points) if t_lo < t < 0.0)
    return _quad_checked(integrand, t_lo, 0.0, points)


def j_quadrature_direct(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """Secondary oracle: the same integral in the original y variable,
    truncated at y_max^2 = 200 (x2^2 + sigma^2)."""
    if inp.is_degenerate():
        raise DegenerateInput("J(x) oracle needs a nondegenerate input")
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    a = x * x + s2
    log_a = math.log(inp.a1 / s2)
    log_b = math.log(inp.a2 / big)

    def integrand(y):
        y2 = y * y
        mix = _logaddexp(log_a - y2 / s2, log_b - y2 / big)
        return 2.0 * y / a * math.exp(-y2 / a) * mix

    # the Rayleigh weight lives on the scale sqrt(a), which can be far
    # smaller than the truncation point; seed the subdivision accordingly
    y_max = math.sqrt(200.0 * big)
    scale = math.sqrt(a)
    points = [f * scale for f in (0.5, 1.0, 2.0, 4.0, 8.0, 16.0)]
    beta = (inp.a2 / inp.a1) * (s2 / big)
    if beta < 1.0:
        points.append(math.sqrt(-s2 * big / inp.x2**2 * math.log(beta)))
    points = sorted(p for p in points if 0.0 < p < y_max)
    return _quad_checked(integrand, 0.0, y_max, points or None)


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
    """Mutual information via the quadrature J's."""
    if inp.is_degenerate():
        return 0.0
    return mi_from_j(inp, ch, j_quadrature(0.0, inp, ch), j_quadrature(inp.x2, inp, ch))


def mi_monte_carlo(
    inp: TwoPointInput,
    ch: ChannelParams,
    *,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Seeded Monte-Carlo estimate of E[log f(Y|X) - log f(Y)] from
    samples >= 1 draws.

    X is sampled from the two-point law and Y|X=x by inverse CDF,
    Y = sqrt(-(x^2+sigma^2) log U).  Returns (estimate, standard error).
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1 (got {samples})")
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


_EPS = float(np.finfo(float).eps)
# fd_derivative's step at |x| <= 1
FD_STEP = _EPS ** (1.0 / 5.0)


def fd_derivative(f, x: float) -> float:
    """Five-point central finite difference with step eps^(1/5) scaled by
    max(1, |x|)."""
    h = FD_STEP * max(1.0, abs(x))
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12.0 * h)
