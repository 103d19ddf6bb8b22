"""The paper's reference forms of J(x), which verify and the tests check the
value path against; the value path (mi, capacity) never imports them.

The core integral J(x) (the Rayleigh-weighted log mixture density) has three
closed forms, kept as the paper's reference forms at every magnitude x >= 0,
with alpha and beta from channel.derive_params:

* a finite sum when alpha = 1/n for a positive integer n (j_case1), which
  for beta > 1 is the third form at alpha = 1/n,
* a 2F1-at-(-beta) form with a pi/sin(pi/alpha) reflection term, convergent
  for beta < 1 and cancelling next to alpha = 1/n (j_case2),
* a 2F1-at-(-1/beta) form with no removable indeterminations, valid for
  every alpha, beta > 0 by analytic continuation (j_case3).

Their 2F1 pieces and the reflection piece are each written once, and the
continuation identity's residual is their signed sum.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import specfun
from .channel import ChannelParams, TwoPointInput, derive_params
from .errors import CaseMismatch, DomainError, NearSingularAlpha

_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")

# j_case2 and the identity residuals refuse alpha this close to 1/n, where
# the beta<1 form cancels like 1/|alpha - 1/n| (see _guard).
GUARD_TOL = 1e-5
# j_case1, j_case2 and the identity residuals treat alpha as 1/n within this
# distance.
RECIPROCAL_TOL = 1e-9


def nearest_reciprocal(alpha: float) -> tuple[int, float]:
    """Nearest point 1/n (n a positive integer) to alpha, and the distance."""
    if alpha >= 1.5:
        return 1, alpha - 1.0
    inv = 1.0 / alpha
    n0 = max(1, int(round(inv)))
    best = min((n0 - 1, n0, n0 + 1), key=lambda m: abs(alpha - 1.0 / m) if m >= 1 else math.inf)
    return best, abs(alpha - 1.0 / best)


def pi_csc_recip(alpha: float) -> float:
    """pi / sin(pi/alpha) with the argument reduced modulo the period in
    extended precision, so accuracy survives large 1/alpha."""
    a = _LD(alpha)
    inv = _LD(1.0) / a
    n = int(np.rint(inv))
    # reduced argument 1/alpha - n computed as (1 - n*alpha)/alpha
    r = (_LD(1.0) - _LD(n) * a) / a
    s = np.sin(_PI_LD * r)
    if n % 2 == 1:
        s = -s
    if s == 0.0:
        raise DomainError(f"sin(pi/alpha) vanishes at alpha={alpha}")
    return float(_PI_LD / s)


def log1p_series_partial_sum(q, n):
    """Partial sum T_n = sum_{k=1..n} (-1)^(k+1) q^k / k of the log(1+q)
    series, for a float q and an int n, or elementwise over two matching 1-D
    arrays; satisfies 0 <= T_n <= q for 0 <= q <= 1.  The cases of one n are
    the unpadded rows of one table, and numpy sums a contiguous row as it
    sums that row alone, so each T_n has the bits of its scalar call."""
    ints = (isinstance(n, numbers.Integral) if np.ndim(n) == 0
            else np.issubdtype(np.asarray(n).dtype, np.integer))
    if not (ints and np.all(np.greater_equal(n, 1)) and np.shape(q) == np.shape(n)
            and np.ndim(n) <= 1):
        raise DomainError("n must be a positive integer, q and n two scalars or two "
                          f"matching 1-D arrays (n={n!r}, q of shape {np.shape(q)})")
    qs, ns = np.reshape(np.asarray(q, dtype=float), -1), np.reshape(n, -1)
    k = np.arange(1, int(ns.max(initial=0)) + 1, dtype=float)
    signs = np.where(k % 2 == 1, 1.0, -1.0)
    order = np.argsort(ns)  # the cases of one n are the rows lo:hi of q_col
    q_col, starts = qs[order, None], np.flatnonzero(np.diff(ns[order], prepend=0)).tolist()
    sums = np.empty(ns.size)
    for lo, hi in zip(starts, [*starts[1:], ns.size]):
        m = int(ns[order[lo]])
        np.add.reduce(signs[:m] * np.power(q_col[lo:hi], k[:m]) / k[:m], axis=1,
                      out=sums[lo:hi])
    return float(sums[0]) if np.ndim(n) == 0 else sums[np.argsort(order)]


def _guard(alpha):
    """Refuse alpha at 1/n (CaseMismatch), where pi/sin(pi/alpha) has a pole,
    and within GUARD_TOL of it (NearSingularAlpha), where the forms holding
    that term cancel like 1/|alpha - 1/n|."""
    _, dist = nearest_reciprocal(alpha)
    if dist < RECIPROCAL_TOL:
        raise CaseMismatch(f"alpha={alpha} is 1/n, a pole of pi/sin(pi/alpha)")
    if dist < GUARD_TOL:
        raise NearSingularAlpha(f"alpha={alpha} within the guard band of 1/n")


def _hyp_beta(alpha, beta):
    """alpha beta/(alpha-1) 2F1(1,(a-1)/a;(2a-1)/a;-beta), the 2F1 piece of
    the beta<1 form."""
    return alpha * beta / (alpha - 1.0) * specfun.gauss_2f1(
        1.0, (alpha - 1.0) / alpha, (2.0 * alpha - 1.0) / alpha, -beta)


def _hyp_inv_beta(alpha, beta):
    """alpha/(beta(alpha+1)) 2F1(1,(a+1)/a;(2a+1)/a;-1/beta), the 2F1 piece
    of the beta>=1 form."""
    return alpha / (beta * (alpha + 1.0)) * specfun.gauss_2f1(
        1.0, (alpha + 1.0) / alpha, (2.0 * alpha + 1.0) / alpha, -1.0 / beta)


def _reflection(alpha, beta):
    """pi beta^(1/alpha)/sin(pi/alpha) - alpha, the power taken in log space.
    For alpha >= 2 its two terms, both about alpha, would cancel; with
    eps = 1/alpha it is beta^eps c(eps) + alpha (beta^eps - 1) instead."""
    log_pow = math.log(beta) / alpha
    if alpha < 2.0:
        return math.exp(log_pow) * pi_csc_recip(alpha) - alpha
    return (math.exp(log_pow) * specfun.pi_csc_minus_recip(1.0 / alpha)
            + alpha * math.expm1(log_pow))


def _case3_value(x, inp, ch, beta, hyp):
    """J(x) from the beta>=1 form, given its 2F1 piece hyp (see
    _hyp_inv_beta), so the form is written once whatever sums the 2F1."""
    big = inp.x2**2 + ch.sigma2
    return (-(x * x + ch.sigma2) / big + math.log(inp.a2 / big)
            + math.log1p(1.0 / beta) - hyp)


def j_case1(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """Finite-sum closed form, valid when alpha is the reciprocal of a
    positive integer (any beta > 0) and n <= 22360: past that the points 1/n
    lie within 2 RECIPROCAL_TOL of each other, so every alpha counts as 1/n,
    and the sum costs O(n)."""
    alpha, beta = derive_params(x, inp, ch)
    n, dist = nearest_reciprocal(alpha)
    if n * (n + 1) > 0.5 / RECIPROCAL_TOL:
        raise CaseMismatch(f"alpha={alpha} is below 1/22360, where every alpha is "
                           f"1/n within {RECIPROCAL_TOL}; use j_case3")
    if dist >= RECIPROCAL_TOL:
        raise CaseMismatch(f"alpha={alpha} is not 1/n within {RECIPROCAL_TOL}")
    if beta > 1.0:
        # past beta = 1 the sum's beta^n blow-up cancels analytically into
        # sum_{j>=1} (-1)^(j+1) beta^-j/(n+j) = 2F1(1,n+1;n+2;-1/beta)/(beta(n+1)),
        # the beta>=1 form at alpha = 1/n
        return _case3_value(x, inp, ch, beta, _hyp_inv_beta(1.0 / n, beta))
    # (1 - (-beta)^n) log(1 + 1/beta) - sum_{k=1..n} (-beta)^(n-k)/k, all
    # terms O(1) for beta <= 1
    tail = sum((-beta) ** (n - k) / k for k in range(1, n + 1))
    big = inp.x2**2 + ch.sigma2
    return (-(x * x + ch.sigma2) / big + math.log(inp.a2 / big)
            + (1.0 - (-beta) ** n) * math.log1p(1.0 / beta) - tail)


def j_case2(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """Closed form with the 2F1 at -beta and the pi/sin reflection term.

    Convergence-oriented route for beta < 1; by analytic continuation it is
    valid for all beta > 0 away from alpha = 1/n.
    """
    alpha, beta = derive_params(x, inp, ch)
    _guard(alpha)
    # pi beta^(1/alpha)/sin(pi/alpha) - x^2/s2 is the reflection piece plus
    # alpha - x^2/s2 = (x2^2 - x^2)/(x2^2 + s2), exactly
    x2sq = inp.x2**2
    return (-1.0 + (x2sq - x * x) / (x2sq + ch.sigma2) + math.log(inp.a1 / ch.sigma2)
            + math.log1p(beta) - _hyp_beta(alpha, beta) + _reflection(alpha, beta))


def j_case3(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """Closed form with the 2F1 at -1/beta; free of indeterminations and
    valid for every alpha, beta > 0.  The form of the value path, here
    evaluated on gauss_2f1 as an independent reference."""
    alpha, beta = derive_params(x, inp, ch)
    return _case3_value(x, inp, ch, beta, _hyp_inv_beta(alpha, beta))


def continuation_residual(alpha: float, beta: float) -> float:
    """Difference between the two closed-form routes written as an identity:

        alpha*beta/(alpha-1) 2F1(1,(a-1)/a;(2a-1)/a;-beta) + alpha
        - pi beta^(1/alpha)/sin(pi/alpha)
        - alpha/(beta(alpha+1)) 2F1(1,(a+1)/a;(2a+1)/a;-1/beta)

    from the pieces of j_case2 and j_case3, both hypergeometric series on
    convergent routes; zero for every alpha, beta > 0 away from alpha = 1/n.
    """
    if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):
        raise DomainError("continuation_residual requires finite alpha, beta > 0 "
                          f"(alpha={alpha}, beta={beta})")
    _guard(alpha)
    return _hyp_beta(alpha, beta) - _reflection(alpha, beta) - _hyp_inv_beta(alpha, beta)


def hyp3f2_sin_identity_residual(alpha: float) -> float:
    """Residual of the reduction of two 3F2(-1) sums to pi/sin(pi/alpha):

        alpha + 3F2(1,1,(a-1)/a; 2,(2a-1)/a; -1)/(alpha-1)
              + 3F2(1,1,(a+1)/a; 2,(2a+1)/a; -1)/(alpha+1)
        = pi / sin(pi/alpha).
    """
    if not 0.0 < alpha < math.inf:
        raise DomainError(f"alpha must be finite and positive (alpha={alpha})")
    _guard(alpha)
    f1 = specfun.hyp_pfq(
        [1.0, 1.0, (alpha - 1.0) / alpha], [2.0, (2.0 * alpha - 1.0) / alpha], -1.0
    )
    f2 = specfun.hyp_pfq(
        [1.0, 1.0, (alpha + 1.0) / alpha], [2.0, (2.0 * alpha + 1.0) / alpha], -1.0
    )
    s = alpha + f1.value / (alpha - 1.0) + f2.value / (alpha + 1.0)
    return s - pi_csc_recip(alpha)
