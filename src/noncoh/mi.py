"""Closed-form mutual information of the two-mass-point magnitude channel.

The core integral J(x) (the Rayleigh-weighted log mixture density) has three
closed forms:

* a finite sum when alpha = 1/n for a positive integer n (j_case1, kept as
  the paper's reference form),
* a 2F1-at-(-beta) form with a pi/sin(pi/alpha) reflection term, convergent
  for beta < 1,
* a 2F1-at-(-1/beta) form with no removable indeterminations, valid for
  every beta > 0 by analytic continuation.

_j_eval picks the route of every J, in one place: a beta < 1 value takes
the second form unless alpha is below CASE2_ALPHA_MIN or within GUARD_TOL of
some 1/n (1/n itself included), where that form cancels; those values and
every beta >= 1 take the third form.  Next to 1/n its 2F1 at -1/beta < -1
comes from specfun.hyp2f1_1b, whose continuation has its integer-b pole
removed analytically, and elsewhere from specfun.gauss_2f1_diag.  Every J
is a closed form; quadrature is only an oracle.

Mutual information assembles as

    I = -a1 - a1 log s2 - a2 - a2 log(x2^2 + s2) - a1 J(0) - a2 J(x2),

and the analytic derivative dI/da2 (with x2^2 = P/a2 tied in capacity mode)
feeds the capacity root-finder.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass

import numpy as np

from . import specfun
from .channel import ChannelParams, TwoPointInput, derive_params, nearest_reciprocal
from .errors import (
    CaseMismatch,
    ConsistencyError,
    DegenerateInput,
    DomainError,
    MissingPowerBudget,
    NearSingularAlpha,
)

LOG2 = math.log(2.0)

# Routing of J.  The beta<1 form cancels like 1/|alpha - 1/n| next to
# alpha = 1/n, and below CASE2_ALPHA_MIN (1/alpha past 64.5) it degrades in
# bands around 1/n wide enough to cover the axis.
GUARD_TOL = 1e-5
CASE2_ALPHA_MIN = 1.0 / 64.5
# j_case1 and j_case2 treat alpha as 1/n within this distance.
RECIPROCAL_TOL = 1e-9

# c(eps) = pi/sin(pi eps) - 1/eps = eps sum_k m_k eps^(2k), to double
# precision for eps <= 1/2; the m_k highest first, for Horner's rule
_PI_CSC_SERIES = tuple(float(m) for m in specfun._REFLECTION_SERIES[::-1, 0])

# Test hook: deliberately corrupt the beta>=1 closed form so that the
# end-to-end verification suite can demonstrate sensitivity to sign faults.
_FAULT_FLIP_SIGN = os.environ.get("NONCOH_FAULT_INJECT", "") == "flip-2f1-sign"


class Case(enum.Enum):
    """The closed form a J value came from (DEGENERATE: none, I = 0)."""

    CASE_II = "CaseII"
    CASE_III = "CaseIII"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class JEval:
    """One J value with the series diagnostics of its route; None where the
    route reports none (the hyp2f1_1b continuation)."""

    value: float
    case: Case
    terms_used: int | None
    truncation_bound: float | None


@dataclass(frozen=True)
class MIResult:
    nats: float
    j0: float
    j_x2: float
    case_j0: Case
    case_jx2: Case
    diagnostics: dict


def _beta_pow_recip_alpha(beta: float, alpha: float) -> float:
    """beta^(1/alpha) in log space to survive extreme beta and small alpha."""
    return math.exp(math.log(beta) / alpha)


def _case1_value(x, inp, ch, n):
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    beta = (inp.a2 / inp.a1) * (s2 / big)
    j11 = -(x * x + s2) / big
    j12 = math.log(inp.a2 / big)
    if beta <= 1.0:
        # (1 - (-beta)^n) log(1 + 1/beta) - sum_{k=1..n} (-beta)^(n-k)/k,
        # all terms O(1) for beta <= 1
        sign_n = -1.0 if n % 2 else 1.0
        tail = 0.0
        for k in range(1, n + 1):
            m = n - k
            sign = -1.0 if m % 2 else 1.0
            tail += sign * beta**m / k
        j13 = (1.0 - sign_n * beta**n) * math.log1p(1.0 / beta) - tail
    else:
        # same quantity with the beta^n blow-up cancelled analytically:
        # J13 = log(1 + 1/beta) - sum_{j>=1} (-1)^(j+1) beta^(-j) / (n+j)
        if beta >= 1.25:
            n_terms = int(math.ceil(37.0 / math.log(beta))) + 4
            j = np.arange(1, n_terms + 1, dtype=float)
            signs = np.where(np.arange(1, n_terms + 1) % 2 == 1, 1.0, -1.0)
            s = float(np.sum(signs * beta**(-j) / (n + j)))
        else:
            m0, n_tail = 24, 96
            j = np.arange(1, m0 + n_tail + 1, dtype=float)
            signs = np.where(np.arange(1, m0 + n_tail + 1) % 2 == 1, 1.0, -1.0)
            terms = signs * beta**(-j) / (n + j)
            s = float(terms[:m0].sum() + specfun._euler_average(terms[m0:])[0])
        j13 = math.log1p(1.0 / beta) - s
    return j11 + j12 + j13


def _case2_value(x, inp, ch, alpha, beta):
    res = specfun.gauss_2f1_diag(
        1.0, (alpha - 1.0) / alpha, (2.0 * alpha - 1.0) / alpha, -beta
    )
    s2 = ch.sigma2
    log_a1 = math.log(inp.a1 / s2)
    hyp_term = alpha * beta / (alpha - 1.0) * res.value
    if alpha < 2.0:
        value = (
            -1.0
            - x * x / s2
            + log_a1
            + math.log1p(beta)
            - hyp_term
            + _beta_pow_recip_alpha(beta, alpha) * specfun.pi_csc_recip(alpha)
        )
        return value, res
    # pi beta^(1/alpha)/sin(pi/alpha) ~ alpha cancels against -x^2/s2; with
    # eps = 1/alpha it is beta^eps c(eps) + alpha + alpha (beta^eps - 1), and
    # alpha - x^2/s2 = (x2^2 - x^2)/(x2^2 + s2) exactly
    eps = 1.0 / alpha
    eps2 = eps * eps
    c = 0.0
    for m in _PI_CSC_SERIES:
        c = c * eps2 + m
    log_pow = math.log(beta) / alpha
    x2sq = inp.x2**2
    value = (
        -1.0
        + (x2sq - x * x) / (x2sq + s2)
        + log_a1
        + math.log1p(beta)
        - hyp_term
        + math.exp(log_pow) * eps * c
        + alpha * math.expm1(log_pow)
    )
    return value, res


def _case3_from_2f1(x, inp, ch, alpha, beta, f21):
    """The beta>=1 closed form given f21 = 2F1(1, b; b+1; -1/beta),
    b = (alpha+1)/alpha."""
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    hyp_term = alpha / (beta * (alpha + 1.0)) * f21
    if _FAULT_FLIP_SIGN:
        hyp_term = -hyp_term
    return (
        -(x * x + s2) / big
        + math.log(inp.a2 / big)
        + math.log1p(1.0 / beta)
        - hyp_term
    )


def _case3_value(x, inp, ch, alpha, beta):
    res = specfun.gauss_2f1_diag(
        1.0, (alpha + 1.0) / alpha, (2.0 * alpha + 1.0) / alpha, -1.0 / beta
    )
    return _case3_from_2f1(x, inp, ch, alpha, beta, res.value), res


def j_case1(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """Finite-sum closed form, valid when alpha is the reciprocal of a
    positive integer (any beta > 0)."""
    alpha = derive_params(x, inp, ch).alpha
    n, dist = nearest_reciprocal(alpha)
    if dist >= RECIPROCAL_TOL:
        raise CaseMismatch(f"alpha={alpha} is not 1/n within {RECIPROCAL_TOL}")
    return _case1_value(x, inp, ch, n)


def j_case2(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """Closed form with the 2F1 at -beta and the pi/sin reflection term.

    Convergence-oriented route for beta < 1; by analytic continuation it is
    valid for all beta > 0 away from alpha = 1/n.
    """
    dp = derive_params(x, inp, ch)
    _, dist = nearest_reciprocal(dp.alpha)
    if dist < RECIPROCAL_TOL:
        raise CaseMismatch(
            f"the beta<1 form is undefined at alpha = 1/n (alpha={dp.alpha})"
        )
    if dist < GUARD_TOL:
        raise NearSingularAlpha(
            f"alpha={dp.alpha} within the cancellation guard band around 1/n"
        )
    return _case2_value(x, inp, ch, dp.alpha, dp.beta)[0]


def j_case3(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """Closed form with the 2F1 at -1/beta; free of indeterminations and
    valid for every alpha, beta > 0 (default route for beta >= 1)."""
    dp = derive_params(x, inp, ch)
    return _case3_value(x, inp, ch, dp.alpha, dp.beta)[0]


def _j_eval(x, inp, ch) -> JEval:
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    alpha = (inp.x2**2 / big) * ((x * x + s2) / s2)
    beta = (inp.a2 / inp.a1) * (s2 / big)
    if beta < 1.0 and alpha >= CASE2_ALPHA_MIN:
        if nearest_reciprocal(alpha)[1] >= GUARD_TOL:
            value, res = _case2_value(x, inp, ch, alpha, beta)
            return JEval(value, Case.CASE_II, res.terms_used, res.truncation_bound)
        # the beta>=1 form needs its 2F1 at -1/beta < -1, where only the
        # kernel's continuation converges
        f21 = specfun.hyp2f1_1b(1.0 + 1.0 / alpha, 1.0 / beta).value
        return JEval(_case3_from_2f1(x, inp, ch, alpha, beta, f21),
                     Case.CASE_III, None, None)
    value, res = _case3_value(x, inp, ch, alpha, beta)
    return JEval(value, Case.CASE_III, res.terms_used, res.truncation_bound)


def mutual_information(inp: TwoPointInput, ch: ChannelParams) -> MIResult:
    """I(X;Y) in nats for the two-mass-point input, each J routed by case.

    Degenerate inputs (a2 in {0, 1} or x2 = 0) return exactly 0.
    """
    if inp.is_degenerate():
        return MIResult(0.0, math.nan, math.nan, Case.DEGENERATE, Case.DEGENERATE, {})
    j0 = _j_eval(0.0, inp, ch)
    j2 = _j_eval(inp.x2, inp, ch)
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    nats = (
        -inp.a1
        - inp.a1 * math.log(s2)
        - inp.a2
        - inp.a2 * math.log(big)
        - inp.a1 * j0.value
        - inp.a2 * j2.value
    )
    if nats < 0.0:
        if nats < -1e-10:
            raise ConsistencyError(f"mutual information came out negative: {nats}")
        nats = 0.0
    if nats > LOG2 + 1e-10:
        raise ConsistencyError(f"mutual information exceeds log 2: {nats}")
    diagnostics = {
        "j0_terms": j0.terms_used,
        "j0_truncation_bound": j0.truncation_bound,
        "jx2_terms": j2.terms_used,
        "jx2_truncation_bound": j2.truncation_bound,
    }
    return MIResult(nats, j0.value, j2.value, j0.case, j2.case, diagnostics)


def input_entropy(inp: TwoPointInput) -> float:
    """Binary entropy H(X) in nats; log 2 at a2 = 1/2, zero at the ends."""
    a2 = inp.a2
    if a2 in (0.0, 1.0):
        return 0.0
    a1 = 1.0 - a2
    return -a1 * math.log(a1) - a2 * math.log(a2)


def conditional_entropy(inp: TwoPointInput, ch: ChannelParams) -> float:
    """H(X|Y) = H(X) - I(X;Y), clamped to zero within rounding (1e-10)."""
    h = input_entropy(inp) - mutual_information(inp, ch).nats
    if h < 0.0:
        if h < -1e-10:
            raise ConsistencyError(f"conditional entropy came out negative: {h}")
        h = 0.0
    return h


def continuation_residual(alpha: float, beta: float) -> float:
    """Difference between the two closed-form routes written as an identity:

        alpha*beta/(alpha-1) 2F1(1,(a-1)/a;(2a-1)/a;-beta) + alpha
        - pi beta^(1/alpha)/sin(pi/alpha)
        - alpha/(beta(alpha+1)) 2F1(1,(a+1)/a;(2a+1)/a;-1/beta)

    evaluated with both hypergeometric series on convergent routes; zero for
    every alpha, beta > 0 away from alpha = 1/n.
    """
    if alpha <= 0.0 or beta <= 0.0:
        raise DomainError("continuation_residual requires alpha, beta > 0")
    _, dist = nearest_reciprocal(alpha)
    if dist < GUARD_TOL:
        raise NearSingularAlpha(f"alpha={alpha} within guard band of 1/n")
    lhs = (
        alpha * beta / (alpha - 1.0)
        * specfun.gauss_2f1(1.0, (alpha - 1.0) / alpha, (2.0 * alpha - 1.0) / alpha, -beta)
        + alpha
        - _beta_pow_recip_alpha(beta, alpha) * specfun.pi_csc_recip(alpha)
    )
    rhs = (
        alpha / (beta * (alpha + 1.0))
        * specfun.gauss_2f1(1.0, (alpha + 1.0) / alpha, (2.0 * alpha + 1.0) / alpha, -1.0 / beta)
    )
    return lhs - rhs


def hyp3f2_sin_identity_residual(alpha: float) -> float:
    """Residual of the reduction of two 3F2(-1) sums to pi/sin(pi/alpha):

        alpha + 3F2(1,1,(a-1)/a; 2,(2a-1)/a; -1)/(alpha-1)
              + 3F2(1,1,(a+1)/a; 2,(2a+1)/a; -1)/(alpha+1)
        = pi / sin(pi/alpha).
    """
    if alpha <= 0.0:
        raise DomainError("alpha must be positive")
    _, dist = nearest_reciprocal(alpha)
    if dist < GUARD_TOL:
        raise NearSingularAlpha(f"alpha={alpha} within guard band of 1/n")
    f1 = specfun.hyp_pfq(
        [1.0, 1.0, (alpha - 1.0) / alpha], [2.0, (2.0 * alpha - 1.0) / alpha], -1.0
    )
    f2 = specfun.hyp_pfq(
        [1.0, 1.0, (alpha + 1.0) / alpha], [2.0, (2.0 * alpha + 1.0) / alpha], -1.0
    )
    s = alpha + f1.value / (alpha - 1.0) + f2.value / (alpha + 1.0)
    return s - specfun.pi_csc_recip(alpha)


def _dI_da2(a2, x2sq, x2sq_p, v_p, s2):
    """The chain rule for dI/da2 over the beta>=1 closed form of both J
    integrals, elementwise over a2 and x2sq (floats or arrays), with one
    kernel call for all of them.  x2sq_p and v_p are the a2-derivatives of
    x2^2 and of sigma^2/x2^2."""
    a1 = 1.0 - a2
    big = x2sq + s2
    big_p = x2sq_p
    v = s2 / x2sq
    u = (a1 / a2) * (big / s2)
    u_p = (-1.0 / a2**2) * (big / s2) + (a1 / a2) * (big_p / s2)
    # row 0 serves J(0), row 1 serves J(x2)
    b = np.array([2.0 + v, 1.0 + v])
    fam = specfun.hyp2f1_1b(b, u)
    # (u/b) * 2F1(1, b; b+1; -u) and its a2-derivative
    hyp = (u / b) * fam.value
    hyp_p = (u_p * b - u * v_p) / b**2 * fam.value + (u / b) * (
        v_p * fam.d_db - u_p * fam.d_dz
    )
    # the terms J(0) and J(x2) share, and their a2-derivative
    log_big = np.log(big)
    common = np.log(a2) - log_big + np.log1p(u)
    common_p = 1.0 / a2 - big_p / big + u_p / (1.0 + u)
    j0 = -s2 / big + common - hyp[0]
    j2 = -1.0 + common - hyp[1]
    j0_p = s2 * big_p / big**2 + common_p - hyp_p[0]
    j2_p = common_p - hyp_p[1]
    return (
        np.log(s2) - log_big - a2 * big_p / big
        + j0 - a1 * j0_p - j2 - a2 * j2_p
    )


def mi_derivative_a2(inp: TwoPointInput, ch: ChannelParams) -> float:
    """Analytic dI/da2, assembled by the chain rule over the beta>=1 closed
    form for both J integrals (the indetermination-free route), valid at
    alpha = 1/n too.

    With ch.power_budget present the nonzero mass point is tied to the
    probability through x2^2 = P/a2; otherwise x2 is held fixed.  The
    hypergeometric building blocks are the argument and parameter partials
    of 2F1(1, b; b+1; z), i.e. the 2F1(2, 1+b; 2+b; z) and
    3F2(2, 1+b, 1+b; 2+b, 2+b; z) terms in series form.
    """
    a2 = inp.a2
    if a2 <= 0.0 or a2 >= 1.0:
        raise DegenerateInput("derivative requires 0 < a2 < 1")
    s2 = ch.sigma2
    capacity = ch.power_budget is not None
    if capacity:
        p_bud = ch.power_budget
        x2sq = p_bud / a2
        if inp.x2 > 0.0 and abs(inp.x2**2 - x2sq) > 1e-6 * x2sq:
            raise DomainError(
                "capacity mode requires x2^2 = power_budget / a2 "
                f"(got x2^2={inp.x2 ** 2}, expected {x2sq})"
            )
        x2sq_p = -p_bud / a2**2
        v_p = s2 / p_bud
    else:
        if inp.x2 <= 0.0:
            raise DegenerateInput("derivative requires x2 > 0")
        x2sq = inp.x2**2
        x2sq_p = 0.0
        v_p = 0.0
    return float(_dI_da2(a2, x2sq, x2sq_p, v_p, s2))


def mi_derivative_a2_capacity(a2, ch: ChannelParams) -> np.ndarray:
    """dI/da2 with x2^2 = P/a2 at every entry of the array a2, in one kernel
    call: the formula of mi_derivative_a2 in capacity mode, batched."""
    a2 = np.asarray(a2, dtype=float)
    if not ((a2 > 0.0) & (a2 < 1.0)).all():
        raise DegenerateInput("derivative requires 0 < a2 < 1")
    if ch.power_budget is None:
        raise MissingPowerBudget("capacity mode needs ChannelParams.power_budget")
    p_bud, s2 = ch.power_budget, ch.sigma2
    return _dI_da2(a2, p_bud / a2, -p_bud / a2**2, s2 / p_bud, s2)
