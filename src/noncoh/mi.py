"""Closed-form mutual information of the two-mass-point magnitude channel.

The core integral J(x) (the Rayleigh-weighted log mixture density) has three
closed forms, kept as the paper's reference forms:

* a finite sum when alpha = 1/n for a positive integer n (j_case1),
* a 2F1-at-(-beta) form with a pi/sin(pi/alpha) reflection term, convergent
  for beta < 1 and cancelling next to alpha = 1/n (j_case2),
* a 2F1-at-(-1/beta) form with no removable indeterminations, valid for
  every alpha, beta > 0 by analytic continuation (j_case3).

Every value comes from the third form, with no route decision.  Its 2F1 is
phi(b, u) = 2F1(1, b; b+1; -u) with u = 1/beta, b = 2+v for J(0) and
b = 1+v for J(x2), v = sigma^2/x2^2, and the contiguous relation

    u phi(b+1, u)/(b+1) = (1 - phi(b, u))/b

gives both J from the one value phi = phi(1+v, u) of
specfun.hyp2f1_1b_value, whose continuation has its integer-b pole removed
analytically.  Quadrature is only an oracle.

Mutual information assembles as

    I = -a1 - a1 log s2 - a2 - a2 log(x2^2 + s2) - a1 J(0) - a2 J(x2),

so with the information density i(x) = -1 - log(x^2 + s2) - J(x) it is
I = a1 i(0) + a2 i(x2).  The analytic derivative dI/da2 is i(x2) - i(0)
from the same phi, plus, with x2^2 = P/a2 tied in capacity mode, one term
in the b-partial of phi for the moving mass point; it feeds the capacity
root-finder.  One function, _assemble, takes phi to J(0), J(x2), I and
dI/da2, for one input or an array of them: the scalar mutual_information
feeds it phi from hyp2f1_1b_value, and the solver and the profile feed it
phi and its b-partial from one hyp2f1_1b call.
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
    NearSingularAlpha,
)

# j_case2 and the identity residuals refuse alpha this close to 1/n, where
# the beta<1 form cancels like 1/|alpha - 1/n|.
GUARD_TOL = 1e-5
# j_case1 and j_case2 treat alpha as 1/n within this distance.
RECIPROCAL_TOL = 1e-9

# Test hook: deliberately corrupt the closed form of the value path so that
# the end-to-end verification suite can demonstrate sensitivity to sign faults.
_FAULT_FLIP_SIGN = os.environ.get("NONCOH_FAULT_INJECT", "") == "flip-2f1-sign"


class Case(enum.Enum):
    """The closed form a J value came from (DEGENERATE: none, I = 0)."""

    CASE_III = "CaseIII"
    DEGENERATE = "Degenerate"


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
    f21 = specfun.gauss_2f1(
        1.0, (alpha - 1.0) / alpha, (2.0 * alpha - 1.0) / alpha, -beta
    )
    s2 = ch.sigma2
    log_a1 = math.log(inp.a1 / s2)
    hyp_term = alpha * beta / (alpha - 1.0) * f21
    if alpha < 2.0:
        return (
            -1.0
            - x * x / s2
            + log_a1
            + math.log1p(beta)
            - hyp_term
            + _beta_pow_recip_alpha(beta, alpha) * specfun.pi_csc_recip(alpha)
        )
    # pi beta^(1/alpha)/sin(pi/alpha) ~ alpha cancels against -x^2/s2; with
    # eps = 1/alpha it is beta^eps c(eps) + alpha + alpha (beta^eps - 1), and
    # alpha - x^2/s2 = (x2^2 - x^2)/(x2^2 + s2) exactly
    log_pow = math.log(beta) / alpha
    x2sq = inp.x2**2
    return (
        -1.0
        + (x2sq - x * x) / (x2sq + s2)
        + log_a1
        + math.log1p(beta)
        - hyp_term
        + math.exp(log_pow) * specfun.pi_csc_minus_recip(1.0 / alpha)
        + alpha * math.expm1(log_pow)
    )


def _case3_value(x, inp, ch, alpha, beta):
    f21 = specfun.gauss_2f1(
        1.0, (alpha + 1.0) / alpha, (2.0 * alpha + 1.0) / alpha, -1.0 / beta
    )
    s2 = ch.sigma2
    big = inp.x2**2 + s2
    return (
        -(x * x + s2) / big
        + math.log(inp.a2 / big)
        + math.log1p(1.0 / beta)
        - alpha / (beta * (alpha + 1.0)) * f21
    )


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
    return _case2_value(x, inp, ch, dp.alpha, dp.beta)


def j_case3(x: float, inp: TwoPointInput, ch: ChannelParams) -> float:
    """Closed form with the 2F1 at -1/beta; free of indeterminations and
    valid for every alpha, beta > 0.  The form of the value path, here
    evaluated on gauss_2f1 as an independent reference."""
    dp = derive_params(x, inp, ch)
    return _case3_value(x, inp, ch, dp.alpha, dp.beta)


def _any(mask) -> bool:
    """Whether a bool, or any element of a bool array, is set (numpy's
    reductions, like its two-argument ufuncs, cost microseconds on a
    scalar)."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _assemble(a2, x2sq, s2, phi, phi_b=None, xp=np):
    """I, J(0), J(x2) and dI/da2 from phi = phi(b, u), b = 1 + s2/x2^2,
    u = (a1/a2) big/s2, big = x2^2 + s2, elementwise over arrays that
    broadcast together, or over floats with xp = math: the one assembly of
    I behind mutual_information, the solver and the profile.  xp supplies
    log and log1p; numpy's ufuncs on single floats made a scalar
    mutual_information call about 30% slower.  It reads the sign-fault
    test hook at each call.

    J(0) and J(x2) come from phi through the contiguous relation (see the
    module docstring); I = a1 i(0) + a2 i(x2) is clamped into [0, H(X)]
    within rounding (1e-10), and past that ConsistencyError is raised.
    With x2 held fixed, dI/da2 = i(x2) - i(0).  With x2^2 = P/a2
    (capacity) the mass point moves too, adding a2 (dx2^2/da2) di/dx^2 at
    x2 = -x2^2 di/dx^2 (the change of the output density drops out: it
    integrates to zero against the conditional density).  J(x2) holds x
    only in b = 1 + 1/alpha, whose x^2-derivative at x2 is -v/(x2^2+s2),
    v = s2/x2^2, so with phi_b the b-partial of phi (given in capacity
    mode only)

        i(x2) - i(0) = log(s2/big) + x2^2/big + ((1+u) phi - 1)/b,
        -x2^2 di/dx^2 = u s2 (phi_b - phi/b) / (big b).
    """
    a1 = 1.0 - a2
    big = x2sq + s2
    b = 1.0 + s2 / x2sq
    u = (a1 / a2) * (big / s2)
    # alpha/(beta (alpha+1)) 2F1(...) of J(0) and of J(x2)
    hyp0 = (1.0 - phi) / b
    hyp2 = u * phi / b
    if _FAULT_FLIP_SIGN:
        hyp0, hyp2 = -hyp0, -hyp2
    common = xp.log(a2 / big) + xp.log1p(u)
    j0 = -s2 / big + common - hyp0
    j2 = -1.0 + common - hyp2
    nats = -a1 - a1 * xp.log(s2) - a2 - a2 * xp.log(big) - a1 * j0 - a2 * j2
    h_x = -a1 * xp.log(a1) - a2 * xp.log(a2)
    if _any((nats < 0.0) | (nats > h_x)):
        if _any(nats < -1e-10):
            raise ConsistencyError(f"mutual information came out negative: {np.min(nats)}")
        if _any(nats > h_x + 1e-10):
            raise ConsistencyError(
                f"mutual information exceeds H(X) by {np.max(nats - h_x)}")
        nats = (np.clip(nats, 0.0, h_x) if isinstance(nats, np.ndarray)
                else min(max(nats, 0.0), h_x))
    d = xp.log(s2 / big) + x2sq / big + ((1.0 + u) * phi - 1.0) / b
    if phi_b is not None:
        d = d + u * s2 * (phi_b - phi / b) / (big * b)
    return nats, j0, j2, d


def mutual_information(inp: TwoPointInput, ch: ChannelParams) -> MIResult:
    """I(X;Y) in nats for the two-mass-point input, both J from the beta>=1
    closed form and one phi value (see the module docstring and _assemble).

    Degenerate inputs (a2 in {0, 1} or x2 = 0) return exactly 0.  I is
    clamped into [0, H(X)] within rounding (1e-10); past that it raises
    ConsistencyError.  The diagnostics give the series terms behind each J
    and phi's truncation bound carried into each J.
    """
    if inp.is_degenerate():
        return MIResult(0.0, math.nan, math.nan, Case.DEGENERATE, Case.DEGENERATE, {})
    s2 = ch.sigma2
    x2sq = inp.x2**2
    b = 1.0 + s2 / x2sq
    u = (inp.a1 / inp.a2) * ((x2sq + s2) / s2)
    phi = specfun.hyp2f1_1b_value(b, u)
    nats, j0, j2, _ = _assemble(inp.a2, x2sq, s2, phi.value, xp=math)
    diagnostics = {
        "j0_terms": phi.terms_used,
        "j0_truncation_bound": phi.truncation_bound / b,
        "jx2_terms": phi.terms_used,
        "jx2_truncation_bound": phi.truncation_bound * u / b,
    }
    return MIResult(float(nats), j0, j2, Case.CASE_III, Case.CASE_III, diagnostics)


def input_entropy(inp: TwoPointInput) -> float:
    """Binary entropy H(X) in nats; log 2 at a2 = 1/2, zero at the ends."""
    a2 = inp.a2
    if a2 in (0.0, 1.0):
        return 0.0
    a1 = 1.0 - a2
    return -a1 * math.log(a1) - a2 * math.log(a2)


def conditional_entropy(inp: TwoPointInput, ch: ChannelParams) -> float:
    """H(X|Y) = H(X) - I(X;Y), nonnegative since mutual_information keeps
    I within [0, H(X)]."""
    return input_entropy(inp) - mutual_information(inp, ch).nats


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


def _mi_and_derivative(a2, x2sq, s2, capacity):
    """I and dI/da2 (see _assemble), elementwise over a2 and x2sq (floats
    or arrays that broadcast together), from one hyp2f1_1b call with one
    kernel row per a2; with capacity, x2^2 = P/a2 moves with a2."""
    b = 1.0 + s2 / x2sq
    u = ((1.0 - a2) / a2) * ((x2sq + s2) / s2)
    fam = specfun.hyp2f1_1b(b, u)
    nats, _, _, d = _assemble(a2, x2sq, s2, fam.value, fam.d_db if capacity else None)
    return nats, d


def mi_derivative_a2(inp: TwoPointInput, ch: ChannelParams) -> float:
    """Analytic dI/da2 from the information density at the two mass points
    (see _assemble), through the beta>=1 closed form of J, valid at
    alpha = 1/n too.

    With ch.power_budget present the nonzero mass point is tied to the
    probability through x2^2 = P/a2; otherwise x2 is held fixed.  The
    hypergeometric building blocks are phi = 2F1(1, b; b+1; -u) and, in
    capacity mode, its b-partial, i.e. the
    3F2(2, 1+b, 1+b; 2+b, 2+b; -u) term in series form.
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
    else:
        if inp.is_degenerate():
            raise DegenerateInput("derivative requires x2^2 > 0")
        x2sq = inp.x2**2
    return float(_mi_and_derivative(a2, x2sq, s2, capacity)[1])
