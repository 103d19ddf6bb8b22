"""Closed-form mutual information of the two-mass-point magnitude channel.

The core integral J(x) (the Rayleigh-weighted log mixture density) comes
from the paper's 2F1-at-(-1/beta) closed form, valid for every alpha,
beta > 0 (noncoh.reference keeps all three of the paper's forms).  Its 2F1 is
phi(b, u) = 2F1(1, b; b+1; -u) with u = 1/beta, b = 2+v for J(0) and
b = 1+v for J(x2), v = sigma^2/x2^2 = 1/t, and the contiguous relation

    u phi(b+1, u)/(b+1) = (1 - phi(b, u))/b

gives both J from the one value phi = phi(1+v, u) of
specfun.hyp2f1_1b_value, whose continuation has its integer-b pole removed
analytically.  Quadrature is only an oracle.

Mutual information depends on x2 and sigma^2 only through t = x2^2/sigma^2
(scaling x2 and sigma by s scales the output by s), and the value path takes
t as its only scale input, so this holds by construction.  At sigma^2 = 1

    I = -a1 - a2 - a2 log(1 + t) - a1 J(0) - a2 J(x2) = a1 i(0) + a2 i(x2)

with the information density i(x) = -1 - log(x^2 + 1) - J(x), x in units of
sigma; sigma^2 only shifts each J by -log sigma^2.  The analytic derivative
dI/da2 is i(x2) - i(0) from the same phi, plus, with t = SNR/a2 tied in
capacity mode, one term in the b-partial of phi for the moving mass point; it
feeds the capacity root-finder.  One function, _assemble, takes phi to J(0),
J(x2) and I, and one, _slope, to dI/da2, for one input or an array of them:
mutual_information and the fixed-x2 mi_derivative_a2 feed them phi from
hyp2f1_1b_value.  In capacity mode _phi_deriv gives phi and dI/da2 from one
hyp2f1_1b call with one row per a2 (phi's b-partial only enters dI/da2), and
_mi_of_phi takes phi to I: the solver carries phi through its refinement and
assembles I at its candidates alone, and _mi_deriv (the profile, the
capacity-mode mi_derivative_a2) does both, after _check_snr's range check.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import specfun
from .channel import ChannelParams, TwoPointInput, one_mass_point
from .errors import ConsistencyError, DegenerateInput, DomainError

# the smallest normal float: _check_snr refuses capacity-mode numbers below it
_TINY = np.finfo(float).tiny

# Test hook: deliberately corrupt the closed form of the value path so that
# the end-to-end verification suite can demonstrate sensitivity to sign faults.
_FAULT_FLIP_SIGN = os.environ.get("NONCOH_FAULT_INJECT", "") == "flip-2f1-sign"


@dataclass(frozen=True)
class MIResult:
    """case_j0 and case_jx2 name the closed form behind each J: "CaseIII",
    or "Degenerate" for one mass point (I = 0, both J NaN)."""

    nats: float
    j0: float
    j_x2: float
    case_j0: str
    case_jx2: str
    diagnostics: dict


def _any(mask) -> bool:
    """Whether a bool, or any element of a bool array, is set (numpy's
    reductions, like its two-argument ufuncs, cost microseconds on a
    scalar)."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _assemble(a2, t, b, u, phi, xp=np):
    """I, J(0) and J(x2) at sigma^2 = 1 from phi = phi(b, u), with
    t = x2^2/sigma^2 and phi's arguments b and u from _phi_args, elementwise
    over arrays that broadcast together, or over floats with xp = math: the one
    assembly behind mutual_information, mi_derivative_a2, the solver and the
    profile.
    xp supplies log and log1p; numpy's ufuncs on single floats made a scalar
    mutual_information call about 30% slower.  It reads the sign-fault test
    hook at each call.

    J(0) and J(x2) come from phi through the contiguous relation (see the
    module docstring); I = a1 i(0) + a2 i(x2) is clamped into [0, H(X)]
    within rounding (1e-10); past that, or for a NaN, it raises
    ConsistencyError.
    """
    a1 = 1.0 - a2
    big = t + 1.0
    # alpha/(beta (alpha+1)) 2F1(...) of J(0) and of J(x2)
    hyp0 = (1.0 - phi) / b
    hyp2 = u * phi / b
    if _FAULT_FLIP_SIGN:
        hyp0, hyp2 = -hyp0, -hyp2
    common = xp.log(a2 / big) + xp.log1p(u)
    j0 = -1.0 / big + common - hyp0
    j2 = -1.0 + common - hyp2
    nats = -a1 - a2 - a2 * xp.log(big) - a1 * j0 - a2 * j2
    h_x = -a1 * xp.log(a1) - a2 * xp.log(a2)
    if _any((nats < 0.0) | (nats > h_x) | (nats != nats)):
        if _any(nats != nats):
            raise ConsistencyError("mutual information came out NaN")
        if _any(nats < -1e-10):
            raise ConsistencyError(f"mutual information came out negative: {np.min(nats)}")
        if _any(nats > h_x + 1e-10):
            raise ConsistencyError(
                f"mutual information exceeds H(X) by {np.max(nats - h_x)}")
        nats = (np.clip(nats, 0.0, h_x) if isinstance(nats, np.ndarray)
                else min(max(nats, 0.0), h_x))
    return nats, j0, j2


def _slope(t, b, u, phi, phi_b=None, xp=np):
    """dI/da2 at sigma^2 = 1 from phi = phi(b, u), elementwise as _assemble.

    With x2 held fixed, dI/da2 = i(x2) - i(0).  With t = SNR/a2 (capacity)
    the mass point moves too, adding a2 (dt/da2) di/dx^2 at x2 = -t di/dx^2
    (the change of the output density drops out: it integrates to zero
    against the conditional density).  J(x2) holds x only in
    b = 1 + 1/alpha, whose x^2-derivative at x2 is -v/(1 + t), v = 1/t, so
    with phi_b the b-partial of phi (given in capacity mode only)

        i(x2) - i(0) = log(1/(1+t)) + t/(1+t) + ((1+u) phi - 1)/b,
        -t di/dx^2 = u (phi_b - phi/b) / ((1+t) b).
    """
    big = t + 1.0
    d = xp.log(1.0 / big) + t / big + ((1.0 + u) * phi - 1.0) / b
    if phi_b is not None:
        d += u * (phi_b - phi / b) / (big * b)
    return d


def _fixed_args(inp, ch):
    """(t, b, u) of a fixed x2, t = x2^2/sigma^2 and phi's arguments b and u,
    or None for one mass point (channel.one_mass_point).  DomainError naming
    the input where u overflows."""
    if one_mass_point(inp, ch):
        return None
    t = inp.x2**2 / ch.sigma2
    b, u = _phi_args(inp.a2, t)
    if not u < math.inf:
        raise DomainError(f"a2={inp.a2!r}, x2={inp.x2!r}, sigma2={ch.sigma2!r} is out of "
                          "range: u = (a1/a2)(x2^2 + sigma2)/sigma2 is past the float range")
    return t, b, u


def mutual_information(inp: TwoPointInput, ch: ChannelParams) -> MIResult:
    """I(X;Y) in nats for the two-mass-point input, both J from the beta>=1
    closed form and one phi value (see the module docstring and _assemble).

    One mass point (channel.one_mass_point) returns exactly 0.  I is
    clamped into [0, H(X)] within rounding (1e-10); past that, or for a
    NaN, it raises ConsistencyError.  The diagnostics give the series terms
    behind each J and phi's truncation bound carried into each J.
    """
    args = _fixed_args(inp, ch)
    if args is None:
        return MIResult(0.0, math.nan, math.nan, "Degenerate", "Degenerate", {})
    t, b, u = args
    phi = specfun.hyp2f1_1b_value(b, u)
    nats, j0, j2 = _assemble(inp.a2, t, b, u, phi.value, xp=math)
    log_s2 = math.log(ch.sigma2)
    diagnostics = {
        "j0_terms": phi.terms_used,
        "j0_truncation_bound": phi.truncation_bound / b,
        "jx2_terms": phi.terms_used,
        "jx2_truncation_bound": phi.truncation_bound * u / b,
    }
    return MIResult(float(nats), j0 - log_s2, j2 - log_s2, "CaseIII", "CaseIII", diagnostics)


def input_entropy(inp: TwoPointInput) -> float:
    """Binary entropy H(X) in nats; log 2 at a2 = 1/2, zero at the ends."""
    a2 = inp.a2
    if a2 in (0.0, 1.0):
        return 0.0
    a1 = 1.0 - a2
    return -a1 * math.log(a1) - a2 * math.log(a2)


def _phi_args(a2, t):
    """phi's arguments b = 1 + 1/t and u = (a1/a2)(1 + t)."""
    return 1.0 + 1.0 / t, ((1.0 - a2) / a2) * (t + 1.0)


def _check_snr(a2, snr):
    """DomainError, naming the first refused SNR in broadcast order, where a
    number of I or dI/da2 at t = SNR/a2 leaves the normal float range,
    elementwise over a2 in (0, 1) and the SNR as _phi_deriv takes them: the
    SNR falls below the smallest normal float, or t or u overflows.  With
    0 < a2 < 1, t = SNR/a2 >= SNR and u = (a1/a2)(1 + t) >= a1/a2 >= 2^-53
    are normal where the SNR is, and b = 1 + 1/t is then finite; a NaN SNR
    fails the first test.  t and u fall with a2, so at one SNR every a2 above
    a passing one passes too (the solver's scan checks its lower edge)."""
    with np.errstate(over="ignore", divide="ignore"):
        t = np.divide(snr, a2)  # as a Python float, t = 0 would raise in 1/t
        fine = (snr >= _TINY) & (np.maximum(t, _phi_args(a2, t)[1]) < np.inf)
    if not fine.all():
        raise DomainError(f"SNR {np.broadcast_to(snr, fine.shape)[~fine][0]:.6g} is out of "
                          "range: at x2^2/sigma2 = SNR/a2 a number of 2F1(1,b;b+1;-u) or "
                          "of dI/da2 leaves the normal float range")


def _phi_deriv(a2, snr):
    """phi = phi(b, u) and dI/da2 with x2^2/sigma^2 = t = SNR/a2 moving with
    a2 (see _slope), elementwise over a2 and the SNR (floats or arrays
    that broadcast together), from one hyp2f1_1b call with one row per a2:
    the solver's scan and refinement, which carry phi and take I from it
    (_mi_of_phi) only where they need it."""
    t = snr / a2
    b, u = _phi_args(a2, t)
    fam = specfun.hyp2f1_1b(b, u)
    return fam.value, _slope(t, b, u, fam.value, fam.d_db)


def _mi_of_phi(a2, snr, phi):
    """I at t = SNR/a2 from phi = phi(b, u) there (see _phi_deriv), by
    _assemble, elementwise as _phi_deriv, with no kernel call."""
    t = snr / a2
    b, u = _phi_args(a2, t)
    return _assemble(a2, t, b, u, phi)[0]


def _mi_deriv(a2, snr):
    """_check_snr, then I and dI/da2 with t = SNR/a2 moving with a2,
    elementwise as _phi_deriv, from its one hyp2f1_1b call."""
    _check_snr(a2, snr)
    phi, d = _phi_deriv(a2, snr)
    return _mi_of_phi(a2, snr, phi), d


def mi_derivative_a2(inp: TwoPointInput, ch: ChannelParams) -> float:
    """Analytic dI/da2 from the information density at the two mass points
    (see _slope), through the beta>=1 closed form of J, valid at
    alpha = 1/n too.

    With ch.power_budget present the nonzero mass point is tied to the
    probability through x2^2 = P/a2; otherwise x2 is held fixed.  Either
    way it is computed in t = x2^2/sigma^2 alone.  The hypergeometric
    building blocks are phi = 2F1(1, b; b+1; -u) and, in capacity mode, its
    b-partial, i.e. the 3F2(2, 1+b, 1+b; 2+b, 2+b; -u) term in series form:
    a fixed x2 takes mutual_information's route, capacity mode _mi_deriv's.
    """
    a2 = inp.a2
    if a2 <= 0.0 or a2 >= 1.0:
        raise DegenerateInput("derivative requires 0 < a2 < 1")
    if ch.power_budget is None:
        args = _fixed_args(inp, ch)
        if args is None:
            raise DegenerateInput(f"derivative requires two mass points, but at "
                                  f"x2={inp.x2!r}, sigma2={ch.sigma2!r}, "
                                  "b = 1 + sigma2/x2^2 overflows")
        t, b, u = args
        phi = specfun.hyp2f1_1b_value(b, u).value
        _assemble(a2, t, b, u, phi, xp=math)  # I's check into [0, H(X)]
        return _slope(t, b, u, phi, xp=math)
    snr = ch.power_budget / ch.sigma2
    d = _mi_deriv(a2, snr)[1]  # an SNR out of range is named before x2 is tested
    t = snr / a2
    if inp.x2 > 0.0 and abs(inp.x2**2 / ch.sigma2 - t) > 1e-6 * t:
        raise DomainError("capacity mode requires x2^2 = power_budget / a2 (got "
                          f"x2^2/sigma2={inp.x2**2 / ch.sigma2}, expected {t})")
    return float(d)
