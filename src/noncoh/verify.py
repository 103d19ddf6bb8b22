"""Self-verification families: every closed form checked against an
independent back-end (quadrature, finite differences, resummation, random
property sampling).  Used by the `verify` CLI command and by the test suite;
the `mi --verify` and `deriv --verify` flags run its checks of I against
quadrature and of dI/da2 against fd_mi_derivative, with its tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mi, oracle, reference, specfun
from .channel import ChannelParams, TwoPointInput, derive_params

# I against quadrature (absolute), dI/da2 against differences (relative)
MI_TOLERANCE = 1e-7
DERIV_TOLERANCE = 1e-5
_ALPHA_RANGE = (0.3, 9.7)  # check_continuation's alphas (see its docstring)


@dataclass(frozen=True)
class CheckResult:
    """A check's verdict: passed is worst <= tolerance, false for a NaN worst."""

    name: str
    worst: float
    tolerance: float
    detail: str = ""

    @classmethod
    def of(cls, name: str, residuals, tolerance: float, detail: str = "") -> CheckResult:
        """The result whose worst is the largest of residuals, 0.0 for none;
        np.max keeps a NaN, which max(w, r), np.fmax and np.nanmax drop."""
        return cls(name, float(np.max(residuals, initial=0.0)), tolerance, detail)

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: worst residual {self.worst:.3e} "
            f"(tolerance {self.tolerance:.1e}) {self.detail}"
        )


def check_partial_sum_bounds(cases: int = 1000) -> CheckResult:
    """0 <= T_n(q) <= q for random q in [0, 1] and n up to 500, every T_n
    from one array call."""
    rng = np.random.default_rng(2024)
    q, n = rng.uniform(0.0, 1.0, cases), rng.integers(1, 501, cases)
    t = reference.log1p_series_partial_sum(q, n)
    return CheckResult.of("partial-sum bounds 0 <= T_n <= q",
                          np.maximum(np.maximum(-t, t - q), 0.0), 0.0, f"({cases} cases)")


def check_oracle_equivalence(
    n_a2: int = 20, n_ratio: int = 13
) -> tuple[CheckResult, CheckResult]:
    """Closed-form J and I against the adaptive-quadrature oracle on a grid
    over a2 in [0.02, 0.98] and x2/sigma in [0.1, 1e3]; every quadrature J
    comes from one oracle.j_quadrature call, and the quadrature I is
    assembled from the two J's of its point."""
    ch = ChannelParams(sigma2=1.0)
    inps = [TwoPointInput(a2=float(a2), x2=float(r))
            for a2 in np.linspace(0.02, 0.98, n_a2)
            for r in np.logspace(-1.0, 3.0, n_ratio)]
    j_quad = oracle.j_quadrature([x for inp in inps for x in (0.0, inp.x2)],
                                 [inp for inp in inps for _ in (0, 1)], ch)
    res_j, res_i = [], []
    for inp, (j0, j_x2) in zip(inps, j_quad.reshape(-1, 2).tolist()):
        res = mi.mutual_information(inp, ch)
        res_j += [abs(res.j0 - j0), abs(res.j_x2 - j_x2)]
        res_i.append(abs(res.nats - oracle.mi_from_j(inp, ch, j0, j_x2)))
    grid = f"({len(inps)}-point grid)"
    return (CheckResult.of("closed-form J vs quadrature", res_j, 1e-8, grid),
            CheckResult.of("closed-form I vs quadrature", res_i, MI_TOLERANCE, grid))


def check_continuation(n_alpha: int = 10, n_beta: int = 10) -> CheckResult:
    """Residual of the identity connecting the beta<1 and beta>=1 forms.

    Both sides grow like beta^(1/alpha) and cancel, so an absolute residual
    target is only meaningful in double precision while that scale stays
    moderate; the grid keeps alpha >= 0.3 with beta in [0.1, 10] (pieces up
    to ~2e3, cancellation noise well below 1e-10).
    """
    alphas = np.logspace(math.log10(_ALPHA_RANGE[0]), math.log10(_ALPHA_RANGE[1]), n_alpha)
    betas = np.logspace(-1.0, 1.0, n_beta).tolist()
    residuals = [abs(reference.continuation_residual(a, b))
                 for a in alphas.tolist() for b in betas]
    return CheckResult.of("continuation identity", residuals, 1e-8,
                          f"({n_alpha * n_beta}-point grid)")


def check_sin_identity(alphas=(0.3, 0.6, 1.4, 2.0, 3.7, 5.5, 8.9)) -> CheckResult:
    """Residual of the reduction of the two 3F2(-1) sums to pi/sin(pi/alpha)."""
    residuals = [abs(reference.hyp3f2_sin_identity_residual(float(a))) for a in alphas]
    return CheckResult.of("3F2(-1) sin identity", residuals, 1e-8, f"({len(alphas)} alphas)")


def fd_mi_derivative(inp: TwoPointInput, ch: ChannelParams) -> tuple[float, float]:
    """dI/da2 by oracle.fd_derivative's five-point stencil on I along a2,
    x2 held fixed or, with ch.power_budget set, tied as x2 = sqrt(P/a2), and
    the noise allowance of that value.  The steps are h = lam FD_STEP, with
    lam = min(a2, 1 - a2) the scale on which I varies, so the truncation
    error stays ~ FD_STEP^4 relative and a2 +- 2h inside (0, 1).  The stencil
    turns an absolute error e in each I into up to (1 + 8 + 8 + 1) e / (12 h),
    e taken as 16 ulps of the size of I's largest addends, 1 + log(1 + t) at
    t = x2^2/sigma^2."""
    a2, power = inp.a2, ch.power_budget
    if power is None:
        f = lambda a: mi.mutual_information(TwoPointInput(a, inp.x2), ch).nats
        t = inp.x2**2 / ch.sigma2
    else:
        f = lambda a: mi.mutual_information(TwoPointInput(a, math.sqrt(power / a)), ch).nats
        t = power / ch.sigma2 / a2
    lam = min(a2, 1.0 - a2)
    num = oracle.fd_derivative(lambda s: f(a2 + lam * s), 0.0) / lam
    return num, 1.5 * 16 * math.ulp(1.0) * (1.0 + math.log1p(t)) / (lam * oracle.FD_STEP)


def check_derivative(points: int = 50) -> CheckResult:
    """Analytic dI/da2 against fd_mi_derivative's differences, relative, at
    the cases of one draw with columns a2, log10 SNR, a coin and log10 x2: a
    coin below 0.3 holds x2 fixed, any other ties x2^2 = SNR/a2.  The tied
    values come from one mi._mi_deriv call, which runs mi._check_snr itself,
    with the bits of one call each (a row's sums do not depend on its block)."""
    draws = np.random.default_rng(99).uniform((0.05, -1.0, 0.0, -0.5), (0.95, 3.0, 1.0, 1.0),
                                              (points, 4))
    residuals, tied = [], []
    for a2, log_snr, coin, log_x2 in draws.tolist():
        snr = 10**log_snr if coin >= 0.3 else None
        inp = TwoPointInput(a2, 10**log_x2 if snr is None else math.sqrt(snr / a2))
        ch = ChannelParams(sigma2=1.0, power_budget=snr)
        num, _ = fd_mi_derivative(inp, ch)
        if snr is None:
            residuals.append(abs(mi.mi_derivative_a2(inp, ch) - num) / max(abs(num), 1e-12))
        else:
            tied.append((a2, snr, num))
    if tied:
        a2s, snrs, nums = np.array(tied).T
        rel = np.abs(mi._mi_deriv(a2s, snrs)[1] - nums) / np.maximum(np.abs(nums), 1e-12)
        residuals += rel.tolist()
    return CheckResult.of("analytic dI/da2 vs finite differences", residuals, DERIV_TOLERANCE,
                          f"({points} random points, relative)")


def _mi_case3(inp: TwoPointInput, ch: ChannelParams) -> float:
    """I at (x2, sigma^2) as given, each J from the beta>=1 closed form of
    reference.j_case3 (reference._case3_value) and assembled by
    oracle.mi_from_j, none of it in x2^2/sigma^2.
    The form's 2F1(1, b; b+1; -1/beta), b = 1 + 1/alpha, is summed by
    hyp2f1_1b_value: gauss_2f1, which j_case3 sums, takes up to 380 000
    terms and 7-10 ms for one J at beta ~ 7e-5, and about 20 ms for the 40
    J of this family's draws."""
    js = []
    for x in (0.0, inp.x2):
        alpha, beta = derive_params(x, inp, ch)
        phi = specfun.hyp2f1_1b_value(1.0 + 1.0 / alpha, 1.0 / beta).value
        js.append(reference._case3_value(x, inp, ch, beta, alpha / (beta * (alpha + 1.0)) * phi))
    return oracle.mi_from_j(inp, ch, *js)


def check_scale_invariance(configs: int = 20) -> CheckResult:
    """I depends on (a2, x2, sigma^2) only through (a2, x2^2/sigma^2): the
    value path at (x2, sigma^2) against the j_case3 form at
    (s x2, s^2 sigma^2), which takes x2 and sigma^2 as they come (see
    _mi_case3).  The value path computes in x2^2/sigma^2 alone, so comparing
    it with itself under the rescaling could not see an error there."""
    draws = np.random.default_rng(5).uniform((0.02, -1.0, -0.5, -2.0), (0.98, 1.3, 0.5, 2.0),
                                             (configs, 4))
    residuals = []
    for a2, log_x2, log_s2, log_c in draws.tolist():
        x2, s2, c = 10**log_x2, 10**log_s2, 10**log_c
        base = mi.mutual_information(TwoPointInput(a2, x2), ChannelParams(s2)).nats
        scaled = _mi_case3(TwoPointInput(a2, x2 * math.sqrt(c)), ChannelParams(s2 * c))
        residuals.append(abs(base - scaled))
    return CheckResult.of("scale invariance", residuals, 1e-12, f"({configs} rescalings)")


def check_route_consistency(points: int = 40) -> CheckResult:
    """The beta<1 and beta>=1 closed forms agree for every beta > 0 away
    from the alpha = 1/n bands (numerical witness of the continuation), at
    both x of ceil(points / 2) draws.  The bands belong to reference._guard:
    a draw on one raises from j_case2, and run_checks fails the family."""
    draws = np.random.default_rng(11).uniform((0.05, -0.6, -0.4), (0.95, 1.2, 0.4),
                                              (-(-points // 2), 3))
    residuals = []
    for a2, log_x2, log_s2 in draws.tolist():
        inp, ch = TwoPointInput(a2, 10**log_x2), ChannelParams(10**log_s2)
        residuals += [abs(reference.j_case2(x, inp, ch) - reference.j_case3(x, inp, ch))
                      for x in (0.0, inp.x2)]
    return CheckResult.of("route consistency (both closed forms)", residuals, 1e-8,
                          f"({len(residuals)} evaluations)")


# (family, check function, its --quick arguments); the full pass runs each
# check at its defaults.  The checks are looked up by name at call time, so a
# wrapper installed on the module attribute sees every call.
_FAMILIES = (
    ("partial-sum bounds", "check_partial_sum_bounds", {"cases": 200}),
    ("oracle equivalence", "check_oracle_equivalence", {"n_a2": 5, "n_ratio": 4}),
    ("continuation identity", "check_continuation", {"n_alpha": 4, "n_beta": 4}),
    ("3F2(-1) sin identity", "check_sin_identity", {"alphas": (0.6, 2.0, 5.5)}),
    ("derivative", "check_derivative", {"points": 8}),
    ("scale invariance", "check_scale_invariance", {"configs": 5}),
    ("route consistency", "check_route_consistency", {"points": 10}),
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name, check, quick_args in _FAMILIES:
        # a family that raises internally is a failed family, not a crash
        try:
            out = globals()[check](**(quick_args if quick else {}))
        except Exception as exc:  # noqa: BLE001 - verification must report
            results.append(
                CheckResult(name, math.inf, 0.0, f"raised {type(exc).__name__}: {exc}")
            )
            continue
        results.extend(out if isinstance(out, tuple) else [out])
    return results
