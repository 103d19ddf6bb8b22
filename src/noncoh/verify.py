"""Self-verification families: every closed form checked against an
independent back-end (quadrature, finite differences, resummation, random
property sampling).  Used by the `verify` CLI command and by the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import mi, oracle, specfun
from .channel import ChannelParams, TwoPointInput, nearest_reciprocal
from .errors import CaseMismatch, NearSingularAlpha


@dataclass(frozen=True)
class CheckResult:
    name: str
    worst: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.name}: worst residual {self.worst:.3e} "
            f"(tolerance {self.tolerance:.1e}) {self.detail}"
        )


def _alpha_grid(n: int, lo: float = 0.11, hi: float = 9.7) -> np.ndarray:
    """Log-spaced alphas nudged off the 1/n guard bands."""
    alphas = np.logspace(math.log10(lo), math.log10(hi), n)
    out = []
    for a in alphas:
        _, dist = nearest_reciprocal(float(a))
        if dist < 1e-3:
            a = a * (1.0 + 5e-3)
        out.append(float(a))
    return np.array(out)


def check_partial_sum_bounds(cases: int = 1000, seed: int = 2024) -> CheckResult:
    """0 <= T_n(q) <= q for random q in [0, 1] and n up to 500."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(cases):
        q = float(rng.uniform(0.0, 1.0))
        n = int(rng.integers(1, 501))
        t = specfun.log1p_series_partial_sum(q, n)
        worst = max(worst, -t, t - q)
    return CheckResult("partial-sum bounds 0 <= T_n <= q", max(worst, 0.0), 0.0,
                       worst <= 0.0, f"({cases} cases)")


def check_oracle_equivalence(
    n_a2: int = 20, n_ratio: int = 10
) -> tuple[CheckResult, CheckResult]:
    """Closed-form J and I against the adaptive-quadrature oracle on a grid
    over a2 in [0.02, 0.98] and x2/sigma in [0.1, 30]; the quadrature I is
    assembled from the two quadrature J's already computed."""
    a2s = np.linspace(0.02, 0.98, n_a2)
    ratios = np.logspace(math.log10(0.1), math.log10(30.0), n_ratio)
    ch = ChannelParams(sigma2=1.0)
    worst_j = worst_i = 0.0
    for a2 in a2s:
        for r in ratios:
            inp = TwoPointInput(a2=float(a2), x2=float(r))
            res = mi.mutual_information(inp, ch)
            j_quad = [oracle.j_quadrature(x, inp, ch) for x in (0.0, float(r))]
            worst_j = max(worst_j, abs(res.j0 - j_quad[0]), abs(res.j_x2 - j_quad[1]))
            worst_i = max(worst_i, abs(res.nats - oracle.mi_from_j(inp, ch, *j_quad)))
    n = n_a2 * n_ratio
    return (
        CheckResult("closed-form J vs quadrature", worst_j, 1e-8,
                    worst_j <= 1e-8, f"({n}-point grid)"),
        CheckResult("closed-form I vs quadrature", worst_i, 1e-7,
                    worst_i <= 1e-7, f"({n}-point grid)"),
    )


def check_continuation(n_alpha: int = 10, n_beta: int = 10) -> CheckResult:
    """Residual of the identity connecting the beta<1 and beta>=1 forms.

    Both sides grow like beta^(1/alpha) and cancel, so an absolute residual
    target is only meaningful in double precision while that scale stays
    moderate; the grid keeps alpha >= 0.3 with beta in [0.1, 10] (pieces up
    to ~2e3, cancellation noise well below 1e-10).
    """
    worst = 0.0
    betas = np.logspace(-1.0, 1.0, n_beta)
    for a in _alpha_grid(n_alpha, lo=0.3):
        for b in betas:
            worst = max(worst, abs(mi.continuation_residual(float(a), float(b))))
    return CheckResult("continuation identity", worst, 1e-8, worst <= 1e-8,
                       f"({n_alpha * n_beta}-point grid)")


def check_sin_identity(alphas=(0.3, 0.6, 1.4, 2.0, 3.7, 5.5, 8.9)) -> CheckResult:
    """Residual of the reduction of the two 3F2(-1) sums to pi/sin(pi/alpha)."""
    worst = 0.0
    for a in alphas:
        worst = max(worst, abs(mi.hyp3f2_sin_identity_residual(float(a))))
    return CheckResult("3F2(-1) sin identity", worst, 1e-8, worst <= 1e-8,
                       f"({len(alphas)} alphas)")


def check_derivative(points: int = 50, seed: int = 99) -> CheckResult:
    """Analytic dI/da2 against five-point central differences, relative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        a2 = float(rng.uniform(0.05, 0.95))
        snr = float(10 ** rng.uniform(-1.0, 3.0))
        fixed = bool(rng.random() < 0.3)
        if fixed:
            x2 = float(10 ** rng.uniform(-0.5, 1.0))
            ch = ChannelParams(sigma2=1.0)
            inp = TwoPointInput(a2=a2, x2=x2)
            f = lambda t: mi.mutual_information(TwoPointInput(t, x2), ch).nats
        else:
            ch = ChannelParams(sigma2=1.0, power_budget=snr)
            inp = TwoPointInput(a2=a2, x2=math.sqrt(snr / a2))
            f = lambda t: mi.mutual_information(
                TwoPointInput(t, math.sqrt(snr / t)), ch
            ).nats
        ana = mi.mi_derivative_a2(inp, ch)
        num = oracle.fd_derivative(f, a2, oracle.FDOrder.CENTRAL5)
        scale = max(abs(num), 1e-12)
        worst = max(worst, abs(ana - num) / scale)
    return CheckResult("analytic dI/da2 vs finite differences", worst, 1e-5,
                       worst <= 1e-5, f"({points} random points, relative)")


def check_scale_invariance(configs: int = 20, seed: int = 5) -> CheckResult:
    """I depends on (a2, x2, sigma^2) only through (a2, x2^2/sigma^2)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(configs):
        a2 = float(rng.uniform(0.02, 0.98))
        x2 = float(10 ** rng.uniform(-1.0, 1.3))
        s2 = float(10 ** rng.uniform(-0.5, 0.5))
        c = float(10 ** rng.uniform(-2.0, 2.0))
        base = mi.mutual_information(TwoPointInput(a2, x2), ChannelParams(s2)).nats
        scaled = mi.mutual_information(
            TwoPointInput(a2, x2 * math.sqrt(c)), ChannelParams(s2 * c)
        ).nats
        worst = max(worst, abs(base - scaled))
    return CheckResult("scale invariance", worst, 1e-12, worst <= 1e-12,
                       f"({configs} rescalings)")


def check_route_consistency(points: int = 40, seed: int = 11) -> CheckResult:
    """The beta<1 and beta>=1 closed forms agree for every beta > 0 away
    from the alpha = 1/n bands (numerical witness of the continuation)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < points:
        a2 = float(rng.uniform(0.05, 0.95))
        x2 = float(10 ** rng.uniform(-0.6, 1.2))
        s2 = float(10 ** rng.uniform(-0.4, 0.4))
        ch = ChannelParams(sigma2=s2)
        inp = TwoPointInput(a2=a2, x2=x2)
        for x in (0.0, x2):
            try:
                v2 = mi.j_case2(x, inp, ch)
            except (NearSingularAlpha, CaseMismatch):
                continue
            v3 = mi.j_case3(x, inp, ch)
            worst = max(worst, abs(v2 - v3))
            done += 1
    return CheckResult("route consistency (both closed forms)", worst, 1e-8,
                       worst <= 1e-8, f"({done} evaluations)")


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
                CheckResult(name, math.inf, 0.0, False, f"raised {type(exc).__name__}: {exc}")
            )
            continue
        results.extend(out if isinstance(out, tuple) else [out])
    return results
