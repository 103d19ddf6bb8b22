import math

import numpy as np
import pytest

from noncoh import verify
from noncoh.channel import (
    ChannelParams,
    TwoPointInput,
    derive_params,
    one_mass_point,
    snr_from_db,
    snr_to_db,
)
from noncoh.errors import DegenerateInput, DomainError
from noncoh.mi import mi_derivative_a2, mutual_information
from noncoh.oracle import mi_monte_carlo, mi_quadrature
from noncoh.reference import j_case3, nearest_reciprocal


class TestParams:
    def test_sigma2_positive(self):
        with pytest.raises(DomainError):
            ChannelParams(sigma2=0.0)

    def test_power_budget_positive(self):
        with pytest.raises(DomainError):
            ChannelParams(sigma2=1.0, power_budget=-1.0)

    @pytest.mark.parametrize("name", ["sigma2", "power_budget"])
    def test_rejects_infinity(self, name):
        with pytest.raises(DomainError, match=name):
            ChannelParams(**{"sigma2": 1.0, name: math.inf})

    def test_two_point_bounds(self):
        with pytest.raises(DomainError):
            TwoPointInput(a2=1.2, x2=1.0)
        with pytest.raises(DomainError):
            TwoPointInput(a2=0.5, x2=-1.0)


class TestDeriveParams:
    def test_alpha_one_at_nonzero_mass_point(self):
        # x = x2 gives alpha = x2^2/sigma^2
        inp, ch = TwoPointInput(0.3, 1.0), ChannelParams(1.0)
        alpha, beta = derive_params(1.0, inp, ch)
        assert alpha == pytest.approx(1.0, abs=0)
        # beta < 1 at alpha = 1/n takes the beta>=1 form like every J
        assert beta < 1.0
        assert mutual_information(inp, ch).case_jx2 == "CaseIII"

    def test_half_point(self):
        alpha, beta = derive_params(0.0, TwoPointInput(0.5, 1.0), ChannelParams(1.0))
        assert alpha == pytest.approx(0.5)
        assert beta == pytest.approx(0.5)

    def test_beta_direct_arithmetic(self):
        _, beta = derive_params(0.0, TwoPointInput(0.9, 3.0), ChannelParams(1.0))
        assert beta == pytest.approx(0.9, rel=1e-14)

    def test_degenerate(self):
        for bad in (TwoPointInput(0.0, 1.0), TwoPointInput(1.0, 1.0),
                    TwoPointInput(0.5, 0.0)):
            with pytest.raises(DegenerateInput):
                derive_params(0.0, bad, ChannelParams(1.0))

    def test_any_magnitude(self):
        # alpha = (x2^2/(x2^2 + s2)) (x^2 + s2)/s2 off the mass points too;
        # beta does not depend on x
        inp, ch = TwoPointInput(0.5, 1.0), ChannelParams(2.0)
        assert derive_params(0.7, inp, ch) == (
            pytest.approx((1.0 / 3.0) * (2.49 / 2.0), rel=1e-15),
            derive_params(0.0, inp, ch)[1])
        assert derive_params(1e150, inp, ch)[0] == pytest.approx(1e300 / 6.0, rel=1e-15)

    @pytest.mark.parametrize("x", [-0.7, -1e-300, math.nan, math.inf, 1e200],
                             ids=["negative", "tiny-negative", "nan", "inf",
                                  "square-overflow"])
    def test_rejects_negative_or_nonfinite_x(self, x):
        with pytest.raises(DomainError):
            derive_params(x, TwoPointInput(0.5, 1.0), ChannelParams(1.0))

    def test_beta_monotonicity(self):
        ch = ChannelParams(1.0)
        betas_in_a2 = [
            derive_params(0.0, TwoPointInput(a2, 2.0), ch)[1]
            for a2 in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b1 < b2 for b1, b2 in zip(betas_in_a2, betas_in_a2[1:]))
        betas_in_x2 = [
            derive_params(0.0, TwoPointInput(0.5, x2), ch)[1]
            for x2 in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b1 > b2 for b1, b2 in zip(betas_in_x2, betas_in_x2[1:]))

    def test_case_routing(self):
        # one route for every J: beta < 1 away from 1/n, beta >= 1 and
        # alpha = 1/n all take the beta>=1 form, and agree with its
        # reference evaluation through gauss_2f1
        ch = ChannelParams(1.0)
        for a2, x2 in (
            (0.2, 2.0),  # beta 0.05, alpha 0.8, 4
            (0.9, 2.0),  # beta 1.8
            (0.9, 1.0),  # beta 4.5, alpha 1/2, 1
            (0.5, 1.0),  # beta 0.5, alpha 1/2, 1
        ):
            inp = TwoPointInput(a2, x2)
            res = mutual_information(inp, ch)
            assert (res.case_j0, res.case_jx2) == ("CaseIII", "CaseIII")
            assert res.j0 == pytest.approx(j_case3(0.0, inp, ch), abs=1e-13)
            assert res.j_x2 == pytest.approx(j_case3(x2, inp, ch), abs=1e-13)


def _b_overflow_edge(sigma2):
    """The smallest x2 that mutual_information takes as two mass points at
    sigma2, by bisection over the positive floats in their bit order."""
    ch = ChannelParams(sigma2)
    lo, hi = np.array([1e-200, 1.0]).view(np.int64).tolist()
    while hi - lo > 1:
        mid = (lo + hi) // 2
        x2 = float(np.int64(mid).view(np.float64))
        if mutual_information(TwoPointInput(0.5, x2), ch).case_j0 == "Degenerate":
            lo = mid
        else:
            hi = mid
    return float(np.int64(hi).view(np.float64))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma2", [1e-3, 1.0, 1e3])
def test_one_rule_for_one_mass_point(sigma2):
    # one_mass_point is the one rule: on each input the value path, both MI
    # oracles, derive_params and the fixed-x2 derivative all call it one
    # mass point (I = 0) or all take it as two, at x2 = 0, where x2^2
    # underflows (1e-200), where b = 1 + sigma2/x2^2 overflows and one float
    # either side of that edge, where the oracle's breakpoints overflow
    # (2e-154 at sigma2 = 1), and at x2 = 1
    ch = ChannelParams(sigma2)
    edge = _b_overflow_edge(sigma2)
    for a2 in (0.0, 1.0, 0.3):
        for x2 in (0.0, 1e-200, 1e-160, math.nextafter(edge, 0.0), edge, 2e-154, 1.0):
            inp = TwoPointInput(a2, x2)
            one = a2 in (0.0, 1.0) or x2 < edge
            assert one_mass_point(inp, ch) is one, (a2, x2)
            res = mutual_information(inp, ch)
            if one:
                assert (res.nats, res.case_j0, res.case_jx2) == (0.0, "Degenerate", "Degenerate")
                assert mi_quadrature(inp, ch) == 0.0
                for call in (lambda: mi_monte_carlo(inp, ch, samples=100, seed=0),
                             lambda: derive_params(0.0, inp, ch),
                             lambda: mi_derivative_a2(inp, ch)):
                    with pytest.raises(DegenerateInput):
                        call()
                continue
            assert (res.case_j0, res.case_jx2) == ("CaseIII", "CaseIII")
            assert abs(mi_quadrature(inp, ch) - res.nats) <= verify.MI_TOLERANCE, (a2, x2)
            assert all(map(math.isfinite, mi_monte_carlo(inp, ch, samples=100, seed=0)))
            assert all(v > 0.0 for v in derive_params(0.0, inp, ch))
            assert math.isfinite(mi_derivative_a2(inp, ch))


class TestNearestReciprocal:
    @pytest.mark.parametrize("alpha,n", [(1.0, 1), (0.5, 2), (1.0 / 3.0, 3),
                                         (0.018, 56), (2.7, 1)])
    def test_hits(self, alpha, n):
        got_n, dist = nearest_reciprocal(alpha)
        assert got_n == n
        assert dist == pytest.approx(abs(alpha - 1.0 / n), abs=1e-18)

    def test_between(self):
        n, dist = nearest_reciprocal(0.4)  # between 1/3 and 1/2
        assert n in (2, 3)
        assert dist == pytest.approx(min(abs(0.4 - 0.5), abs(0.4 - 1 / 3)))


class TestSnr:
    def test_db_conversions(self):
        assert snr_from_db(0.0) == 1.0
        assert snr_from_db(10.0) == pytest.approx(10.0)
        assert snr_to_db(100.0) == pytest.approx(20.0)

    @pytest.mark.parametrize("snr", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_to_db_refuses_non_finite_and_non_positive(self, snr):
        with pytest.raises(DomainError, match="linear SNR must be finite and positive"):
            snr_to_db(snr)
