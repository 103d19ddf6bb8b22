import math

import pytest
from scipy.integrate import quad

from noncoh.channel import (
    ChannelParams,
    TwoPointInput,
    derive_params,
    nearest_reciprocal,
    snr_from_db,
    snr_of,
    snr_to_db,
    transition_density,
)
from noncoh.errors import DegenerateInput, DomainError, MissingPowerBudget
from noncoh.mi import Case, _j_eval, mutual_information


class TestParams:
    def test_sigma2_positive(self):
        with pytest.raises(DomainError):
            ChannelParams(sigma2=0.0)

    def test_power_budget_positive(self):
        with pytest.raises(DomainError):
            ChannelParams(sigma2=1.0, power_budget=-1.0)

    def test_two_point_bounds(self):
        with pytest.raises(DomainError):
            TwoPointInput(a2=1.2, x2=1.0)
        with pytest.raises(DomainError):
            TwoPointInput(a2=0.5, x2=-1.0)

    def test_mean_square(self):
        inp = TwoPointInput(a2=0.25, x2=2.0)
        assert inp.mean_square == 1.0


class TestDeriveParams:
    def test_alpha_one_at_nonzero_mass_point(self):
        # x = x2 gives alpha = x2^2/sigma^2
        inp, ch = TwoPointInput(0.3, 1.0), ChannelParams(1.0)
        dp = derive_params(1.0, inp, ch)
        assert dp.alpha == pytest.approx(1.0, abs=0)
        # beta < 1 at alpha = 1/n takes the beta>=1 form through the kernel
        assert dp.beta < 1.0
        assert _j_eval(1.0, inp, ch).case is Case.CASE_III

    def test_half_point(self):
        dp = derive_params(0.0, TwoPointInput(0.5, 1.0), ChannelParams(1.0))
        assert dp.alpha == pytest.approx(0.5)
        assert dp.beta == pytest.approx(0.5)
        assert dp.y_star_sq == pytest.approx(2.0 * math.log(2.0))

    def test_beta_direct_arithmetic(self):
        dp = derive_params(0.0, TwoPointInput(0.9, 3.0), ChannelParams(1.0))
        assert dp.beta == pytest.approx(0.9, rel=1e-14)

    def test_degenerate(self):
        for bad in (TwoPointInput(0.0, 1.0), TwoPointInput(1.0, 1.0),
                    TwoPointInput(0.5, 0.0)):
            with pytest.raises(DegenerateInput):
                derive_params(0.0, bad, ChannelParams(1.0))

    def test_x_restricted_to_mass_points(self):
        with pytest.raises(DomainError):
            derive_params(0.7, TwoPointInput(0.5, 1.0), ChannelParams(1.0))

    def test_y_star_present_iff_beta_below_one(self):
        dp = derive_params(0.0, TwoPointInput(0.9, 1.0), ChannelParams(1.0))
        assert dp.beta > 1.0 and dp.y_star_sq is None
        dp = derive_params(0.0, TwoPointInput(0.2, 1.0), ChannelParams(1.0))
        assert dp.beta < 1.0 and dp.y_star_sq is not None

    def test_crossover_equality(self):
        # at y*, the two weighted conditional densities coincide
        inp, ch = TwoPointInput(0.3, 2.0), ChannelParams(1.5)
        dp = derive_params(0.0, inp, ch)
        big = inp.x2**2 + ch.sigma2
        lhs = inp.a1 / ch.sigma2 * math.exp(-dp.y_star_sq / ch.sigma2)
        rhs = inp.a2 / big * math.exp(-dp.y_star_sq / big)
        assert abs(lhs - rhs) <= 1e-10

    def test_beta_monotonicity(self):
        ch = ChannelParams(1.0)
        betas_in_a2 = [
            derive_params(0.0, TwoPointInput(a2, 2.0), ch).beta
            for a2 in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert all(b1 < b2 for b1, b2 in zip(betas_in_a2, betas_in_a2[1:]))
        betas_in_x2 = [
            derive_params(0.0, TwoPointInput(0.5, x2), ch).beta
            for x2 in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(b1 > b2 for b1, b2 in zip(betas_in_x2, betas_in_x2[1:]))

    def test_case_routing(self):
        # (J(0), J(x2)) routes: beta < 1 away from 1/n takes the beta<1 form,
        # beta >= 1 and alpha = 1/n take the beta>=1 form
        ch = ChannelParams(1.0)
        routes = {
            (0.2, 2.0): (Case.CASE_II, Case.CASE_II),  # beta 0.05, alpha 0.8, 4
            (0.9, 2.0): (Case.CASE_III, Case.CASE_III),  # beta 1.8
            (0.9, 1.0): (Case.CASE_III, Case.CASE_III),  # beta 4.5, alpha 1/2, 1
            (0.5, 1.0): (Case.CASE_III, Case.CASE_III),  # beta 0.5, alpha 1/2, 1
        }
        for (a2, x2), want in routes.items():
            res = mutual_information(TwoPointInput(a2, x2), ch)
            assert (res.case_j0, res.case_jx2) == want, (a2, x2)


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


class TestTransitionDensity:
    def test_zero_at_origin(self):
        assert transition_density(0.0, 3.0, ChannelParams(1.0)) == 0.0

    def test_normalization(self):
        ch = ChannelParams(1.0)
        val, err = quad(lambda y: transition_density(y, 0.0, ch), 0.0, 40.0,
                        epsabs=1e-12, limit=200)
        assert abs(val - 1.0) <= 1e-10

    def test_point_value(self):
        assert transition_density(1.0, 0.0, ChannelParams(1.0)) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-15
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            transition_density(-1.0, 0.0, ChannelParams(1.0))


class TestSnr:
    def test_linear(self):
        assert snr_of(ChannelParams(1.0, power_budget=1.0)) == 1.0

    def test_db_conversions(self):
        assert snr_from_db(0.0) == 1.0
        assert snr_from_db(10.0) == pytest.approx(10.0)
        assert snr_to_db(100.0) == pytest.approx(20.0)

    def test_missing_budget(self):
        with pytest.raises(MissingPowerBudget):
            snr_of(ChannelParams(1.0))
