import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mp_reference import mi_derivative_a2 as mp_mi_derivative_a2
from noncoh import capacity, mi, specfun
from noncoh.channel import ChannelParams, TwoPointInput
from noncoh.errors import DegenerateInput, DomainError
from noncoh.mi import mi_derivative_a2, mutual_information
from noncoh.oracle import fd_derivative


def _mi_capacity(a2, snr, sigma2=1.0):
    ch = ChannelParams(sigma2=sigma2, power_budget=snr * sigma2)
    return mutual_information(TwoPointInput(a2, math.sqrt(ch.power_budget / a2)), ch).nats


class TestFixedX2Mode:
    def test_example_point(self):
        ch = ChannelParams(1.0)
        inp = TwoPointInput(0.4, 2.0)
        ana = mi_derivative_a2(inp, ch)
        num = fd_derivative(
            lambda t: mutual_information(TwoPointInput(t, 2.0), ch).nats,
            0.4,
        )
        assert ana == pytest.approx(num, rel=1e-5)

    def test_more_points(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a2 = float(rng.uniform(0.1, 0.9))
            x2 = float(10 ** rng.uniform(-0.4, 0.8))
            ch = ChannelParams(1.0)
            ana = mi_derivative_a2(TwoPointInput(a2, x2), ch)
            num = fd_derivative(
                lambda t: mutual_information(TwoPointInput(t, x2), ch).nats,
                a2,
            )
            assert ana == pytest.approx(num, rel=1e-5)


class TestCapacityMode:
    @pytest.mark.parametrize(
        "a2,snr", [(0.3, 1.0), (0.7, 10.0), (0.15, 0.5), (0.5, 1000.0)]
    )
    def test_against_finite_differences(self, a2, snr):
        ch = ChannelParams(sigma2=1.0, power_budget=snr)
        inp = TwoPointInput(a2, math.sqrt(snr / a2))
        ana = mi_derivative_a2(inp, ch)
        num = fd_derivative(lambda t: _mi_capacity(t, snr), a2)
        assert ana == pytest.approx(num, rel=1e-5)

    def test_x2_tie_enforced(self):
        ch = ChannelParams(sigma2=1.0, power_budget=1.0)
        with pytest.raises(DomainError):
            mi_derivative_a2(TwoPointInput(0.5, 3.0), ch)

    def test_zero_at_solved_optimum(self):
        pt = capacity.solve_a2_star(1.0)
        ch = ChannelParams(sigma2=1.0, power_budget=1.0)
        inp = TwoPointInput(pt.a2_star, math.sqrt(1.0 / pt.a2_star))
        assert abs(mi_derivative_a2(inp, ch)) <= 1e-10

    def test_sign_pattern_at_5db(self):
        # a single interior maximum: positive below a2*, negative above
        snr = 10.0**0.5
        pt = capacity.solve_a2_star(snr)
        ch = ChannelParams(sigma2=1.0, power_budget=snr)
        below = TwoPointInput(0.1, math.sqrt(snr / 0.1))
        above = TwoPointInput(min(0.95, pt.a2_star + 0.2),
                              math.sqrt(snr / min(0.95, pt.a2_star + 0.2)))
        assert mi_derivative_a2(below, ch) > 0.0
        assert mi_derivative_a2(above, ch) < 0.0

    def test_degenerate(self):
        ch = ChannelParams(sigma2=1.0, power_budget=1.0)
        with pytest.raises(DegenerateInput):
            mi_derivative_a2(TwoPointInput(0.0, 1.0), ch)

    def test_guard_band(self):
        # sigma^2/x2^2 at or next to an integer => alpha at or next to 1/n
        for a2, x2, snr in (
            (0.4, 1.0, None),  # sigma^2/x2^2 = 1: alpha = 1/2 and 1
            (0.4, 1.0 / math.sqrt(3.0 + 4e-6), None),
            (0.3, None, 0.3),  # capacity mode, sigma^2/x2^2 = 1
            (1e-6, None, 10.0 ** -0.5),  # the bracketing grid's first entry
        ):
            if snr is None:
                ch = ChannelParams(sigma2=1.0)
                inp = TwoPointInput(a2, x2)
                ref = mp_mi_derivative_a2(a2, 1.0, x2=x2)
                f = lambda t: mutual_information(TwoPointInput(t, x2), ch).nats
            else:
                ch = ChannelParams(sigma2=1.0, power_budget=snr)
                inp = TwoPointInput(a2, math.sqrt(snr / a2))
                ref = mp_mi_derivative_a2(a2, 1.0, power_budget=snr)
                f = lambda t: _mi_capacity(t, snr)
            ana = mi_derivative_a2(inp, ch)
            assert ana == pytest.approx(ref, rel=1e-10), (a2, x2, snr)
            if a2 > 1e-3:
                num = fd_derivative(f, a2)
                assert ana == pytest.approx(num, rel=1e-5), (a2, x2, snr)


class TestRoutes:
    """Each mode of mi_derivative_a2 takes one route, pinned bit for bit."""

    @pytest.mark.parametrize("a2,x2,sigma2", [(0.3, 2.0, 1.0), (0.05, 0.2, 1.7),
                                              (0.9, 30.0, 0.4), (1e-6, 1e3, 1.0)])
    def test_fixed_x2_takes_the_scalar_route(self, a2, x2, sigma2, monkeypatch):
        # mutual_information's route: one hyp2f1_1b_value call, no array
        # kernel, and the dI/da2 that _slope computes from its phi
        real_value, calls = specfun.hyp2f1_1b_value, []

        def counting_value(b, u):
            calls.append((b, u))
            return real_value(b, u)

        def no_kernel(b, u):
            raise AssertionError("hyp2f1_1b called at a fixed x2")

        monkeypatch.setattr(specfun, "hyp2f1_1b_value", counting_value)
        monkeypatch.setattr(specfun, "hyp2f1_1b", no_kernel)
        inp, ch = TwoPointInput(a2, x2), ChannelParams(sigma2)
        got = mi_derivative_a2(inp, ch)
        t, b, u = mi._fixed_args(inp, ch)
        assert calls == [(b, u)]
        assert type(got) is float
        assert got == mi._slope(t, b, u, real_value(b, u).value, xp=math)

    @pytest.mark.parametrize("a2,snr", [(0.3, 1.0), (1e-6, 0.1), (0.7, 1000.0)])
    def test_capacity_mode_takes_mi_deriv(self, a2, snr):
        # the solver's and the profile's function, which capacity imports
        assert capacity._mi_deriv is mi._mi_deriv
        ch = ChannelParams(sigma2=1.0, power_budget=snr)
        got = mi_derivative_a2(TwoPointInput(a2, math.sqrt(snr / a2)), ch)
        assert type(got) is float and got == float(mi._mi_deriv(a2, snr)[1])


class TestRandomGrid:
    def test_fifty_points(self):
        from noncoh.verify import check_derivative

        res = check_derivative(points=50)
        assert res.passed, res.line()
        assert res.worst <= 1e-5

    @staticmethod
    def _scalar_check_derivative(points=50, seed=99):
        """verify's derivative family as one mi_derivative_a2 call per
        point, its form before the capacity-mode values were batched."""
        from noncoh import verify

        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(points):
            a2 = float(rng.uniform(0.05, 0.95))
            snr = float(10 ** rng.uniform(-1.0, 3.0))
            if rng.random() < 0.3:
                inp = TwoPointInput(a2, float(10 ** rng.uniform(-0.5, 1.0)))
                ch = ChannelParams(sigma2=1.0)
            else:
                inp = TwoPointInput(a2, math.sqrt(snr / a2))
                ch = ChannelParams(sigma2=1.0, power_budget=snr)
            num, _ = verify.fd_mi_derivative(inp, ch)
            worst = max(worst, abs(mi_derivative_a2(inp, ch) - num) / max(abs(num), 1e-12))
        tol = verify.DERIV_TOLERANCE
        return verify.CheckResult("analytic dI/da2 vs finite differences", worst, tol,
                                  f"({points} random points, relative)")

    @pytest.mark.parametrize("points", [50, 8], ids=["full", "quick"])
    def test_batched_family_matches_the_scalar_loop(self, points):
        from noncoh.verify import check_derivative

        got, want = check_derivative(points=points), self._scalar_check_derivative(points)
        assert got == want and repr(got.worst) == repr(want.worst)

    def test_batch_rows_keep_their_scalar_bits(self):
        # the capacity-mode points of the family's seed-99 draw, in one
        # _mi_deriv call in draw order and sorted, against one call each
        rng = np.random.default_rng(99)
        tied = []
        for _ in range(50):
            a2 = float(rng.uniform(0.05, 0.95))
            snr = float(10 ** rng.uniform(-1.0, 3.0))
            if rng.random() < 0.3:
                rng.uniform(-0.5, 1.0)
            else:
                tied.append((a2, snr))
        assert len(tied) == 36
        want = [mi_derivative_a2(TwoPointInput(a2, math.sqrt(snr / a2)),
                                 ChannelParams(sigma2=1.0, power_budget=snr))
                for a2, snr in tied]
        for order in (tied, sorted(tied)):
            a2s, snrs = np.array(order).T
            got = dict(zip(order, mi._mi_deriv(a2s, snrs)[1].tolist()))
            assert [repr(got[p]) for p in tied] == [repr(w) for w in want]


class TestFdDerivative:
    def test_square(self):
        assert fd_derivative(lambda t: t * t, 3.0) == pytest.approx(6.0, abs=1e-9)

    def test_constant(self):
        assert abs(fd_derivative(lambda t: 4.2, 0.3)) <= 1e-12

    def test_cross_oracle_on_mi(self):
        ch = ChannelParams(1.0)
        num = fd_derivative(
            lambda t: mutual_information(TwoPointInput(t, 2.0), ch).nats,
            0.4,
        )
        assert mi_derivative_a2(TwoPointInput(0.4, 2.0), ch) == pytest.approx(
            num, rel=1e-5
        )


class TestAgainstMpmath:
    """dI/da2 against the 30-digit derivative of the mpmath closed form."""

    @pytest.mark.parametrize("a2", [1e-6, 1e-4])
    @pytest.mark.parametrize("snr_db", [-10.0, 0.0, 10.0, 30.0])
    def test_capacity_mode_at_small_a2(self, snr_db, a2):
        # the first points of the solver's bracketing grid
        snr = 10.0 ** (snr_db / 10.0)
        ch = ChannelParams(sigma2=1.0, power_budget=snr)
        ana = mi_derivative_a2(TwoPointInput(a2, math.sqrt(snr / a2)), ch)
        assert abs(ana - mp_mi_derivative_a2(a2, 1.0, power_budget=snr)) <= 1e-12

    @pytest.mark.parametrize("a2", [1e-6, 1e-3])
    def test_fixed_mode_close_mass_points(self, a2):
        ana = mi_derivative_a2(TwoPointInput(a2, 0.03), ChannelParams(1.0))
        assert abs(ana - mp_mi_derivative_a2(a2, 1.0, x2=0.03)) <= 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(1e-12, 1.0 - 1e-12),
        st.floats(-4.0, 4.0),
        st.floats(-6.0, 6.0),
        st.booleans(),
    )
    # the domain's corners: tiny a2 with far-apart mass points, and the
    # other way round
    @example(1e-12, 4.0, -6.0, True)
    @example(1e-12, -4.0, 6.0, False)
    @example(1.0 - 1e-12, -4.0, 6.0, True)
    @example(1.0 - 1e-12, 4.0, -6.0, False)
    def test_whole_domain(self, a2, log_ratio, log_s2, capacity_mode):
        # a2 in [1e-12, 1 - 1e-12], x2/sigma in [1e-4, 1e4], sigma^2 in
        # [1e-6, 1e6]; capacity mode ties x2^2 = P/a2 at the drawn x2
        s2 = 10.0**log_s2
        x2 = 10.0**log_ratio * math.sqrt(s2)
        if capacity_mode:
            p = a2 * x2 * x2
            ch = ChannelParams(sigma2=s2, power_budget=p)
            ref = mp_mi_derivative_a2(a2, s2, power_budget=p)
        else:
            ch = ChannelParams(sigma2=s2)
            ref = mp_mi_derivative_a2(a2, s2, x2=x2)
        ana = mi_derivative_a2(TwoPointInput(a2, x2), ch)
        assert abs(ana - ref) <= 1e-12 * max(1.0, abs(ref))
