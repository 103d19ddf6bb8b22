import math

import numpy as np
import pytest

from noncoh import mi, oracle
from noncoh.channel import ChannelParams, TwoPointInput
from noncoh.errors import DegenerateInput
from noncoh.oracle import (
    fd_derivative,
    j_quadrature,
    j_quadrature_direct,
    mi_monte_carlo,
    mi_quadrature,
)


class TestJQuadrature:
    def test_single_mass_point_limit(self):
        # a2 = 1, x = x2: the mixture collapses and J = -1 + log(a2/(x2^2+s2))
        ch = ChannelParams(1.0)
        inp = TwoPointInput(1.0, 2.0)
        assert j_quadrature(2.0, inp, ch) == pytest.approx(
            -1.0 + math.log(1.0 / 5.0), abs=1e-10
        )

    def test_reference_value(self):
        # frozen 30-digit reference for the beta<1 worked example
        ch = ChannelParams(1.0)
        assert j_quadrature(0.0, TwoPointInput(0.5, 2.0), ch) == pytest.approx(
            -1.2557826416468278, abs=1e-10
        )

    def test_tolerance_self_consistency(self, monkeypatch):
        # halving the error target moves the result by less than the previous one
        ch = ChannelParams(1.0)
        inp = TwoPointInput(0.35, 1.7)
        monkeypatch.setattr(oracle, "_ABS_TOL", 1e-8)
        loose = j_quadrature(0.0, inp, ch)
        monkeypatch.setattr(oracle, "_ABS_TOL", 5e-9)
        tight = j_quadrature(0.0, inp, ch)
        assert abs(loose - tight) < 1e-8

    def test_substitution_correctness(self):
        # the u-substituted and direct-y discretizations agree
        rng = np.random.default_rng(1)
        for _ in range(20):
            a2 = float(rng.uniform(0.03, 0.97))
            x2 = float(10 ** rng.uniform(-1.0, 1.4))
            s2 = float(10 ** rng.uniform(-0.5, 0.5))
            ch = ChannelParams(sigma2=s2)
            inp = TwoPointInput(a2=a2, x2=x2)
            for x in (0.0, x2):
                assert j_quadrature(x, inp, ch) == pytest.approx(
                    j_quadrature_direct(x, inp, ch), abs=1e-9
                )

    def test_rejects_zero_x2(self):
        with pytest.raises(DegenerateInput):
            j_quadrature(0.0, TwoPointInput(0.5, 0.0), ChannelParams(1.0))

    def test_tolerance_not_met_when_starved(self, monkeypatch):
        from noncoh.errors import ToleranceNotMet

        # an error target below rounding cannot be certified
        monkeypatch.setattr(oracle, "_ABS_TOL", 1e-16)
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 50)
        with pytest.raises(ToleranceNotMet):
            j_quadrature(0.0, TwoPointInput(0.5, 2.0), ChannelParams(1.0))


class TestMiQuadrature:
    def test_degenerate(self):
        assert mi_quadrature(TwoPointInput(0.0, 2.0), ChannelParams(1.0)) == 0.0

    def test_reference(self):
        assert mi_quadrature(TwoPointInput(0.4, 2.0), ChannelParams(1.0)) == pytest.approx(
            0.21666532350838016, abs=1e-9
        )

    def test_scale_invariance(self):
        base = mi_quadrature(TwoPointInput(0.4, 2.0), ChannelParams(1.0))
        scaled = mi_quadrature(TwoPointInput(0.4, 2.0 * 3.0), ChannelParams(9.0))
        assert base == pytest.approx(scaled, abs=1e-10)


class TestMonteCarlo:
    def test_agreement_with_closed_form(self):
        ch = ChannelParams(1.0)
        inp = TwoPointInput(0.5, 1.0)
        est, se = mi_monte_carlo(inp, ch, samples=10**6, seed=7)
        closed = mi.mutual_information(inp, ch).nats
        assert se > 0.0
        assert abs(est - closed) <= 4.0 * se

    def test_determinism(self):
        ch = ChannelParams(1.0)
        inp = TwoPointInput(0.4, 2.0)
        a = mi_monte_carlo(inp, ch, samples=300_000, seed=123)
        b = mi_monte_carlo(inp, ch, samples=300_000, seed=123)
        assert a == b

    def test_seed_changes_estimate(self):
        ch = ChannelParams(1.0)
        inp = TwoPointInput(0.4, 2.0)
        a = mi_monte_carlo(inp, ch, samples=100_000, seed=1)
        b = mi_monte_carlo(inp, ch, samples=100_000, seed=2)
        assert a != b

    def test_near_degenerate_accepted(self):
        ch = ChannelParams(1.0)
        est, se = mi_monte_carlo(
            TwoPointInput(0.999, 1.0), ch, samples=20_000, seed=5
        )
        assert math.isfinite(est) and math.isfinite(se)

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateInput):
            mi_monte_carlo(
                TwoPointInput(1.0, 1.0), ChannelParams(1.0), samples=10, seed=0
            )

    def test_z_scores_over_random_configs(self):
        rng = np.random.default_rng(2024)
        ch = ChannelParams(1.0)
        ok = 0
        n_cfg = 12
        for i in range(n_cfg):
            a2 = float(rng.uniform(0.1, 0.9))
            x2 = float(10 ** rng.uniform(-0.3, 0.8))
            inp = TwoPointInput(a2, x2)
            est, se = mi_monte_carlo(inp, ch, samples=200_000, seed=i)
            closed = mi.mutual_information(inp, ch).nats
            if abs(est - closed) <= 4.0 * se:
                ok += 1
        assert ok >= n_cfg - 1


class TestFdOrders:
    def test_orders_agree_on_smooth_function(self):
        f = math.sin
        d5 = fd_derivative(f, 0.7)
        assert d5 == pytest.approx(math.cos(0.7), abs=1e-11)
