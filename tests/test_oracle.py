import math
import warnings

import mpmath as mp
import numpy as np
import pytest

from mp_reference import j_closed_form
from test_channel import _b_overflow_edge
from noncoh import mi, oracle, verify
from noncoh.channel import ChannelParams, TwoPointInput
from noncoh.errors import DegenerateInput, DomainError, ToleranceNotMet
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
        # halving the error target moves the result by less than the previous
        # one, for each integral of a batch on its own
        ch = ChannelParams(1.0)
        xs = [0.0, 1.7, 0.0, 300.0]
        inps = [TwoPointInput(0.35, 1.7)] * 2 + [TwoPointInput(0.6, 300.0)] * 2
        monkeypatch.setattr(oracle, "_ABS_TOL", 1e-8)
        loose = j_quadrature(xs, inps, ch)
        monkeypatch.setattr(oracle, "_ABS_TOL", 5e-9)
        tight = j_quadrature(xs, inps, ch)
        assert np.all(np.abs(loose - tight) < 1e-8)

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

    def test_overflowing_breakpoints_are_dropped(self):
        # at x2^2/sigma^2 = 4e-308 the boundary layer's breakpoints
        # t_c + k/gap overflow: they are dropped with no warning, and I from
        # the quadrature J's still matches the closed form
        inp, ch = TwoPointInput(0.5, 2e-154), ChannelParams(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            j = j_quadrature([0.0, inp.x2], [inp, inp], ch)
            i = mi_quadrature(inp, ch)
        assert np.isfinite(j).all() and math.isfinite(i)
        assert abs(i - mi.mutual_information(inp, ch).nats) <= verify.MI_TOLERANCE

    def test_rejects_zero_x2(self):
        with pytest.raises(DegenerateInput):
            j_quadrature(0.0, TwoPointInput(0.5, 0.0), ChannelParams(1.0))

    def test_tolerance_not_met_when_starved(self, monkeypatch):
        # an error target below rounding cannot be certified
        monkeypatch.setattr(oracle, "_ABS_TOL", 1e-16)
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 50)
        with pytest.raises(ToleranceNotMet):
            j_quadrature(0.0, TwoPointInput(0.5, 2.0), ChannelParams(1.0))


def _mp_j(x, inp, s2):
    """J(x) from mpmath's own 2F1 at 40 digits."""
    with mp.workdps(40):
        return float(j_closed_form(mp.mpf(x), mp.mpf(inp.a2), mp.mpf(inp.x2), mp.mpf(s2)))


class TestBatchedRule:
    # x2/sigma over [1e-3, 1e5] and a2 over [1e-6, 1 - 1e-6], both J of
    # each input, plus the point where the boundary layer at the mixture
    # crossover was once missed by 4.6e-5 = pi^2 sigma^2/(12 x2^2)
    CASES = [
        *((x, TwoPointInput(a2, float(r)))
          for a2 in (1e-6, 1e-3, 0.3, 0.9, 1.0 - 1e-6)
          for r in np.logspace(-3.0, 5.0, 17)
          for x in (0.0, float(r))),
        (133.0, TwoPointInput(0.46, 133.0)),
    ]

    @pytest.mark.parametrize("s2", [1.0, 1e-3, 1e3])
    @pytest.mark.parametrize("rule", ["j_quadrature", "j_quadrature_direct"])
    def test_matches_mpmath_over_the_domain(self, rule, s2):
        # one batched call for every J; the inputs scale with sigma
        ch = ChannelParams(s2)
        cases = [(x * math.sqrt(s2), TwoPointInput(inp.a2, inp.x2 * math.sqrt(s2)))
                 for x, inp in self.CASES]
        got = getattr(oracle, rule)([x for x, _ in cases], [inp for _, inp in cases], ch)
        want = np.array([_mp_j(x, inp, s2) for x, inp in cases])
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_scalar_calls_are_batches_of_one(self):
        ch = ChannelParams(2.0)
        xs = [0.0, 3.0, 0.0, 40.0]
        inps = [TwoPointInput(0.2, 3.0), TwoPointInput(0.2, 3.0),
                TwoPointInput(0.7, 40.0), TwoPointInput(0.7, 40.0)]
        batch = j_quadrature(xs, inps, ch)
        assert isinstance(batch, np.ndarray) and batch.shape == (4,)
        for x, inp, b in zip(xs, inps, batch):
            one = j_quadrature(x, inp, ch)
            assert type(one) is float
            assert one == pytest.approx(b, abs=1e-14)

    def test_lengths_must_match(self):
        inp = TwoPointInput(0.5, 2.0)
        with pytest.raises(DomainError):
            j_quadrature([0.0, 2.0], [inp], ChannelParams(1.0))

    @pytest.mark.parametrize("rule", [j_quadrature, j_quadrature_direct])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_is_named(self, rule, bad):
        inp = TwoPointInput(0.5, 2.0)
        with pytest.raises(DomainError, match="element 1"):
            rule([0.0, bad], [inp, inp], ChannelParams(1.0))
        with pytest.raises(DomainError, match="element 0"):
            rule(bad, inp, ChannelParams(1.0))

    def test_degenerate_element_is_named(self):
        inps = [TwoPointInput(0.5, 2.0), TwoPointInput(0.5, 0.0)]
        with pytest.raises(DegenerateInput, match="element 1"):
            j_quadrature([0.0, 0.0], inps, ChannelParams(1.0))

    @pytest.mark.parametrize("a2", [0.0, 1.0])
    def test_direct_rule_refuses_one_mass_point(self, a2):
        with pytest.raises(DegenerateInput, match=r"needs a nondegenerate input \(element 0\)$"):
            j_quadrature_direct(0.0, TwoPointInput(a2, 1.0), ChannelParams(1.0))

    def test_tolerance_not_met_names_the_element(self, monkeypatch):
        # 16 panels certify J(0) at x2 = 2 and the one-mass-point J, but not
        # J(x2) across the boundary layer at x2/sigma = 1e3
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 16)
        xs = [0.0, 2.0, 1000.0, 2.0]
        inps = [TwoPointInput(0.5, 2.0), TwoPointInput(1.0, 2.0),
                TwoPointInput(0.5, 1000.0), TwoPointInput(1.0, 2.0)]
        with pytest.raises(ToleranceNotMet, match=r"element 2: error estimate"):
            j_quadrature(xs, inps, ChannelParams(1.0))
        monkeypatch.setattr(oracle, "_MAX_SUBDIVISIONS", 100_000)
        assert np.all(np.isfinite(j_quadrature(xs, inps, ChannelParams(1.0))))

    def test_one_call_per_consumer(self, monkeypatch):
        # mi_quadrature and verify's oracle family each make one call, which
        # a wrapper on the module attribute sees
        calls = []
        real = oracle.j_quadrature

        def counted(x, inp, ch):
            calls.append(np.size(x))
            return real(x, inp, ch)

        monkeypatch.setattr(oracle, "j_quadrature", counted)
        mi_quadrature(TwoPointInput(0.4, 2.0), ChannelParams(1.0))
        assert calls == [2]
        calls.clear()
        res_j, res_i = verify.check_oracle_equivalence(n_a2=3, n_ratio=4)
        assert calls == [24] and res_j.passed and res_i.passed


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

    def test_negative_seed_rejected(self):
        with pytest.raises(DomainError, match="seed"):
            mi_monte_carlo(TwoPointInput(0.5, 1.0), ChannelParams(1.0), samples=10, seed=-1)

    @pytest.mark.parametrize("name,kw", [("samples", dict(samples=1e4, seed=1)),
                                         ("seed", dict(samples=10, seed=1.0))])
    def test_float_count_or_seed_rejected(self, name, kw):
        # numpy's generator would raise its own TypeError for either
        with pytest.raises(DomainError, match=f"^{name} must be an integer"):
            mi_monte_carlo(TwoPointInput(0.5, 1.0), ChannelParams(1.0), **kw)

    # (estimate, standard error) at sigma2 = 1, seed 1 and 10^6 samples as
    # the difference of two log-densities gave them, which the
    # log-likelihood-ratio form must keep to 1e-13
    DIRECT = {
        (0.5, 1.0): (0.053675572920375926, 0.00029801770309307717),
        (0.3, 2.0): (0.2008786730332044, 0.0005247006661214497),
        (0.9, 1e3): (0.3247852899961242, 0.0006588219635591056),
    }

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("a2,x2", list(DIRECT))
    def test_matches_the_direct_form(self, a2, x2):
        est, se = mi_monte_carlo(TwoPointInput(a2, x2), ChannelParams(1.0),
                                 samples=10**6, seed=1)
        want_est, want_se = self.DIRECT[a2, x2]
        assert est == pytest.approx(want_est, rel=1e-13, abs=0.0)
        assert se == pytest.approx(want_se, rel=1e-13, abs=0.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma2", [1e-3, 1.0, 1e3])
    def test_unbiased_where_i_is_about_0(self, sigma2):
        # down to the one-mass-point edge, where I rounds to 0, the estimate
        # is within 4 standard errors of the closed form: the difference of
        # two O(1) log-densities was biased by about -3e-17 nats a sample
        # there (z = -95 at x2 = 2e-154, sigma2 = 1)
        ch = ChannelParams(sigma2)
        edge = _b_overflow_edge(sigma2)
        for a2 in (0.3, 0.5):
            for x2 in (edge, 2e-154, 1e-150, 1.0):
                inp = TwoPointInput(a2, x2)
                if x2 < edge:
                    continue
                est, se = mi_monte_carlo(inp, ch, samples=10**5, seed=1)
                closed = mi.mutual_information(inp, ch).nats
                assert se > 0.0 and abs(est - closed) <= 4.0 * se, (a2, x2, est, se)
            with pytest.raises(DegenerateInput):
                mi_monte_carlo(TwoPointInput(a2, math.nextafter(edge, 0.0)), ch,
                               samples=10, seed=1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_t_rejected(self):
        # x2^2 is finite, x2^2/sigma2 is not; mutual_information refuses it too
        inp, ch = TwoPointInput(0.5, 1e154), ChannelParams(1e-10)
        for call in (lambda: mi_monte_carlo(inp, ch, samples=10, seed=0),
                     lambda: mi.mutual_information(inp, ch)):
            with pytest.raises(DomainError, match="past the float range"):
                call()

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
