import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mp_reference import hyp2f1_family
from noncoh.errors import DivergenceError, DomainError, NoConvergence, PoleError
from noncoh.specfun import (
    EULER_GAMMA,
    SpecfunConfig,
    _euler_average,
    digamma,
    digamma_series_oracle,
    gauss_2f1,
    hyp2f1_1b,
    hyp_pfq,
    incomplete_beta,
    log1p_series_partial_sum,
)


class TestHypPfq:
    def test_0f0_is_exp(self):
        res = hyp_pfq([], [], 0.3)
        assert res.value == pytest.approx(math.exp(0.3), rel=1e-15)
        assert res.truncation_bound <= 1e-14

    def test_2f1_log_two_at_minus_one(self):
        res = hyp_pfq([1.0, 1.0], [2.0], -1.0)
        assert res.value == pytest.approx(math.log(2.0), abs=1e-13)

    def test_log_series_cross_check(self):
        # z * 2F1(1,1;2;-z) sums the alternating log series
        z = 0.4
        direct = sum((-1.0) ** (k + 1) * z**k / k for k in range(1, 200))
        res = hyp_pfq([1.0, 1.0], [2.0], -z)
        assert z * res.value == pytest.approx(direct, abs=1e-14)

    def test_empty_sum_beyond_first_term(self):
        res = hyp_pfq([1.0, 0.5], [1.5], 0.0)
        assert res.value == 1.0
        assert res.terms_used <= 2

    def test_series_result_invariants(self):
        cfg = SpecfunConfig()
        res = hyp_pfq([0.3, 1.2], [2.7], -0.8, cfg)
        assert res.truncation_bound >= 0.0
        assert res.terms_used <= cfg.max_terms

    def test_divergence_beyond_unit_disk(self):
        with pytest.raises(DivergenceError):
            hyp_pfq([1.0, 2.0], [3.0], -1.5)

    def test_divergence_zero_radius(self):
        with pytest.raises(DivergenceError):
            hyp_pfq([1.0, 1.0, 1.0], [2.0], 0.5)

    def test_divergence_at_plus_one(self):
        # sum(denom) - sum(numer) = 0 diverges at z = +1
        with pytest.raises(DivergenceError):
            hyp_pfq([1.0, 1.0], [2.0], 1.0)

    def test_denominator_pole(self):
        with pytest.raises(DomainError):
            hyp_pfq([1.0], [-2.0], 0.5)

    def test_no_convergence_when_starved(self):
        cfg = SpecfunConfig(abs_tol=1e-14, max_terms=5)
        with pytest.raises(NoConvergence):
            hyp_pfq([1.0, 1.0], [2.0], -0.9, cfg)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.6, 4.2])
    def test_3f2_converges_at_minus_one(self, alpha):
        cfg = SpecfunConfig()
        for shift in (-1.0, 1.0):
            res = hyp_pfq(
                [1.0, 1.0, (alpha + shift) / alpha],
                [2.0, (2.0 * alpha + shift) / alpha],
                -1.0,
                cfg,
            )
            assert res.truncation_bound <= cfg.abs_tol
            assert res.terms_used <= cfg.max_terms


class TestGauss2F1:
    def test_at_zero(self):
        assert gauss_2f1(1.0, 0.7, 1.7, 0.0) == 1.0

    def test_log_two(self):
        assert gauss_2f1(1.0, 1.0, 2.0, -1.0) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_against_incomplete_beta_quadrature(self):
        # 2F1(1, b; b+1; -u) = b u^-b int_0^u s^(b-1)/(1+s) ds  (u = 4, b = 0.75);
        # the substitution s = w^4 removes the endpoint singularity
        b, u = 0.75, 4.0
        ref, err = quad(lambda w: 4.0 * w**2 / (1.0 + w**4), 0.0, u**0.25,
                        epsabs=1e-13, limit=500)
        assert err < 1e-11
        got = gauss_2f1(1.0, 0.75, 1.75, -4.0)
        assert got == pytest.approx(b * u ** (-b) * ref, abs=1e-10)
        # frozen from the same oracle
        assert got == pytest.approx(0.4611468673419947, abs=1e-12)

    def test_log_identity_property(self):
        for z in np.linspace(-0.95, 1.0, 27):
            if z == 0.0:
                continue
            direct = float(sum((-1.0) ** (k + 1) * z**k / k for k in range(1, 4000)))
            if z == 1.0:
                direct = math.log(2.0)  # alternating harmonic limit
            got = z * gauss_2f1(1.0, 1.0, 2.0, -z)
            assert got == pytest.approx(direct, abs=1e-12)

    def test_domain_error_at_cut(self):
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, 2.0, 1.0)

    def test_nonpositive_integer_eta(self):
        with pytest.raises(DomainError):
            gauss_2f1(1.0, 1.0, -3.0, 0.5)

    def test_deep_negative_argument_transform(self):
        # Pfaff route; reference from the integral representation
        b, u = 1.4, 815.0
        ref, _ = quad(lambda s: s ** (b - 1.0) / (1.0 + s), 0.0, u,
                      epsabs=1e-13, limit=2000, points=[1.0, 10.0, 100.0])
        assert gauss_2f1(1.0, b, b + 1.0, -u) == pytest.approx(
            b * u ** (-b) * ref, rel=1e-10
        )


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_at_two_telescoped_series(self):
        # series at q = 1 telescopes to 1
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)

    def test_half_against_series_oracle(self):
        assert digamma(0.5) == pytest.approx(digamma_series_oracle(-0.5), abs=1e-10)

    @pytest.mark.parametrize("x", [0.25, 1.0, 2.0, 3.7, 9.5, 0.9])
    def test_series_oracle_on_unit_interval_shifts(self, x):
        assert digamma(x) == pytest.approx(digamma_series_oracle(x - 1.0), abs=1e-12)

    @pytest.mark.parametrize("q", [0.1, 0.23, 0.4])
    def test_reflection_identity(self, q):
        lhs = digamma(1.0 - q)
        rhs = digamma(q) + math.pi / math.tan(math.pi * q)
        assert abs(lhs - rhs) <= 1e-10

    @pytest.mark.parametrize("q", [0.1, 0.23, 0.4])
    def test_half_shift_identity(self, q):
        lhs = digamma(0.5 + q)
        rhs = digamma(0.5 - q) + math.pi * math.tan(math.pi * q)
        assert abs(lhs - rhs) <= 1e-10

    def test_negative_noninteger(self):
        # recurrence continues below zero: psi(x+1) = psi(x) + 1/x
        x = -2.3
        assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles(self, x):
        with pytest.raises(PoleError):
            digamma(x)


class TestIncompleteBeta:
    def test_empty_integral(self):
        assert incomplete_beta(0.0, 2.0, 1.0) == 0.0

    def test_uniform_case(self):
        assert incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_arcsine_case_vs_quadrature(self):
        ref, err = quad(lambda t: t**-0.5 * (1.0 - t) ** -0.5, 0.0, 0.5,
                        epsabs=1e-12, limit=500)
        assert err < 1e-10
        got = incomplete_beta(0.5, 0.5, 0.5)
        assert got == pytest.approx(ref, abs=1e-9)
        assert got == pytest.approx(math.pi / 2.0, abs=1e-9)  # exact value

    def test_relation_to_2f1_grid(self):
        # 2F1(a, b; b+1; z) = b z^-b B_z(b, 1-a) wherever both sides are real
        checked = 0
        for a in (-0.5, 0.3, 0.9):
            for b in (0.25, 1.5, 3.0):
                for z in (-0.9, -0.5, 0.4, 0.9):
                    if z < 0.0 and b != math.floor(b):
                        with pytest.raises(DomainError):
                            incomplete_beta(z, b, 1.0 - a)
                        continue
                    lhs = gauss_2f1(a, b, b + 1.0, z)
                    z_pow = (
                        z**-b
                        if z > 0.0
                        else (-1.0) ** int(b) * abs(z) ** -b
                    )
                    rhs = b * z_pow * incomplete_beta(z, b, 1.0 - a)
                    assert abs(lhs - rhs) <= 1e-9, (a, b, z)
                    checked += 1
        assert checked >= 18

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            incomplete_beta(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            incomplete_beta(0.5, -1.0, 1.0)


class TestLog1pPartialSum:
    def test_first_term(self):
        q = 0.7
        assert log1p_series_partial_sum(q, 1) == q

    def test_zero_q(self):
        assert log1p_series_partial_sum(0.0, 17) == 0.0

    def test_q_one_two_terms(self):
        assert log1p_series_partial_sum(1.0, 2) == pytest.approx(0.5, abs=0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0), st.integers(1, 500))
    def test_bounds(self, q, n):
        t = log1p_series_partial_sum(q, n)
        assert -1e-15 <= t <= q + 1e-15

    def test_converges_to_log1p(self):
        assert log1p_series_partial_sum(0.6, 4000) == pytest.approx(
            math.log1p(0.6), abs=1e-12
        )


class TestF21Family:
    """The 2F1(1, b; b+1; z) kernel and its partials behind the analytic
    mutual-information derivative."""

    def test_at_zero(self):
        fam = hyp2f1_1b(2.3, 0.0)
        assert fam.value == 1.0
        assert fam.d_db == 0.0
        assert fam.d_dz == pytest.approx(2.3 / 3.3)

    @pytest.mark.parametrize("b,u", [(1.5, 0.3), (2.25, 0.9), (1.5, 2.0),
                                     (3.7, 5.0), (1.3, 40.0), (2.5, 1.1)])
    def test_value_matches_gauss_2f1(self, b, u):
        fam = hyp2f1_1b(b, u)
        assert fam.value == pytest.approx(gauss_2f1(1.0, b, b + 1.0, -u), rel=1e-10)

    @pytest.mark.parametrize("b,u", [(1.5, 0.3), (2.7, 0.45), (3.3, 0.2)])
    def test_partials_match_series_forms_inside_disk(self, b, u):
        # d/dz 2F1(1,b;b+1;z) = [b/(1+b)] 2F1(2, 1+b; 2+b; z)
        # d/db 2F1(1,b;b+1;z) = [z/(1+b)^2] 3F2(2, 1+b, 1+b; 2+b, 2+b; z)
        fam = hyp2f1_1b(b, u)
        dz_ref = b / (1.0 + b) * hyp_pfq([2.0, 1.0 + b], [2.0 + b], -u).value
        db_ref = (
            -u / (1.0 + b) ** 2
            * hyp_pfq([2.0, 1.0 + b, 1.0 + b], [2.0 + b, 2.0 + b], -u).value
        )
        assert fam.d_dz == pytest.approx(dz_ref, rel=1e-11)
        assert fam.d_db == pytest.approx(db_ref, rel=1e-11)

    @pytest.mark.parametrize("b,u", [(1.5, 2.0), (2.25, 1.3), (1.3, 40.0),
                                     (11.4, 3.0), (1.0001, 17.0)])
    def test_partials_outside_disk_vs_finite_differences(self, b, u):
        fam = hyp2f1_1b(b, u)
        h = 1e-6
        db_fd = (hyp2f1_1b(b + h, u).value - hyp2f1_1b(b - h, u).value) / (2 * h)
        dz_fd = -(hyp2f1_1b(b, u + h).value - hyp2f1_1b(b, u - h).value) / (2 * h)
        assert fam.d_db == pytest.approx(db_fd, rel=2e-8, abs=1e-12)
        assert fam.d_dz == pytest.approx(dz_fd, rel=2e-8, abs=1e-12)

    def test_array_call_matches_scalar_calls(self):
        # b in (0, 5] plus 65, integers included, u on both sides of 0.8, 1
        # and 1.25 and up to 1e12
        bs = [0.05, 0.5, 1.0, 1.3, 2.00001, 2.5, 3.0, 3.9, 4.95, 5.0, 65.0]
        us = [0.0, 1e-3, 0.3, 0.79, 0.8, 0.81, 0.99, 1.0, 1.01, 1.24, 1.25, 1.26,
              3.0, 1e3, 1e6, 1e12]
        pairs = [(b, u) for b in bs for u in us]
        b, u = np.array(pairs).T
        fam = hyp2f1_1b(b, u)
        for i, (bi, ui) in enumerate(pairs):
            one = hyp2f1_1b(bi, ui)
            for name in ("value", "d_db", "d_dz"):
                assert getattr(fam, name)[i] == pytest.approx(
                    getattr(one, name), rel=1e-14, abs=0.0), (bi, ui, name)

    def test_array_call_shapes(self):
        fam = hyp2f1_1b(np.array([[1.5], [2.5]]), np.array([0.3, 3.0]))
        assert fam.value.shape == fam.d_db.shape == fam.d_dz.shape == (2, 2)
        assert fam.value[1, 1] == hyp2f1_1b(2.5, 3.0).value
        assert isinstance(hyp2f1_1b(1.5, 0.3).value, float)

    def test_guards(self):
        # b next to or at an integer is in the domain for every u
        for b, u in ((2.0 + 1e-12, 3.0), (2.0, 3.0)):
            fam = hyp2f1_1b(b, u)
            for got, want in zip((fam.value, fam.d_db, fam.d_dz), hyp2f1_family(b, u)):
                assert got == pytest.approx(want, rel=1e-13, abs=1e-16)
        fam = hyp2f1_1b(np.array([1.5, 2.0]), np.array([3.0, 3.0]))
        assert fam.value[1] == hyp2f1_1b(2.0, 3.0).value
        with pytest.raises(DomainError):
            hyp2f1_1b(1.5, -0.5)
        with pytest.raises(DomainError):
            hyp2f1_1b(np.array([1.5, 0.0]), 0.5)

    @pytest.mark.parametrize("b", [
        2.00001, 2.99998, 4.00003,
        *(n + d for n in (1.0, 2.0, 3.0, 4.0, 65.0) for d in (0.0, 1e-12, -1e-12)),
    ])
    def test_near_integer_b_matches_mpmath(self, b):
        # the continuation's head and its m = round(b) - 1 term share a pole
        # at integer b; the kernel removes it analytically
        us = [1.0, 1.05, 1.3, 2.0, 17.0, 1e3, 1e6, 1e11]
        fam = hyp2f1_1b(b, np.array(us))
        for i, u in enumerate(us):
            ref = hyp2f1_family(b, u)
            for name, got, want in zip(("value", "d_db", "d_dz"),
                                       (fam.value[i], fam.d_db[i], fam.d_dz[i]), ref):
                assert abs(got - want) <= max(1e-12 * abs(want), 1e-15), (u, name)


def _euler_average_loop(terms):
    """Reference: pairwise averaging one level at a time, keeping the first
    level with the smallest change."""
    s = np.cumsum(terms)
    prev = s[-1]
    best = prev
    best_err = abs(float(terms[-1]))
    while s.size > 1:
        s = 0.5 * (s[:-1] + s[1:])
        cur = s[-1]
        err = abs(float(cur - prev))
        if err < best_err:
            best, best_err = cur, err
        prev = cur
    return best, best_err


class TestEulerAverage:
    @pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
    def test_matches_levelwise_averaging(self, dtype):
        k = np.arange(24, 96)
        tails = np.array([(-u) ** k / (b + k)
                          for u in (0.81, 0.95, 1.0, 1 / 1.1, 1 / 1.24)
                          for b in (0.3, 1.7, 4.2)]).astype(dtype)
        values, errs = _euler_average(tails)
        assert values.dtype == dtype and values.shape == (15,)
        for tail, value, err in zip(tails, values, errs):
            ref, ref_err = _euler_average_loop(tail)
            for v, e in ((value, err), _euler_average(tail)):
                assert float(v) == pytest.approx(float(ref), rel=0.0, abs=1e-15)
                assert float(e) == pytest.approx(ref_err, rel=0.0, abs=1e-15)
