import dataclasses
import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from mp_reference import j_closed_form
from noncoh import capacity, cli, mi, oracle, specfun, verify
from noncoh.channel import ChannelParams, TwoPointInput, derive_params
from noncoh.errors import (
    CaseMismatch,
    ConsistencyError,
    DegenerateInput,
    DomainError,
    NearSingularAlpha,
)
from noncoh.mi import input_entropy, mi_derivative_a2, mutual_information
from noncoh.reference import (
    GUARD_TOL,
    continuation_residual,
    hyp3f2_sin_identity_residual,
    j_case1,
    j_case2,
    j_case3,
    log1p_series_partial_sum,
    nearest_reciprocal,
    pi_csc_recip,
)

LOG2 = math.log(2.0)

# frozen 30-digit quadrature references for the worked examples
J_REF = {
    (1.0, 1.0, 1.0, 0.5): -1.738375928117726,
    (1.0, 1.0, 1.0, 0.9): -1.6948188711759402,
    (0.0, 2.0, 1.0, 0.5): -1.2557826416468278,
    (0.0, 3.0, 2.0, 0.3): -1.832580270782706,
    (0.0, 1.0, 1.0, 0.9): -1.1614185838641815,
}
I_REF_04_2_1 = 0.21666532350838016
HB_03 = 0.6108643020548935


def _j_mp(x, inp, ch):
    """J(x) from the 30-digit mpmath closed form."""
    with mp.workdps(30):
        return float(j_closed_form(mp.mpf(x), mp.mpf(inp.a2), mp.mpf(inp.x2),
                                   mp.mpf(ch.sigma2)))


class TestJCase1:
    @pytest.mark.parametrize("a2", [0.5, 0.9])
    def test_alpha_one_against_oracle(self, a2):
        inp, ch = TwoPointInput(a2, 1.0), ChannelParams(1.0)
        got = j_case1(1.0, inp, ch)
        assert got == pytest.approx(J_REF[(1.0, 1.0, 1.0, a2)], abs=1e-8)
        assert got == pytest.approx(oracle.j_quadrature(1.0, inp, ch), abs=1e-8)

    def test_matches_case3_when_both_valid(self):
        # x = x2 with sigma^2 = x2^2 gives alpha = 1, any beta
        for a2 in (0.3, 0.7, 0.9):
            inp, ch = TwoPointInput(a2, 2.0), ChannelParams(4.0)
            assert j_case1(2.0, inp, ch) == pytest.approx(
                j_case3(2.0, inp, ch), abs=1e-8
            )

    def test_reciprocal_alphas_against_oracle(self):
        # alpha0 = x2^2/(x2^2 + s2) = 1/n at x2^2 = s2/(n-1)
        for n in (2, 3, 5, 13):
            s2 = 1.3
            x2 = math.sqrt(s2 / (n - 1))
            for a2 in (0.2, 0.55, 0.92):
                inp, ch = TwoPointInput(a2, x2), ChannelParams(s2)
                exact = j_case1(0.0, inp, ch)
                assert exact == pytest.approx(
                    oracle.j_quadrature(0.0, inp, ch), abs=1e-8
                )
                # the value path's beta>=1 form equals the finite sum here
                res = mutual_information(inp, ch)
                assert res.case_j0 == "CaseIII"
                assert res.j0 == pytest.approx(exact, abs=1e-13)

    def test_large_beta_stability(self):
        # beta^n blow-up must not poison the finite-sum route
        s2 = 1.0
        x2 = math.sqrt(s2 / 19.0)  # alpha0 = 1/20
        inp, ch = TwoPointInput(0.95, x2), ChannelParams(s2)
        assert derive_params(0.0, inp, ch)[1] > 15.0
        assert j_case1(0.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(0.0, inp, ch), abs=1e-10
        )

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            j_case1(0.0, TwoPointInput(0.5, 2.0), ChannelParams(1.0))

    def test_refuses_alpha_past_the_reciprocal_spacing(self):
        # alpha0 = 1/2000001: the points 1/n there are 2.5e-13 apart, so
        # "alpha = 1/n" singles out nothing; the O(n) sum is not attempted
        inp, ch = TwoPointInput(0.5, math.sqrt(1.0 / 2_000_000)), ChannelParams(1.0)
        assert derive_params(0.0, inp, ch)[0] == pytest.approx(1.0 / 2_000_001, rel=1e-12)
        with pytest.raises(CaseMismatch, match="j_case3"):
            j_case1(0.0, inp, ch)


class TestJCase2:
    def test_example_a(self):
        inp, ch = TwoPointInput(0.5, 2.0), ChannelParams(1.0)
        assert derive_params(0.0, inp, ch) == (pytest.approx(0.8), pytest.approx(0.2))
        got = j_case2(0.0, inp, ch)
        assert got == pytest.approx(J_REF[(0.0, 2.0, 1.0, 0.5)], abs=1e-8)
        assert got == pytest.approx(oracle.j_quadrature(0.0, inp, ch), abs=1e-8)

    def test_example_b(self):
        inp, ch = TwoPointInput(0.3, 3.0), ChannelParams(2.0)
        got = j_case2(0.0, inp, ch)
        assert got == pytest.approx(J_REF[(0.0, 3.0, 2.0, 0.3)], abs=1e-8)
        assert got == pytest.approx(oracle.j_quadrature(0.0, inp, ch), abs=1e-8)

    def test_snapped_alpha_is_case1s_business(self):
        # the beta<1 formula is undefined at alpha = 1/2 exactly; there J
        # takes the beta>=1 form, which equals the finite sum
        inp, ch = TwoPointInput(0.5, 1.0), ChannelParams(1.0)
        res = mutual_information(inp, ch)
        assert res.case_j0 == "CaseIII"
        assert res.j0 == pytest.approx(j_case1(0.0, inp, ch), abs=1e-13)
        with pytest.raises(CaseMismatch):
            j_case2(0.0, inp, ch)

    def test_guard_band(self):
        # alpha within (1e-9, 1e-5) of 1/n
        s2 = 1.0
        alpha = 0.5 + 3e-6
        x2 = math.sqrt(s2 * alpha / (1.0 - alpha))
        with pytest.raises(NearSingularAlpha):
            j_case2(0.0, TwoPointInput(0.4, x2), ChannelParams(s2))

    def test_beta_above_one_still_matches(self):
        # continuation validity of the beta<1 form, exercised not relied on
        inp, ch = TwoPointInput(0.9, 2.0), ChannelParams(1.0)
        assert derive_params(0.0, inp, ch)[1] > 1.0
        assert j_case2(0.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(0.0, inp, ch), abs=1e-8
        )

    @pytest.mark.parametrize("s2", [1.0, 7.3])
    def test_large_alpha_matches_mpmath(self, s2):
        # at J(x2), alpha = x2^2/s2 up to 1e6: the pi/sin(pi/alpha) term is
        # about alpha and must not cancel against -x^2/s2 in floating point;
        # the value path's J must match there too
        for ratio in (3.0, 30.0, 300.0, 1000.0):
            for a2 in (1e-6, 1e-3, 0.1, 0.4):
                inp, ch = TwoPointInput(a2, ratio * math.sqrt(s2)), ChannelParams(s2)
                ref0, ref2 = _j_mp(0.0, inp, ch), _j_mp(inp.x2, inp, ch)
                assert j_case2(inp.x2, inp, ch) == pytest.approx(ref2, abs=1e-13)
                res = mutual_information(inp, ch)
                assert res.j0 == pytest.approx(ref0, abs=1e-13), (ratio, a2)
                assert res.j_x2 == pytest.approx(ref2, abs=1e-13), (ratio, a2)


class TestJCase3:
    def test_beta_large(self):
        inp, ch = TwoPointInput(0.9, 1.0), ChannelParams(1.0)
        assert derive_params(0.0, inp, ch)[1] == pytest.approx(4.5)
        got = j_case3(0.0, inp, ch)
        assert got == pytest.approx(J_REF[(0.0, 1.0, 1.0, 0.9)], abs=1e-8)
        assert got == pytest.approx(oracle.j_quadrature(0.0, inp, ch), abs=1e-8)

    def test_at_nonzero_mass_point(self):
        inp, ch = TwoPointInput(0.9, 1.0), ChannelParams(1.0)
        assert j_case3(1.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(1.0, inp, ch), abs=1e-8
        )

    def test_continuation_validity_below_one(self):
        inp, ch = TwoPointInput(0.5, 2.0), ChannelParams(1.0)
        assert derive_params(0.0, inp, ch)[1] == pytest.approx(0.2)
        assert j_case3(0.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(0.0, inp, ch), abs=1e-8
        )

    def test_fine_even_at_snapped_alpha(self):
        # no indeterminations anywhere, including alpha = 1/n
        inp, ch = TwoPointInput(0.9, 1.0), ChannelParams(1.0)  # alpha0 = 1/2
        assert j_case3(0.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(0.0, inp, ch), abs=1e-8
        )


class TestAnyMagnitude:
    """The reference forms at magnitudes x off the mass points, where J(x)
    is the f(y|x)-weighted integral of the log output density."""

    @pytest.mark.parametrize("factor", [0.3, 2.7, 10.0])
    @pytest.mark.parametrize("a2,x2,s2", [(0.3, 2.0, 1.0), (0.9, 1.0, 1.0),
                                          (0.05, 0.7, 2.5)])
    def test_against_quadrature(self, a2, x2, s2, factor):
        inp, ch = TwoPointInput(a2, x2), ChannelParams(s2)
        x = factor * x2
        ref = oracle.j_quadrature(x, inp, ch)
        assert j_case3(x, inp, ch) == pytest.approx(ref, abs=1e-8)
        assert j_case2(x, inp, ch) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_case1_against_quadrature(self, n):
        # alpha(x) = 1/n at x^2 = s2 ((x2^2 + s2)/(n x2^2) - 1), past x2
        x2, s2 = 0.5, 1.0
        x = math.sqrt(s2 * ((x2 * x2 + s2) / (n * x2 * x2) - 1.0))
        for a2 in (0.2, 0.9):  # beta 0.05 and 1.8
            inp, ch = TwoPointInput(a2, x2), ChannelParams(s2)
            assert j_case1(x, inp, ch) == pytest.approx(
                oracle.j_quadrature(x, inp, ch), abs=1e-8)

    def test_routes_differ_by_the_continuation_residual(self):
        # j_case2 - j_case3 = -continuation_residual(alpha(x), beta); x2 near
        # sigma or above keeps beta^(1/alpha), the size of the cancelling
        # pieces, below 250
        for a2 in (0.05, 0.3, 0.6, 0.95):
            for x2 in (1.2, 3.0):
                inp, ch = TwoPointInput(a2, x2), ChannelParams(1.3)
                for factor in (0.0, 0.3, 1.0, 2.7, 10.0):
                    x = factor * x2
                    residual = continuation_residual(*derive_params(x, inp, ch))
                    got = j_case2(x, inp, ch) - j_case3(x, inp, ch) + residual
                    assert abs(got) <= 1e-12, (a2, x2, factor)


class TestCase1IsCase2Limit:
    """The finite-sum value is the limit of the beta<1 formula as alpha
    approaches 1/n, witnessed by an alpha-decoupled quadrature that brackets
    it from both sides."""

    @staticmethod
    def _j_alpha_decoupled(alpha, beta, x, s2, a1):
        # J with the alpha inside the log decoupled from the channel tie:
        # -1 - x^2/s2 + log(a1/s2) + int_0^1 log(1 + beta u^-alpha) du,
        # integrated as u = e^t to tame the endpoint
        tail, err = quad(
            lambda t: np.logaddexp(0.0, math.log(beta) - alpha * t) * math.exp(t),
            -64.0,
            0.0,
            epsabs=1e-13,
            limit=400,
            points=[-0.5, -1.0, -2.0, -4.0, -8.0, -16.0, -32.0],
        )
        assert err < 1e-10
        return -1.0 - x * x / s2 + math.log(a1 / s2) + tail

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_bracketing(self, n):
        s2 = 1.0
        if n == 1:
            x = x2 = 1.0  # alpha2 = x2^2/s2 = 1
        else:
            x = 0.0
            x2 = math.sqrt(s2 / (n - 1))  # alpha0 = 1/n
        a2 = 0.4
        inp, ch = TwoPointInput(a2, x2), ChannelParams(s2)
        _, beta = derive_params(x, inp, ch)
        exact = j_case1(x, inp, ch)
        res = mutual_information(inp, ch)
        assert (res.j0 if x == 0.0 else res.j_x2) == pytest.approx(exact, abs=1e-13)
        eps = 1e-4
        lo = self._j_alpha_decoupled(1.0 / n - eps, beta, x, s2, inp.a1)
        hi = self._j_alpha_decoupled(1.0 / n + eps, beta, x, s2, inp.a1)
        assert min(lo, hi) - 1e-12 <= exact <= max(lo, hi) + 1e-12
        assert abs(hi - lo) < 1e-2  # the bracket is actually tight


class TestMutualInformation:
    @pytest.mark.parametrize("a2", [0.0, 1.0])
    def test_degenerate_mass(self, a2):
        res = mutual_information(TwoPointInput(a2, 3.0), ChannelParams(1.0))
        assert res.nats == 0.0
        assert res.case_j0 == "Degenerate"

    def test_degenerate_x2(self):
        assert mutual_information(TwoPointInput(0.5, 0.0), ChannelParams(1.0)).nats == 0.0

    def test_against_quadrature(self):
        inp, ch = TwoPointInput(0.4, 2.0), ChannelParams(1.0)
        res = mutual_information(inp, ch)
        assert res.nats == pytest.approx(I_REF_04_2_1, abs=1e-7)
        assert res.nats == pytest.approx(oracle.mi_quadrature(inp, ch), abs=1e-7)
        assert res.diagnostics["j0_truncation_bound"] <= 1e-13

    def test_entropy_limit_large_x2(self):
        res = mutual_information(TwoPointInput(0.3, 1000.0), ChannelParams(1.0))
        assert abs(res.nats - HB_03) <= 2e-3

    def test_monotone_approach_to_entropy(self):
        ch = ChannelParams(1.0)
        vals = [
            mutual_information(TwoPointInput(0.3, x2), ch).nats
            for x2 in (1.0, 10.0, 100.0, 1000.0)
        ]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < HB_03 for v in vals)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            a2 = float(rng.uniform(0.01, 0.99))
            x2 = float(10 ** rng.uniform(-1, 1.5))
            res = mutual_information(TwoPointInput(a2, x2), ChannelParams(1.0))
            assert 0.0 <= res.nats <= min(input_entropy(TwoPointInput(a2, x2)), LOG2) + 1e-12

    def test_guard_band_uses_closed_form(self):
        s2 = 1.0
        alpha = 0.5 + 3e-6
        x2 = math.sqrt(s2 * alpha / (1.0 - alpha))
        inp = TwoPointInput(0.4, x2)
        res = mutual_information(inp, ChannelParams(s2))
        assert res.case_j0 == "CaseIII"
        assert res.j0 == pytest.approx(
            oracle.j_quadrature(0.0, inp, ChannelParams(s2)), abs=1e-10
        )
        assert res.nats == pytest.approx(
            oracle.mi_quadrature(inp, ChannelParams(s2)), abs=1e-9
        )

    @pytest.mark.parametrize("alpha", [0.3, 1.0 / 64.0, 0.9 / 64.5])
    def test_beta_below_one_routes(self, alpha):
        # beta < 1 away from 1/n, at 1/n and below 1/64: the one closed form,
        # with series diagnostics every time
        ch = ChannelParams(1.0)
        inp = TwoPointInput(0.2, math.sqrt(alpha / (1.0 - alpha)))
        assert derive_params(0.0, inp, ch)[1] < 1.0
        res = mutual_information(inp, ch)
        assert res.case_j0 == "CaseIII"
        assert res.diagnostics["j0_terms"] > 0
        assert res.diagnostics["j0_truncation_bound"] <= 1e-16
        assert res.j0 == pytest.approx(oracle.j_quadrature(0.0, inp, ch), abs=1e-10)


class TestAssembleBounds:
    # mi._assemble's test of I against [0, H(X)], at a2 = 0.4 and t = 4.  I
    # is linear in phi with slope a1 t/b, so phi is moved off its true value
    # until I lands at a chosen distance past an end; the float form runs as
    # mutual_information calls it, the array form as the solver does, with
    # the true phi in its first element
    A2, T = 0.4, 4.0
    H_X = input_entropy(TwoPointInput(A2, 2.0))

    def _assemble(self, form, target):
        b, u = mi._phi_args(self.A2, self.T)
        phi = specfun.hyp2f1_1b_value(b, u).value
        exact = mi._assemble(self.A2, self.T, b, u, phi, xp=math)[0]
        moved = phi + (target - exact) * b / ((1.0 - self.A2) * self.T)
        if form == "float":
            return mi._assemble(self.A2, self.T, b, u, moved, xp=math)[0]
        nats = mi._assemble(np.full(2, self.A2), self.T, b, u, np.array([phi, moved]))[0]
        assert nats[0] == exact
        return nats[1]

    @pytest.mark.parametrize("form", ["float", "array"])
    def test_rounding_is_clamped(self, form):
        assert self._assemble(form, -5e-11) == 0.0
        assert self._assemble(form, self.H_X + 5e-11) == self.H_X

    @pytest.mark.parametrize("form", ["float", "array"])
    @pytest.mark.parametrize("offset,message", [
        (-2e-10, "mutual information came out negative: "),
        (2e-10, "mutual information exceeds H(X) by "),
        (math.nan, "mutual information came out NaN"),
    ])
    def test_past_rounding_raises(self, form, offset, message):
        target = offset if offset < 0.0 else self.H_X + offset
        with pytest.raises(ConsistencyError) as err:
            self._assemble(form, target)
        assert str(err.value).startswith(message)


class TestNanPhiRaises:
    # a NaN phi from either kernel reaches no caller as a NaN I or dI/da2
    def test_value_kernel(self, monkeypatch):
        monkeypatch.setattr(specfun, "hyp2f1_1b_value",
                            lambda b, u: specfun.SeriesResult(math.nan, 1, 0.0))
        inp, ch = TwoPointInput(0.4, 2.0), ChannelParams(1.0)
        for call in (mutual_information, mi_derivative_a2):
            with pytest.raises(ConsistencyError, match="came out NaN"):
                call(inp, ch)

    def test_family_kernel(self, monkeypatch):
        real = specfun.hyp2f1_1b

        def nan_value(b, u):
            fam = real(b, u)
            return dataclasses.replace(fam, value=fam.value * math.nan)

        monkeypatch.setattr(specfun, "hyp2f1_1b", nan_value)
        with pytest.raises(ConsistencyError, match="came out NaN"):
            capacity.mi_profile(1.0, [0.2, 0.5])
        with pytest.raises(ConsistencyError, match="came out NaN"):
            mi_derivative_a2(TwoPointInput(0.3, math.sqrt(1.0 / 0.3)),
                             ChannelParams(1.0, power_budget=1.0))


def _guard_band_inputs():
    """(x, input, channel) with alpha(x) within the 1/n guard band, n = 1..64,
    alpha = 1/n itself included: J(0) for n >= 2 (alpha(0) = x2^2/(x2^2 + s2)
    < 1) and J(x2) for every n (alpha(x2) = x2^2/s2), at beta on both sides
    of 1."""
    s2 = 1.7
    out = []
    for n in range(1, 65):
        for delta in (3e-6, -7e-6, 2e-9, 0.0):
            alpha = 1.0 / n + delta
            x2 = math.sqrt(alpha * s2)
            cases = [(x2, x2)]
            if n >= 2:
                cases.append((0.0, math.sqrt(s2 * alpha / (1.0 - alpha))))
            for x, x2 in cases:
                for a2 in (0.3, 0.95):
                    out.append((x, TwoPointInput(a2, x2), ChannelParams(s2)))
    return out


class TestWholeDomain:
    """Every valid input takes a closed form: no quadrature route, no
    exception, 0 <= I <= H(X)."""

    def test_seeded_field(self):
        # the log-uniform field of the benchmark's mi-field workload
        rng = np.random.default_rng(20261018)
        n = 4096
        a2 = 10.0 ** rng.uniform(-6.0, math.log10(1.0 - 1e-6), n)
        ratio = 10.0 ** rng.uniform(-3.0, 3.0, n)
        s2 = 10.0 ** rng.uniform(-3.0, 3.0, n)
        routes = set()
        for a, r, s in zip(a2.tolist(), ratio.tolist(), s2.tolist()):
            inp = TwoPointInput(a, r * math.sqrt(s))
            res = mutual_information(inp, ChannelParams(s))
            routes.update((res.case_j0, res.case_jx2))
            assert 0.0 <= res.nats <= input_entropy(inp) + 1e-10, (a, r, s)
        assert routes == {"CaseIII"}

    def test_guard_bands_against_quadrature(self):
        for x, inp, ch in _guard_band_inputs():
            _, dist = nearest_reciprocal(derive_params(x, inp, ch)[0])
            assert dist < GUARD_TOL
            res = mutual_information(inp, ch)
            j = res.j0 if x == 0.0 else res.j_x2
            assert j == pytest.approx(oracle.j_quadrature(x, inp, ch), abs=1e-10)
            assert j == pytest.approx(_j_mp(x, inp, ch), abs=1e-12)
            assert 0.0 <= res.nats <= input_entropy(inp) + 1e-10

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_near_reciprocal_alpha_matches_mpmath(self, n):
        # alpha(x) = 1/n +- {1.2e-5, 1e-4, 1e-3}, just outside the 1e-5
        # band, where the beta<1 form cancels like 1/|alpha - 1/n|
        s2 = 1.7
        for delta in (1.2e-5, -1.2e-5, 1e-4, -1e-4, 1e-3, -1e-3):
            alpha = 1.0 / n + delta
            x2s = [math.sqrt(alpha * s2)]  # alpha(x2) = x2^2/s2
            if alpha < 1.0:  # alpha(0) = x2^2/(x2^2 + s2)
                x2s.append(math.sqrt(s2 * alpha / (1.0 - alpha)))
            for x2 in x2s:
                for a2 in (0.05, 0.3):
                    inp, ch = TwoPointInput(a2, x2), ChannelParams(s2)
                    res = mutual_information(inp, ch)
                    assert res.j0 == pytest.approx(_j_mp(0.0, inp, ch), abs=1e-13)
                    assert res.j_x2 == pytest.approx(_j_mp(x2, inp, ch), abs=1e-13)

    @pytest.mark.parametrize("a2,x2,s2", [
        (0.4040370343972663, 0.02992088226694697, 0.05078903561971215),
        (0.4107321963584328, 0.054300877356785064, 0.17343770150543222),
    ])
    def test_mi_field_points_match_mpmath(self, a2, x2, s2):
        # two draws of the benchmark's mi-field workload, alpha(x2) about
        # 1/56.7 and 1/58.8
        inp, ch = TwoPointInput(a2, x2), ChannelParams(s2)
        res = mutual_information(inp, ch)
        assert res.j0 == pytest.approx(_j_mp(0.0, inp, ch), abs=1e-13)
        assert res.j_x2 == pytest.approx(_j_mp(x2, inp, ch), abs=1e-13)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(1e-12, 1.0 - 1e-12),
        st.floats(-4.0, 4.0),
        st.floats(-6.0, 6.0),
        st.floats(-3.0, 3.0),
    )
    # far-apart mass points at tiny a2: I rounded 2.6e-15 above H(X) = 2.9e-11
    @example(1e-12, 4.0, -6.0, -3.0)
    def test_bounds_and_scale_invariance(self, a2, log_ratio, log_s2, log_c):
        # a2 in [1e-12, 1 - 1e-12], x2/sigma in [1e-4, 1e4], sigma^2 in
        # [1e-6, 1e6], and the same input with x2^2 and sigma^2 scaled by c
        # through the j_case3 form, which takes x2 and sigma^2 as they come
        ratio, s2, c = 10.0**log_ratio, 10.0**log_s2, 10.0**log_c
        inp = TwoPointInput(a2, ratio * math.sqrt(s2))
        nats = mutual_information(inp, ChannelParams(s2)).nats
        assert math.isfinite(nats)
        assert 0.0 <= nats <= input_entropy(inp)
        scaled = verify._mi_case3(TwoPointInput(a2, ratio * math.sqrt(s2 * c)),
                                  ChannelParams(s2 * c))
        assert abs(nats - scaled) <= 1e-12


class TestEntropies:
    def test_input_entropy_peak(self):
        assert input_entropy(TwoPointInput(0.5, 1.0)) == pytest.approx(LOG2, abs=1e-15)

    def test_input_entropy_ends(self):
        assert input_entropy(TwoPointInput(0.0, 1.0)) == 0.0
        assert input_entropy(TwoPointInput(1.0, 1.0)) == 0.0

    def test_input_entropy_value(self):
        assert input_entropy(TwoPointInput(0.3, 1.0)) == pytest.approx(HB_03, rel=1e-12)

    @staticmethod
    def _conditional_entropy(a2, x2, capsys):
        """H(X|Y) as `noncoh mi --json` reports it, at sigma2 = 1."""
        assert cli.main(["mi", "--a2", repr(a2), "--x2", repr(x2), "--json"]) == 0
        return json.loads(capsys.readouterr().out)["results"]["conditional_entropy_nats"]

    def test_conditional_entropy_decomposition(self, capsys):
        inp, ch = TwoPointInput(0.4, 2.0), ChannelParams(1.0)
        h = self._conditional_entropy(0.4, 2.0, capsys)
        assert h >= 0.0
        assert h == pytest.approx(
            input_entropy(inp) - mutual_information(inp, ch).nats, abs=1e-14
        )
        assert input_entropy(inp) - h == pytest.approx(
            oracle.mi_quadrature(inp, ch), abs=1e-7
        )

    def test_conditional_entropy_vanishes_far_apart(self, capsys):
        assert self._conditional_entropy(0.5, 3000.0, capsys) <= 1e-3

    def test_degenerate(self, capsys):
        assert self._conditional_entropy(0.0, 2.0, capsys) == 0.0


class TestContinuation:
    @pytest.mark.parametrize("alpha,beta", [(1.7, 0.4), (0.37, 2.5), (3.2, 1.0)])
    def test_examples(self, alpha, beta):
        assert abs(continuation_residual(alpha, beta)) <= 1e-8

    def test_guard(self):
        with pytest.raises(NearSingularAlpha):
            continuation_residual(0.5 + 1e-7, 0.4)


class TestSinIdentity:
    @pytest.mark.parametrize("alpha", [2.0, 0.6, 5.5])
    def test_examples(self, alpha):
        assert abs(hyp3f2_sin_identity_residual(alpha)) <= 1e-8

    def test_alpha_two_reference(self):
        # pi/sin(pi/2) = pi
        assert pi_csc_recip(2.0) == pytest.approx(math.pi, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 1.4, 3.7, 8.9])
    def test_more_alphas(self, alpha):
        assert abs(hyp3f2_sin_identity_residual(alpha)) <= 1e-8

    def test_guard(self):
        with pytest.raises(NearSingularAlpha):
            hyp3f2_sin_identity_residual(1.0 + 1e-8)


@pytest.mark.parametrize("fn,args", [
    (continuation_residual, (math.nan, 1.0)),
    (continuation_residual, (math.inf, 1.0)),
    (continuation_residual, (0.7, math.inf)),
    (continuation_residual, (0.7, math.nan)),
    (continuation_residual, (0.0, 1.0)),
    (continuation_residual, (0.7, -1.0)),
    (hyp3f2_sin_identity_residual, (math.nan,)),
    (hyp3f2_sin_identity_residual, (math.inf,)),
    (hyp3f2_sin_identity_residual, (-2.0,)),
    (log1p_series_partial_sum, (0.5, 2.5)),
    (log1p_series_partial_sum, (0.5, 0)),
    (log1p_series_partial_sum, (0.5, math.nan)),
])
def test_reference_functions_refuse_bad_input(fn, args):
    # alpha and beta finite and positive, n an integer >= 1, checked before
    # any series is summed
    with pytest.raises(DomainError):
        fn(*args)


def _joint_rescaling_gap():
    """The largest |I| gap between the value path at (x2, sigma^2) and the
    j_case3 form (verify._mi_case3) at (s x2, s^2 sigma^2), over 20 draws."""
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        a2 = float(rng.uniform(0.02, 0.98))
        x2 = float(10 ** rng.uniform(-1.0, 1.3))
        s2 = float(10 ** rng.uniform(-0.5, 0.5))
        c = float(10 ** rng.uniform(-2.0, 2.0))
        base = mutual_information(TwoPointInput(a2, x2), ChannelParams(s2)).nats
        scaled = verify._mi_case3(TwoPointInput(a2, x2 * math.sqrt(c)), ChannelParams(s2 * c))
        worst = max(worst, abs(base - scaled))
    return worst


class TestScaleInvariance:
    @pytest.mark.parametrize("error", [1.0 + 1e-6, 1e3])
    def test_verify_family_sees_a_sigma2_scale_error(self, error, monkeypatch):
        # a value path that takes sigma^2 a factor off still agrees with
        # itself when (x2, sigma^2) are rescaled together; verify's family
        # and test_joint_rescaling compare it with the j_case3 form, which
        # takes sigma^2 as it comes
        assert verify.check_scale_invariance().passed
        assert _joint_rescaling_gap() <= 1e-12
        real = mi._fixed_args
        monkeypatch.setattr(mi, "_fixed_args",
                            lambda inp, ch: real(inp, ChannelParams(ch.sigma2 * error)))
        base = mutual_information(TwoPointInput(0.3, 2.0), ChannelParams(1.5)).nats
        scaled = mutual_information(TwoPointInput(0.3, 6.0), ChannelParams(13.5)).nats
        assert abs(base - scaled) <= 1e-12
        result = verify.check_scale_invariance()
        assert not result.passed and result.worst > 1e-9
        assert _joint_rescaling_gap() > 1e-9

    def test_joint_rescaling(self):
        assert _joint_rescaling_gap() <= 1e-12

    @pytest.mark.parametrize("k", [-140, -3, 1, 7, 120])
    @pytest.mark.parametrize("a2,x2,s2", [(0.5, 1.0, 1.0), (0.3, 2.5, 0.7),
                                          (1e-6, 30.0, 1.3), (0.97, 0.05, 7.3)])
    def test_power_of_four_rescaling_is_exact(self, a2, x2, s2, k):
        # x2 2^k and sigma^2 4^k are exact in floats and leave t = x2^2/sigma^2
        # as it was, so I and both modes of dI/da2 keep every bit
        c = 2.0**k
        inp, scaled_inp = TwoPointInput(a2, x2), TwoPointInput(a2, x2 * c)
        ch, scaled_ch = ChannelParams(s2), ChannelParams(s2 * c * c)
        assert (mutual_information(scaled_inp, scaled_ch).nats
                == mutual_information(inp, ch).nats)
        assert mi_derivative_a2(scaled_inp, scaled_ch) == mi_derivative_a2(inp, ch)
        p = a2 * x2 * x2
        ch = ChannelParams(s2, power_budget=p)
        scaled_ch = ChannelParams(s2 * c * c, power_budget=p * c * c)
        assert mi_derivative_a2(scaled_inp, scaled_ch) == mi_derivative_a2(inp, ch)
