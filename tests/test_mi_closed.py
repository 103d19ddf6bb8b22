import math

import mpmath as mp
import numpy as np
import pytest
from scipy.integrate import quad

from mp_reference import j_closed_form
from noncoh import oracle
from noncoh.channel import (
    ChannelParams,
    TwoPointInput,
    derive_params,
    nearest_reciprocal,
)
from noncoh.errors import (
    CaseMismatch,
    DegenerateInput,
    NearSingularAlpha,
)
from noncoh.mi import (
    CASE2_ALPHA_MIN,
    GUARD_TOL,
    Case,
    _j_eval,
    continuation_residual,
    conditional_entropy,
    hyp3f2_sin_identity_residual,
    input_entropy,
    j_case1,
    j_case2,
    j_case3,
    mutual_information,
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
                # the value path takes the beta>=1 form here
                ev = _j_eval(0.0, inp, ch)
                assert ev.case is Case.CASE_III
                assert ev.value == pytest.approx(exact, abs=1e-13)

    def test_large_beta_stability(self):
        # beta^n blow-up must not poison the finite-sum route
        s2 = 1.0
        x2 = math.sqrt(s2 / 19.0)  # alpha0 = 1/20
        inp, ch = TwoPointInput(0.95, x2), ChannelParams(s2)
        assert derive_params(0.0, inp, ch).beta > 15.0
        assert j_case1(0.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(0.0, inp, ch), abs=1e-10
        )

    def test_case_mismatch(self):
        with pytest.raises(CaseMismatch):
            j_case1(0.0, TwoPointInput(0.5, 2.0), ChannelParams(1.0))


class TestJCase2:
    def test_example_a(self):
        inp, ch = TwoPointInput(0.5, 2.0), ChannelParams(1.0)
        dp = derive_params(0.0, inp, ch)
        assert (dp.alpha, dp.beta) == (pytest.approx(0.8), pytest.approx(0.2))
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
        assert res.case_j0 is Case.CASE_III
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
        assert derive_params(0.0, inp, ch).beta > 1.0
        assert j_case2(0.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(0.0, inp, ch), abs=1e-8
        )

    @pytest.mark.parametrize("s2", [1.0, 7.3])
    def test_large_alpha_matches_mpmath(self, s2):
        # at J(x2), alpha = x2^2/s2 up to 1e6: the pi/sin(pi/alpha) term is
        # about alpha and must not cancel against -x^2/s2 in floating point
        for ratio in (3.0, 30.0, 300.0, 1000.0):
            for a2 in (1e-6, 1e-3, 0.1, 0.4):
                inp, ch = TwoPointInput(a2, ratio * math.sqrt(s2)), ChannelParams(s2)
                assert _j_eval(inp.x2, inp, ch).case is Case.CASE_II
                for x in (0.0, inp.x2):
                    with mp.workdps(30):
                        ref = j_closed_form(mp.mpf(x), mp.mpf(a2), mp.mpf(inp.x2),
                                            mp.mpf(s2))
                    assert _j_eval(x, inp, ch).value == pytest.approx(
                        float(ref), abs=1e-13), (ratio, a2, x)


class TestJCase3:
    def test_beta_large(self):
        inp, ch = TwoPointInput(0.9, 1.0), ChannelParams(1.0)
        assert derive_params(0.0, inp, ch).beta == pytest.approx(4.5)
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
        assert derive_params(0.0, inp, ch).beta == pytest.approx(0.2)
        assert j_case3(0.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(0.0, inp, ch), abs=1e-8
        )

    def test_fine_even_at_snapped_alpha(self):
        # no indeterminations anywhere, including alpha = 1/n
        inp, ch = TwoPointInput(0.9, 1.0), ChannelParams(1.0)  # alpha0 = 1/2
        assert j_case3(0.0, inp, ch) == pytest.approx(
            oracle.j_quadrature(0.0, inp, ch), abs=1e-8
        )


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
        dp = derive_params(x, inp, ch)
        assert _j_eval(x, inp, ch).case is Case.CASE_III
        exact = j_case1(x, inp, ch)
        eps = 1e-4
        lo = self._j_alpha_decoupled(1.0 / n - eps, dp.beta, x, s2, inp.a1)
        hi = self._j_alpha_decoupled(1.0 / n + eps, dp.beta, x, s2, inp.a1)
        assert min(lo, hi) - 1e-12 <= exact <= max(lo, hi) + 1e-12
        assert abs(hi - lo) < 1e-2  # the bracket is actually tight


class TestMutualInformation:
    @pytest.mark.parametrize("a2", [0.0, 1.0])
    def test_degenerate_mass(self, a2):
        res = mutual_information(TwoPointInput(a2, 3.0), ChannelParams(1.0))
        assert res.nats == 0.0
        assert res.case_j0 is Case.DEGENERATE

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
        assert res.case_j0 is Case.CASE_III
        assert res.j0 == pytest.approx(
            oracle.j_quadrature(0.0, inp, ChannelParams(s2)), abs=1e-10
        )
        assert res.nats == pytest.approx(
            oracle.mi_quadrature(inp, ChannelParams(s2)), abs=1e-9
        )

    @pytest.mark.parametrize("alpha,case,series", [
        (0.3, Case.CASE_II, True),
        (1.0 / 64.0, Case.CASE_III, False),
        (0.9 * CASE2_ALPHA_MIN, Case.CASE_III, True),
    ])
    def test_beta_below_one_routes(self, alpha, case, series):
        # the beta<1 form away from 1/n; the beta>=1 form through the kernel
        # (no series diagnostics) next to 1/n, and through its series below
        # CASE2_ALPHA_MIN
        ch = ChannelParams(1.0)
        inp = TwoPointInput(0.2, math.sqrt(alpha / (1.0 - alpha)))
        assert derive_params(0.0, inp, ch).beta < 1.0
        ev = _j_eval(0.0, inp, ch)
        assert ev.case is case
        assert (ev.terms_used is not None) is series
        assert ev.value == pytest.approx(oracle.j_quadrature(0.0, inp, ch), abs=1e-10)


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
        assert routes == {Case.CASE_II, Case.CASE_III}

    def test_guard_bands_against_quadrature(self):
        for x, inp, ch in _guard_band_inputs():
            _, dist = nearest_reciprocal(derive_params(x, inp, ch).alpha)
            assert dist < GUARD_TOL
            ev = _j_eval(x, inp, ch)
            assert ev.case is Case.CASE_III
            assert ev.value == pytest.approx(oracle.j_quadrature(x, inp, ch), abs=1e-10)
            with mp.workdps(30):
                ref = j_closed_form(mp.mpf(x), mp.mpf(inp.a2), mp.mpf(inp.x2),
                                    mp.mpf(ch.sigma2))
            assert ev.value == pytest.approx(float(ref), abs=1e-12)
            res = mutual_information(inp, ch)
            assert 0.0 <= res.nats <= input_entropy(inp) + 1e-10


class TestEntropies:
    def test_input_entropy_peak(self):
        assert input_entropy(TwoPointInput(0.5, 1.0)) == pytest.approx(LOG2, abs=1e-15)

    def test_input_entropy_ends(self):
        assert input_entropy(TwoPointInput(0.0, 1.0)) == 0.0
        assert input_entropy(TwoPointInput(1.0, 1.0)) == 0.0

    def test_input_entropy_value(self):
        assert input_entropy(TwoPointInput(0.3, 1.0)) == pytest.approx(HB_03, rel=1e-12)

    def test_conditional_entropy_decomposition(self):
        inp, ch = TwoPointInput(0.4, 2.0), ChannelParams(1.0)
        h = conditional_entropy(inp, ch)
        assert h >= 0.0
        assert h == pytest.approx(
            input_entropy(inp) - mutual_information(inp, ch).nats, abs=1e-14
        )
        assert input_entropy(inp) - h == pytest.approx(
            oracle.mi_quadrature(inp, ch), abs=1e-7
        )

    def test_conditional_entropy_vanishes_far_apart(self):
        assert conditional_entropy(TwoPointInput(0.5, 3000.0), ChannelParams(1.0)) <= 1e-3

    def test_degenerate(self):
        assert conditional_entropy(TwoPointInput(0.0, 2.0), ChannelParams(1.0)) == 0.0


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
        from noncoh.specfun import pi_csc_recip

        assert pi_csc_recip(2.0) == pytest.approx(math.pi, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 1.4, 3.7, 8.9])
    def test_more_alphas(self, alpha):
        assert abs(hyp3f2_sin_identity_residual(alpha)) <= 1e-8

    def test_guard(self):
        with pytest.raises(NearSingularAlpha):
            hyp3f2_sin_identity_residual(1.0 + 1e-8)


class TestScaleInvariance:
    def test_joint_rescaling(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a2 = float(rng.uniform(0.02, 0.98))
            x2 = float(10 ** rng.uniform(-1.0, 1.3))
            s2 = float(10 ** rng.uniform(-0.5, 0.5))
            c = float(10 ** rng.uniform(-2.0, 2.0))
            base = mutual_information(TwoPointInput(a2, x2), ChannelParams(s2)).nats
            scaled = mutual_information(
                TwoPointInput(a2, x2 * math.sqrt(c)), ChannelParams(s2 * c)
            ).nats
            assert abs(base - scaled) <= 1e-12
