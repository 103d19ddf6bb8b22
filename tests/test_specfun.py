import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import zeta

from mp_reference import hyp2f1_family, hyp2f1_value, pi_csc_minus_recip_ref
from noncoh import capacity, mi, reference, specfun
from noncoh.channel import ChannelParams, TwoPointInput, derive_params
from noncoh.errors import DivergenceError, DomainError, NoConvergence
from noncoh.reference import log1p_series_partial_sum
from noncoh.specfun import (
    _euler_average,
    gauss_2f1,
    hyp2f1_1b,
    hyp2f1_1b_value,
    hyp_pfq,
    pi_csc_minus_recip,
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
        res = hyp_pfq([0.3, 1.2], [2.7], -0.8)
        assert res.truncation_bound >= 0.0
        assert res.terms_used <= specfun.MAX_TERMS

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

    @pytest.mark.parametrize("numer,denom,z", [
        ([1.0, 1.0], [2.0], math.nan), ([1.0, 1.0], [2.0], math.inf),
        ([1.0, 1.0], [2.0], -math.inf), ([math.nan, 1.0], [2.0], 0.5),
        ([1.0, -math.inf], [2.0], 0.5), ([1.0], [math.inf], 0.5), ([], [], math.nan),
    ], ids=["z-nan", "z-inf", "z-minus-inf", "numer-nan", "numer-minus-inf", "denom-inf",
            "0f0-z-nan"])
    def test_non_finite_arguments_are_refused_up_front(self, numer, denom, z):
        with pytest.raises(DomainError, match="finite"):
            hyp_pfq(numer, denom, z)

    def test_denominator_pole(self):
        with pytest.raises(DomainError):
            hyp_pfq([1.0], [-2.0], 0.5)

    def test_no_convergence_when_starved(self, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", 5)
        with pytest.raises(NoConvergence):
            hyp_pfq([1.0, 1.0], [2.0], -0.9)

    @pytest.mark.parametrize("alpha", [0.3, 0.7, 1.6, 4.2])
    def test_3f2_converges_at_minus_one(self, alpha):
        for shift in (-1.0, 1.0):
            res = hyp_pfq(
                [1.0, 1.0, (alpha + shift) / alpha],
                [2.0, (2.0 * alpha + shift) / alpha],
                -1.0,
            )
            assert res.truncation_bound <= specfun.ABS_TOL
            assert res.terms_used <= specfun.MAX_TERMS


def _term_ratio_loop(numer, denom, z, k):
    r = z / (k + 1.0)
    for a in numer:
        r *= a + k
    for b in denom:
        bk = b + k
        if bk == 0.0:
            raise DomainError(f"denominator parameter {b} hits a pole at term k={k}")
        r /= bk
    return r


def _hyp_pfq_loop(numer, denom, z):
    """Reference: hyp_pfq's earlier loop, one term at a time, without the
    argument checks that come before it; reads MAX_TERMS at call time."""
    numer = [float(a) for a in numer]
    denom = [float(b) for b in denom]
    z = float(z)
    p, q = len(numer), len(denom)
    tol = specfun.ABS_TOL
    neg = [-c for c in numer + denom if c < 0.0]
    m0 = int(max(48.0, (max(neg) if neg else 0.0) + 16.0))
    n_tail = 72
    if p == q + 1 and z < 0.0 and abs(z) >= 0.9 and specfun.MAX_TERMS >= m0 + n_tail:
        term = 1.0
        total = 1.0
        for k in range(m0 - 1):
            term *= _term_ratio_loop(numer, denom, z, k)
            total += term
        tail_terms = np.empty(n_tail)
        for j in range(n_tail):
            term *= _term_ratio_loop(numer, denom, z, m0 - 1 + j)
            tail_terms[j] = term
        tail, err = _euler_average(tail_terms)
        value = total + tail
        bound = max(err, abs(value) * 1e-16)
        if bound <= tol:
            return specfun.SeriesResult(value, m0 + n_tail, bound)
    k_min = int(max(neg)) + 4 if neg else 1
    drift = abs(sum(numer) - sum(denom)) + 1.0
    term = 1.0
    total = 1.0
    ratio = _term_ratio_loop(numer, denom, z, 0)
    k = 0
    while k < specfun.MAX_TERMS:
        term *= ratio
        total += term
        k += 1
        ratio = _term_ratio_loop(numer, denom, z, k)
        if k >= k_min and abs(term) <= tol:
            rho = abs(ratio)
            if p == q + 1:
                rho = max(rho, abs(z) * (1.0 + drift / (k + 1.0)))
            rho = min(rho, 0.999)
            bound = abs(term) * rho / (1.0 - rho)
            if bound <= tol:
                return specfun.SeriesResult(total, k, bound)
    raise NoConvergence(f"series did not reach abs_tol={tol} within {specfun.MAX_TERMS} terms")


def _outcome(fn, numer, denom, z):
    """(value, terms_used, truncation_bound) with the floats in hex, so
    that -0.0, NaN and every last bit count; or the error's type and text."""
    try:
        res = fn(numer, denom, z)
    except (DomainError, NoConvergence) as exc:
        return type(exc), str(exc)
    assert type(res.value) is float and type(res.truncation_bound) is float
    return res.value.hex(), res.terms_used, res.truncation_bound.hex()


def _recorded_calls(monkeypatch, run):
    """The (numer, denom, z) of every hyp_pfq call that run() makes."""
    calls = []

    def recording(numer, denom, z):
        calls.append((list(numer), list(denom), z))
        return hyp_pfq(numer, denom, z)

    monkeypatch.setattr(specfun, "hyp_pfq", recording)
    run()
    monkeypatch.undo()
    return calls


# series for the block loop against the reference: 0F0 and 1F1 on both
# sides of |z| = 1; terms that hump back up after negative non-integer
# parameters; 2F1 and 3F2 at z = -1 and -0.9 that the tail acceleration
# does not settle, so they fall through to plain summation; z = 0, once
# with parameters whose sum overflows; 2F1 at z = 1; and denominator poles
# before, at and past the MAX_TERMS values below
_SERIES = [
    ([], [], 0.3), ([], [], -7.5), ([], [], 1.0), ([], [], -1.0), ([0.5], [1.5], -1.0),
    ([1.0, 0.5], [1.5], 0.0), ([2.5], [], 0.0), ([1.0, 1.0, 1.0], [2.0], 0.0),
    ([1e308, 1e308], [1.0], 0.0),
    ([-7.5, 1.3], [2.2], 0.8), ([-20.3], [0.4], 3.0), ([-12.3, 4.0], [-2.5], -0.9),
    ([-3.5, 4.0], [0.6], -0.9), ([-3.5, 4.0], [0.6], -0.95),
    ([1.0, -7.3, 0.5], [2.0, -0.5], -1.0), ([1.0, -7.3, 6.0], [2.0, 3.0], -1.0),
    ([1.0, 1.0, 1.5], [2.0, 2.5], -1.0), ([1.0, 1.0], [2.0], -1.0),
    ([0.5, 0.5], [6.0], 1.0), ([1.0, 0.7], [1.7], 0.999),
    ([1.0], [-2.0], 0.5), ([1.0], [-3.0, -1.0], 0.5), ([1.0], [0.0], 0.5),
    ([1.0], [-37.0], 0.5), ([1.0], [-50.0], 0.5), ([1.0, 1.0], [-3.0], -0.95),
]
# 0F0 series whose terms overflow to inf, or to inf and -inf, within 100
# terms; at the full MAX_TERMS they would run 10^7 terms before giving up
_OVERFLOWING = [([], [], 1e5), ([], [], -1e5)]


class TestHypPfqBlocks:
    """hyp_pfq forms and sums its terms in numpy blocks; every result must
    be the one-term-at-a-time loop's, bit for bit, and so must every error."""

    def test_every_call_of_a_verify_pass(self, monkeypatch):
        from noncoh import verify

        calls = _recorded_calls(monkeypatch, verify.run_checks)
        # the route-consistency family's 2F1(-1/beta) sums tens of
        # thousands of terms in one call, over many blocks
        assert max(hyp_pfq(*c).terms_used for c in calls) > 4 * specfun._PFQ_BLOCK_MAX
        for c in calls:
            assert _outcome(hyp_pfq, *c) == _outcome(_hyp_pfq_loop, *c), c

    @pytest.mark.parametrize("series", _SERIES)
    def test_series_at_the_edges(self, series):
        assert _outcome(hyp_pfq, *series) == _outcome(_hyp_pfq_loop, *series)

    @pytest.mark.parametrize("block_max", [1, 2, 7])
    def test_block_boundaries_move_no_bit(self, block_max, monkeypatch):
        # a stop, a carried term and a carried sum at every block boundary
        expected = [_outcome(hyp_pfq, *c) for c in _SERIES]
        monkeypatch.setattr(specfun, "_PFQ_BLOCK_MAX", block_max)
        assert [_outcome(hyp_pfq, *c) for c in _SERIES] == expected

    @pytest.mark.parametrize("max_terms", [5, 37, 100])
    def test_starved_series(self, max_terms, monkeypatch):
        monkeypatch.setattr(specfun, "MAX_TERMS", max_terms)
        series = _SERIES + _OVERFLOWING
        outcomes = [_outcome(hyp_pfq, *c) for c in series]
        assert outcomes == [_outcome(_hyp_pfq_loop, *c) for c in series]
        # starved, met a pole, and summed within the cap, at every cap
        kinds = {o[0] if isinstance(o[0], type) else float for o in outcomes}
        assert kinds == {NoConvergence, DomainError, float}

    @pytest.mark.parametrize("z", [-0.51, -0.9, -4.0, -815.0, -1e4])
    def test_gauss_2f1_below_minus_half(self, z, monkeypatch):
        calls = _recorded_calls(monkeypatch, lambda: gauss_2f1(1.0, 1.4, 2.4, z))
        assert len(calls) == 1 and calls[0][2] == z / (z - 1.0)
        assert _outcome(hyp_pfq, *calls[0]) == _outcome(_hyp_pfq_loop, *calls[0])

    def test_j_case3_at_small_beta(self, monkeypatch):
        # beta = 6.9e-5 maps -1/beta to w = z/(z-1) within 7e-5 of 1
        inp, ch = TwoPointInput(0.034, 68.6), ChannelParams(9.24)
        assert derive_params(0.0, inp, ch)[1] == pytest.approx(6.9e-5, rel=0.01)
        calls = _recorded_calls(monkeypatch, lambda: reference.j_case3(0.0, inp, ch))
        assert len(calls) == 1 and calls[0][2] > 1.0 - 7e-5
        assert _outcome(hyp_pfq, *calls[0]) == _outcome(_hyp_pfq_loop, *calls[0])


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

    @pytest.mark.parametrize("args", [
        (1.0, 1.0, 2.0, -math.inf), (1.0, 1.0, 2.0, math.nan), (math.nan, 1.0, 2.0, -0.3),
        (1.0, math.inf, 2.0, -0.7), (1.0, 1.0, math.inf, -0.3), (1.0, 1.0, -math.inf, 0.3),
    ], ids=["z-minus-inf", "z-nan", "xi1-nan", "xi2-inf-transformed", "eta1-inf",
            "eta1-minus-inf"])
    def test_non_finite_arguments_are_refused_up_front(self, args):
        with pytest.raises(DomainError, match="finite"):
            gauss_2f1(*args)

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

    @pytest.mark.parametrize("cases", [1000, 200], ids=["full", "quick"])
    def test_array_form_keeps_the_bits_of_one_sum_per_case(self, cases):
        # verify's partial-sum family at its seed-2024 draws (the full pass
        # and --quick): each case of the array call, and its scalar call,
        # has the bits of the 1-D sum of its own n terms
        rng = np.random.default_rng(2024)
        draws = [(float(rng.uniform(0.0, 1.0)), int(rng.integers(1, 501)))
                 for _ in range(cases)]
        got = log1p_series_partial_sum(np.array([d[0] for d in draws]),
                                       np.array([d[1] for d in draws]))
        assert isinstance(got, np.ndarray) and got.shape == (cases,)
        for (q, n), t in zip(draws, got.tolist()):
            k = np.arange(1, n + 1, dtype=float)
            signs = np.where(np.arange(1, n + 1) % 2 == 1, 1.0, -1.0)
            want = float(np.sum(signs * np.power(q, k) / k))
            scalar = log1p_series_partial_sum(q, n)
            assert type(scalar) is float
            assert repr(t) == repr(scalar) == repr(want), (q, n)

    @pytest.mark.parametrize("n", [[3, 2.5], [3, 0], [3, math.nan], [3.0, 4.0]],
                             ids=["non-integer", "zero", "nan", "float-dtype"])
    def test_array_n_refused(self, n):
        # every n must be a positive integer, as for a scalar call
        with pytest.raises(DomainError):
            log1p_series_partial_sum(np.array([0.5, 0.5]), np.array(n))

    def test_shapes_must_match(self):
        with pytest.raises(DomainError):
            log1p_series_partial_sum(np.array([0.5, 0.5]), np.array([3]))
        with pytest.raises(DomainError):
            log1p_series_partial_sum(0.5, np.array([3]))


# b next to and at integers, and a wide b grid, integers included; u on
# both sides of 0.8, 1 and 1.25 (where the continuation takes over from
# Pfaff's series) and up to 1e12
NEAR_INTEGER_B = [
    2.00001, 2.99998, 4.00003,
    *(n + d for n in (1.0, 2.0, 3.0, 4.0, 65.0) for d in (0.0, 1e-12, -1e-12)),
]
NEAR_INTEGER_U = [1.0, 1.05, 1.3, 2.0, 17.0, 1e3, 1e6, 1e11]
WIDE_B = [0.05, 0.5, 1.0, 1.3, 2.00001, 2.5, 3.0, 3.9, 4.95, 5.0, 65.0]
WIDE_U = [0.0, 1e-3, 0.3, 0.79, 0.8, 0.81, 0.99, 1.0, 1.01, 1.24, 1.25, 1.26,
          3.0, 1e3, 1e6, 1e12]


class TestF21Family:
    """The 2F1(1, b; b+1; z) kernel and its b-partial behind the analytic
    mutual-information derivative."""

    def test_at_zero(self):
        fam = hyp2f1_1b(2.3, 0.0)
        assert fam.value == 1.0
        assert fam.d_db == 0.0

    @pytest.mark.parametrize("b,u", [(1.5, 0.3), (2.25, 0.9), (1.5, 2.0),
                                     (3.7, 5.0), (1.3, 40.0), (2.5, 1.1)])
    def test_value_matches_gauss_2f1(self, b, u):
        fam = hyp2f1_1b(b, u)
        assert fam.value == pytest.approx(gauss_2f1(1.0, b, b + 1.0, -u), rel=1e-10)

    @pytest.mark.parametrize("b,u", [(1.5, 0.3), (2.7, 0.45), (3.3, 0.2)])
    def test_partials_match_series_forms_inside_disk(self, b, u):
        # d/db 2F1(1,b;b+1;z) = [z/(1+b)^2] 3F2(2, 1+b, 1+b; 2+b, 2+b; z)
        fam = hyp2f1_1b(b, u)
        db_ref = (
            -u / (1.0 + b) ** 2
            * hyp_pfq([2.0, 1.0 + b, 1.0 + b], [2.0 + b, 2.0 + b], -u).value
        )
        assert fam.d_db == pytest.approx(db_ref, rel=1e-11)

    @pytest.mark.parametrize("b,u", [(1.5, 2.0), (2.25, 1.3), (1.3, 40.0),
                                     (11.4, 3.0), (1.0001, 17.0)])
    def test_partials_outside_disk_vs_finite_differences(self, b, u):
        fam = hyp2f1_1b(b, u)
        h = 1e-6
        db_fd = (hyp2f1_1b(b + h, u).value - hyp2f1_1b(b - h, u).value) / (2 * h)
        assert fam.d_db == pytest.approx(db_fd, rel=2e-8, abs=1e-12)

    def test_array_call_matches_scalar_calls(self):
        # b in [1, 5] plus 65, integers included, u on both sides of 0.8, 1
        # and 1.25 and up to 1e12
        pairs = [(b, u) for b in WIDE_B if b >= 1.0 for u in WIDE_U]
        b, u = np.array(pairs).T
        fam = hyp2f1_1b(b, u)
        for i, (bi, ui) in enumerate(pairs):
            one = hyp2f1_1b(bi, ui)
            for name in ("value", "d_db"):
                assert getattr(fam, name)[i] == pytest.approx(
                    getattr(one, name), rel=1e-14, abs=0.0), (bi, ui, name)

    def test_array_call_over_several_passes(self):
        # more terms in each family than one block holds, rows of both
        # families interleaved, integer b and the longest continuation rows
        # (u = 1.25, 188 terms) among them: every row is its own call
        rng = np.random.default_rng(8)
        b = np.exp(rng.uniform(0.0, np.log(65.0), 2400))
        b[::9] = np.ceil(b[::9])
        u = np.exp(np.where(np.arange(2400) % 2 == 0,
                            rng.uniform(np.log(1e-3), np.log(1.25), 2400),
                            rng.uniform(np.log(1.25), np.log(1e12), 2400)))
        u[1::97] = 1.25
        star = u >= specfun._STAR_MIN_U
        counts = (specfun._star_count(np.log(u[star])), specfun._pfaff_count(u[~star]))
        assert counts[0].max() == 188
        for n in counts:  # two blocks at least
            assert n.sum() > specfun._BLOCK_TERMS
        fam = hyp2f1_1b(b, u)
        for i, (bi, ui) in enumerate(zip(b.tolist(), u.tolist())):
            one = hyp2f1_1b(bi, ui)
            assert (fam.value[i], fam.d_db[i]) == (one.value, one.d_db), (bi, ui)

    def test_one_block_calls_match_a_call_of_several_blocks(self, monkeypatch):
        # a row must sum alike in whatever block it lands: the first
        # refinement call of an 81-point solve (one block) and a one-row
        # call of each family, against the same rows shuffled into one call
        # that mixes both families and needs several blocks of each
        calls = []
        real = specfun.hyp2f1_1b

        def recording_kernel(b, u):
            calls.append((np.array(b, dtype=float), np.array(u, dtype=float)))
            return real(b, u)

        monkeypatch.setattr(specfun, "hyp2f1_1b", recording_kernel)
        capacity.solve_a2_star(10.0 ** ((-10.0 + 0.5 * np.arange(81)) / 10.0))
        monkeypatch.undo()
        refine_b, refine_u = calls[1]
        assert refine_b.shape == (81,)
        singles = [(np.array([2.3]), np.array([5.0])), (np.array([2.3]), np.array([0.5]))]
        rng = np.random.default_rng(21)
        fill_b = rng.uniform(1.0, 12.0, 800)
        fill_u = np.where(np.arange(800) % 2 == 0, rng.uniform(0.3, 1.2, 800),
                          rng.uniform(1.25, 1.3, 800))
        b = np.concatenate([refine_b, *(s[0] for s in singles), fill_b])
        u = np.concatenate([refine_u, *(s[1] for s in singles), fill_u])
        order = rng.permutation(b.size)
        fam = hyp2f1_1b(b[order], u[order])
        value, d_db = np.empty(b.size), np.empty(b.size)
        value[order], d_db[order] = fam.value, fam.d_db

        def n_blocks(b, u):
            star = u >= specfun._STAR_MIN_U
            return [sum(f is family for f, *_ in specfun._row_blocks(star, u))
                    for family in (specfun._family_pfaff, specfun._family_star)]

        assert min(n_blocks(b, u)) >= 2
        start = 0
        for (bs, us), blocks in zip([(refine_b, refine_u), *singles],
                                    ([0, 1], [0, 1], [1, 0])):
            assert n_blocks(bs, us) == blocks
            one = hyp2f1_1b(bs, us)
            rows = slice(start, start + bs.size)
            assert np.array_equal(one.value, value[rows]), bs
            assert np.array_equal(one.d_db, d_db[rows]), bs
            start += bs.size

    def test_each_row_keeps_its_bits_at_every_call_size(self, monkeypatch):
        # every kernel call of the solves on the benchmark's three grids
        # (the 648-row scan and refinement calls of 81 down to 2 and 1
        # rows): each row gets the bits it gets alone and in one shuffled
        # call of several blocks of both families
        calls = []
        real = specfun.hyp2f1_1b

        def recording_kernel(b, u):
            calls.append((np.array(b, dtype=float).ravel(), np.array(u, dtype=float).ravel()))
            return real(b, u)

        monkeypatch.setattr(specfun, "hyp2f1_1b", recording_kernel)
        scans = []
        for sigma2, start in [(0.1, -10.13), (1.0, -10.0), (7.3, -9.77)]:
            cfg = capacity.SweepConfig(snr_db_start=start, snr_db_stop=start + 40.0,
                                       snr_db_step=0.5)
            scans.append(len(calls))
            capacity.sweep(cfg, sigma2=sigma2)
        monkeypatch.undo()
        sizes = [b.size for b, _ in calls]
        assert [sizes[k] for k in scans] == [648] * 3 and {81, 15, 2, 1} <= set(sizes)
        # Pfaff rows of at most 22 terms, and of 40 to 70 terms, so that
        # each family takes several blocks of the shuffled call
        rng = np.random.default_rng(3)
        b_short, u_short = rng.uniform(1.0, 12.0, 300), rng.uniform(1e-3, 0.05, 300)
        b = np.concatenate([b for b, _ in calls] + [b_short, rng.uniform(1.0, 12.0, 400)])
        u = np.concatenate([u for _, u in calls] + [u_short, rng.uniform(0.3, 1.2, 400)])
        order = rng.permutation(b.size)
        fam = hyp2f1_1b(b[order], u[order])
        value, d_db = np.empty(b.size), np.empty(b.size)
        value[order], d_db[order] = fam.value, fam.d_db
        shuffled = u[order]
        families = [f for f, *_ in specfun._row_blocks(shuffled >= specfun._STAR_MIN_U,
                                                       shuffled)]
        assert all(families.count(f) >= 2 for f in (specfun._family_pfaff, specfun._family_star))
        start = 0
        for bs, us in calls:
            one = hyp2f1_1b(bs, us)
            rows = slice(start, start + bs.size)
            assert np.array_equal(one.value, value[rows]), bs.size
            assert np.array_equal(one.d_db, d_db[rows]), bs.size
            start += bs.size
        for i in range(0, b.size, 5):
            one = hyp2f1_1b(b[i:i + 1], u[i:i + 1])
            assert (one.value[0], one.d_db[0]) == (value[i], d_db[i]), (b[i], u[i])

    @pytest.mark.parametrize("seed", [0, 1])
    def test_head_flush_moves_no_bit(self, seed, monkeypatch):
        # b within 2^-34..2^-1 of an integer, mostly where the head's powers
        # of eps^2 past row 16 would be subnormal: taking them as zero
        # (_HEAD_FLUSH) gives the bits of an unflushed table, while a flush
        # from 2^-30 up changes some
        rng = np.random.default_rng(seed)
        n = 20_000
        eps = np.exp2(rng.uniform(-34.0, -1.0, n)) * rng.choice([-1.0, 1.0], n)
        n_int = rng.integers(1, 6, n)
        b = n_int + np.where(n_int == 1, np.abs(eps), eps)  # b >= 1
        u = np.exp(rng.uniform(math.log(1.25), 690.0, n))
        flushed = hyp2f1_1b(b, u)
        monkeypatch.setattr(specfun, "_HEAD_FLUSH", 0.0)
        exact = hyp2f1_1b(b, u)
        assert np.array_equal(flushed.value, exact.value)
        assert np.array_equal(flushed.d_db, exact.d_db)

    @pytest.mark.parametrize("n,snr_db,max_blocks,max_padded", [
        (400, -5.0, 3, 34_573), (2001, -5.0, 8, 114_642), (10_000, 0.0, 28, 439_774)])
    def test_profile_grids_pad_no_more_than_a_count_sort(self, n, snr_db, max_blocks,
                                                         max_padded):
        # on a profile's a2 grid each family's term counts are monotone in
        # row order, so the row-order cut needs no sort: the bounds are the
        # blocks and padded terms of a plan that sorted each family by count
        a2 = np.linspace(1e-6, 1.0 - 1e-6, n)
        _, u = mi._phi_args(a2, 10.0 ** (snr_db / 10.0) / a2)
        star = u >= specfun._STAR_MIN_U
        blocks = list(specfun._row_blocks(star, u))
        rows = np.concatenate([np.arange(n)[r] for _, r, *_ in blocks])
        assert np.array_equal(rows, np.concatenate([np.flatnonzero(~star),
                                                    np.flatnonzero(star)]))
        padded = [c.size * c.max() for _, _, c, _ in blocks]
        assert max(padded) <= specfun._BLOCK_TERMS
        assert len(blocks) <= max_blocks
        assert sum(padded) <= max_padded

    def test_array_call_memory_is_bounded_by_block_terms(self):
        # 20 000 continuation rows of 161 to 188 terms: the kernel's
        # per-row arrays take ~1.4 MB and its blocks well under 1 MB, where
        # one block of every row would pad 60 MB of terms
        rng = np.random.default_rng(13)
        b = rng.uniform(1.0, 3.0, 20_000)
        u = rng.uniform(1.25, 1.3, 20_000)
        tracemalloc.start()
        try:
            hyp2f1_1b(b, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3e6

    def test_array_call_shapes(self):
        fam = hyp2f1_1b(np.array([[1.5], [2.5]]), np.array([0.3, 3.0]))
        assert fam.value.shape == fam.d_db.shape == (2, 2)
        assert fam.value[1, 1] == hyp2f1_1b(2.5, 3.0).value
        assert isinstance(hyp2f1_1b(1.5, 0.3).value, float)

    def test_guards(self):
        # b next to or at an integer is in the domain for every u
        for b, u in ((2.0 + 1e-12, 3.0), (2.0, 3.0)):
            fam = hyp2f1_1b(b, u)
            for got, want in zip((fam.value, fam.d_db), hyp2f1_family(b, u)):
                assert got == pytest.approx(want, rel=1e-13, abs=1e-16)
        fam = hyp2f1_1b(np.array([1.5, 2.0]), np.array([3.0, 3.0]))
        assert fam.value[1] == hyp2f1_1b(2.0, 3.0).value
        with pytest.raises(DomainError):
            hyp2f1_1b(1.5, -0.5)
        with pytest.raises(DomainError):
            hyp2f1_1b(np.array([1.5, 0.0]), 0.5)

    @pytest.mark.parametrize("b,us", [
        *(pytest.param(b, NEAR_INTEGER_U, id=str(b)) for b in NEAR_INTEGER_B),
        *(pytest.param(b, WIDE_U, id=f"wide-{b}") for b in WIDE_B),
    ])
    def test_near_integer_b_matches_mpmath(self, b, us):
        # the continuation's head and its m = round(b) - 1 term share a pole
        # at integer b; the kernel removes it analytically.  Below b = 1 it
        # refuses
        if b < 1.0:
            with pytest.raises(DomainError, match="b >= 1"):
                hyp2f1_1b(b, np.array(us))
            return
        fam = hyp2f1_1b(b, np.array(us))
        for i, u in enumerate(us):
            ref = hyp2f1_family(b, u)
            for name, got, want in zip(("value", "d_db"),
                                       (fam.value[i], fam.d_db[i]), ref):
                assert abs(got - want) <= max(1e-12 * abs(want), 1e-15), (u, name)


    def test_sweep_scan_rows_match_mpmath(self):
        # 64 seeded rows of the capacity scan at SNRs in -10..30 dB, each a2
        # on its own SNR's grid: rows of both families, b in (1, 11.3]
        rng = np.random.default_rng(0)
        snr = 10.0 ** (rng.uniform(-10.0, 30.0, 64) / 10.0)
        grid = np.exp(capacity._scan(snr))
        a2 = grid[np.arange(64), rng.integers(0, capacity._GRID_POINTS, 64)]
        b, u = mi._phi_args(a2, snr / a2)
        assert ((1.0 < b) & (b <= 11.3)).all()
        assert (u < specfun._STAR_MIN_U).any() and (u >= specfun._STAR_MIN_U).any()
        fam = hyp2f1_1b(b, u)
        for i in range(64):
            value, d_db = hyp2f1_family(b[i], u[i])
            assert fam.value[i] == pytest.approx(value, rel=1e-15, abs=0.0), (b[i], u[i])
            assert fam.d_db[i] == pytest.approx(d_db, rel=1e-13, abs=0.0), (b[i], u[i])


def _left_to_right(terms):
    """Python sums of terms (n, ...) over axis 0, last row first, one float
    at a time."""
    out = np.empty(terms.shape[1:])
    for col in np.ndindex(out.shape):
        total = 0.0
        for x in terms[(slice(None, None, -1),) + col]:
            total += float(x)
        out[col] = total
    return out


class TestInOrderSums:
    """The kernel sums each column of a block, smallest term first, with
    one numpy reduction over the leading axis (specfun._sums); a row's
    result then does not depend on its block.  These pin the numpy
    behaviour that rests on, so that a numpy change fails here by name."""

    @staticmethod
    def _terms(shape):
        rng = np.random.default_rng(21)
        return rng.standard_normal(shape) * 10.0 ** rng.uniform(-12.0, 12.0, shape)

    @pytest.mark.parametrize("shape", [(188, 2), (14, 3), (77, 81), (5, 1170)])
    def test_reduce_adds_rows_in_order(self, shape):
        terms = self._terms(shape)
        got = np.add.reduce(terms[::-1], axis=0)
        assert np.array_equal(got, _left_to_right(terms))

    @pytest.mark.parametrize("shape", [(188, 2, 1), (33, 3, 1), (1, 2, 1), (21, 2, 81),
                                       (33, 3, 2), (33, 3, 15), (33, 3, 81), (33, 3, 567)])
    def test_kernel_sums_in_order_at_every_width(self, shape):
        # a block of one column still has a value and a b-partial row (or
        # the head's three series) next to each other; the head's table
        # at every block width of an 81-point solve
        terms = self._terms(shape)
        assert np.array_equal(specfun._sums(terms), _left_to_right(terms))

    @pytest.mark.parametrize("shape", [(2, 20, 1), (2, 1, 1), (2, 188, 1), (2, 12, 2),
                                       (2, 20, 15), (2, 33, 81), (2, 12, 81), (2, 22, 567)])
    def test_series_sums_in_order_in_every_block_shape(self, shape):
        # a block's series terms, (2, terms, rows): numpy adds the term
        # axis in order where a row holds two elements or more, and a
        # one-row block, which it would sum pairwise, goes through _sums
        terms = self._terms(shape)
        want = _left_to_right(terms.transpose(1, 0, 2))
        assert np.array_equal(specfun._series_sums(terms), want)
        if shape[2] == 1 and shape[1] > 8:
            assert not np.array_equal(np.add.reduce(terms[:, ::-1], axis=1), want)

    @pytest.mark.parametrize("rows", [1, 2, 15, 81, 567])
    @pytest.mark.parametrize("op", [np.multiply, np.add])
    def test_cumulative_products_and_sums_in_order(self, rows, op):
        # the series' ratios and harmonic sums accumulate down each column
        # of a block's (terms, rows) table, one term at a time, in place
        table = np.exp(np.random.default_rng(rows).uniform(-1.0, 1.0, (22, rows)))
        want = table.copy()
        for col in range(rows):
            total = float(want[0, col])
            for k in range(1, len(want)):
                total = op(total, float(want[k, col]))
                want[k, col] = total
        op.accumulate(table, out=table)
        assert np.array_equal(table, want)


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
    @pytest.mark.parametrize("dtype", [np.float64])
    def test_matches_levelwise_averaging(self, dtype):
        k = np.arange(24, 96)
        for u in (0.81, 0.95, 1.0, 1 / 1.1, 1 / 1.24):
            for b in (0.3, 1.7, 4.2):
                tail = ((-u) ** k / (b + k)).astype(dtype)
                value, err = _euler_average(tail)
                ref, ref_err = _euler_average_loop(tail)
                assert value == pytest.approx(float(ref), rel=0.0, abs=1e-15)
                assert err == pytest.approx(ref_err, rel=0.0, abs=1e-15)


class TestF21Value:
    """The scalar, value-only 2F1(1, b; b+1; -u) behind every J."""

    @pytest.mark.parametrize("b,us", [
        *((b, NEAR_INTEGER_U) for b in NEAR_INTEGER_B),
        *((b, WIDE_U) for b in WIDE_B),
    ])
    def test_matches_mpmath_and_kernel(self, b, us):
        eps = np.finfo(float).eps
        if b < 1.0:  # below the domain b >= 1: refused, not summed
            for u in us:
                with pytest.raises(DomainError, match="b >= 1"):
                    hyp2f1_1b_value(b, u)
            return
        for u in us:
            res = hyp2f1_1b_value(b, u)
            ref = hyp2f1_value(b, u)
            kernel = hyp2f1_1b(b, u).value
            assert res.value == pytest.approx(ref, rel=1e-14, abs=0.0), u
            assert res.value == pytest.approx(kernel, rel=1e-14, abs=0.0), u
            # the claimed bound covers the truncation; rounding is the rest
            err = abs(res.value - ref)
            assert err <= res.truncation_bound + 4.0 * eps * abs(res.value), u
            assert res.terms_used >= 1

    def test_at_zero(self):
        res = hyp2f1_1b_value(2.3, 0.0)
        assert (res.value, res.truncation_bound) == (1.0, 0.0)

    @pytest.mark.parametrize("b,u", [(0.0, 1.0), (-1.0, 1.0), (-0.5, 3.0),
                                     (1.5, -0.5), (1.5, -3.0), (math.nan, 1.0),
                                     (1.5, math.nan), (2.0, math.inf),
                                     (math.inf, 1.0)])
    def test_domain(self, b, u):
        with pytest.raises(DomainError):
            hyp2f1_1b_value(b, u)
        with pytest.raises(DomainError):
            hyp2f1_1b(b, u)
        with pytest.raises(DomainError):
            hyp2f1_1b(np.array([1.5, b]), np.array([0.5, u]))


class TestPiCscMinusRecip:
    """c(eps) = pi/sin(pi eps) - 1/eps, the pole-free part of the
    continuation's reflection head."""

    @pytest.mark.parametrize("eps", [1e-12, -1e-12, 1e-6, 1e-3, -0.01, 0.1,
                                     0.25, -0.3, 0.49, 0.5, -0.5])
    def test_matches_mpmath(self, eps):
        assert pi_csc_minus_recip(eps) == pytest.approx(
            pi_csc_minus_recip_ref(eps), rel=1e-15, abs=0.0)

    def test_at_zero(self):
        assert pi_csc_minus_recip(0.0) == 0.0

    def test_pinned_zeta_is_scipys_and_correctly_rounded(self):
        for k, pinned in enumerate(specfun._ZETA_EVEN, start=1):
            assert pinned == float(zeta(2 * k)), k
            with mpmath.workdps(50):
                assert abs(mpmath.mpf(pinned) - mpmath.zeta(2 * k)) <= 0.5 * math.ulp(pinned), k
        # the series as built from scipy's zeta, bit for bit
        assert specfun._PI_CSC_SERIES == tuple(
            2.0 * (1.0 - 2.0 ** (1 - 2 * k)) * float(zeta(2 * k)) for k in range(33, 0, -1))
