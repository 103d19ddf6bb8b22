import inspect
import math

import numpy as np
import pytest

from noncoh import oracle, reference, verify


@pytest.mark.parametrize("worst,passed", [
    (0.5e-8, True), (1e-8, True), (2e-8, False), (math.nan, False), (math.inf, False),
], ids=["below", "equal", "above", "nan", "inf"])
def test_passed_is_worst_within_tolerance(worst, passed):
    assert verify.CheckResult("check", worst, 1e-8).passed is passed


def test_the_worst_residual_keeps_nan():
    assert verify.CheckResult.of("check", [], 0.0).worst == 0.0
    assert verify.CheckResult.of("check", [1e-9, 3e-9], 1e-8).worst == 3e-9
    # a running max(w, r) from w = 0.0 drops a NaN r; np.max keeps it
    res = verify.CheckResult.of("check", [1e-9, math.nan, 3e-9], 1e-8)
    assert math.isnan(res.worst) and not res.passed
    assert res.line().startswith("FAIL check: worst residual nan")


def _nan_first(real):
    """real with its first call's value NaN (an array's first entry)."""
    calls = []

    def wrapped(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(None)
        if len(calls) > 1:
            return out
        if isinstance(out, np.ndarray):
            out = out.copy()
            out.flat[0] = math.nan
            return out
        return math.nan
    return wrapped


# (family, module, attribute whose value turns NaN, quick arguments)
_NAN_PATHS = [
    ("check_partial_sum_bounds", reference, "log1p_series_partial_sum", {"cases": 20}),
    ("check_oracle_equivalence", oracle, "j_quadrature", {"n_a2": 2, "n_ratio": 2}),
    ("check_continuation", reference, "continuation_residual", {"n_alpha": 2, "n_beta": 2}),
    ("check_sin_identity", reference, "hyp3f2_sin_identity_residual", {"alphas": (0.6, 2.0)}),
    ("check_derivative", oracle, "fd_derivative", {"points": 8}),
    ("check_scale_invariance", verify, "_mi_case3", {"configs": 3}),
    ("check_route_consistency", reference, "j_case3", {"points": 4}),
]


@pytest.mark.parametrize("check,module,attr,args", _NAN_PATHS,
                         ids=[p[0] for p in _NAN_PATHS])
def test_a_nan_residual_fails_every_family(check, module, attr, args, monkeypatch):
    # one NaN among finite residuals fails the family
    monkeypatch.setattr(module, attr, _nan_first(getattr(module, attr)))
    out = getattr(verify, check)(**args)
    results = out if isinstance(out, tuple) else (out,)
    assert any(math.isnan(r.worst) for r in results)
    assert not any(r.passed for r in results if math.isnan(r.worst))


def test_a_family_that_raises_fails_with_an_infinite_worst(monkeypatch):
    def boom(*args):
        raise ValueError("boom")

    monkeypatch.setattr(reference, "hyp3f2_sin_identity_residual", boom)
    (res,) = [r for r in verify.run_checks(quick=True) if r.name == "3F2(-1) sin identity"]
    assert res.worst == math.inf and not res.passed
    assert res.detail == "raised ValueError: boom"


@pytest.mark.parametrize("family", verify._FAMILIES, ids=[f[0] for f in verify._FAMILIES])
def test_every_parameter_is_a_quick_knob(family):
    # a parameter that --quick leaves alone is a knob that no caller varies
    _, check, quick_args = family
    assert list(inspect.signature(getattr(verify, check)).parameters) == list(quick_args)
