"""Names and units of the metrics the benchmark reports; BENCHMARK.json
lists the same ones (the self-tests check that they agree).

Every workload reports every metric.  A per-layer metric whose layer the
workload never enters reads 0 calls; one whose hook target is missing from
the library reads null (absent).
"""

from layertrace import CHECK_FAMILIES

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _calls_self(layer):
    return ((f"{layer}.calls", "count", (layer,)), (f"{layer}.self_s", "s", (layer,)))


_MI = "mi.mutual_information"
_DERIV = "mi.mi_derivative_a2"
_SOLVE = "capacity.solve_a2_star"
_BRENTQ = "capacity.brentq"
_JQ = "oracle.j_quadrature"

# (name, unit, layers whose hooks the value needs)
PER_LAYER = (
    *_calls_self("specfun.hyp2f1_1b"),
    *_calls_self("specfun.gauss_2f1"),
    ("specfun.gauss_2f1.terms", "count", ("specfun.gauss_2f1",)),
    *_calls_self("specfun.hyp_pfq"),
    ("specfun.hyp_pfq.terms", "count", ("specfun.hyp_pfq",)),
    *_calls_self("channel.derive_params"),
    *_calls_self(_MI),
    ("mi.route.case_i", "count", (_MI,)),
    ("mi.route.case_ii", "count", (_MI,)),
    ("mi.route.case_iii", "count", (_MI,)),
    ("mi.route.oracle_fallback", "count", (_MI,)),
    ("mi.closed_form_ratio", "ratio", (_MI,)),
    ("mi.guard_band_share", "ratio", (_MI,)),
    *_calls_self(_JQ),
    ("oracle.j_quadrature.fallback_calls", "count", (_JQ, _MI)),
    *_calls_self("oracle.mi_quadrature"),
    *_calls_self("oracle.fd_derivative"),
    *_calls_self(_DERIV),
    ("mi.mi_derivative_a2.near_singular", "count", (_DERIV,)),
    ("mi.mi_derivative_a2.near_singular_share", "ratio", (_DERIV,)),
    *_calls_self(_SOLVE),
    *_calls_self("capacity.sweep"),
    ("capacity.deriv_calls_per_point", "calls/point", (_SOLVE, _DERIV)),
    ("capacity.grid_deriv_calls", "count", (_SOLVE, _DERIV, _BRENTQ)),
    ("capacity.brentq.calls", "count", (_BRENTQ,)),
    ("capacity.brentq.deriv_calls", "count", (_BRENTQ, _DERIV)),
    ("capacity.fd_fallbacks", "count", (_SOLVE, _DERIV)),
    ("capacity.mi_calls_per_point", "calls/point", (_SOLVE, _MI)),
    ("capacity.golden_fallbacks", "count", (_SOLVE,)),
    ("capacity.mean_abs_delta_a2", "1", ()),
    ("process.cpu_per_wall", "ratio", ()),
    ("process.threads_started", "count", ()),
    *((f"verify.{name}.self_s", "s", (f"verify.{name}",)) for name in CHECK_FAMILIES),
    ("cli.main.self_s", "s", ("cli.main",)),
    ("trace.untraced_s", "s", ()),
    ("trace.overhead_s", "s", ()),
)
