"""Outside-in span recorder for the traced run.

`Recorder.install` wraps public functions of noncoh at every place a caller
looks them up: a module attribute reached through the module (`specfun.*`,
`oracle.*` from `mi`) and every copy bound by `from ... import` (`capacity`
binds `mutual_information`, `mi_derivative_a2` and scipy's `brentq`; `mi`
binds `derive_params`).  Each call records one span

    (span id, parent id, layer name, start, end, op id, thread id, status)

in a list owned by the calling thread; `status` names the exception the
call raised, if any.  The library's sweep solves SNR points on pool threads:
a span opened on a thread with no open span takes the innermost open span
of the main thread (the `capacity.sweep` call waiting on the pool) as its
parent.  Spans stay in memory until `layer_values` reduces them and
`write_spans` writes them out.

Self time is wall time on the calling thread.  Under the sweep's pool two
threads hold spans at once, each waiting for the interpreter lock part of
the time, so a layer's self time can add up to more than the wall time of
the pass.

A hook whose target is missing (renamed or removed by a later version of
the library) is skipped and its layer reported absent, so its metrics read
as absent rather than zero.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from collections import Counter, defaultdict

CHECK_FAMILIES = (
    "check_partial_sum_bounds",
    "check_oracle_equivalence",
    "check_continuation",
    "check_sin_identity",
    "check_derivative",
    "check_scale_invariance",
    "check_route_consistency",
)

# (layer, module under noncoh, attribute).  Several functions may share a
# layer: gauss_2f1 is gauss_2f1_diag without the diagnostics.
HOOKS = (
    ("specfun.hyp2f1_1b", "specfun", "hyp2f1_1b"),
    ("specfun.gauss_2f1", "specfun", "gauss_2f1"),
    ("specfun.gauss_2f1", "specfun", "gauss_2f1_diag"),
    ("specfun.hyp_pfq", "specfun", "hyp_pfq"),
    ("channel.derive_params", "channel", "derive_params"),
    ("mi.mutual_information", "mi", "mutual_information"),
    ("mi.mi_derivative_a2", "mi", "mi_derivative_a2"),
    ("oracle.j_quadrature", "oracle", "j_quadrature"),
    ("oracle.mi_quadrature", "oracle", "mi_quadrature"),
    ("oracle.fd_derivative", "oracle", "fd_derivative"),
    ("capacity.solve_a2_star", "capacity", "solve_a2_star"),
    ("capacity.sweep", "capacity", "sweep"),
    ("capacity.brentq", "capacity", "brentq"),
    ("verify.run_checks", "verify", "run_checks"),
    *((f"verify.{name}", "verify", name) for name in CHECK_FAMILIES),
    ("cli.main", "cli", "main"),
)

# The 1/n guard bands of J: alpha within GUARD_TOL of 1/n, n <= GUARD_N_MAX.
# Fixed here as an input property, whatever routing the library uses.
GUARD_TOL = 1e-5
GUARD_N_MAX = 64

ROUTE_NAMES = {
    "CaseI": "case_i",
    "CaseII": "case_ii",
    "CaseIII": "case_iii",
    "OracleFallback": "oracle_fallback",
}


def in_guard_band(alpha: float) -> bool:
    if not alpha > 0.0 or alpha >= 1.5:
        return False
    n0 = max(1, round(1.0 / alpha))
    return any(
        abs(alpha - 1.0 / m) < GUARD_TOL
        for m in (n0 - 1, n0, n0 + 1)
        if 1 <= m <= GUARD_N_MAX
    )


def guard_band_hits(a2: float, x2: float, s2: float) -> tuple[int, int]:
    """(J evaluations in a guard band, J evaluations) of one I(X;Y) call.

    alpha = x2^2/(x2^2+s2) * (x^2+s2)/s2 at the mass points x = 0 and x2.
    """
    if not (0.0 < a2 < 1.0 and x2 > 0.0):
        return 0, 0
    x2sq = x2 * x2
    alphas = (x2sq / (x2sq + s2), x2sq / s2)
    return sum(in_guard_band(a) for a in alphas), 2


def _on_series(counts, args, kwargs, result):
    terms = getattr(result, "terms_used", None)
    if terms is not None:
        counts["terms"] += terms


def _on_mutual_information(counts, args, kwargs, result):
    for case in (getattr(result, "case_j0", None), getattr(result, "case_jx2", None)):
        if case is not None:
            counts["route." + ROUTE_NAMES.get(getattr(case, "value", case), "other")] += 1
    inp = args[0] if args else kwargs.get("inp")
    ch = args[1] if len(args) > 1 else kwargs.get("ch")
    try:
        hits, evals = guard_band_hits(inp.a2, inp.x2, ch.sigma2)
    except AttributeError:
        return
    counts["guard_band_j"] += hits
    counts["guard_band_evals"] += evals


def _on_solve(counts, args, kwargs, result):
    if getattr(result, "roots_found", None) == 0:
        counts["golden_fallbacks"] += 1


ON_RESULT = {
    "specfun.hyp_pfq": _on_series,
    "specfun.gauss_2f1": _on_series,
    "mi.mutual_information": _on_mutual_information,
    "capacity.solve_a2_star": _on_solve,
}


class _ThreadState:
    __slots__ = ("tid", "stack", "spans", "counts")

    def __init__(self):
        self.tid = threading.get_ident()
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)


class Recorder:
    """Installs the hooks, records spans per thread, and removes the hooks."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._main = self._state()
        self._patches: list[tuple[object, str, object]] = []
        self.present: set[str] = set()
        self.absent: list[str] = []
        self.op = 0

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, layer, fn, on_result):
        rec = self
        perf = time.perf_counter
        main_stack = self._main.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = rec._state()
            stack = st.stack
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = main_stack[-1]
                except IndexError:
                    parent = 0
            sid = next(rec._ids)
            stack.append(sid)
            status = None
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                t1 = perf()
                stack.pop()
                st.spans.append((sid, parent, layer, t0, t1, rec.op, st.tid, status))
            if on_result is not None:
                on_result(st.counts[layer], args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "noncoh" or n.startswith("noncoh."))]
        for layer, modname, attr in HOOKS:
            mod = sys.modules.get("noncoh." + modname)
            target = getattr(mod, attr, None)
            if not callable(target):
                self.absent.append(f"noncoh.{modname}.{attr}")
                continue
            wrapper = self._wrap(layer, target, ON_RESULT.get(layer))
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is target:
                        self._patches.append((m, name, value))
                        setattr(m, name, wrapper)
            self.present.add(layer)

    def uninstall(self) -> None:
        for m, name, value in reversed(self._patches):
            setattr(m, name, value)
        self._patches.clear()

    def take(self) -> tuple[list[tuple], dict[str, Counter]]:
        """All spans and counters recorded so far, clearing them."""
        spans: list[tuple] = []
        counts: dict[str, Counter] = defaultdict(Counter)
        with self._lock:
            for st in self._states:
                spans.extend(st.spans)
                st.spans = []
                for layer, c in st.counts.items():
                    counts[layer].update(c)
                st.counts = defaultdict(Counter)
        spans.sort()
        return spans, counts


def _self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children on one thread never overlap; children on pool threads do, so
    the intervals are merged before they are subtracted.
    """
    children = defaultdict(list)
    for sid, parent, _, t0, t1, *_ in spans:
        children[parent].append((t0, t1))
    out = {}
    for sid, _, _, t0, t1, *_ in spans:
        covered = 0.0
        end = t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


_UNDER_MI, _UNDER_SOLVE, _UNDER_BRENTQ = 1, 2, 4
_ANCESTOR_BIT = {
    "mi.mutual_information": _UNDER_MI,
    "capacity.solve_a2_star": _UNDER_SOLVE,
    "capacity.brentq": _UNDER_BRENTQ,
}


def layer_values(spans, counts) -> dict[str, float]:
    """Raw per-layer figures: `<layer>.calls` and `<layer>.self_s` for every
    layer seen, plus the counters and the ancestry-based counts."""
    self_time = _self_times(spans)
    name_of = {s[0]: s[2] for s in spans}
    flags = {0: 0}
    calls = Counter()
    self_s = defaultdict(float)
    under = Counter()
    for sid, parent, layer, *_rest in spans:
        status = _rest[-1]
        pname = name_of.get(parent)
        flags[sid] = flags.get(parent, 0) | _ANCESTOR_BIT.get(pname, 0)
        if pname != layer:  # nested spans of one layer count as one call
            calls[layer] += 1
        self_s[layer] += self_time[sid]
        f = flags[sid]
        if layer == "oracle.j_quadrature" and f & _UNDER_MI:
            under["j_quadrature_fallback"] += 1
        elif layer == "mi.mi_derivative_a2":
            near = status == "NearSingularAlpha"
            under["near_singular"] += near
            if f & _UNDER_SOLVE:
                under["solve_deriv"] += 1
                under["solve_near_singular"] += near
                if f & _UNDER_BRENTQ:
                    under["brentq_deriv"] += 1
        elif layer == "mi.mutual_information" and f & _UNDER_SOLVE:
            under["solve_mi"] += 1

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in calls:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    mi_counts = counts.get("mi.mutual_information", Counter())
    routes = {k: mi_counts[f"route.{k}"] for k in ROUTE_NAMES.values()}
    out.update({f"mi.route.{k}": v for k, v in routes.items()})
    out["mi.closed_form_ratio"] = ratio(
        routes["case_i"] + routes["case_ii"] + routes["case_iii"], sum(routes.values()))
    out["mi.guard_band_share"] = ratio(mi_counts["guard_band_j"],
                                       mi_counts["guard_band_evals"])
    for layer in ("specfun.gauss_2f1", "specfun.hyp_pfq"):
        out[f"{layer}.terms"] = counts.get(layer, Counter())["terms"]
    out["oracle.j_quadrature.fallback_calls"] = under["j_quadrature_fallback"]
    out["mi.mi_derivative_a2.near_singular"] = under["near_singular"]
    out["mi.mi_derivative_a2.near_singular_share"] = ratio(
        under["near_singular"], calls["mi.mi_derivative_a2"])
    points = calls["capacity.solve_a2_star"]
    out["capacity.deriv_calls_per_point"] = ratio(under["solve_deriv"], points)
    out["capacity.grid_deriv_calls"] = under["solve_deriv"] - under["brentq_deriv"]
    out["capacity.brentq.deriv_calls"] = under["brentq_deriv"]
    out["capacity.fd_fallbacks"] = under["solve_near_singular"]
    out["capacity.mi_calls_per_point"] = ratio(under["solve_mi"], points)
    out["capacity.golden_fallbacks"] = counts.get(
        "capacity.solve_a2_star", Counter())["golden_fallbacks"]
    return out


def count_signature(values: dict[str, float]) -> dict[str, float]:
    """The figures of `layer_values` that must repeat exactly for one seed:
    everything but the times."""
    return {k: v for k, v in values.items() if not k.endswith("self_s")}


def write_spans(path: str, spans) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
