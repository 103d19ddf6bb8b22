"""Inventory of the public API: every exported name has a caller in the
library itself, so names only tests use do not accumulate in noncoh."""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib

import os
import subprocess
import sys

import noncoh


def _library_references() -> set[str]:
    """Names read (as a bare name or an attribute) by the package's modules,
    __init__ aside; definitions, imports and strings do not count."""
    used = set()
    for path in pathlib.Path(noncoh.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_library_caller():
    assert set(noncoh.__all__) - _library_references() == set()


def _bench_hooks():
    """bench/layertrace.py's HOOKS, loaded from its file without putting
    bench/ on sys.path."""
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("_layertrace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.HOOKS


def test_benchmark_hook_targets_exist():
    # the benchmark traces, reads or patches these names: pruning one breaks
    # its run, which nothing else in this suite would notice
    for _, modname, attr in _bench_hooks():
        module = importlib.import_module(f"noncoh.{modname}")
        assert callable(getattr(module, attr, None)), f"noncoh.{modname}.{attr}"
    for attr in ("brentq", "mi_derivative_a2", "mutual_information"):
        assert callable(getattr(noncoh.capacity, attr, None)), f"noncoh.capacity.{attr}"
    fields = {f.name for f in dataclasses.fields(noncoh.MIResult)}
    assert {"case_j0", "case_jx2"} <= fields


def _noncoh_imports(name: str) -> set[str]:
    """The noncoh modules that noncoh.<name> imports, read from its source,
    relative imports and absolute ones alike."""
    path = pathlib.Path(noncoh.__file__).parent / f"{name}.py"
    dotted = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["noncoh" if node.level else None, node.module]))
            dotted += [module] + [f"{module}.{a.name}" for a in node.names]
    return {d.split(".")[1] for d in dotted if d.startswith("noncoh.")}


def test_reference_forms_stay_off_the_value_path():
    # the value path and its oracles never reach the paper's reference forms,
    # and the reference forms take no value from the value path
    for name in ("specfun", "mi", "channel", "capacity", "oracle"):
        assert "reference" not in _noncoh_imports(name), name
    assert not {"mi", "capacity"} & _noncoh_imports("reference")
    assert {"specfun", "channel", "errors"} <= _noncoh_imports("reference")


def _callers(name: str) -> list[str]:
    """module.function of each call of name in the package's modules, the
    innermost enclosing function (or the module alone) named."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split('.')[0]}.{child.name}")
                continue
            if isinstance(child, ast.Call) and name in (
                    getattr(child.func, "id", None), getattr(child.func, "attr", None)):
                found.append(where)
            visit(child, where)

    for path in sorted(pathlib.Path(noncoh.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_the_snr_range_check_has_one_owner():
    # capacity mode's range check runs inside mi._mi_deriv, before its
    # kernel call, and once in the solver's scan on its lower edge; callers
    # of _mi_deriv do not repeat it
    assert sorted(_callers("_check_snr")) == ["capacity._scan", "mi._mi_deriv"]


def test_the_finite_difference_derivative_has_one_path():
    # deriv --verify and verify's derivative family difference I on one stencil
    assert sorted(_callers("fd_mi_derivative")) == ["cli.cmd_deriv", "verify.check_derivative"]


def _is_rng(node) -> bool:
    """node is a Generator: the name rng, or a default_rng(...) call."""
    if isinstance(node, ast.Call):
        return "default_rng" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    return isinstance(node, ast.Name) and node.id == "rng"


def test_verify_draws_outside_its_loops():
    # every family draws its random inputs with array calls before it loops
    tree = ast.parse((pathlib.Path(noncoh.__file__).parent / "verify.py").read_text())
    in_loops = [node.lineno for loop in ast.walk(tree) if isinstance(loop, (ast.For, ast.While))
                for stmt in loop.body + loop.orelse for node in ast.walk(stmt)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and _is_rng(node.func.value)]
    assert in_loops == []


def test_the_alpha_bands_have_one_owner():
    # reference._guard alone refuses alpha at and near 1/n, for the three
    # forms that hold pi/sin(pi/alpha); verify lets a band's error fail its
    # family rather than step around the band
    assert sorted(_callers("_guard")) == [
        "reference.continuation_residual", "reference.hyp3f2_sin_identity_residual",
        "reference.j_case2"]
    band_errors = {"NearSingularAlpha", "CaseMismatch"}
    for path in sorted(pathlib.Path(noncoh.__file__).parent.glob("*.py")):
        if path.stem in ("errors", "reference"):
            continue
        named = {getattr(node, attr) for node in ast.walk(ast.parse(path.read_text()))
                 for attr in ("id", "attr", "name") if isinstance(getattr(node, attr, None), str)}
        assert not band_errors & named, path.stem


def test_solver_failure_has_one_raise_site():
    # SolverFailure means only "no optimum": a float solve whose point is
    # FAILED; refused input is a DomainError
    assert _callers("SolverFailure") == ["capacity.solve_a2_star"]


_IMPORT_GUARD = """
import sys
import noncoh as nc
inp, ch = nc.TwoPointInput(0.3, 2.0), nc.ChannelParams(1.0)
snr = nc.snr_from_db(0.0)
calls = [
    nc.mutual_information(inp, ch).nats,
    nc.input_entropy(inp),
    nc.mi_derivative_a2(inp, ch),
    nc.mi_derivative_a2(nc.TwoPointInput(0.3, (snr / 0.3) ** 0.5),
                        nc.ChannelParams(1.0, power_budget=snr)),
    nc.mi_profile(snr, [0.2, 0.5])[0][1],
    nc.solve_a2_star(snr).i_star_nats,
    len(nc.sweep(nc.SweepConfig(-2.0, 2.0, 2.0))),
    nc.snr_to_db(snr),
    nc.j_quadrature(0.0, inp, ch),
    nc.mi_quadrature(inp, ch),
    nc.mi_monte_carlo(inp, ch, samples=100, seed=1)[0],
    nc.fd_derivative(lambda x: x * x, 1.0),
]
assert all(isinstance(v, (int, float)) for v in calls), calls
print(sorted(m for m in sys.modules
             if m in ("noncoh.reference", "noncoh.verify") or m.split(".")[0] == "scipy"))
"""


def test_the_top_level_loads_only_the_value_path():
    # a fresh interpreter that imports noncoh and calls every function it
    # exports loads neither the reference forms, nor verify, nor scipy
    env = dict(os.environ)
    env.pop("NONCOH_FAULT_INJECT", None)
    src = str(pathlib.Path(noncoh.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
    res = subprocess.run([sys.executable, "-c", _IMPORT_GUARD], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"


def test_route_labels_are_plain_strings():
    # the closed form behind each J is named by a str, with no enum beside it
    assert not hasattr(noncoh, "Case") and not hasattr(noncoh.mi, "Case")
    ch = noncoh.ChannelParams(1.0)
    two = noncoh.mutual_information(noncoh.TwoPointInput(0.4, 2.0), ch)
    one = noncoh.mutual_information(noncoh.TwoPointInput(0.0, 2.0), ch)
    labels = (two.case_j0, two.case_jx2, one.case_j0, one.case_jx2)
    assert [type(v) for v in labels] == [str] * 4
    assert labels == ("CaseIII", "CaseIII", "Degenerate", "Degenerate")
