"""Inventory of the public API: every exported name has a caller in the
library itself, so names only tests use do not accumulate in noncoh."""

import ast
import dataclasses
import importlib
import importlib.util
import pathlib

import noncoh

# Public names with no caller inside the library, each kept for a reason.
ALLOWED_UNUSED = {
    "j_case1": "the finite-sum reference form tests compare the value path against",
}


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
    assert set(ALLOWED_UNUSED) <= set(noncoh.__all__), "stale allow-list entry"
    unused = set(noncoh.__all__) - _library_references()
    assert unused == set(ALLOWED_UNUSED)


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
