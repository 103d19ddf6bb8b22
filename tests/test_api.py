"""Inventory of the public API: every exported name has a caller in the
library itself, so names only tests use do not accumulate in noncoh."""

import ast
import pathlib

import noncoh

# Public names with no caller inside the library, each kept for a reason.
ALLOWED_UNUSED = {
    "snr_of": "due to be pruned with MissingPowerBudget",
    "transition_density": "due to be pruned with snr_of",
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
