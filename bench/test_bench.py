"""Self-tests of the benchmark, run at tiny sizes:

    python3 -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layertrace  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from setup_probe import import_noncoh  # noqa: E402

nc = import_noncoh()


TINY_CALLS = {"sweep": 2, "mi-field": 40, "verify": 1}


def tiny(name, tmp_path, seed=7):
    """The workload at a size that runs in about a second."""
    wl = workloads.WORKLOADS[name](nc, seed, str(tmp_path))
    if name == "sweep":
        wl.ops_per_call, wl.brute_points, wl.brute_grid = 4, 1, 200
    elif name == "mi-field":
        wl.reference_points = 2
    wl.quota = TINY_CALLS[name]
    return wl


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_and_passes_its_gate(name, tmp_path):
    wl = tiny(name, tmp_path)
    ops, wall, _, _ = run.run_pass(wl, TINY_CALLS[name])
    assert ops == TINY_CALLS[name] * wl.ops_per_call
    assert wall > 0.0
    assert wl.gate() == (0, [])
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("name", ["sweep", "mi-field"])
def test_seed_fixes_the_inputs(name, tmp_path):
    first = [tiny(name, tmp_path, seed=7).args(i) for i in range(5)]
    again = [tiny(name, tmp_path, seed=7).args(i) for i in range(5)]
    other = [tiny(name, tmp_path, seed=8).args(i) for i in range(5)]
    assert first == again
    assert all(a != b for a, b in zip(first, other))


def test_verify_input_is_the_full_pass():
    wl = workloads.Verify(nc, 7, "")
    assert wl.args(0)[1] == ["verify", "--json"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_sign_fault_fails_the_gate(name, tmp_path, monkeypatch):
    monkeypatch.setattr(nc.mi, "_FAULT_FLIP_SIGN", True)
    wl = tiny(name, tmp_path)
    if name == "sweep":
        wl.ops_per_call = 41  # reach the beta >= 1 points the fault corrupts
    run.run_pass(wl, TINY_CALLS[name])
    failed, notes = wl.gate()
    assert failed > 0 and notes


def traced_counts(name, tmp_path):
    wl = tiny(name, tmp_path)
    rec = layertrace.Recorder()
    rec.install()
    try:
        run.run_pass(wl, wl.quota, rec)
    finally:
        rec.uninstall()
    spans, counts = rec.take()
    assert spans and all(s[4] >= s[3] for s in spans)
    return layertrace.count_signature(layertrace.layer_values(spans, counts))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name, tmp_path):
    first = traced_counts(name, tmp_path)
    assert first == traced_counts(name, tmp_path)
    entry = {"sweep": "capacity.solve_a2_star.calls",
             "mi-field": "mi.mutual_information.calls",
             "verify": "verify.check_derivative.calls"}[name]
    assert first[entry] > 0


def test_hooks_are_removed_after_the_traced_pass():
    before = nc.mutual_information, nc.capacity.mi_derivative_a2, nc.capacity.brentq
    rec = layertrace.Recorder()
    rec.install()
    assert nc.capacity.mutual_information is nc.mi.mutual_information is not before[0]
    rec.uninstall()
    after = nc.mutual_information, nc.capacity.mi_derivative_a2, nc.capacity.brentq
    assert all(a is b for a, b in zip(before, after))


def test_missing_hook_target_reads_absent(monkeypatch):
    monkeypatch.delattr(nc.specfun, "hyp_pfq")
    rec = layertrace.Recorder()
    rec.install()
    rec.uninstall()
    assert "noncoh.specfun.hyp_pfq" in rec.absent
    rounds = [{"values": {}, "untraced_s": 1.0, "traced_s": 1.5,
               "cpu_per_wall": 1.0, "threads": 0}]
    out = run.per_layer(rec, rounds, {})
    assert out["specfun.hyp_pfq.calls"]["value"] is None
    assert out["specfun.hyp_pfq.terms"]["value"] is None
    assert out["specfun.hyp2f1_1b.calls"]["value"] == 0


def test_self_time_merges_children_on_other_threads():
    # parent 1 spans [0, 10]; two pool-thread children overlap on [2, 6]
    spans = [(1, 0, "p", 0.0, 10.0, 0, 1, None),
             (2, 1, "c", 2.0, 5.0, 0, 2, None),
             (3, 1, "c", 4.0, 6.0, 0, 3, None),
             (4, 3, "g", 4.5, 5.0, 0, 3, None)]
    self_time = layertrace._self_times(spans)
    assert self_time == {1: 6.0, 2: 3.0, 3: 1.5, 4: 0.5}


def test_guard_band():
    assert layertrace.in_guard_band(1.0 / 3.0 + 5e-6)
    assert not layertrace.in_guard_band(1.0 / 3.0 + 5e-5)
    assert not layertrace.in_guard_band(1.0 / 70.0)
    assert layertrace.guard_band_hits(0.5, 1.0, 1.0) == (2, 2)  # alphas 1/2 and 1
    assert layertrace.guard_band_hits(0.5, 1.5, 1.0) == (0, 2)
    assert layertrace.guard_band_hits(0.0, 1.0, 1.0) == (0, 0)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in metrics.PER_LAYER]


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def test_command_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "3",
         "--seconds", "0.01", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_command_prints_every_per_layer_metric():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "3",
         "--seconds", "0.01", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert result["correct"]
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert list(values) == [name for name, _, _ in metrics.PER_LAYER]
    assert None not in values.values()
    assert values["verify.check_oracle_equivalence.self_s"] > 0
    assert values["oracle.j_quadrature.calls"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode != 0
    assert last_json(proc.stdout) is None
