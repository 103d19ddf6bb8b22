"""Benchmark of noncoh on three workloads (see BENCHMARK.json for why each).

    python3 bench/run.py --workload sweep|mi-field|verify --seed N \
        --seconds S --trace 0|1

Runs from the root of a checkout and imports noncoh from its src/.  With
--trace 0 it times the workload's calls for S seconds (after an untimed
warm-up op), scales each call's time to a reference machine speed (see
calibrate.py) and prints the end-to-end metrics, the raw ones in the report
line; set-up is measured in separate fresh interpreters, in sequence,
before that.  With --trace 1 it
repeats rounds of one untraced and one traced pass over the same fixed
inputs for S seconds and prints the per-layer metrics, the tracing overhead
(traced minus untraced wall time), and fails if two passes disagree on any
count.  Either way every output is then checked against an independent
reference, and the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 when every output passed its check, 1 when one did not,
and 2 (with no result line) when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from array import array

from calibrate import SpeedTrack

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_out")
SETUP_PROBES = 7
# The shipped defaults are what gets measured.
UNPINNED_ENV = ("NONCOH_THREADS", "NONCOH_FAULT_INJECT")


class ThreadStarts:
    """Counts threads started while active; the benchmark itself starts
    none, so this is the worker count of the library's pool."""

    def __enter__(self):
        self.count = 0
        self._start = threading.Thread.start
        counter = self

        def start(thread, *args, **kwargs):
            counter.count += 1
            return counter._start(thread, *args, **kwargs)

        threading.Thread.start = start
        return self

    def __exit__(self, *exc):
        threading.Thread.start = self._start


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure_setup(workload: str) -> tuple[list[float], list[float]]:
    """Seconds to import noncoh and run one warm-up op, once per fresh
    interpreter, SETUP_PROBES times in sequence; raw and speed-scaled."""
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, WORK_DIR],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        seconds, factor = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds / factor)
    return raw, scaled


def run_pass(wl, calls, rec=None):
    """wl's calls 0..calls-1, each tagged as op i in the recorder `rec` if
    one is given; (ops, wall seconds, cpu seconds, threads started)."""
    ops = 0
    with ThreadStarts() as threads:
        c0, w0 = time.process_time(), time.perf_counter()
        for i in range(calls):
            if rec is not None:
                rec.op = i
            args = wl.args(i)
            ops += wl.record(args, wl.execute(args))
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    return ops, wall, cpu, threads.count


def timed_run(wl, seconds):
    """wl's calls from 0 on until `seconds` have passed, with calibration
    bursts between them; (ops, raw and speed-scaled call seconds, peak RSS
    in MB, threads started per call, speed track).  The peak RSS is read
    after the first wl.quota calls, before the benchmark's own per-call
    records, which grow with the calls a run fits in, weigh on it."""
    speed = SpeedTrack()
    raw_s, segment = array("d"), array("l")
    ops = started = 0
    start = time.perf_counter()
    i = 0
    while True:
        speed.maybe_burst()
        args = wl.args(i)
        with ThreadStarts() as threads:
            t0 = time.perf_counter()
            raw = wl.execute(args)
            t1 = time.perf_counter()
        started += threads.count
        raw_s.append(t1 - t0)
        segment.append(len(speed.bursts) - 1)
        ops += wl.record(args, raw)
        i += 1
        if i == wl.quota:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if t1 - start >= seconds:
            break
    if i < wl.quota:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    speed.burst()
    factors = speed.segment_factors()
    scaled_s = [t / factors[k] for t, k in zip(raw_s, segment)]
    return ops, raw_s, scaled_s, rss_mb, started / i, speed


def end_to_end(ops, call_s, rss_mb, setup_s):
    import numpy as np

    p50, p99 = np.percentile(np.asarray(call_s) * 1e6, [50, 99])
    return {
        "ops_per_s": ops / sum(call_s),
        "latency_p50_us": float(p50),
        "latency_p99_us": float(p99),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup_s),
    }


def traced_run(wl, seconds, spans_path):
    """Rounds of one untraced and one traced pass over wl's first
    quota calls, until `seconds` have passed."""
    from layertrace import Recorder, count_signature, layer_values, write_spans

    rec = Recorder()
    rounds, notes = [], []
    ops = 0
    start = time.perf_counter()
    while True:
        m0 = wl.mark()
        n, wall_u, cpu_u, threads = run_pass(wl, wl.quota)
        m1 = wl.mark()
        rec.install()
        try:
            n_t, wall_t, _, _ = run_pass(wl, wl.quota, rec)
        finally:
            rec.uninstall()
        m2 = wl.mark()
        ops += n + n_t
        spans, counts = rec.take()
        values = layer_values(spans, counts)
        if not rounds:
            write_spans(spans_path, spans)
        if wl.outputs(m0, m1) != wl.outputs(m1, m2):
            notes.append(f"round {len(rounds)}: traced outputs differ from untraced ones")
        if rounds and count_signature(values) != count_signature(rounds[0]["values"]):
            notes.append(f"round {len(rounds)}: per-layer counts differ from round 0")
        rounds.append({"values": values, "untraced_s": wall_u, "traced_s": wall_t,
                       "cpu_per_wall": cpu_u / wall_u, "threads": threads})
        if time.perf_counter() - start >= seconds:
            break
    return rec, rounds, ops, notes


def per_layer(rec, rounds, props):
    from metrics import PER_LAYER

    def med(key):
        return statistics.median(r[key] for r in rounds)

    first = rounds[0]["values"]
    extra = {
        "capacity.mean_abs_delta_a2": props.get("mean_abs_delta_a2", 0.0),
        "process.cpu_per_wall": med("cpu_per_wall"),
        "process.threads_started": rounds[0]["threads"],
        "trace.untraced_s": med("untraced_s"),
        "trace.overhead_s": statistics.median(r["traced_s"] - r["untraced_s"] for r in rounds),
    }
    out = {}
    for name, unit, needs in PER_LAYER:
        if any(layer not in rec.present for layer in needs):
            value = None
        elif name in extra:
            value = extra[name]
        elif name.endswith(".self_s"):
            value = statistics.median(r["values"].get(name, 0.0) for r in rounds)
        else:
            value = first.get(name, 0)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "noncoh", "__init__.py")):
        print(f"error: no noncoh sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for var in UNPINNED_ENV:
        os.environ.pop(var, None)
    os.makedirs(WORK_DIR, exist_ok=True)

    from metrics import END_TO_END
    from setup_probe import import_noncoh, warm_up
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    try:
        setup_raw, setup = ([], []) if args.trace else measure_setup(args.workload)
        nc = import_noncoh()
        warm_up(args.workload, WORK_DIR)
    except (ImportError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](nc, args.seed, WORK_DIR)

    report = {"workload": args.workload, "trace": args.trace,
              "environment": environment(args.seed)}
    if args.trace:
        spans_path = os.path.join(WORK_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        rec, rounds, attempted, notes = traced_run(wl, args.seconds, spans_path)
        report.update(rounds=len(rounds), absent_hooks=rec.absent, spans=spans_path)
    else:
        attempted, raw_s, scaled_s, rss_mb, threads, speed = timed_run(wl, args.seconds)
        values = end_to_end(attempted, scaled_s, rss_mb, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report.update(calls=len(raw_s), threads_started_per_call=threads,
                      raw=end_to_end(attempted, raw_s, rss_mb, setup_raw),
                      speed_factor=speed.summary())
        notes = []
    failed, gate_notes = wl.gate()
    notes += gate_notes
    props = wl.properties()
    if args.trace:
        metrics = per_layer(rec, rounds, props)
    report.update(properties=props, attempted=attempted, failed=failed,
                  fail_ratio=failed / attempted, notes=notes[:20])

    for name, m in metrics.items():
        value = "absent" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{args.workload} {name} = {value} {m['unit']}")
    print(json.dumps({"report": report}))
    correct = not notes and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
