"""The benchmark's workloads.

Each workload turns the seed into a deterministic sequence of calls into
noncoh's public entry points (`args`), runs one call (`execute`, the only
timed part), stores what came back (`record`) and checks every stored
output against an independent reference after the timed phase (`gate`).
An op is the unit `ops_per_s` counts; one call holds `ops_per_call` of them.
The first `quota` calls are a fixed amount of work: one pass of the traced
run, and the span in which the timed run reads its peak memory.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from array import array

import numpy as np

from layertrace import guard_band_hits
from reference import binary_entropy, mi_reference


def _run_cli(nc, argv):
    """noncoh.cli.main in-process with its stdout captured; (exit code, text)
    or the exception it raised."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = nc.cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
        return exc
    return rc, buf.getvalue()


class Sweep:
    """`noncoh sweep` over -10..30 dB at 0.5 dB through noncoh.cli.main.

    The seed jitters the grid offset within one step and sigma2 over
    [0.1, 10]; one op is one SNR point, one call one 81-point sweep.
    """

    name = "sweep"
    step_db = 0.5
    ops_per_call = 81
    quota = 1
    brute_points = 2
    brute_grid = 10_000
    residual_tol = 1e-10
    monotone_tol = 1e-9

    def __init__(self, nc, seed, work_dir):
        self.nc = nc
        self.seed = seed
        self.work_dir = work_dir
        self._rng = np.random.default_rng([seed, 0])
        self._inputs = []
        self.calls = []  # (input index, outcome): rows, or a failure string

    def inputs(self, i):
        while len(self._inputs) <= i:
            offset = float(self._rng.uniform(0.0, self.step_db))
            sigma2 = float(10.0 ** self._rng.uniform(-1.0, 1.0))
            self._inputs.append((offset, sigma2))
        return self._inputs[i]

    def args(self, i):
        offset, sigma2 = self.inputs(i)
        start = -10.0 + offset
        stop = start + (self.ops_per_call - 1) * self.step_db
        out = os.path.join(self.work_dir, f"sweep-{os.getpid()}.csv")
        return i, ["sweep", "--from-db", repr(start), "--to-db", repr(stop),
                   "--step-db", repr(self.step_db), "--sigma2", repr(sigma2),
                   "--out", out]

    def execute(self, args):
        return _run_cli(self.nc, args[1])

    def record(self, args, raw):
        i, argv = args
        out = argv[-1]
        if isinstance(raw, Exception):
            outcome = f"raised {type(raw).__name__}: {raw}"
        elif raw[0] not in (0, 3) or not os.path.exists(out):
            # exit code 3 with a file marks FAILED rows, which the gate counts
            outcome = f"exit code {raw[0]}, no usable output"
        else:
            with open(out, encoding="utf-8", newline="") as fh:
                outcome = [(r["snr_db"], float(r["snr_linear"]), float(r["a2_star"]),
                            float(r["i_star_nats"]), r["regime"],
                            int(r["roots_found"]), float(r["solver_residual"]))
                           for r in csv.DictReader(fh)]
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        self.calls.append((i, outcome))
        return self.ops_per_call

    def mark(self):
        return len(self.calls)

    def outputs(self, start, stop):
        return [repr(c[1]) for c in self.calls[start:stop]]

    def _brute_force_max(self, snr_linear, sigma2):
        nc = self.nc
        ch = nc.ChannelParams(sigma2=sigma2, power_budget=snr_linear * sigma2)
        grid = np.linspace(1e-6, 1.0 - 1e-6, self.brute_grid)
        return max(
            nc.mutual_information(nc.TwoPointInput(a, math.sqrt(ch.power_budget / a)), ch).nats
            for a in map(float, grid)
        )

    def gate(self):
        failed, notes = 0, []
        for i, outcome in self.calls:
            if isinstance(outcome, str):
                failed += self.ops_per_call
                notes.append(f"call {i}: {outcome}")
                continue
            bad = set()
            prev = -math.inf
            for k, (db, _, _, i_star, regime, _, residual) in enumerate(outcome):
                if regime == "FAILED" or not math.isfinite(i_star):
                    bad.add(k)
                elif not residual <= self.residual_tol:
                    bad.add(k)
                    notes.append(f"call {i} at {db} dB: residual {residual:.3e}")
                elif i_star < prev - self.monotone_tol:
                    bad.add(k)
                    notes.append(f"call {i} at {db} dB: i_star decreased")
                if math.isfinite(i_star):
                    prev = max(prev, i_star)
            missing = self.ops_per_call - len(outcome)
            failed += len(bad) + max(missing, 0)
            if missing:
                notes.append(f"call {i}: {len(outcome)} rows, expected {self.ops_per_call}")
        # solver vs brute force on seeded points of the first successful call
        first = next(((i, o) for i, o in self.calls if not isinstance(o, str)), None)
        if first is not None:
            i, rows = first
            sigma2 = self.inputs(i)[1]
            picks = np.random.default_rng([self.seed, 1]).choice(
                len(rows), size=min(self.brute_points, len(rows)), replace=False)
            for k in sorted(int(p) for p in picks):
                db, snr, _, i_star, regime, _, _ = rows[k]
                if regime == "FAILED":
                    continue
                best = self._brute_force_max(snr, sigma2)
                if not i_star >= best - 1e-10:
                    failed += 1
                    notes.append(f"call {i} at {db} dB: i_star {i_star!r} below "
                                 f"brute-force max {best!r}")
        return failed, notes

    def properties(self):
        deltas = []
        for _, rows in self.calls:
            if isinstance(rows, str):
                continue
            a2 = [r[2] for r in rows if r[4] != "FAILED"]
            deltas.extend(abs(b - a) for a, b in zip(a2, a2[1:]))
        golden = sum(r[5] == 0 for _, rows in self.calls if not isinstance(rows, str)
                     for r in rows)
        return {
            "mean_abs_delta_a2": float(np.mean(deltas)) if deltas else 0.0,
            "points_without_root": golden,
        }


class MIField:
    """Independent `mutual_information` calls at seeded log-uniform inputs:
    a2 in [1e-6, 1-1e-6], x2/sigma in [1e-3, 1e3], sigma2 in [1e-3, 1e3].
    One op is one call."""

    name = "mi-field"
    ops_per_call = 1
    quota = 10_000
    chunk = 4096
    reference_points = 16
    reference_pool = 4096
    reference_tol = 1e-9

    def __init__(self, nc, seed, work_dir):
        self.nc = nc
        self.seed = seed
        self._chunks = []
        self.index = array("q")
        self.nats = array("d")
        self.cases = []
        self.errors = {}
        self._case_ids = {}

    def inputs(self, i):
        c, k = divmod(i, self.chunk)
        while len(self._chunks) <= c:
            rng = np.random.default_rng([self.seed, 2, len(self._chunks)])
            a2 = 10.0 ** rng.uniform(-6.0, math.log10(1.0 - 1e-6), self.chunk)
            ratio = 10.0 ** rng.uniform(-3.0, 3.0, self.chunk)
            sigma2 = 10.0 ** rng.uniform(-3.0, 3.0, self.chunk)
            self._chunks.append(np.stack([a2, ratio * np.sqrt(sigma2), sigma2]))
        a2, x2, sigma2 = self._chunks[c][:, k].tolist()
        return a2, x2, sigma2

    def args(self, i):
        return i, *self.inputs(i)

    def execute(self, args):
        nc = self.nc
        try:
            res = nc.mutual_information(nc.TwoPointInput(args[1], args[2]),
                                        nc.ChannelParams(args[3]))
        except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
            return exc
        return res.nats, res.case_j0, res.case_jx2

    def record(self, args, raw):
        self.index.append(args[0])
        if isinstance(raw, Exception):
            self.errors[len(self.nats)] = f"raised {type(raw).__name__}: {raw}"
            self.nats.append(math.nan)
            self.cases.append(None)
        else:
            nats, c0, c2 = raw
            key = (getattr(c0, "value", str(c0)), getattr(c2, "value", str(c2)))
            self.nats.append(nats)
            self.cases.append(self._case_ids.setdefault(key, key))
        return 1

    def mark(self):
        return len(self.nats)

    def outputs(self, start, stop):
        return [(repr(self.nats[k]), self.cases[k]) for k in range(start, stop)]

    def gate(self):
        failed, notes = 0, []
        first_pos = {}
        for pos, (i, nats) in enumerate(zip(self.index, self.nats)):
            first_pos.setdefault(i, pos)
            if pos in self.errors:
                failed += 1
                notes.append(f"op {i}: {self.errors[pos]}")
                continue
            a2 = self.inputs(i)[0]
            if not (math.isfinite(nats) and 0.0 <= nats <= binary_entropy(a2) + 1e-10):
                failed += 1
                notes.append(f"op {i}: I = {nats!r} outside [0, H(X)]")
        pool = sorted(i for i in first_pos if i < self.reference_pool)
        rng = np.random.default_rng([self.seed, 3])
        picks = rng.choice(len(pool), size=min(self.reference_points, len(pool)),
                           replace=False) if pool else []
        for p in sorted(int(p) for p in picks):
            i = pool[p]
            pos = first_pos[i]
            if pos in self.errors:
                continue
            ref, err = mi_reference(*self.inputs(i))
            if not (err < 1e-20 and abs(self.nats[pos] - ref) <= self.reference_tol):
                failed += 1
                notes.append(f"op {i} {self.inputs(i)}: I = {self.nats[pos]!r}, "
                             f"mpmath {ref!r} (quadrature error {err:.1e})")
        return failed, notes

    def properties(self):
        routes = {}
        hits = evals = 0
        for i, key in zip(self.index, self.cases):
            if key is None:
                continue
            for case in key:
                routes[case] = routes.get(case, 0) + 1
            h, e = guard_band_hits(*self.inputs(i))
            hits += h
            evals += e
        total = sum(routes.values()) or 1
        return {
            "route_share": {k: v / total for k, v in sorted(routes.items())},
            "guard_band_share": hits / evals if evals else 0.0,
        }


class Verify:
    """`noncoh verify` (full, not --quick) through noncoh.cli.main.

    The verification families fix their own grids and seeds, so the input is
    the same for every seed.  One op is one full pass.
    """

    name = "verify"
    ops_per_call = 1
    quota = 2

    def __init__(self, nc, seed, work_dir):
        self.nc = nc
        self.seed = seed
        # (call index, outcome): (exit code, names of failed checks, number
        # of checks), or a failure string
        self.calls = []

    def args(self, i):
        return i, ["verify", "--json"]

    def execute(self, args):
        return _run_cli(self.nc, args[1])

    def record(self, args, raw):
        if isinstance(raw, Exception):
            outcome = f"raised {type(raw).__name__}: {raw}"
        else:
            rc, text = raw
            try:
                checks = json.loads(text)["results"]["checks"]
            except (ValueError, KeyError, TypeError) as exc:
                outcome = f"exit code {rc}, unreadable output ({exc})"
            else:
                outcome = (rc, tuple(sorted(c["name"] for c in checks if not c["passed"])),
                           len(checks))
        self.calls.append((args[0], outcome))
        return 1

    def mark(self):
        return len(self.calls)

    def outputs(self, start, stop):
        return [c[1] for c in self.calls[start:stop]]

    def gate(self):
        failed, notes = 0, []
        for i, outcome in self.calls:
            if isinstance(outcome, str):
                failed += 1
                notes.append(f"pass {i}: {outcome}")
            elif outcome[0] != 0 or outcome[1] or outcome[2] == 0:
                failed += 1
                notes.append(f"pass {i}: exit code {outcome[0]}, failed {list(outcome[1])}")
        return failed, notes

    def properties(self):
        return {}


WORKLOADS = {w.name: w for w in (Sweep, MIField, Verify)}
