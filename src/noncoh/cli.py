"""Command-line frontend.

Subcommands: mi (single-point mutual information), deriv (analytic dI/da2),
profile (I vs a2 at fixed SNR), sweep (capacity optimization over an SNR
grid, CSV output), verify (self-verification suite), mc (seeded Monte-Carlo
estimate).  Every command is deterministic given identical flags; --json
emits the same payload as a machine-readable record.

Exit codes: 0 success, 1 verification failures, 2 invalid arguments,
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import capacity, mi, oracle, verify
from .capacity import SweepConfig
from .channel import ChannelParams, TwoPointInput, snr_from_db
from .errors import ConsistencyError, NoncohError
from .oracle import MonteCarloConfig

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_INCONSISTENT = 3


def _fmt(v: float) -> str:
    """17 significant digits: round-trips double precision, locale-free."""
    return f"{v:.17g}"


def _record(command: str, inputs: dict, results: dict, diagnostics: dict | None = None) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "diagnostics": diagnostics or {},
    }


def _emit(record: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def cmd_mi(args) -> int:
    inp = TwoPointInput(a2=args.a2, x2=args.x2)
    ch = ChannelParams(sigma2=args.sigma2)
    res = mi.mutual_information(inp, ch)
    hx = mi.input_entropy(inp)
    hxy = mi.conditional_entropy(inp, ch)
    results = {
        "i_nats": res.nats,
        "input_entropy_nats": hx,
        "conditional_entropy_nats": hxy,
        "j0": res.j0,
        "j_x2": res.j_x2,
        "case_j0": res.case_j0.value,
        "case_jx2": res.case_jx2.value,
    }
    lines = [
        f"I(X;Y)  = {_fmt(res.nats)} nats",
        f"H(X)    = {_fmt(hx)} nats",
        f"H(X|Y)  = {_fmt(hxy)} nats",
        f"J(0)    = {_fmt(res.j0)}  [{res.case_j0.value}]",
        f"J(x2)   = {_fmt(res.j_x2)}  [{res.case_jx2.value}]",
    ]
    diagnostics = dict(res.diagnostics)
    if args.verify and not inp.is_degenerate():
        ref = oracle.mi_quadrature(inp, ch)
        delta = abs(res.nats - ref)
        diagnostics["oracle_delta"] = delta
        lines.append(f"|closed - oracle| = {delta:.3e}")
        if delta > 1e-7:
            _emit(_record("mi", vars_of(args), results, diagnostics), args.json, lines)
            print("consistency failure: closed form disagrees with quadrature",
                  file=sys.stderr)
            return EXIT_INCONSISTENT
    _emit(_record("mi", vars_of(args), results, diagnostics), args.json, lines)
    return EXIT_OK


def cmd_deriv(args) -> int:
    if args.snr_db is not None:
        snr = snr_from_db(args.snr_db)
        ch = ChannelParams(sigma2=args.sigma2, power_budget=snr * args.sigma2)
        inp = TwoPointInput(a2=args.a2, x2=math.sqrt(ch.power_budget / args.a2))
        mode = "capacity (x2^2 = P/a2)"
    else:
        ch = ChannelParams(sigma2=args.sigma2)
        inp = TwoPointInput(a2=args.a2, x2=args.x2)
        mode = "fixed x2"
    value = mi.mi_derivative_a2(inp, ch)
    results = {"dI_da2": value, "mode": mode, "x2": inp.x2}
    lines = [f"dI/da2 = {_fmt(value)}  [{mode}]"]
    diagnostics = {}
    if args.verify:
        if args.snr_db is not None:
            snr = snr_from_db(args.snr_db)
            f = lambda t: mi.mutual_information(
                TwoPointInput(t, math.sqrt(snr * args.sigma2 / t)), ch
            ).nats
        else:
            f = lambda t: mi.mutual_information(TwoPointInput(t, args.x2), ch).nats
        num = oracle.fd_derivative(f, args.a2, oracle.FDOrder.CENTRAL5)
        rel = abs(value - num) / max(abs(num), 1e-12)
        diagnostics["fd_relative_delta"] = rel
        lines.append(f"finite-difference check: relative delta {rel:.3e}")
        if rel > 1e-5:
            _emit(_record("deriv", vars_of(args), results, diagnostics), args.json, lines)
            print("consistency failure: derivative disagrees with finite differences",
                  file=sys.stderr)
            return EXIT_INCONSISTENT
    _emit(_record("deriv", vars_of(args), results, diagnostics), args.json, lines)
    return EXIT_OK


def cmd_profile(args) -> int:
    import numpy as np

    snr = snr_from_db(args.snr_db)
    grid = np.linspace(1e-6, 1.0 - 1e-6, args.points)
    pairs = capacity.mi_profile(snr, grid)
    rows = ["a2,i_nats"] + [f"{_fmt(a)},{_fmt(v)}" for a, v in pairs]
    text = "\n".join(rows) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        lines = [f"wrote {len(pairs)} rows to {args.out}"]
    else:
        lines = rows
    best = max(pairs, key=lambda p: p[1])
    results = {"rows": len(pairs), "max_i_nats": best[1], "argmax_a2": best[0]}
    _emit(_record("profile", vars_of(args), results), args.json, lines)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        snr_db_start=args.from_db,
        snr_db_stop=args.to_db,
        snr_db_step=args.step_db,
        solver_tol=args.solver_tol,
    )
    points = capacity.sweep(cfg, ChannelParams(sigma2=args.sigma2))
    header = "snr_db,snr_linear,a2_star,x2_star,i_star_nats,regime,roots_found,solver_residual"
    rows = [header]
    for p in points:
        rows.append(
            ",".join(
                [
                    _fmt(p.snr_db),
                    _fmt(p.snr_linear),
                    _fmt(p.a2_star),
                    _fmt(p.x2_star),
                    _fmt(p.i_star_nats),
                    p.regime,
                    str(p.roots_found),
                    _fmt(p.solver_residual),
                ]
            )
        )
    text = "\n".join(rows) + "\n"
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    n_failed = sum(1 for p in points if p.regime == "FAILED")
    results = {"rows": len(points), "failed": n_failed, "out": args.out}
    lines = [f"wrote {len(points)} data rows to {args.out}"
             + (f" ({n_failed} FAILED)" if n_failed else "")]
    _emit(_record("sweep", vars_of(args), results), args.json, lines)
    return EXIT_INCONSISTENT if n_failed else EXIT_OK


def cmd_verify(args) -> int:
    results = verify.run_checks(quick=args.quick)
    lines = [r.line() for r in results]
    failures = [r for r in results if not r.passed]
    payload = {
        "checks": [
            {
                "name": r.name,
                "worst_residual": r.worst,
                "tolerance": r.tolerance,
                "passed": r.passed,
            }
            for r in results
        ],
        "failures": [r.name for r in failures],
    }
    _emit(_record("verify", vars_of(args), payload), args.json, lines)
    if failures:
        if not args.json:
            print(json.dumps({"failures": [r.name for r in failures]}), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_mc(args) -> int:
    inp = TwoPointInput(a2=args.a2, x2=args.x2)
    ch = ChannelParams(sigma2=args.sigma2)
    cfg = MonteCarloConfig(samples=args.samples, seed=args.seed)
    est, se = oracle.mi_monte_carlo(inp, ch, cfg)
    closed = mi.mutual_information(inp, ch).nats
    z = (est - closed) / se if se > 0 else math.inf
    results = {
        "estimate_nats": est,
        "std_error": se,
        "closed_form_nats": closed,
        "z_score": z,
    }
    lines = [
        f"Monte-Carlo I = {_fmt(est)} +- {_fmt(se)} nats "
        f"({args.samples} samples, seed {args.seed})",
        f"closed form   = {_fmt(closed)} nats (z = {z:+.2f})",
    ]
    _emit(_record("mc", vars_of(args), results), args.json, lines)
    return EXIT_OK


def vars_of(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noncoh",
        description="Mutual information and capacity of the noncoherent "
        "Rayleigh-fading channel under two-mass-point inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mi", help="closed-form mutual information at one point")
    p.add_argument("--a2", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the quadrature oracle")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mi)

    p = sub.add_parser("deriv", help="analytic dI/da2")
    p.add_argument("--a2", type=float, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--x2", type=float, help="fixed nonzero mass point")
    g.add_argument("--snr-db", type=float,
                   help="capacity mode: ties x2^2 = P/a2 at this SNR")
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--verify", action="store_true",
                   help="cross-check against finite differences")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_deriv)

    p = sub.add_parser("profile", help="I(a2) profile at fixed SNR (CSV)")
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--points", type=int, default=400)
    p.add_argument("--out", help="CSV path (default: print)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("sweep", help="capacity sweep over an SNR grid (CSV)")
    p.add_argument("--from-db", type=float, required=True)
    p.add_argument("--to-db", type=float, required=True)
    p.add_argument("--step-db", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--solver-tol", type=float, default=SweepConfig.solver_tol,
                   help="root tolerance (default: %(default)g)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="run the self-verification families")
    p.add_argument("--quick", action="store_true", help="reduced grids")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("mc", help="seeded Monte-Carlo mutual information")
    p.add_argument("--a2", type=float, required=True)
    p.add_argument("--x2", type=float, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except NoncohError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
