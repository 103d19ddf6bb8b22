"""Command-line frontend.

Subcommands: mi (single-point mutual information), deriv (analytic dI/da2),
profile (I vs a2 at fixed SNR), sweep (capacity optimization over an SNR
grid, CSV output), verify (self-verification suite), mc (seeded Monte-Carlo
estimate).  Every command is deterministic given identical flags; --json
emits the same payload as a machine-readable record.  mi --verify and
deriv --verify run noncoh.verify's checks of I against quadrature and of
dI/da2 against finite differences, at its tolerances.

Exit codes: 0 success, 1 verification failures, 2 invalid arguments,
3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys

import numpy as np

from . import capacity, mi, oracle, verify
from .capacity import SweepConfig
from .channel import ChannelParams, TwoPointInput, one_mass_point, snr_from_db
from .errors import ConsistencyError, DomainError, NoncohError

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_INCONSISTENT = 3


def _fmt(v: float) -> str:
    """17 significant digits: round-trips double precision, locale-free."""
    return f"{v:.17g}"


def _json_value(v):
    """v with every non-finite float, nested in dicts and lists, as None:
    standard JSON has no NaN or infinity, so they read null."""
    if isinstance(v, dict):
        return {k: _json_value(x) for k, x in v.items()}
    if isinstance(v, list):
        return [_json_value(x) for x in v]
    return None if isinstance(v, float) and not math.isfinite(v) else v


def _emit(args, results: dict, lines: list[str], diagnostics: dict | None = None,
          failure: str | None = None) -> int:
    """Print args.command's record as standard JSON with --json, else its text
    lines; report a failure on stderr and return EXIT_INCONSISTENT, else
    EXIT_OK."""
    if args.json:
        record = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "inputs": {k: v for k, v in vars(args).items() if k != "func"},
            "results": results,
            "diagnostics": diagnostics or {},
        }
        print(json.dumps(_json_value(record), indent=2, sort_keys=True, allow_nan=False))
    else:
        for line in lines:
            print(line)
    if failure is None:
        return EXIT_OK
    print(f"consistency failure: {failure}", file=sys.stderr)
    return EXIT_INCONSISTENT


def _write_out(path: str, text: str) -> None:
    """Write text to the --out path; a path that cannot be written (a missing
    directory, a directory) is an invalid argument, which exits 2."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write --out {path}: {exc.strerror or exc}") from None


def cmd_mi(args) -> int:
    inp = TwoPointInput(a2=args.a2, x2=args.x2)
    ch = ChannelParams(sigma2=args.sigma2)
    res = mi.mutual_information(inp, ch)
    hx = mi.input_entropy(inp)
    hxy = hx - res.nats  # H(X|Y) = H(X) - I, in [0, H(X)] with I
    results = {
        "i_nats": res.nats,
        "input_entropy_nats": hx,
        "conditional_entropy_nats": hxy,
        "j0": res.j0,
        "j_x2": res.j_x2,
        "case_j0": res.case_j0,
        "case_jx2": res.case_jx2,
    }
    lines = [
        f"I(X;Y)  = {_fmt(res.nats)} nats",
        f"H(X)    = {_fmt(hx)} nats",
        f"H(X|Y)  = {_fmt(hxy)} nats",
        f"J(0)    = {_fmt(res.j0)}  [{res.case_j0}]",
        f"J(x2)   = {_fmt(res.j_x2)}  [{res.case_jx2}]",
    ]
    diagnostics, failure = dict(res.diagnostics), None
    # one mass point (I = 0 by definition) leaves nothing to check
    if args.verify and not one_mass_point(inp, ch):
        ref = oracle.mi_quadrature(inp, ch)
        delta = abs(res.nats - ref)
        diagnostics["oracle_delta"] = delta
        lines.append(f"|closed - oracle| = {delta:.3e}")
        if not verify.CheckResult("I", delta, verify.MI_TOLERANCE).passed:
            failure = "closed form disagrees with quadrature"
    return _emit(args, results, lines, diagnostics, failure)


def cmd_deriv(args) -> int:
    if args.snr_db is not None:
        snr = snr_from_db(args.snr_db)
        sigma = math.sqrt(ChannelParams(sigma2=args.sigma2).sigma2)
        # dI/da2 depends on t = x2^2/sigma^2 = SNR/a2 alone: it is taken at
        # sigma^2 = 1, as the solver does, and sigma2 only sets the unit of x2.
        # x2 = 0 leaves the mass point to mi_derivative_a2, which names an
        # SNR/a2 out of range before sqrt(SNR/a2) could overflow
        ch = ChannelParams(sigma2=1.0, power_budget=snr)
        inp = TwoPointInput(a2=args.a2, x2=0.0)
        mode = "capacity (x2^2 = P/a2)"
    else:
        ch = ChannelParams(sigma2=args.sigma2)
        inp = TwoPointInput(a2=args.a2, x2=args.x2)
        mode = "fixed x2"
    value = mi.mi_derivative_a2(inp, ch)
    x2 = inp.x2 if args.snr_db is None else sigma * math.sqrt(snr / args.a2)
    results = {"dI_da2": value, "mode": mode, "x2": x2}
    lines = [f"dI/da2 = {_fmt(value)}  [{mode}]"]
    diagnostics, failure = {}, None
    if args.verify:
        num, noise = verify.fd_mi_derivative(inp, ch)
        rel = abs(value - num) / max(abs(num), 1e-12)
        diagnostics["fd_relative_delta"] = rel
        diagnostics["fd_noise_allowance"] = noise
        # an allowance as large as the difference itself accepts any answer
        diagnostics["fd_resolves"] = noise < abs(num)
        lines.append(f"finite-difference check: relative delta {rel:.3e} "
                     f"(noise allowance {noise:.3e})")
        if not diagnostics["fd_resolves"]:
            lines.append("note: the finite difference cannot resolve dI/da2 here: "
                         "its noise allowance is at least |dI/da2|")
        tolerance = verify.DERIV_TOLERANCE * abs(num) + noise
        if not verify.CheckResult("dI/da2", abs(value - num), tolerance).passed:
            failure = "derivative disagrees with finite differences"
    return _emit(args, results, lines, diagnostics, failure)


def cmd_profile(args) -> int:
    if args.points < 1:
        raise DomainError(f"--points must be >= 1 (got {args.points})")
    if args.points > capacity.MAX_GRID_POINTS:
        raise DomainError(f"--points {args.points} is more than the cap of "
                          f"{capacity.MAX_GRID_POINTS} grid points")
    snr = snr_from_db(args.snr_db)
    grid = np.linspace(1e-6, 1.0 - 1e-6, args.points)
    pairs = capacity.mi_profile(snr, grid)
    rows = ["a2,i_nats"] + [f"{_fmt(a)},{_fmt(v)}" for a, v in pairs]
    if args.out:
        _write_out(args.out, "\n".join(rows) + "\n")
        lines = [f"wrote {len(pairs)} rows to {args.out}"]
    else:
        lines = rows
    best = max(pairs, key=lambda p: p[1])
    results = {"rows": len(pairs), "max_i_nats": best[1], "argmax_a2": best[0]}
    return _emit(args, results, lines)


def cmd_sweep(args) -> int:
    cfg = SweepConfig(
        snr_db_start=args.from_db,
        snr_db_stop=args.to_db,
        snr_db_step=args.step_db,
    )
    points = capacity.sweep(cfg, sigma2=args.sigma2)
    header = "snr_db,snr_linear,a2_star,x2_star,i_star_nats,regime,roots_found,solver_residual"
    # one %-format per row: "%.17g" gives the text of _fmt
    rows = [header] + [
        "%.17g,%.17g,%.17g,%.17g,%.17g,%s,%d,%.17g" % (
            p.snr_db, p.snr_linear, p.a2_star, p.x2_star, p.i_star_nats, p.regime,
            p.roots_found, p.solver_residual)
        for p in points
    ]
    _write_out(args.out, "\n".join(rows) + "\n")
    n_failed = sum(1 for p in points if p.regime == "FAILED")
    results = {"rows": len(points), "failed": n_failed, "out": args.out}
    lines = [f"wrote {len(points)} data rows to {args.out}"
             + (f" ({n_failed} FAILED)" if n_failed else "")]
    # the solver's work per point, for --json alone; the CSV leaves it out
    diagnostics = ({"points": [{"snr_db": p.snr_db, **p.diagnostics} for p in points]}
                   if args.json else None)
    _emit(args, results, lines, diagnostics)
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
    _emit(args, payload, lines)
    if failures:
        if not args.json:
            print(json.dumps({"failures": [r.name for r in failures]}), file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_mc(args) -> int:
    inp = TwoPointInput(a2=args.a2, x2=args.x2)
    ch = ChannelParams(sigma2=args.sigma2)
    oracle._check_mc_args(args.samples, args.seed)  # before the one-mass-point answer
    closed = mi.mutual_information(inp, ch).nats
    if one_mass_point(inp, ch):  # I = 0 exactly, with nothing to estimate
        results = {"estimate_nats": None, "std_error": None,
                   "closed_form_nats": closed, "z_score": None}
        lines = ["Monte-Carlo I: not estimated, the input is one mass point",
                 f"closed form   = {_fmt(closed)} nats"]
        return _emit(args, results, lines)
    est, se = oracle.mi_monte_carlo(inp, ch, samples=args.samples, seed=args.seed)
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
    return _emit(args, results, lines)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, that reads every
    negative float literal (-1e1, -1.5e-3, -inf) as a flag's value:
    argparse's own pattern takes -10 and -.5 but reads -1e1 as an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE)


@functools.cache  # built once per process: parsing leaves the parser as it was
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
