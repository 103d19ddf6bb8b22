"""Set-up cost of one workload: import noncoh, then one untimed warm-up op.

Run as a script, it times both from a fresh interpreter, then prints the
seconds taken and the machine-speed factor measured right after (see
calibrate.py); `run.py` starts it several times in sequence and reports the
median of the scaled times as `setup_s`.  The main benchmark process calls
`warm_up` too, so caches fill and lazy set-up finishes before its timed
phase.

    python3 bench/setup_probe.py <workload> <work_dir>

Nothing is imported before the clock starts except what the interpreter
itself loads, so the figure covers numpy, scipy and noncoh.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_noncoh():
    """Import noncoh from this checkout's src/, never from elsewhere."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import noncoh
    import noncoh.cli  # noqa: F401 - the CLI entry point the workloads drive

    where = os.path.dirname(os.path.abspath(noncoh.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise ImportError(f"noncoh was imported from {where}, not from {SRC}")
    return noncoh


def warm_up(workload: str, work_dir: str) -> None:
    """One op of the workload on a fixed small input, output discarded."""
    nc = import_noncoh()
    if workload == "mi-field":
        nc.mutual_information(nc.TwoPointInput(0.3, 2.0), nc.ChannelParams(1.0))
        return
    if workload == "sweep":
        out = os.path.join(work_dir, f"warmup-{os.getpid()}.csv")
        argv = ["sweep", "--from-db", "0", "--to-db", "0", "--step-db", "1",
                "--out", out]
    elif workload == "verify":
        argv = ["verify", "--json"]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    with contextlib.redirect_stdout(io.StringIO()):
        rc = nc.cli.main(argv)
    if workload == "sweep":
        os.remove(out)
    if rc != 0:
        raise RuntimeError(f"warm-up {workload} exited with {rc}")


if __name__ == "__main__":
    warm_up(sys.argv[1], sys.argv[2])
    seconds = time.perf_counter() - _T0
    from calibrate import CAL_BURST, CAL_REF_S, calibration_sample

    factor = statistics.median(calibration_sample() for _ in range(2 * CAL_BURST)) / CAL_REF_S
    print(repr(seconds), repr(factor))
