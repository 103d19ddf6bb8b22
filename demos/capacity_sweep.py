#!/usr/bin/env python3
"""Capacity-mode optimization: tie the nonzero mass point to its probability
through x2^2 = P/a2 and, for each SNR, solve dI/da2 = 0 with the analytic
derivative.  Below ~0 dB this is the channel capacity; up to 10 dB it is a
tight lower bound.

Run:  python demos/capacity_sweep.py [out.csv]
"""

import math
import sys

from noncoh import SweepConfig, solve_a2_star, sweep
from noncoh.cli import main

print(__doc__)

cfg = SweepConfig(snr_db_start=-10.0, snr_db_stop=30.0, snr_db_step=2.0)
points = sweep(cfg)

print(f"{'SNR dB':>7} {'a2*':>11} {'x2*':>9} {'I* nats':>11} {'regime':>17} "
      f"{'|dI/da2|':>9}")
for p in points:
    print(f"{p.snr_db:>7.1f} {p.a2_star:>11.7f} {p.x2_star:>9.4f} "
          f"{p.i_star_nats:>11.7f} {p.regime:>17} {p.solver_residual:>9.1e}")

print(f"""
The optimum probability a2* climbs toward 1/2 and I* toward
log 2 = {math.log(2):.6f} nats as the SNR grows; a two-point input can never
do better than one bit per symbol.  At very large SNR:
""")
for snr in (1e4, 1e6):
    pt = solve_a2_star(snr)
    print(f"  SNR = {snr:.0e}: a2* = {pt.a2_star:.6f}, "
          f"log2 - I* = {math.log(2) - pt.i_star_nats:.2e} nats")

if len(sys.argv) > 1:
    sys.exit(main(["sweep", "--from-db", "-10", "--to-db", "30", "--step-db", "2",
                   "--out", sys.argv[1]]))
print("\n(pass a path to also write the sweep as CSV through noncoh sweep, or use: "
      "noncoh sweep --from-db -10 --to-db 30 --step-db 2 --out fig.csv)")
