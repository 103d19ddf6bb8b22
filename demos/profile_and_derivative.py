#!/usr/bin/env python3
"""The mutual information as a function of the mass-point probability a2 (at
fixed SNR, with x2^2 = P/a2) vanishes at both ends, peaks at one interior
point, and stops being concave at low SNR.  The analytic derivative locates
the peak; finite differences confirm it.

Run:  python demos/profile_and_derivative.py
"""

import math

import numpy as np

from noncoh import (
    ChannelParams,
    TwoPointInput,
    fd_derivative,
    mi_derivative_a2,
    mi_profile,
    mutual_information,
    snr_from_db,
    solve_a2_star,
)

print(__doc__)

for snr_db in (-5.0, 5.0):
    snr = snr_from_db(snr_db)
    grid = np.linspace(0.02, 0.98, 13)
    pairs = mi_profile(snr, grid)
    peak = solve_a2_star(snr)
    print(f"SNR = {snr_db:+.0f} dB: a2* = {peak.a2_star:.6f}, "
          f"I* = {peak.i_star_nats:.6f} nats")
    width = 44
    top = max(v for _, v in pairs)
    for a2, v in pairs:
        bar = "#" * int(round(width * v / top))
        print(f"   a2={a2:5.2f} |{bar:<{width}}| {v:.5f}")
    print()

print("""Analytic dI/da2 against five-point central differences, capacity
mode at 0 dB (positive left of the optimum, negative right of it):
""")
snr = 1.0
ch = ChannelParams(sigma2=1.0, power_budget=snr)
opt = solve_a2_star(snr).a2_star
for a2 in (0.05, 0.1, opt, 0.4, 0.8):
    inp = TwoPointInput(a2, math.sqrt(snr / a2))
    ana = mi_derivative_a2(inp, ch)
    num = fd_derivative(
        lambda t: mutual_information(TwoPointInput(t, math.sqrt(snr / t)), ch).nats,
        a2,
    )
    marker = "  <-- optimum" if a2 == opt else ""
    print(f"   a2={a2:8.6f}: analytic={ana:+.3e}  fd={num:+.3e}{marker}")
