#!/usr/bin/env python3
"""Walk through the core claim of the library: the mutual information of the
noncoherent Rayleigh magnitude channel under a two-mass-point input has a
closed form, and it agrees with independent numerical integration and with a
Monte-Carlo estimate of the defining expectation.

Run:  python demos/closed_forms_vs_oracles.py
"""

import math

from noncoh import (
    ChannelParams,
    TwoPointInput,
    input_entropy,
    mi_monte_carlo,
    mi_quadrature,
    mutual_information,
)

print(__doc__)

ch = ChannelParams(sigma2=1.0)

print("Closed form vs adaptive quadrature vs Monte-Carlo (a2, x2 varying):\n")
print(f"{'a2':>5} {'x2':>7} {'I closed':>12} {'I quad':>12} {'|diff|':>9} "
      f"{'I mc +- 4se':>22} {'route':>16}")
for a2, x2 in [(0.5, 1.0), (0.4, 2.0), (0.9, 1.0), (0.2, 5.0), (0.3, 0.4)]:
    inp = TwoPointInput(a2=a2, x2=x2)
    res = mutual_information(inp, ch)
    ref = mi_quadrature(inp, ch)
    est, se = mi_monte_carlo(inp, ch, samples=400_000, seed=1)
    route = f"{res.case_j0}/{res.case_jx2}"
    print(f"{a2:>5} {x2:>7} {res.nats:>12.8f} {ref:>12.8f} "
          f"{abs(res.nats - ref):>9.1e} {est:>12.8f} +- {4*se:<7.5f} {route:>16}")

print("""
As the nonzero mass point moves far from the origin the channel output
identifies the input almost surely and the mutual information climbs to the
input entropy H(X):
""")
a2 = 0.3
hb = input_entropy(TwoPointInput(a2, 1.0))
print(f"{'x2':>7} {'I(X;Y)':>12} {'H(X) - I':>11}")
for x2 in (1.0, 10.0, 100.0, 1000.0):
    nats = mutual_information(TwoPointInput(a2, x2), ch).nats
    print(f"{x2:>7} {nats:>12.8f} {hb - nats:>11.2e}")
print(f"\nH(X) = {hb:.8f} nats; the gap closes from below as x2 grows.")

print("""
Degenerate inputs carry no information; the evaluation short-circuits:
""")
for inp in (TwoPointInput(0.0, 2.0), TwoPointInput(1.0, 2.0), TwoPointInput(0.5, 0.0)):
    print(f"  a2={inp.a2}, x2={inp.x2}: I = {mutual_information(inp, ch).nats}")

print(f"\nFor reference, log 2 = {math.log(2):.6f} nats caps every two-point input.")
