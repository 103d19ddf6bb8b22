#!/usr/bin/env python3
"""The special-function layer under the closed forms, shown through the
identities it must satisfy: the Gauss-series log identity, the continuation
formula connecting the two closed-form routes, and the reduction of two
3F2(-1) sums to pi/sin(pi/alpha).

Run:  python demos/hypergeometric_identities.py
"""

import math

from noncoh.reference import continuation_residual, hyp3f2_sin_identity_residual
from noncoh.specfun import gauss_2f1, hyp_pfq

print(__doc__)

print("z * 2F1(1,1;2;-z) = log(1+z), summed as a series:")
for z in (0.3, 0.9, 1.0):
    got = z * gauss_2f1(1.0, 1.0, 2.0, -z)
    print(f"   z={z}: series={got:.15f}  log1p={math.log1p(z):.15f}")

print("""
Continuation formula: the beta<1 route (2F1 at -beta, plus a pi/sin
reflection term) and the beta>=1 route (2F1 at -1/beta) describe one
function.  Residuals over a few (alpha, beta):
""")
for alpha, beta in [(1.7, 0.4), (0.37, 2.5), (3.2, 1.0), (6.3, 0.17)]:
    r = continuation_residual(alpha, beta)
    print(f"   alpha={alpha:4} beta={beta:4}: residual = {r:+.2e}")

print("""
Two generalized hypergeometric sums at argument -1 collapse to an
elementary reflection value:
   alpha + 3F2(...;-1)/(alpha-1) + 3F2(...;-1)/(alpha+1) = pi/sin(pi/alpha)
""")
for alpha in (0.6, 2.0, 5.5):
    r = hyp3f2_sin_identity_residual(alpha)
    print(f"   alpha={alpha}: residual = {r:+.2e} "
          f"(pi/sin = {math.pi / math.sin(math.pi / alpha):+.6f})")

print("\nSeries diagnostics are part of every evaluation:")
res = hyp_pfq([1.0, 1.0, 1.5], [2.0, 2.5], -1.0)
print(f"   3F2(1,1,1.5; 2,2.5; -1) = {res.value:.15f} "
      f"({res.terms_used} terms, remainder <= {res.truncation_bound:.1e})")
