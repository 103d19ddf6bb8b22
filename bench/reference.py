"""Independent references for the correctness gates.

`mi_reference` evaluates I(X;Y) from an mpmath quadrature of J's defining
integral at 30 significant digits.  It shares no code with noncoh: neither
its hypergeometric closed forms nor its scipy-based oracle.
"""

from __future__ import annotations

import math

import mpmath as mp

DPS = 30


def binary_entropy(a2: float) -> float:
    """H(X) in nats of the two-point input with mass a2 at x2."""
    if a2 <= 0.0 or a2 >= 1.0:
        return 0.0
    return -a2 * math.log(a2) - (1.0 - a2) * math.log1p(-a2)


def _j_defining_integral(x, a2, x2, s2):
    """J(x) = int_0^1 log((a1/s2) u^p + (a2/S2) u^q) du, S2 = x2^2 + s2,
    p = (x^2+s2)/s2, q = (x^2+s2)/S2, integrated in t = log u.

    With r = p - q > 0 the integrand is e^t (log(a2/S2) + q t
    + log(1 + e^(c + r t))), c = log(a1 S2 / (a2 s2)); its kink at
    t = -c/r (the mixture crossover) and a band of 20/r around it are
    declared as breakpoints.  Returns (value, error estimate).
    """
    a1 = 1 - a2
    big = x2 * x2 + s2
    p = (x * x + s2) / s2
    q = (x * x + s2) / big
    r = p - q
    lb = mp.log(a2 / big)
    c = mp.log(a1 / s2) - lb

    def integrand(t):
        z = c + r * t
        soft = z + mp.log1p(mp.exp(-z)) if z > 0 else mp.log1p(mp.exp(z))
        return mp.exp(t) * (lb + q * t + soft)

    t_star = -c / r
    inner = sorted({t for t in (t_star - 20 / r, t_star, t_star + 20 / r) if t < 0})
    return mp.quad(integrand, [-mp.inf, *inner, 0], error=True, maxdegree=10)


def mi_reference(a2: float, x2: float, s2: float) -> tuple[float, float]:
    """I(X;Y) in nats and the quadrature's error estimate, in double."""
    with mp.workdps(DPS):
        a2m, x2m, s2m = mp.mpf(a2), mp.mpf(x2), mp.mpf(s2)
        j0, e0 = _j_defining_integral(mp.mpf(0), a2m, x2m, s2m)
        j2, e2 = _j_defining_integral(x2m, a2m, x2m, s2m)
        a1 = 1 - a2m
        big = x2m * x2m + s2m
        nats = (-a1 - a1 * mp.log(s2m) - a2m - a2m * mp.log(big)
                - a1 * j0 - a2m * j2)
        return float(nats), float(max(e0, e2))
