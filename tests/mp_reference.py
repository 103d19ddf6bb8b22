"""High-precision references built on mpmath's own hypergeometric functions,
so they share no series code with noncoh."""

import mpmath as mp


def hyp2f1_value(b: float, u: float, dps: int = 50) -> float:
    """2F1(1, b; b+1; -u) alone."""
    with mp.workdps(dps):
        return float(mp.hyp2f1(1, mp.mpf(b), mp.mpf(b) + 1, -mp.mpf(u)))


def hyp2f1_family(b: float, u: float, dps: int = 50) -> tuple[float, float]:
    """2F1(1, b; b+1; -u) with its partial d/db."""
    with mp.workdps(dps):
        b, z = mp.mpf(b), -mp.mpf(u)
        value = mp.hyp2f1(1, b, b + 1, z)
        d_db = mp.diff(lambda bb: mp.hyp2f1(1, bb, bb + 1, z), b)
        return float(value), float(d_db)


def pi_csc_minus_recip_ref(eps: float, dps: int = 50) -> float:
    """pi/sin(pi eps) - 1/eps."""
    with mp.workdps(dps):
        eps = mp.mpf(eps)
        return float(mp.pi / mp.sin(mp.pi * eps) - 1 / eps)


def j_closed_form(x, a2, x2, s2):
    """J(x) from the beta>=1 closed form, valid for every alpha, beta > 0
    (mpmath numbers in, mpmath number out)."""
    big = x2 * x2 + s2
    alpha = (x2 * x2 / big) * ((x * x + s2) / s2)
    beta = (a2 / (1 - a2)) * (s2 / big)
    f21 = mp.hyp2f1(1, (alpha + 1) / alpha, (2 * alpha + 1) / alpha, -1 / beta)
    return (-(x * x + s2) / big + mp.log(a2 / big) + mp.log1p(1 / beta)
            - alpha / (beta * (alpha + 1)) * f21)


def mutual_information(a2, x2, s2):
    big = x2 * x2 + s2
    a1 = 1 - a2
    return (-a1 - a1 * mp.log(s2) - a2 - a2 * mp.log(big)
            - a1 * j_closed_form(mp.mpf(0), a2, x2, s2)
            - a2 * j_closed_form(x2, a2, x2, s2))


def mi_derivative_a2(a2: float, s2: float, *, x2: float | None = None,
                     power_budget: float | None = None, dps: int = 30) -> float:
    """dI/da2 with x2 held fixed, or with x2^2 = power_budget/a2."""
    with mp.workdps(dps):
        s2 = mp.mpf(s2)
        if power_budget is None:
            x2 = mp.mpf(x2)
            return float(mp.diff(lambda t: mutual_information(t, x2, s2), mp.mpf(a2)))
        p = mp.mpf(power_budget)
        return float(mp.diff(lambda t: mutual_information(t, mp.sqrt(p / t), s2),
                             mp.mpf(a2)))
