"""Real-argument special functions used by the closed-form expressions.

Scalar double-precision: the generalized hypergeometric series pFq with
truncation diagnostics, the Gauss 2F1 on the real axis left of z = 1, the
digamma function, the (real branch of the) incomplete beta integral, and
partial sums of the alternating log(1+q) series.  A dedicated evaluator
for the family 2F1(1, b; b+1; -u) together with its parameter and argument
derivatives backs the analytic mutual-information derivative and the
beta>=1 form of J next to alpha = 1/n; it holds for every b > 0 and
u >= 0 and takes scalars or arrays of (b, u) through one vectorized code
path.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DivergenceError, DomainError, NoConvergence, PoleError

# Euler's constant to 30 significant digits (series oracle for digamma).
EULER_GAMMA = 0.577215664901532860606512090082

_LD = np.longdouble
_PI_LD = _LD("3.14159265358979323846264338327950288")


@dataclass(frozen=True)
class SpecfunConfig:
    """Truncation of hyp_pfq: abs_tol is the target for the absolute
    remainder and max_terms caps the number of summed terms.  gauss_2f1
    and the Pfaff series of hyp2f1_1b use DEFAULT_CONFIG."""

    abs_tol: float = 1e-14
    max_terms: int = 10**7

    def __post_init__(self):
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError("abs_tol must be in (0, 1)")
        if self.max_terms < 1:
            raise ValueError("max_terms must be >= 1")


DEFAULT_CONFIG = SpecfunConfig()

# gauss_2f1 maps z below -_TRANSFORM_THRESHOLD to z/(z-1) before summing.
_TRANSFORM_THRESHOLD = 0.5


@dataclass(frozen=True)
class SeriesResult:
    """Partial-sum value plus truncation diagnostics."""

    value: float
    terms_used: int
    truncation_bound: float


def _term_ratio(numer, denom, z, k):
    r = z / (k + 1.0)
    for a in numer:
        r *= a + k
    for b in denom:
        bk = b + k
        if bk == 0.0:
            raise DomainError(
                f"denominator parameter {b} hits a pole at term k={k}"
            )
        r /= bk
    return r


@functools.lru_cache(maxsize=8)
def _euler_weights(n: int, dtype: np.dtype) -> np.ndarray:
    """(n, n) matrix whose row L maps n partial sums to the last entry of
    their L-th iterated pairwise average: weights 2^-L C(L, j) on the last
    L+1 columns, built by halving Pascal's rule in the target dtype."""
    w = np.zeros((n, n), dtype=dtype)
    row = np.ones(1, dtype=dtype)
    w[0, -1] = 1.0
    for level in range(1, n):
        row = 0.5 * (np.append(row, 0.0) + np.append(0.0, row)).astype(dtype)
        w[level, n - 1 - level:] = row
    w.setflags(write=False)
    return w


def _euler_average(terms):
    """Sum an (eventually) alternating tail by iterated pairwise averaging
    of its partial sums.

    The tail runs along the last axis of terms; every averaging level is
    formed at once and the first level with the smallest change from the
    level before it is kept (level 0 is judged by the size of the last
    term).  Returns (value, error_estimate) with the leading shape of terms,
    numpy scalars for a 1-D tail; the value keeps the dtype of the terms."""
    s = np.cumsum(terms, axis=-1)
    n = s.shape[-1]
    levels = np.einsum("...j,lj->...l", s, _euler_weights(n, s.dtype)).reshape(-1, n)
    err = np.empty_like(levels)
    err[:, 0] = np.abs(terms.reshape(-1, n)[:, -1])
    np.abs(levels[:, 1:] - levels[:, :-1], out=err[:, 1:])
    rows, pick = np.arange(levels.shape[0]), err.argmin(axis=1)
    shape = terms.shape[:-1]
    return levels[rows, pick].reshape(shape)[()], err[rows, pick].reshape(shape)[()]


def hyp_pfq(numer, denom, z, cfg: SpecfunConfig = DEFAULT_CONFIG) -> SeriesResult:
    """Generalized hypergeometric series sum_k [prod (xi)_k / prod (eta)_k] z^k / k!.

    Raises DomainError when a denominator parameter is a nonpositive integer
    reached before truncation, DivergenceError outside the convergence
    region, and NoConvergence when max_terms is exhausted above abs_tol.
    """
    numer = [float(a) for a in numer]
    denom = [float(b) for b in denom]
    z = float(z)
    p, q = len(numer), len(denom)
    if p > q + 1 and z != 0.0:
        raise DivergenceError(f"{p}F{q} has zero radius of convergence")
    if p == q + 1:
        if abs(z) > 1.0:
            raise DivergenceError(f"{p}F{q} diverges for |z| > 1 (z={z})")
        s = sum(denom) - sum(numer)
        if z == 1.0 and s <= 0.0:
            raise DivergenceError("series diverges at z = 1 (sum(eta) - sum(xi) <= 0)")
        if z == -1.0 and s <= -1.0:
            raise DivergenceError("series diverges at z = -1 (sum(eta) - sum(xi) <= -1)")

    tol = cfg.abs_tol

    # Near z = -1 with p = q + 1 the terms decay like a power of k and plain
    # summation stalls; sum a head directly and accelerate the alternating
    # tail by iterated term pairing.
    neg = [-c for c in numer + denom if c < 0.0]
    if (
        p == q + 1
        and z < 0.0
        and abs(z) >= 0.9
        and cfg.max_terms >= int(max(48.0, (max(neg) if neg else 0.0) + 16.0)) + 72
    ):
        m0 = int(max(48.0, (max(neg) if neg else 0.0) + 16.0))
        term = 1.0
        total = 1.0
        for k in range(m0 - 1):
            term *= _term_ratio(numer, denom, z, k)
            total += term
        n_tail = 72
        tail_terms = np.empty(n_tail)
        for j in range(n_tail):
            term *= _term_ratio(numer, denom, z, m0 - 1 + j)
            tail_terms[j] = term
        tail, err = _euler_average(tail_terms)
        value = total + float(tail)
        bound = max(err, abs(value) * 1e-16)
        if bound <= tol:
            return SeriesResult(value, m0 + n_tail, bound)
        # fall through to plain summation if acceleration was not enough

    # Negative parameters make the term ratio spike near k = -param (the
    # terms can decay below tolerance and later hump back up), so stopping
    # is deferred past all sign changes, and the remainder bound uses the
    # worst future ratio |z| (1 + D/k) rather than the current one.
    k_min = int(max(neg)) + 4 if neg else 1
    drift = abs(sum(numer) - sum(denom)) + 1.0
    term = 1.0
    total = 1.0
    ratio = _term_ratio(numer, denom, z, 0)
    k = 0
    while k < cfg.max_terms:
        term *= ratio
        total += term
        k += 1
        ratio = _term_ratio(numer, denom, z, k)
        if k >= k_min and abs(term) <= tol:
            rho = abs(ratio)
            if p == q + 1:
                rho = max(rho, abs(z) * (1.0 + drift / (k + 1.0)))
            rho = min(rho, 0.999)
            bound = abs(term) * rho / (1.0 - rho)
            if bound <= tol:
                return SeriesResult(total, k, bound)
    raise NoConvergence(
        f"series did not reach abs_tol={tol} within {cfg.max_terms} terms"
    )


def gauss_2f1_diag(xi1, xi2, eta1, z) -> SeriesResult:
    """Gauss 2F1(xi1, xi2; eta1; z) for real z < 1, with series diagnostics.

    For -1/2 <= z < 1 the defining series is summed directly; below
    z = -1/2 the argument transformation w = z/(z-1) maps into (1/3, 1)
    first:

        2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; w).
    """
    xi1, xi2, eta1, z = float(xi1), float(xi2), float(eta1), float(z)
    if z >= 1.0:
        raise DomainError(f"2F1 is evaluated only for z < 1 (z={z})")
    if eta1 <= 0.0 and eta1 == math.floor(eta1):
        raise DomainError(f"2F1 undefined for nonpositive integer eta1={eta1}")
    if z < -_TRANSFORM_THRESHOLD:
        w = z / (z - 1.0)
        res = hyp_pfq([xi1, eta1 - xi2], [eta1], w)
        pref = (1.0 - z) ** (-xi1)
        return SeriesResult(pref * res.value, res.terms_used, pref * res.truncation_bound)
    return hyp_pfq([xi1, xi2], [eta1], z)


def gauss_2f1(xi1, xi2, eta1, z) -> float:
    """Value of the analytic continuation of 2F1 at real z < 1."""
    return gauss_2f1_diag(xi1, xi2, eta1, z).value


def digamma(x: float) -> float:
    """Logarithmic derivative of the gamma function, for real x away from
    the poles at nonpositive integers, to absolute error below 1e-13.

    Uses the upward recurrence psi(x+1) = psi(x) + 1/x to shift the argument
    above 10, then the asymptotic expansion in 1/x^2.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"digamma has a pole at {x}")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    # Bernoulli tail: 1/12 - 1/(120 x^2) + 1/(252 x^4) - 1/(240 x^6)
    #                 + 1/(132 x^8) - 691/(32760 x^10)
    tail = inv2 * (
        1.0 / 12.0
        - inv2
        * (
            1.0 / 120.0
            - inv2
            * (
                1.0 / 252.0
                - inv2 * (1.0 / 240.0 - inv2 * (1.0 / 132.0 - inv2 * 691.0 / 32760.0))
            )
        )
    )
    return acc + math.log(x) - 0.5 / x - tail


def digamma_series_oracle(q: float, terms: int = 2_000_000) -> float:
    """Independent test oracle for digamma:

        psi(q+1) = -gamma + sum_{k>=0} q/((k+1)(k+1+q)).

    The raw series converges like 1/K, so the truncated remainder is
    replaced by its Euler-Maclaurin value log(1 + q/(K+1)) + f(K)/2
    (error O(1/K^2) of the half-term, i.e. ~1e-13 at the default K).
    """
    k = np.arange(terms, dtype=float)
    head = float(np.sum(q / ((k + 1.0) * (k + 1.0 + q))))
    kk = float(terms)
    tail = math.log1p(q / (kk + 1.0)) + 0.5 * q / ((kk + 1.0) * (kk + 1.0 + q))
    return -EULER_GAMMA + head + tail


def incomplete_beta(z: float, b: float, one_minus_a: float) -> float:
    """Incomplete beta integral B_z(b, 1-a) = int_0^z t^(b-1) (1-t)^(-a) dt.

    Real-valued; requires b > 0 and |z| < 1.  For z < 0 the integral along
    the real segment is real only when b is an integer (the t^(b-1) factor
    otherwise leaves the real axis), so noninteger b raises DomainError
    there.
    """
    z, b = float(z), float(b)
    a = 1.0 - float(one_minus_a)
    if b <= 0.0:
        raise DomainError("incomplete_beta requires b > 0")
    if abs(z) >= 1.0:
        raise DomainError("incomplete_beta requires |z| < 1")
    if z == 0.0:
        return 0.0
    if z < 0.0:
        if b != math.floor(b):
            raise DomainError(
                "B_z with z < 0 is real-valued only for integer b"
            )
        pref = (-1.0) ** int(b) * abs(z) ** b
    else:
        pref = z**b
    # B_z(b, 1-a) = z^b sum_k (a)_k z^k / (k! (b+k)), ratio -> z
    coef = 1.0  # (a)_k / k!
    total = 1.0 / b
    k = 0
    zk = 1.0
    while k < DEFAULT_CONFIG.max_terms:
        coef *= (a + k) / (k + 1.0)
        zk *= z
        term = coef * zk / (b + k + 1.0)
        total += term
        k += 1
        if abs(term) <= 1e-16 * max(1.0, abs(total)) and abs(z) ** 2 < 1.0:
            bound = abs(term) * abs(z) / (1.0 - abs(z))
            if bound <= 1e-15 * max(1.0, abs(total)):
                return pref * total
    raise NoConvergence("incomplete_beta series stalled")


def log1p_series_partial_sum(q: float, n: int) -> float:
    """Partial sum T_n = sum_{k=1..n} (-1)^(k+1) q^k / k of the log(1+q)
    series; satisfies 0 <= T_n <= q for 0 <= q <= 1."""
    if n < 1:
        raise DomainError("n must be a positive integer")
    k = np.arange(1, n + 1, dtype=float)
    signs = np.where(np.arange(1, n + 1) % 2 == 1, 1.0, -1.0)
    return float(np.sum(signs * np.power(q, k) / k))


def pi_csc_recip(alpha: float) -> float:
    """pi / sin(pi/alpha) with the argument reduced modulo the period in
    extended precision, so accuracy survives large 1/alpha."""
    a = _LD(alpha)
    inv = _LD(1.0) / a
    n = int(np.rint(inv))
    # reduced argument 1/alpha - n computed as (1 - n*alpha)/alpha
    r = (_LD(1.0) - _LD(n) * a) / a
    s = np.sin(_PI_LD * r)
    if n % 2 == 1:
        s = -s
    if s == 0.0:
        raise DomainError(f"sin(pi/alpha) vanishes at alpha={alpha}")
    return float(_PI_LD / s)


@dataclass(frozen=True)
class F21Family:
    """2F1(1, b; b+1; -u) with partial derivatives d/db and d/dz at z=-u.

    Floats for a scalar call, arrays of the broadcast (b, u) shape
    otherwise."""

    value: float | np.ndarray
    d_db: float | np.ndarray
    d_dz: float | np.ndarray


def _reflection_series():
    """Long-double (33, 4) matrix of power-series coefficients: columns 0
    and 1 give c(eps)/eps and c'(eps) in eps^2, where
    c(eps) = pi/sin(pi eps) - 1/eps; columns 2 and 3 give h(x) = expm1(x)/x
    and h'(x) in x.  The series in eps^2 reaches long-double precision for
    |eps| <= 1/2, the one in x for |x| < 1/2."""
    n = 33
    # y/sin y = sum_k d_k y^(2k), the reciprocal of sin(y)/y
    sinc = [Fraction((-1) ** k, math.factorial(2 * k + 1)) for k in range(n + 1)]
    d = [Fraction(1)]
    for k in range(1, n + 1):
        d.append(-sum(sinc[j] * d[k - j] for j in range(1, k + 1)))
    # c(eps) = pi^2 eps sum_{k>=1} d_k (pi eps)^(2k-2)
    cols = (
        [d[k + 1] for k in range(n)],
        [(2 * k + 1) * d[k + 1] for k in range(n)],
        [Fraction(1, math.factorial(k + 1)) if k < 17 else Fraction(0) for k in range(n)],
        [Fraction(k + 1, math.factorial(k + 2)) if k < 17 else Fraction(0) for k in range(n)],
    )
    m = np.array([[_LD(c.numerator) / _LD(c.denominator) for c in col] for col in cols],
                 dtype=_LD).T.copy()
    m[:, :2] *= (_PI_LD * _PI_LD) ** np.arange(1, n + 1)[:, None]
    m.setflags(write=False)
    return m


_REFLECTION_SERIES = _reflection_series()

# Below this u the continuation's alternating series in 1/u converges too
# slowly; Pfaff's series, with ratio below u/(1+u) < 0.56, takes over.
_STAR_MIN_U = 1.25


def hyp2f1_1b(b, u) -> F21Family:
    """Evaluate phi(b, u) = 2F1(1, b; b+1; -u) together with its partials
    for every b > 0 and u >= 0, integer b included.

    b and u are scalars or arrays that broadcast together; all elements are
    evaluated in one vectorized pass, a scalar call being the size-1 case,
    and one invalid element raises for the whole call.

    The same mathematical objects written as hypergeometric series are
    d/dz phi = [b/(1+b)] 2F1(2, 1+b; 2+b; z) and
    d/db phi = [z/(1+b)^2] 3F2(2, 1+b, 1+b; 2+b, 2+b; z); those series only
    converge for |z| < 1.  Below u = 1.25 this routine sums Pfaff's
    transformation of phi (see _family_pfaff); from there on it evaluates
    the exact elementary continuation

        phi(b, -u) = pi b u^(-b)/sin(pi b)
                     - b sum_{m>=0} (-1)^m u^(-(m+1)) / (m+1-b)

    (and its derivatives), with the pole the two pieces share at integer b
    removed analytically (see _family_star).  Both run in extended
    precision, with a number of terms that does not grow with b; the Pfaff
    series is truncated at DEFAULT_CONFIG.abs_tol.
    """
    b_arr = np.asarray(b, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    shape = np.broadcast(b_arr, u_arr).shape
    # broadcast by assignment: np.broadcast_arrays costs as much as a
    # quarter of a two-element call
    bu = np.empty((2,) + shape)
    bu[0], bu[1] = b_arr, u_arr
    bf, uf = bu.reshape(2, -1)
    if not (uf >= 0.0).all():
        raise DomainError("hyp2f1_1b expects u >= 0 (argument z = -u)")
    if not (bf > 0.0).all():
        raise DomainError("hyp2f1_1b expects b > 0")
    star = uf >= _STAR_MIN_U
    if star.all():
        out = _family_star(bf, uf)
    elif not star.any():
        out = _family_pfaff(bf, uf)
    else:
        out = np.empty((3, bf.size))
        out[:, star] = _family_star(bf[star], uf[star])
        out[:, ~star] = _family_pfaff(bf[~star], uf[~star])
    value, d_db, d_dz = out.reshape((3,) + shape)
    if not shape:
        return F21Family(float(value), float(d_db), float(d_dz))
    return F21Family(value, d_db, d_dz)


def _geometric(first, ratio, n, out=None):
    """first * ratio^k for k < n along a new last axis (one row per element
    of ratio), by cumulative product in long double."""
    g = np.empty((ratio.size, n), dtype=_LD) if out is None else out
    g[:, 0] = first
    g[:, 1:] = ratio[:, None]
    return np.cumprod(g, axis=1, out=g)


def _series_sums(make_terms, n_terms, *cols):
    """Sums (3, rows) of the three term rows make_terms(*cols, n) returns,
    each row over its first n_terms[row] terms.  Rows are padded in blocks
    of similar length, so a short row never costs more than twice its own
    terms."""
    out = np.empty((3, n_terms.size), dtype=_LD)
    size_class = np.frexp(n_terms)[1]
    sizes = np.unique(size_class)
    for size in sizes:
        rows = size_class == size if sizes.size > 1 else slice(None)
        n = n_terms[rows]
        terms = make_terms(*(c[rows] for c in cols), int(n.max()))
        terms *= np.arange(terms.shape[-1]) < n[:, None]
        out[:, rows] = terms.sum(axis=-1)
    return out


def _pfaff_terms(b_ld, w, n):
    """For k = 1..n, with c_k = k!/(b+1)_k and g_k = c_k w^(k-1): the terms
    w g_k of 2F1(1, 1; b+1; w) - 1, their b-partials -w g_k H_k
    (H_k = sum_{j<=k} 1/(b+j)), and the terms k g_k of its w-derivative."""
    k = np.arange(1, n + 1, dtype=_LD)
    r = 1 / (b_ld[:, None] + k)  # 1/(b+k)
    terms = np.empty((3, b_ld.size, n), dtype=_LD)
    g = terms[2]
    np.multiply(w[:, None] * k, r, out=g)  # g_k / g_(k-1)
    g[:, 0] = r[:, 0]
    np.cumprod(g, axis=1, out=g)
    np.multiply(g, w[:, None], out=terms[0])
    np.multiply(terms[0], -np.cumsum(r, axis=1), out=terms[1])
    g *= k
    return terms


def _family_pfaff(b, u):
    """Pfaff's transformation for u < _STAR_MIN_U: rows (value, d/db, d/dz).

        phi(b, u) = F(w)/(1+u),  F = 2F1(1, 1; b+1; w),  w = u/(1+u),

    where F = sum_k k!/(b+1)_k w^k has positive terms whose ratio stays
    below w, so log(abs_tol)/log(w) + 6 terms leave a remainder of F
    below abs_tol/10 for any b.  The partials follow from
    d/db (b+1)_k^-1 = -(b+1)_k^-1 H_k and dw/du = (1+u)^-2.
    """
    b_ld = b.astype(_LD)
    u_ld = u.astype(_LD)
    v = 1 / (1 + u_ld)
    w = u_ld * v
    log_w = np.log(np.maximum(u / (1 + u), 1e-300))
    n_terms = np.ceil(math.log(DEFAULT_CONFIG.abs_tol) / log_w) + 6
    F, F_b, F_w = _series_sums(_pfaff_terms, np.maximum(n_terms, 8).astype(int), b_ld, w)
    F += 1
    out = np.empty((3, b.size))
    out[0] = F * v
    out[1] = F_b * v
    out[2] = (F - F_w * v) * v * v
    return out


def _star_terms(b_ld, n_int, inv_u, n):
    """Terms t_m = (-1)^m u^-(m+1)/(m+1-b) of the continuation, their
    b-partials t_m/(m+1-b), and (m+1) t_m (the u-partial times -u), the
    term m + 1 = round(b) left out."""
    m1 = np.arange(1, n + 1, dtype=_LD)  # m + 1
    rd = 1 / np.where(m1 == n_int[:, None], np.inf, m1 - b_ld[:, None])
    terms = np.empty((3, b_ld.size, n), dtype=_LD)
    t = _geometric(inv_u, -inv_u, n, out=terms[0])
    t *= rd
    np.multiply(t, rd, out=terms[1])
    np.multiply(t, m1, out=terms[2])
    return terms


def _family_star(b, u):
    """Continuation in powers of 1/u for u >= _STAR_MIN_U: rows (value,
    d/db, d/dz).

    With N = round(b), eps = b - N and L = log u, the reflection head and
    the series term m = N - 1 share a pole at eps = 0; together they are

        (-1)^N u^(-N) R,  R = b e^(-eps L) c(eps) + b (e^(-eps L) - 1)/eps,

    c(eps) = pi/sin(pi eps) - 1/eps, which is smooth through eps = 0 with
    its b- and L-partials (for N = 0 there is no such series term and the
    second term of R is the head's own b e^(-eps L)/eps = e^(-b L)).  c and
    (e^x - 1)/x near x = 0 come from power series, so nothing cancels; the
    remaining series runs without the m = N - 1 term.  Everything is in
    long double.
    """
    r = b.size
    b_ld = b.astype(_LD)
    inv_u = 1 / u.astype(_LD)
    lu = -np.log(inv_u)
    n_int = np.rint(b_ld)
    eps = b_ld - n_int
    x = -eps * lu
    coef = _REFLECTION_SERIES
    series = np.dot(_geometric(1, np.concatenate([eps * eps, x]), coef.shape[0]), coef)
    c, dc = eps * series[:r, 0], series[:r, 1]
    h, dh = series[r:, 2], series[r:, 3]  # (e^x - 1)/x and its derivative
    e = np.exp(x)  # u^-eps
    far = np.abs(x) >= 0.5
    if far.any():
        xf = x[far]
        h[far] = np.expm1(xf) / xf
        dh[far] = (e[far] - h[far]) / xf
    # b (e^(-eps L) - 1)/eps = -b L h and its b-partial
    bl = b_ld * lu
    q = -bl * h
    q_db = lu * (bl * dh - h)
    at_zero = n_int == 0
    if at_zero.any():  # b < 1/2: the head's own b e^(-eps L)/eps = e^(-b L)
        q[at_zero] = e[at_zero]
        q_db[at_zero] = -lu[at_zero] * e[at_zero]
    be = b_ld * e
    rv = be * c + q
    r_db = e * c * (1 - bl) + be * dc + q_db
    r_dl = -be * (eps * c + 1)
    scale = np.power(-inv_u, n_int)  # (-1)^N u^-N
    n_terms = np.maximum(np.ceil(40.0 / np.log(u)) + 8, 12).astype(int)
    T, Tb, Tm = _series_sums(_star_terms, n_terms, b_ld, n_int, inv_u)
    out = np.empty((3, r))
    out[0] = scale * rv - b_ld * T
    out[1] = scale * r_db - T - b_ld * Tb
    out[2] = -inv_u * (scale * (r_dl - n_int * rv) + b_ld * Tm)
    return out
