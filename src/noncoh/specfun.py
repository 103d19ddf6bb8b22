"""Real-argument special functions used by the closed-form expressions.

The family phi(b, u) = 2F1(1, b; b+1; -u) has one set of float64 series
and formulas, valid for every finite b >= 1 and u >= 0, behind two entry
points: hyp2f1_1b_value, a scalar plain-float value with series
diagnostics, behind every J, I(X;Y) and fixed-x2 dI/da2, and hyp2f1_1b,
the value with its b-partial for arrays of (b, u) through one vectorized
code path, behind the capacity-mode dI/da2.  Beside it sit the scalar
generalized series pFq with truncation diagnostics, its terms formed and
summed in numpy blocks with the bits of a one-term-at-a-time loop, and the
Gauss 2F1 on the real axis left of z = 1, on which only noncoh.reference
sums its forms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, NoConvergence

# Truncation of hyp_pfq (and so gauss_2f1): the target for the absolute
# remainder and the cap on summed terms.
ABS_TOL = 1e-14
MAX_TERMS = 10**7

# hyp_pfq forms its terms in blocks of at most this many (see _pfq_block)
_PFQ_BLOCK_MAX = 2**12

# gauss_2f1 maps z below -_TRANSFORM_THRESHOLD to z/(z-1) before summing.
_TRANSFORM_THRESHOLD = 0.5


@dataclass(frozen=True)
class SeriesResult:
    """Partial-sum value plus truncation diagnostics."""

    value: float
    terms_used: int
    truncation_bound: float


@functools.lru_cache(maxsize=8)
def _euler_weights(n: int) -> np.ndarray:
    """(n, n) matrix whose row L maps n partial sums to the last entry of
    their L-th iterated pairwise average: weights 2^-L C(L, j) on the last
    L+1 columns, built by halving Pascal's rule."""
    w = np.zeros((n, n))
    row = np.ones(1)
    w[0, -1] = 1.0
    for level in range(1, n):
        row = 0.5 * (np.append(row, 0.0) + np.append(0.0, row))
        w[level, n - 1 - level:] = row
    w.setflags(write=False)
    return w


def _euler_average(terms):
    """Sum an (eventually) alternating 1-D tail by iterated pairwise
    averaging of its partial sums.

    Every averaging level is formed at once and the first level with the
    smallest change from the level before it is kept (level 0 is judged by
    the size of the last term).  Returns (value, error_estimate)."""
    levels = _euler_weights(terms.size) @ np.cumsum(terms)
    err = np.abs(np.append(terms[-1], np.diff(levels)))
    pick = err.argmin()
    return float(levels[pick]), float(err[pick])


def _pfq_block(numer, denom, z, k0, n, term, total):
    """Term ratios r_k = z/(k+1) prod(xi+k) / prod(eta+k), k = k0..k0+n-1,
    each in one scalar ratio's order of operations; the terms t_k0..t_k0+n
    from t_k0 = term, multiplied left to right; and the partial sums from
    total, added left to right.  Past the caller's stop they may overflow or
    turn NaN, as Python floats do, with no warning."""
    k = np.arange(k0, k0 + n, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        r = z / (k + 1.0)
        for a in numer:
            r *= a + k
        for b in denom:
            r /= b + k
        t = np.empty(n + 1)
        t[0] = term
        t[1:] = r
        np.multiply.accumulate(t, out=t)
        s = t.copy()
        s[0] = total
        return r, t, np.add.accumulate(s, out=s)


def hyp_pfq(numer, denom, z) -> SeriesResult:
    """Generalized hypergeometric series sum_k [prod (xi)_k / prod (eta)_k] z^k / k!.

    The terms come in numpy blocks (_pfq_block), the first as long as the
    series' own estimate k_min + log(ABS_TOL)/log|z| of its length, each
    next one twice as long up to _PFQ_BLOCK_MAX.  Partial sums accumulate
    left to right and the stopping test runs elementwise on the terms with
    |t_k| <= ABS_TOL, so value, terms_used and truncation_bound are those of
    summing one term at a time.

    Raises DomainError for a NaN or infinite z or parameter, or when a
    denominator parameter is a nonpositive integer reached before
    truncation, DivergenceError outside the convergence region, and
    NoConvergence when MAX_TERMS terms leave it above ABS_TOL.
    """
    numer = [float(a) for a in numer]
    denom = [float(b) for b in denom]
    z = float(z)
    if not all(map(math.isfinite, [*numer, *denom, z])):
        raise DomainError(f"pFq needs finite parameters and z (numer={numer}, "
                          f"denom={denom}, z={z})")
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
    # eta + k is 0 only at k = -eta (a float sum vanishes only for exact
    # negatives), before k_min below, so no stopping test comes first: a pole
    # within MAX_TERMS is met, and the sums below never reach one.
    pole = max((b for b in denom if b <= 0.0 and b.is_integer()), default=-math.inf)
    if -pole <= max(MAX_TERMS, 0):
        raise DomainError(f"denominator parameter {pole} hits a pole at term k={int(-pole)}")

    tol = ABS_TOL

    # Near z = -1 with p = q + 1 the terms decay like a power of k and plain
    # summation stalls; sum a head directly and accelerate the alternating
    # tail by iterated term pairing.
    neg = [-c for c in numer + denom if c < 0.0]
    m0 = int(max(48.0, (max(neg) if neg else 0.0) + 16.0))
    n_tail = 72
    if p == q + 1 and z < 0.0 and abs(z) >= 0.9 and MAX_TERMS >= m0 + n_tail:
        _, t, s = _pfq_block(numer, denom, z, 0, m0 + n_tail - 1, 1.0, 1.0)
        tail, err = _euler_average(t[m0:])
        value = float(s[m0 - 1]) + tail
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
    # the first block ends where |z|^k past k_min falls to tol
    az = abs(z)
    n = _PFQ_BLOCK_MAX
    if az < 1.0:
        n = min(k_min + math.ceil(math.log(tol) / math.log(az)) if az else k_min, n)
    term, total, k = 1.0, 1.0, 0
    while k < MAX_TERMS:
        n = min(n, MAX_TERMS - k)
        # the test at term k + j, j = 1..n, reads t[j], the ratio r[j] and
        # the partial sum s[j]
        r, t, s = _pfq_block(numer, denom, z, k, n + 1, term, total)
        lo = max(k_min - k, 1)
        cand = lo + (np.abs(t[lo:n + 1]) <= tol).nonzero()[0]
        if cand.size:
            rho = np.abs(r[cand])
            # at z = 0 worst is 0, or NaN for an infinite drift, and
            # max(rho, worst) is rho either way
            if p == q + 1 and az:
                worst = az * (1.0 + drift / ((k + 1.0) + cand))
                np.copyto(rho, worst, where=worst > rho)
            np.minimum(rho, 0.999, out=rho)
            bound = np.abs(t[cand]) * rho / (1.0 - rho)
            (hit,) = (bound <= tol).nonzero()
            if hit.size:
                j = int(cand[hit[0]])
                return SeriesResult(float(s[j]), k + j, float(bound[hit[0]]))
        term, total = t[n], s[n]
        k += n
        n = min(2 * n, _PFQ_BLOCK_MAX)
    raise NoConvergence(
        f"series did not reach abs_tol={tol} within {MAX_TERMS} terms"
    )


def gauss_2f1_diag(xi1, xi2, eta1, z) -> SeriesResult:
    """Gauss 2F1(xi1, xi2; eta1; z) for real z < 1, with series diagnostics.

    For -1/2 <= z < 1 the defining series is summed directly; below
    z = -1/2 the argument transformation w = z/(z-1) maps into (1/3, 1)
    first:

        2F1(a, b; c; z) = (1-z)^(-a) 2F1(a, c-b; c; w).
    """
    xi1, xi2, eta1, z = float(xi1), float(xi2), float(eta1), float(z)
    if not -math.inf < z < 1.0:
        raise DomainError(f"2F1 is evaluated only for finite z < 1 (z={z})")
    if eta1 <= 0.0 and eta1.is_integer():
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


@dataclass(frozen=True)
class F21Family:
    """2F1(1, b; b+1; -u) with its partial derivative d/db: arrays of the
    broadcast (b, u) shape, np.float64 (a float) for a scalar call."""

    value: float | np.ndarray
    d_db: float | np.ndarray


# Below this u the continuation's alternating series in 1/u converges too
# slowly; Pfaff's series, with ratio below u/(1+u) < 0.56, takes over.
_STAR_MIN_U = 1.25

# zeta(2k) for k = 1..33, each the double nearest its exact value and the
# value of scipy.special.zeta (the tests check both), pinned here so that
# the value path imports no scipy
_ZETA_EVEN = (
    1.6449340668482264, 1.0823232337111381, 1.0173430619844492,
    1.0040773561979444, 1.000994575127818, 1.000246086553308,
    1.0000612481350588, 1.0000152822594086, 1.000003817293265,
    1.0000009539620338, 1.0000002384505027, 1.000000059608189,
    1.0000000149015549, 1.000000003725334, 1.0000000009313275,
    1.000000000232831, 1.0000000000582077, 1.000000000014552,
    1.000000000003638, 1.0000000000009095, 1.0000000000002274,
    1.0000000000000568, 1.0000000000000142, 1.0000000000000036,
    1.0000000000000009, 1.0000000000000002,
    1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0,  # k = 27..33
)

# c(eps) = pi/sin(pi eps) - 1/eps = sum_{k>=1} m_k eps^(2k-1) with
# m_k = 2 (1 - 2^(1-2k)) zeta(2k), to double precision for |eps| <= 1/2;
# the m_k highest first, for Horner's rule
_PI_CSC_SERIES = tuple(
    2.0 * (1.0 - 2.0 ** (1 - 2 * k)) * _ZETA_EVEN[k - 1] for k in range(33, 0, -1)
)
# the head of the continuation (see _family_star) as coefficient rows (33,
# 3, 1), lowest first: m_k and (2k-1) m_k of eps^(2k-2) in c(eps)/eps and
# c'(eps), and (k+1)/(k+2)! of x^k (k < 17, to double precision for
# |x| < 1/2; zeros after) in h'(x) for h(x) = expm1(x)/x
_HEAD_SERIES = np.array([(m, (2 * k + 1) * m, (k + 1) / math.factorial(k + 2) * (k < 17))
                         for k, m in enumerate(_PI_CSC_SERIES[::-1])])[..., None]

# Rows 17..32 of the head's table of powers are row 16 times rows 1..16 (see
# _family_star).  Where row 16 is below this they would fall below the
# normal floats, whose slow arithmetic took a sixth of the time of the
# sweep scan's continuation block.  There they are under 2^-540, against 1
# in row 0, and do not move the head's sums (the tests hold this bit for
# bit), so they count as zero.
_HEAD_FLUSH = 2.0**-511

# the smallest valid b and u of hyp2f1_1b, as a column
_BU_MIN = np.array([[1.0], [0.0]])

# 0-d arrays of the constants that the array kernel combines with its
# arrays: numpy converts a Python float operand anew on every call, at about
# 0.2 us, as much as the arithmetic of a short block
_ZERO, _HALF, _ONE, _TWO, _INF = (np.array(v) for v in (0.0, 0.5, 1.0, 2.0, math.inf))

# hyp2f1_1b evaluates its rows in blocks whose padded series terms (rows
# times the block's largest term count) stay below this, so its memory is
# bounded by the terms it sums, not by its number of rows
_BLOCK_TERMS = 2**14

# Pfaff's series stops at the first term t_k with t_k u (k+3) below this
# times t_1, which bounds the remainders of the value and of its b-partial
# both relative to the sum (see _family_pfaff)
_PFAFF_REL_TOL = 2.0**-56


def pi_csc_minus_recip(eps: float) -> float:
    """c(eps) = pi/sin(pi eps) - 1/eps for |eps| <= 1/2, from its power
    series, so nothing cancels next to eps = 0."""
    eps2 = eps * eps
    c = 0.0
    for m in _PI_CSC_SERIES:
        c = c * eps2 + m
    return eps * c


def _star_count(log_u):
    """Terms of the continuation's series in 1/u at log u = log_u (float or
    array): 8 past the point where u^-(m+1) falls below e^-40."""
    return 8.0 - (-40.0 // log_u)


def hyp2f1_1b_value(b: float, u: float) -> SeriesResult:
    """phi(b, u) = 2F1(1, b; b+1; -u) alone, for scalar finite b >= 1 and
    u >= 0, integer b included, in plain floats, with the number of series
    terms summed and a bound on the truncated remainder.

    The series are those of hyp2f1_1b; the continuation's term count
    (_star_count) is shared, Pfaff's stopping rule is not.  Below u = 1.25,
    Pfaff's phi = F(w)/(1+u), F = sum_k k!/(b+1)_k w^k, w = u/(1+u): its
    terms are positive with ratio below w, so the remainder after the term
    t_k is at most t_k w/(1-w).  This sum stops at the first t_k that meets
    _family_pfaff's test, where hyp2f1_1b sums the _pfaff_count terms it
    fixes ahead, more of them (36 against 46 at b = 2, u = 0.5).  From there
    on, _star_count terms of the continuation in powers of 1/u with the
    integer-b pole removed (see _family_star); its terms past m + 1 = b
    alternate with falling size, so the remainder is at most the first
    omitted term, and before that each term is at most 2b u^-(m+1).
    Both sums go through math.fsum, which rounds each sum once; on the
    tested grids the value is within 4 ulps of exact past its bound.
    """
    b, u = float(b), float(u)
    if not 1.0 <= b < math.inf:
        raise DomainError(f"hyp2f1_1b_value expects finite b >= 1 (b={b})")
    if not 0.0 <= u < math.inf:
        raise DomainError(f"hyp2f1_1b_value expects finite u >= 0 (u={u})")
    if u < _STAR_MIN_U:
        w = u / (1.0 + u)
        stop = _PFAFF_REL_TOL * w / (b + 1.0)  # times t_1
        terms = [1.0]
        term = 1.0
        k = 0
        # w/(1-w) = u
        while term * u * (k + 3) > stop:
            k += 1
            term *= k * w / (b + k)
            terms.append(term)
        return SeriesResult(math.fsum(terms) / (1.0 + u), k + 1, term * w)
    inv_u = 1.0 / u
    log_u = math.log(u)
    n_int = math.floor(b + 0.5)
    eps = b - n_int
    x = -eps * log_u
    e = u**-eps
    q = -b * log_u * (math.expm1(x) / x if x != 0.0 else 1.0)  # b (e^(-eps L) - 1)/eps
    head = (-inv_u) ** n_int * (b * e * pi_csc_minus_recip(eps) + q)
    n_terms = int(_star_count(log_u))
    t = inv_u  # (-1)^m u^-(m+1)
    terms = []
    for m1 in range(1, n_terms + 1):  # m + 1
        if m1 != n_int:
            terms.append(t / (m1 - b))
        t *= -inv_u
    series = math.fsum(terms)
    if n_terms >= n_int:
        bound = b * abs(t) / (n_terms + 1 - b)
    else:
        bound = 2.0 * b * abs(t) / (1.0 - inv_u)
    return SeriesResult(head - b * series, n_terms, bound)


def hyp2f1_1b(b, u) -> F21Family:
    """Evaluate phi(b, u) = 2F1(1, b; b+1; -u) together with its b-partial
    for every finite b >= 1 and finite u >= 0, integer b included.

    b and u are scalars or arrays that broadcast together, a scalar call
    being the size-1 case, and one invalid element raises DomainError for
    the whole call.  Each element is one row with a family (the series it
    sums) and a term count, and the rows are evaluated in vectorized
    single-family blocks of at most _BLOCK_TERMS padded terms, each a run of
    the family's rows in row order (see _row_blocks).  A block lays its
    terms out as (2, terms, rows), a table of the value's terms and one of
    the b-partial's, zero past each row's count, and one reduction over the
    term axis (_series_sums) sums them smallest first, one term at a time,
    so a row's sums do not depend on its block.  A scalar call gives
    np.float64 values.

    As a hypergeometric series the b-partial is
    d/db phi = [z/(1+b)^2] 3F2(2, 1+b, 1+b; 2+b, 2+b; z), which only
    converges for |z| < 1.  Below u = 1.25 this routine sums Pfaff's
    transformation of phi (see _family_pfaff); from there on it evaluates
    the exact elementary continuation

        phi(b, -u) = pi b u^(-b)/sin(pi b)
                     - b sum_{m>=0} (-1)^m u^(-(m+1)) / (m+1-b)

    (and its b-partial), with the pole the two pieces share at integer b
    removed analytically (see _family_star): the series and formulas of
    hyp2f1_1b_value in float64 arrays, with term counts not growing with b.
    """
    shape = np.broadcast(b, u).shape
    # broadcast by assignment: np.broadcast_arrays costs as much as a
    # quarter of a two-element call
    bu = np.empty((2,) + shape)
    bu[0], bu[1] = b, u
    bu = bu.reshape(2, -1)
    bf, uf = bu[0], bu[1]
    # one test of both, which NaN fails
    valid = (bu >= _BU_MIN) & (bu < _INF)
    if np.count_nonzero(valid) < valid.size:
        if not ((1.0 <= bf) & (bf < math.inf)).all():
            raise DomainError("hyp2f1_1b expects finite b >= 1")
        raise DomainError("hyp2f1_1b expects finite u >= 0 (argument z = -u)")
    out = np.empty((2, bf.size))
    for family, rows, counts, extra in _row_blocks(uf >= _STAR_MIN_U, uf):
        out[:, rows] = family(bf[rows], uf[rows], counts, *extra)
    out = out.reshape((2,) + shape)
    return F21Family(out[0], out[1])


def _row_blocks(star, u):
    """The blocks of one hyp2f1_1b call: (family, rows, counts, extra) with
    the rows of one family (an index array, or a slice when the family
    holds every row), their term counts (floats) and the family's further
    arguments: the block's largest count and what the counts were taken
    from (the continuation's log u; nothing more for Pfaff's).  Each
    family's rows stay in row order, cut into the longest runs whose rows
    times their running largest count fit _BLOCK_TERMS, one row at least."""
    n_star = np.count_nonzero(star)
    for family, is_star, n in ((_family_pfaff, False, star.size - n_star),
                               (_family_star, True, n_star)):
        if not n:
            continue
        every = n == star.size
        rows = slice(None) if every else np.flatnonzero(star == is_star)
        ur = u[rows]
        if is_star:
            log_u = np.log(ur)
            counts, extra = _star_count(log_u), (log_u,)
        else:
            counts, extra = _pfaff_count(ur), ()
        top = int(counts.max())
        if n * top <= _BLOCK_TERMS:  # one run holds them all
            yield family, slice(0, n) if every else rows, counts, (top, *extra)
            continue
        start = 0
        while start < n:
            # a run holds at most _BLOCK_TERMS // counts[start] rows
            stop = min(n, start + _BLOCK_TERMS // int(counts[start]))
            padded = (np.arange(1, stop - start + 1)
                      * np.maximum.accumulate(counts[start:stop]))
            end = start + max(1, int(np.searchsorted(padded, _BLOCK_TERMS, side="right")))
            run = slice(start, end)
            yield (family, run if every else rows[run], counts[run],
                   (int(counts[run].max()), *(a[run] for a in extra)))
            start = end


def _sums(terms):
    """Sums of terms (n, k, cols) over axis 0, last term first, one at a
    time: numpy reduces a leading axis by adding whole rows in order when
    they hold two elements or more (k >= 2), a single column pairwise."""
    return np.add.reduce(terms[::-1], axis=0)


def _series_sums(terms):
    """Sums of a block's series terms (2, n, cols), the value's and the
    b-partial's, over the term axis, last term first, one at a time.  numpy
    adds the rows of that axis in order where they hold two elements or
    more, but a single column it sums pairwise, so a one-row block's terms
    are summed as a (n, 2, 1) copy (see _sums).  Each table is contiguous,
    which the elementwise work on it needs: on a (terms, 2, rows) layout
    numpy steps through one term's row at a time."""
    if terms.shape[2] == 1:
        return _sums(terms.transpose(1, 0, 2).copy())
    return np.add.reduce(terms[:, ::-1], axis=1)


@functools.lru_cache(maxsize=256)  # a block has at most 188 terms
def _term_index(n):
    """The column 1, 2, ..., n of term indices (floats), read-only."""
    k = np.arange(1.0, n + 1.0)[:, None]
    k.setflags(write=False)
    return k


def _pfaff_terms(b, w, n_terms, n):
    """Rows k = 1..n (n = max(n_terms)) of the terms c_k w^k,
    c_k = k!/(b+1)_k, of 2F1(1, 1; b+1; w) - 1 and of their b-partials
    -c_k w^k H_k (H_k = sum_{j<=k} 1/(b+j)), (2, terms, rows), zero past
    each row's count, by cumulative products and sums down the columns."""
    k = _term_index(n)
    r = np.divide(-1.0, b + k)  # -1/(b+k)
    terms = np.empty((2, n, b.size))
    t = np.multiply(k * -w, r, out=terms[0])  # t_k / t_(k-1)
    short = n_terms < n  # zero ratios end these columns' products
    t[n_terms[short].astype(np.intp), short] = 0.0
    np.multiply.accumulate(t, out=t)
    np.multiply(t, np.add.accumulate(r, out=r), out=terms[1])
    return terms


def _pfaff_count(u):
    """Terms of Pfaff's series (see _family_pfaff) at u < _STAR_MIN_U
    (array): t_k/t_1 <= w^(k-1) gives log(tol)/log(w) + 10."""
    w = u * (1.0 / (1.0 + u))
    return np.ceil(math.log(_PFAFF_REL_TOL) / np.log(np.maximum(w, 1e-300))) + 10


def _family_pfaff(b, u, n_terms, n):
    """Pfaff's transformation for u < _STAR_MIN_U: (value, d/db) of one
    block, each row summing its n_terms (_pfaff_count), n at most.

        phi(b, u) = F(w)/(1+u),  F = 2F1(1, 1; b+1; w),  w = u/(1+u),

    where F = sum_k t_k, t_k = k!/(b+1)_k w^k, has positive terms whose
    ratio stays below w.  The b-partial F_b = -sum_k t_k H_k follows from
    d/db (b+1)_k^-1 = -(b+1)_k^-1 H_k, and H_j <= j/(b+1).  So past t_k the
    remainder of F is at most t_k w/(1-w) = t_k u, and that of F_b at most
    t_k u (k+1+u)/(b+1), against F >= 1 and |F_b| >= t_1/(b+1): once
    t_k u (k+3) <= tol t_1 (tol = _PFAFF_REL_TOL) both are below tol
    relative.  hyp2f1_1b_value tests this on its terms; hyp2f1_1b takes
    the count ahead from _pfaff_count.
    """
    v = np.reciprocal(u + _ONE)
    out = _series_sums(_pfaff_terms(b, u * v, n_terms, n))
    out[0] += _ONE
    out *= v
    return out


def _star_terms(b, n_int, inv_u, n_terms, n):
    """Rows m + 1 = 1..n (n = max(n_terms)) of the terms
    t_m = (-1)^m u^-(m+1)/(m+1-b) of the continuation and of the b-partials
    (m+1) t_m/(m+1-b) of b t_m, (2, terms, rows), zero at m + 1 = round(b)
    and past each row's count; the powers of -1/u are cumulative products
    down the columns."""
    m1 = _term_index(n)  # m + 1
    rd = m1 - b
    np.copyto(rd, _INF, where=m1 == n_int)  # the pole term, taken into the head
    np.reciprocal(rd, out=rd)
    terms = np.empty((2, n, b.size))
    t = terms[0]
    t[0], t[1:] = inv_u, -inv_u
    short = n_terms < n  # zero ratios end these columns' products
    t[n_terms[short].astype(np.intp), short] = 0.0
    np.multiply.accumulate(t, out=t)
    t *= rd
    np.multiply(t, np.multiply(rd, m1, out=rd), out=terms[1])
    return terms


def _family_star(b, u, n_terms, n, log_u):
    """Continuation in powers of 1/u for u >= _STAR_MIN_U: (value, d/db) of
    one block as a (2, rows) array, each row summing its n_terms
    (_star_count of log_u = log u), n at most.

    With N = round(b), eps = b - N and L = log u, the reflection head and
    the series term m = N - 1 share a pole at eps = 0; together they are

        (-1)^N u^(-N) R,  R = b e^(-eps L) c(eps) + b (e^(-eps L) - 1)/eps,

    c(eps) = pi/sin(pi eps) - 1/eps, smooth through eps = 0 with its
    b-partial (b >= 1, so N >= 1), and the second term of R is -b L h(x),
    h(x) = expm1(x)/x at x = -eps L.  c, c' and, for |x| < 1/2, h' are
    power series, summed like the terms from one table of powers (33, 3,
    rows), so nothing cancels.  The b-partial of b sum_m t_m is
    sum_m (m+1) t_m/(m+1-b), not a difference of sums ~ 1/b.
    """
    inv_u = np.reciprocal(u)
    n_int = np.floor(b + _HALF)
    eps = b - n_int
    x = -eps * log_u
    e = np.exp(x)  # u^-eps
    h = np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != _ZERO)
    p = np.empty((len(_HEAD_SERIES), 3, b.size))  # eps^(2k) twice, x^k
    p[0], p[1, :2], p[1, 2] = 1.0, eps * eps, x
    for j in (1, 2, 4, 8):  # rows j+1..2j: rows 1..j times row j
        np.multiply(p[1:j + 1], p[j], out=p[j + 1:2 * j + 1])
    # rows 17..32 likewise, with row 16 taken as zero where it is below
    # _HEAD_FLUSH (x's rows there have zero coefficients)
    np.multiply(p[1:17], np.where(p[16] < _HEAD_FLUSH, _ZERO, p[16]), out=p[17:])
    c, dc, dh = _sums(np.multiply(p, _HEAD_SERIES, out=p))
    c *= eps
    np.divide(e - h, x, out=dh, where=np.abs(x) >= _HALF)
    # b (e^(-eps L) - 1)/eps = -b L h, as -q, and its b-partial
    bl = b * log_u
    q = bl * h
    q_db = log_u * (bl * dh - h)
    be = b * e
    # R and its b-partial, times (-1)^N u^-N (numpy's power is much slower
    # at a negative base), less b sum_m t_m and its b-partial
    out = np.empty((2, b.size))
    np.subtract(be * c, q, out=out[0])
    np.add(e * c * (_ONE - bl) + be * dc, q_db, out=out[1])
    out *= np.copysign(np.power(inv_u, n_int), _HALF - np.fmod(n_int, _TWO))
    ts = _series_sums(_star_terms(b, n_int, inv_u, n_terms, n))
    ts[0] *= b
    out -= ts
    return out
