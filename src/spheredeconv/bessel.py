"""Bessel functions of the first kind at nonnegative arguments.

Everything downstream (model characteristic functions, contrast values)
reduces to J_p evaluated at arguments x = r * R >= 0, at integer orders.
bessel_rows serves J_0..J_K at many points at once from recurrences alone:
by Miller's backward recurrence (DLMF 10.74(iv)) at 0 < x < max(K, X_HANKEL),
normalised by J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4), and at
x >= max(K, X_HANKEL) by the forward three-term recurrence (DLMF 10.6.1),
stable at orders p < x, from J_0 and J_1 by Hankel's expansion (DLMF
10.17.3).  The order Miller's recurrence starts from, negligible_order, also
truncates the empirical characteristic function's Jacobi-Anger sums.
h_func, the ball-average kernel, takes the half-integer orders of odd d from
scipy.special.jv, imported when it is called.
"""

from __future__ import annotations

import math

import numpy as np


# Miller's recurrence runs from J_{n+1} = 0, J_n = 1 at n = max(K + 1,
# negligible_order(x)).  Measured against 40-digit values at x < K <= 64,
# a start at n - 1 already reaches roundoff, and one at n - 2 stays within
# 4e-16.  Where the values could pass exp(_LOG_RANGE), n drops to the last
# order within it: there J_n(x) < exp(-_LOG_RANGE), and the rows above n are
# zero to that size.  Points below _X_FLOOR, where J_2 < 1.3e-281, are
# computed at it.
_LOG_RANGE = 650.0
_X_FLOOR = 1e-140
_SMALLEST_POSITIVE = 5e-324
# Hankel's expansion J_nu(x) = sqrt(2 / (pi x)) (P cos w - Q sin w),
# w = x - nu pi / 2 - pi / 4, with P = sum_k (-1)^k a_2k(nu) / x^2k and
# Q = sum_k (-1)^k a_2k+1(nu) / x^(2k+1), a_k(nu) = prod_{j <= k}
# (4 nu^2 - (2j - 1)^2) / (k! 8^k) (DLMF 10.17.1-3), in _HANKEL_TERMS terms
# each at every x >= X_HANKEL: the first term left out, which bounds the
# remainder (DLMF 10.17(iii)), is below 4.3e-18 at x = X_HANKEL.
X_HANKEL = 25.0
_HANKEL_TERMS = 10


# the coefficients (-1)^floor(k/2) a_k of P and of Q of J_0, then of J_1, in
# powers of 1 / x^2, highest first (for Horner's rule), Q's without its 1 / x
_HANKEL = np.array([
    [(-1) ** (k // 2) * math.prod(4 * nu * nu - (2 * j - 1) ** 2 for j in range(1, k + 1)) / (math.factorial(k) * 8**k)
     for k in range(2 * _HANKEL_TERMS - 2 + odd, -1, -2)]
    for nu in (0, 1) for odd in (0, 1)
])


def negligible_order(x):
    """ceil(x + 10 x^(1/3)) + 4 at x > 0 and 0 at x = 0: the order n past
    which the orders p > n of J_p(x) are negligible.  It starts Miller's
    recurrence, and it truncates the Jacobi-Anger expansion
    exp(i x cos a) = J_0(x) + 2 sum_{p>=1} i^p J_p(x) cos(p a) (DLMF 10.12.2),
    whose tail 2 sum_{p>n} |J_p(x)| it leaves is below 1e-17 at 0 <= x <= 30.
    """
    return np.where(x > 0.0, np.ceil(x + 10.0 * np.cbrt(x)) + 4.0, 0.0)


def _miller_rows(top: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_top (rows) at the ascending points x > 0 (columns) by backward
    recurrence, normalised by J_0 + 2 sum_k J_2k = 1.

    Each point starts at its own order n: when the pass reaches n, J_n is
    set to 1 at the points that start there, whose J_{n+1} is still zero.
    n does not fall as x grows, so those points are a slice of the columns,
    and one pass of four ufunc calls per order serves every start, with the
    Neumann sum running from the highest order down.  A point's rows
    depend on its x alone, and its values stay below
    prod_{q <= n} (1 + 2q / x), the bound n is held to.
    """
    if x[0] < _X_FLOOR:
        x = np.maximum(x, _X_FLOOR)
    start = np.maximum(top + 1.0, negligible_order(x)).astype(np.intp)
    n_max = int(start[-1])
    if n_max * (math.log(2.0 * n_max + x[0]) - math.log(x[0])) > _LOG_RANGE:
        # sum_{q <= n} log(1 + 2q / x), each term as logaddexp(0, log 2q - log x)
        orders = np.arange(1.0, n_max + 1.0)[:, None]
        growth = np.cumsum(np.logaddexp(0.0, np.log(2.0 * orders) - np.log(x)), axis=0)
        start = np.minimum(start, np.count_nonzero(growth <= _LOG_RANGE, axis=0))
    first = np.searchsorted(start, np.arange(n_max + 2)).tolist()  # first column with start >= q
    # the orders past top take turns in three rows; the columns that have not
    # started yet stay zero, as (2q / x) 0 - 0 = 0
    vals, spare, neumann = np.zeros((top + 1, x.size)), np.zeros((3, x.size)), np.zeros(x.size)
    rows = [vals[q] if q <= top else spare[q % 3] for q in range(n_max + 2)]
    for q in range(n_max, 0, -1):
        if first[q] < first[q + 1]:
            rows[q][first[q] : first[q + 1]] = 1.0
        below = np.divide(2.0 * q, x, out=rows[q - 1])
        below *= rows[q]
        below -= rows[q + 1]
        if q % 2 and q > 1:
            neumann += below
    neumann *= 2.0
    neumann += vals[0]
    return np.divide(vals, neumann, out=vals)


def _hankel_j0_j1(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_0 and J_1 at the points x >= X_HANKEL by Hankel's expansion, with
    cos w and sin w from cos x and sin x: at nu = 0, sqrt(2) cos w = cos x + sin x
    and sqrt(2) sin w = sin x - cos x; at nu = 1 those are sin x - cos x and
    -(cos x + sin x)."""
    inv_sq = 1.0 / (x * x)
    series = np.zeros((4, x.size))
    for coefficient in _HANKEL.T:
        series *= inv_sq
        series += coefficient[:, None]
    p0, q0, p1, q1 = series
    q0 /= x
    q1 /= x
    cos, sin = np.cos(x), np.sin(x)
    plus, minus = cos + sin, sin - cos
    scale = 1.0 / np.sqrt(np.pi * x)
    return scale * (p0 * plus - q0 * minus), scale * (p1 * minus + q1 * plus)


def bessel_rows(k_cut: int, x: np.ndarray) -> np.ndarray:
    """J_p(x) for p = 0..max(k_cut, 1) (rows) at the points x >= 0 (columns).

    The points are taken in ascending order.  Rows 1.. are zero at x = 0,
    come from _miller_rows at 0 < x < max(k_cut, 1, X_HANKEL), and at
    larger x follow J_{p+1} = (2p / x) J_p - J_{p-1} from Hankel's J_0 and
    J_1: the forward recurrence then only runs at orders p < x, where it is
    stable.  Each column depends on its own x alone.
    """
    top = max(int(k_cut), 1)
    order = np.argsort(x, kind="stable")
    ascending = x[order]
    rows = np.zeros((top + 1, x.size))
    # the first positive point and the first the forward recurrence takes
    lo, hi = np.searchsorted(ascending, (_SMALLEST_POSITIVE, max(top, X_HANKEL))).tolist()
    rows[0, :lo] = 1.0
    if lo < hi:
        rows[:, lo:hi] = _miller_rows(top, ascending[lo:hi])
    if hi < x.size:
        far, two_over_x = list(rows[:, hi:]), 2.0 / ascending[hi:]
        far[0][:], far[1][:] = _hankel_j0_j1(ascending[hi:])
        for p in range(1, top):
            np.multiply(two_over_x, p * far[p], out=far[p + 1])
            far[p + 1] -= far[p - 1]
    out = np.empty_like(rows)
    out[:, order] = rows
    return out


def h_func(d: int, x):
    """H(x) = J_{d/2}(x) / x^{d/2}, extended by continuity to H(0).

    H(0) = 1 / (2^{d/2} Gamma(d/2 + 1)), and 2^{d/2} Gamma(d/2 + 1) H(|t|)
    is the mean of exp(i <t, y>) over the unit ball in R^d: 2 J_1(x) / x
    (d = 2), 3 (sin x - x cos x) / x^3 (d = 3).
    """
    from scipy.special import jv

    if int(d) != d or d < 2:
        raise ValueError("d must be an integer >= 2")
    half_d = 0.5 * d
    x_arr = np.asarray(x, dtype=float)
    if not np.all((0.0 <= x_arr) & (x_arr < math.inf)):
        raise ValueError("x must be finite and nonnegative")
    out = np.full(x_arr.shape, 1.0 / (2.0**half_d * math.gamma(half_d + 1.0)))
    np.divide(jv(half_d, x_arr), x_arr**half_d, out=out, where=x_arr > 0.0)
    return float(out) if x_arr.ndim == 0 else out
