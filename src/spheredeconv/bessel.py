"""Bessel functions of the first kind at nonnegative arguments, over scipy.special.

Everything downstream (model characteristic functions, contrast values)
reduces to J_alpha evaluated at arguments x = r * R >= 0.  The
public functions wrap scipy.special.jv.  The closed form's hot path asks
for J_0..J_K at many points at once, which bessel_rows serves without jv:
J_0 and J_1 from scipy.special.j0 and j1, higher orders by the forward
three-term recurrence (DLMF 10.6.1) wherever x >= K, where it is stable
(DLMF 10.74(iv)), and by Miller's backward recurrence at the points
0 < x < K, normalised by J_0 + 2 sum_k J_2k = 1 (DLMF 10.12.4).  The
order that recurrence starts from, negligible_order, also truncates the
empirical characteristic function's Jacobi-Anger sums.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0, j1, jv


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


def negligible_order(x):
    """ceil(x + 10 x^(1/3)) + 4 at x > 0 and 0 at x = 0: the order n past
    which the orders p > n of J_p(x) are negligible.  It starts Miller's
    recurrence, and it truncates the Jacobi-Anger expansion
    exp(i x cos a) = J_0(x) + 2 sum_{p>=1} i^p J_p(x) cos(p a) (DLMF 10.12.2),
    whose tail 2 sum_{p>n} |J_p(x)| it leaves is below 1e-17 at 0 <= x <= 30.
    """
    return np.where(x > 0.0, np.ceil(x + 10.0 * np.cbrt(x)) + 4.0, 0.0)


def _miller_rows(top: int, x: np.ndarray) -> np.ndarray:
    """J_0..J_top (rows) at the ascending points 0 < x < top (columns) by
    backward recurrence, normalised by J_0 + 2 sum_k J_2k = 1.

    Each point starts at its own order n: when the pass reaches n, J_n is
    set to 1 at the points that start there, whose J_{n+1} is still zero.
    n does not fall as x grows, so those points are a slice of the columns,
    and one pass of two ufunc calls per order serves every start.  A point's
    rows depend on its x alone, and its values stay below
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
    coef = np.divide.outer(np.arange(0.0, 2.0 * n_max + 1.0, 2.0), x)  # coef[q] = 2q / x
    vals = np.zeros((n_max + 2, x.size))
    rows, coefs = list(vals), list(coef)
    for q in range(n_max, 0, -1):
        if first[q] < first[q + 1]:
            rows[q][first[q] : first[q + 1]] = 1.0
        np.multiply(coefs[q], rows[q], out=rows[q - 1])
        rows[q - 1] -= rows[q + 1]
    # a running sum, not a reduction, which numpy may pair up differently for one column
    neumann = np.cumsum(vals[2::2], axis=0)[-1]
    neumann *= 2.0
    neumann += vals[0]
    return np.divide(vals[: top + 1], neumann, out=vals[: top + 1])


def bessel_rows(k_cut: int, x: np.ndarray) -> np.ndarray:
    """J_p(x) for p = 0..max(k_cut, 1) (rows) at the points x >= 0 (columns).

    The points are taken in ascending order.  Rows 2.. are zero at x = 0,
    come from _miller_rows at 0 < x < max(k_cut, 1), and follow
    J_{p+1} = (2p / x) J_p - J_{p-1} at x >= max(k_cut, 1): the forward
    recurrence then only runs at orders p < x, where it is stable.  Each
    column depends on its own x alone.
    """
    top = max(int(k_cut), 1)
    order = np.argsort(x, kind="stable")
    ascending = x[order]
    rows = np.empty((top + 1, x.size))
    j0(ascending, out=rows[0])
    j1(ascending, out=rows[1])
    if top > 1:
        # the first positive point and the first at or past top
        lo, hi = np.searchsorted(ascending, (_SMALLEST_POSITIVE, top)).tolist()
        rows[2:, :lo] = 0.0
        if lo < hi:
            rows[2:, lo:hi] = _miller_rows(top, ascending[lo:hi])[2:]
        if hi < x.size:
            far, two_over_x = list(rows[:, hi:]), 2.0 / ascending[hi:]
            for p in range(1, top):
                np.multiply(two_over_x, p * far[p], out=far[p + 1])
                far[p + 1] -= far[p - 1]
    out = np.empty_like(rows)
    out[:, order] = rows
    return out


def _check_range(xv: np.ndarray) -> None:
    if not np.all(np.isfinite(xv)):
        raise ValueError("x must be finite")
    if xv.size and xv.min() < 0.0:
        raise ValueError(f"x must be nonnegative, got {xv.min():g}")


def bessel_j(order: float, x):
    """J_order(x) for order >= 0 and finite x >= 0.

    Vectorized over x; returns a float for scalar input.
    """
    if order < 0:
        raise ValueError("order must be >= 0; use bessel_j_int for signed integer orders")
    x_arr = np.asarray(x, dtype=float)
    _check_range(x_arr)
    out = jv(float(order), x_arr)
    return float(out) if x_arr.ndim == 0 else out


def bessel_j_int(k: int, x):
    """J_k(x) for any signed integer order, via J_{-k} = (-1)^k J_k."""
    kk = int(k)
    val = bessel_j(abs(kk), x)
    return -val if kk < 0 and kk % 2 != 0 else val


def h_func(d: int, x):
    """H(x) = J_{d/2}(x) / x^{d/2}, extended by continuity to H(0).

    H(0) = 1 / (2^{d/2} Gamma(d/2 + 1)).  H is the angular average of the
    plane wave over the unit sphere in R^d, up to the constant 2^{d/2}.
    """
    if int(d) != d or d < 2:
        raise ValueError("d must be an integer >= 2")
    half_d = 0.5 * d
    x_arr = np.asarray(x, dtype=float)
    _check_range(x_arr)
    out = np.full(x_arr.shape, 1.0 / (2.0**half_d * math.gamma(half_d + 1.0)))
    np.divide(jv(half_d, x_arr), x_arr**half_d, out=out, where=x_arr > 0.0)
    return float(out) if x_arr.ndim == 0 else out


def jacobi_anger(z: float, theta: float, k_max: int) -> complex:
    """Partial sum sum_{|k| <= k_max} i^k J_k(z) exp(-i k theta).

    Approximates exp(i z cos theta); pairs of opposite orders collapse to
    J_0(z) + 2 sum_{k>=1} i^k J_k(z) cos(k theta).  z is finite and may be
    negative (handled through J_k(-z) = (-1)^k J_k(z)).
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    zz = abs(float(z))
    _check_range(np.array([zz]))
    jvals = jv(np.arange(k_max + 1.0), zz)
    if z < 0:
        jvals[1::2] *= -1.0
    ks = np.arange(1, k_max + 1)
    total = jvals[0] + 2.0 * np.sum(1j**ks * jvals[1:] * np.cos(ks * float(theta)))
    return complex(total)
