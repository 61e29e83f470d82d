"""Bessel functions of the first kind at nonnegative arguments, over scipy.special.

Everything downstream (model characteristic functions, contrast values)
reduces to J_alpha evaluated at arguments x = r * R >= 0.  The
public functions wrap scipy.special.jv.  The closed form's hot path asks
for J_0..J_K at many points at once, which bessel_rows serves: J_0 and
J_1 from scipy.special.j0 and j1, higher orders by the forward three-term
recurrence (DLMF 10.6.1) wherever x >= K, where it is stable (DLMF
10.74(iv)), and by jv at the remaining points.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import j0, j1, jv


def bessel_rows(k_cut: int, x: np.ndarray) -> np.ndarray:
    """J_p(x) for p = 0..max(k_cut, 1) (rows) at the points x >= 0 (columns).

    Row p + 1 is (2p / x) J_p - J_{p-1} where x >= max(k_cut, 1): the
    recurrence then only runs at orders p < x, where it is stable.  At the
    other points, x = 0 among them, rows 2.. come from jv.
    """
    top = max(int(k_cut), 1)
    rows = np.empty((top + 1, x.size))
    j0(x, out=rows[0])
    j1(x, out=rows[1])
    if top > 1:
        # points with x < top get finite stand-in values here, replaced below
        two_over_x = 2.0 / np.maximum(x, top)
        for p in range(1, top):
            np.multiply(two_over_x, p * rows[p], out=rows[p + 1])
            rows[p + 1] -= rows[p - 1]
        near = x < top
        if near.any():
            rows[2:, near] = jv(np.arange(2.0, top + 1.0)[:, None], x[near])
    return rows


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
