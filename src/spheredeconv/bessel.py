"""Bessel functions of the first kind via the ascending power series.

Everything downstream (model characteristic functions, contrast values)
reduces to J_alpha evaluated at moderate arguments x = r * R, where the
truncated series is accurate to near machine precision.  The evaluator is
deliberately self-contained and certifies its own accuracy per call: it
bounds the truncation tail by the first omitted term and the roundoff by
the largest intermediate term, and raises instead of silently degrading.
In double precision that certification holds comfortably for x up to ~15
at ABS_TOL; the hard argument cap is X_MAX.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import NumericalError

X_MAX = 50.0

_EPS = float(np.finfo(float).eps)
# terms kept in the ascending series, and the absolute accuracy each
# evaluation certifies; evaluation raises NumericalError when the bound
# cannot be met
SERIES_TERMS = 40
ABS_TOL = 1e-10


@lru_cache(maxsize=64)
def _series_constants(orders: tuple) -> tuple:
    """Gamma(order+1) and the term-ratio denominators m (order + m), m >= 1.

    Both depend on the orders alone, so they are built once per order set
    and shared read-only by every call.  math.gamma is exact at the
    integers up to 23, so integer orders get exact factorials.
    """
    ords = np.array(orders, dtype=float)[:, None]
    gamma = np.array([math.gamma(o + 1.0) for o in orders])[:, None]
    denoms = [m * (ords + m) for m in range(1, SERIES_TERMS)]
    for arr in [gamma, *denoms]:
        arr.flags.writeable = False
    return gamma, tuple(denoms)


def _series_multi(orders: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Ascending series for J_order(x), all orders at once.

    orders: (p,) nonnegative reals; x: (m,) in [0, X_MAX].
    Returns (p, m).  term_{k+1}/term_k = -(x/2)^2 / ((k+1)(order+k+1)), so
    only Gamma(order+1) is ever needed explicitly.
    """
    half = 0.5 * x[None, :]
    ords = orders[:, None]
    g, denoms = _series_constants(tuple(orders.tolist()))
    term = half**ords / g
    acc = term.copy()
    peak = np.abs(term)
    neg_q = -(half * half)
    for denom in denoms:
        term = term * (neg_q / denom)
        acc += term
        np.maximum(peak, np.abs(term), out=peak)
    # certification: tail <= first omitted term / (1 - ratio); roundoff ~ eps * peak
    mterms = SERIES_TERMS
    q = half * half
    nxt = np.abs(term) * q / (mterms * (ords + mterms))
    ratio = q / ((mterms + 1) * (ords + mterms + 1))
    tail = np.where(ratio < 1.0, nxt / np.maximum(1.0 - ratio, 1e-300), np.inf)
    err = tail + 4.0 * _EPS * peak
    if np.any(err > ABS_TOL):
        flat = int(np.argmax(err))
        bad_x = float(x[flat % x.size])
        raise NumericalError(
            f"cannot certify abs_tol={ABS_TOL:g} for J at x={bad_x:g} with series_terms={SERIES_TERMS}"
        )
    return acc


def _check_range(xv: np.ndarray) -> None:
    if xv.size == 0:
        return
    lo, hi = float(xv.min()), float(xv.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("x must be finite")
    if lo < 0.0 or hi > X_MAX:
        raise ValueError(f"x must lie in [0, {X_MAX:g}], got extreme value {lo if lo < 0 else hi:g}")


def bessel_j(order: float, x):
    """J_order(x) for order >= 0 and 0 <= x <= X_MAX.

    Vectorized over x; returns a float for scalar input.  Accuracy is
    certified to ABS_TOL (see module docstring).
    """
    if order < 0:
        raise ValueError("order must be >= 0; use bessel_j_int for signed integer orders")
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xv = np.atleast_1d(x_arr)
    _check_range(xv)
    out = _series_multi(np.array([float(order)]), xv.ravel())[0]
    if scalar:
        return float(out[0])
    return out.reshape(x_arr.shape)


def bessel_j_int(k: int, x):
    """J_k(x) for any signed integer order, via J_{-k} = (-1)^k J_k."""
    kk = int(k)
    val = bessel_j(abs(kk), x)
    if kk < 0 and kk % 2 != 0:
        return -val
    return val


def h_func(d: int, x):
    """H(x) = J_{d/2}(x) / x^{d/2}, extended by continuity to H(0).

    H(0) = 1 / (2^{d/2} Gamma(d/2 + 1)).  H is the angular average of the
    plane wave over the unit sphere in R^d, up to the constant 2^{d/2}.
    """
    if int(d) != d or d < 2:
        raise ValueError("d must be an integer >= 2")
    half_d = 0.5 * d
    x_arr = np.asarray(x, dtype=float)
    scalar = x_arr.ndim == 0
    xv = np.atleast_1d(x_arr).astype(float).ravel()
    _check_range(xv)
    out = np.empty_like(xv)
    at_zero = xv == 0.0
    out[at_zero] = 1.0 / (2.0**half_d * math.gamma(half_d + 1.0))
    pos = ~at_zero
    if np.any(pos):
        xp = xv[pos]
        out[pos] = _series_multi(np.array([half_d]), xp)[0] / xp**half_d
    if scalar:
        return float(out[0])
    return out.reshape(x_arr.shape)


def jacobi_anger(z: float, theta: float, k_max: int) -> complex:
    """Partial sum sum_{|k| <= k_max} i^k J_k(z) exp(-i k theta).

    Approximates exp(i z cos theta); pairs of opposite orders collapse to
    J_0(z) + 2 sum_{k>=1} i^k J_k(z) cos(k theta).  z may be negative
    (handled through J_k(-z) = (-1)^k J_k(z)); |z| <= X_MAX.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    zz = abs(float(z))
    orders = np.arange(k_max + 1, dtype=float)
    jvals = _series_multi(orders, np.array([zz]))[:, 0]
    if z < 0:
        jvals[1::2] *= -1.0
    ks = np.arange(1, k_max + 1)
    ipow = 1j**ks
    total = jvals[0] + 2.0 * np.sum(ipow * jvals[1:] * np.cos(ks * float(theta)))
    return complex(total)
