"""Tests for the Bessel kernel.

Expected values come from independent routes: a 30-term reference series
evaluated with math.gamma (frozen literals), scipy.special as a second
opinion, and composite quadrature for the integral bounds.
"""

import math

import numpy as np
import pytest
import scipy.special as sp

from spheredeconv.bessel import (
    bessel_j,
    bessel_j_int,
    bessel_rows,
    h_func,
    jacobi_anger,
    negligible_order,
)


# the range the kernel's pinned 2e-15 agreement with jv is checked on
X_CHECK = 50.0


def reference_series(alpha, x, terms=30):
    # independent oracle: direct term-by-term sum with library gamma
    s = 0.0
    for m in range(terms):
        s += (-1.0) ** m * (x / 2.0) ** (alpha + 2 * m) / (math.factorial(m) * math.gamma(alpha + m + 1))
    return s


def test_j0_at_one_matches_frozen_oracle():
    # frozen from the 30-term reference series; 50 terms give the same digits
    assert bessel_j(0, 1.0) == pytest.approx(0.7651976865579666, abs=1e-13)


def test_matches_reference_series_and_scipy():
    xs = np.linspace(0.0, 12.0, 49)
    for order in (0.0, 1.0, 2.0, 3.0, 0.5, 1.5, 2.5):
        ours = bessel_j(order, xs)
        ref = np.array([reference_series(order, x, 40) for x in xs])
        assert np.max(np.abs(ours - ref)) < 1e-11
        assert np.max(np.abs(ours - sp.jv(order, xs))) < 1e-10


def test_signed_integer_order_parity():
    xs = np.linspace(0.0, 10.0, 21)
    for k in range(-5, 6):
        want = bessel_j(abs(k), xs)
        if k < 0:
            want = (-1.0) ** k * want
        got = bessel_j_int(k, xs)
        assert np.array_equal(got, want)
        assert np.max(np.abs(got - sp.jv(k, xs))) < 1e-10


def test_three_term_recurrence():
    # J_{a+1}(x) = (2a/x) J_a(x) - J_{a-1}(x)
    xs = np.linspace(0.1, 10.0, 100)
    for a in (1.0, 2.0, 3.0):
        lhs = bessel_j(a + 1, xs)
        rhs = (2.0 * a / xs) * bessel_j(a, xs) - bessel_j(a - 1, xs)
        assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_lipschitz_bound_integer_orders():
    # |J_k(x) - J_k(y)| <= |x - y|
    rng = np.random.default_rng(20240811)
    x = rng.uniform(0.0, 10.0, 1000)
    y = rng.uniform(0.0, 10.0, 1000)
    for k in range(6):
        gap = np.abs(bessel_j(k, x) - bessel_j(k, y))
        assert np.all(gap <= np.abs(x - y) + 1e-12)


def test_small_argument_lower_bound():
    # J_a(x) >= (x/2)^a / Gamma(a+1) * (1 - x^2 / (4(a+1))) on [0, 1)
    xs = np.linspace(0.0, 0.999, 200)
    for a in (0.0, 0.5, 1.0, 2.0):
        lower = (xs / 2.0) ** a / math.gamma(a + 1.0) * (1.0 - xs**2 / (4.0 * (a + 1.0)))
        assert np.all(bessel_j(a, xs) >= lower - 1e-12)


def test_weighted_square_integral_lower_bound():
    # integral_0^nu r J_k(rR)^2 dr >= (9 nu^2 / 32) (nu R)^{2N} / ((N+1) 2^{2N} (N!)^2)
    # for nu R < 1 and 0 <= k <= N; composite trapezoid with 1e4 nodes as oracle
    for R in (1.0, 3.0):
        for nu in (0.1, 0.3):
            if nu * R >= 1.0:
                continue
            r = np.linspace(0.0, nu, 10_000)
            for N in range(1, 6):
                bound = (9.0 * nu**2 / 32.0) * (nu * R) ** (2 * N) / ((N + 1) * 4.0**N * math.factorial(N) ** 2)
                for k in range(N + 1):
                    vals = r * bessel_j(k, r * R) ** 2
                    integral = np.trapezoid(vals, r)
                    assert integral >= bound - 1e-12, (R, nu, N, k)


def test_h_func_at_zero_and_continuity():
    assert h_func(2, 0.0) == pytest.approx(0.5, abs=1e-15)
    # 1 / (2^{3/2} Gamma(5/2))
    assert h_func(3, 0.0) == pytest.approx(0.2659615202676218, abs=1e-14)
    for d in (2, 3, 4, 5):
        assert abs(h_func(d, 1e-8) - h_func(d, 0.0)) < 1e-8


def test_h_func_derivative_identity():
    # H'(x) = -J_{d/2+1}(x) / x^{d/2}, checked with central differences
    delta = 1e-5
    for d in (2, 3):
        xs = np.linspace(0.1, 5.0, 50)
        numeric = (h_func(d, xs + delta) - h_func(d, xs - delta)) / (2.0 * delta)
        closed = -bessel_j(d / 2.0 + 1.0, xs) / xs ** (d / 2.0)
        assert np.max(np.abs(numeric - closed)) < 1e-6


def test_ball_average_series_identity():
    # sum_k (-1)^k x^{2k} / (2^{2k} k! Gamma(d/2+k+1)) = 2^{d/2} J_{d/2}(x) / x^{d/2}
    xs = np.linspace(0.0, 10.0, 41)
    for d in (2, 3, 4, 5):
        direct = np.zeros_like(xs)
        for k in range(60):
            direct += (-1.0) ** k * xs ** (2 * k) / (4.0**k * math.factorial(k) * math.gamma(d / 2.0 + k + 1.0))
        assert np.max(np.abs(direct - 2.0 ** (d / 2.0) * h_func(d, xs))) < 1e-10


def test_jacobi_anger_expansion():
    assert abs(jacobi_anger(2.0, 0.0, 30) - np.exp(2.0j)) < 1e-12
    rng = np.random.default_rng(7)
    zs = rng.uniform(-5.0, 5.0, 300)
    thetas = rng.uniform(0.0, 2.0 * np.pi, 300)
    worst = max(
        abs(jacobi_anger(z, th, 40) - np.exp(1j * z * np.cos(th))) for z, th in zip(zs, thetas)
    )
    assert worst < 1e-10


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_j(-1, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        bessel_j(0, np.nan)
    with pytest.raises(ValueError):
        h_func(1, 0.5)
    with pytest.raises(ValueError):
        jacobi_anger(1.0, 0.0, -1)


def test_bessel_j_covers_the_whole_domain():
    # no upper bound on x: the closed form reaches whatever r_max * |t| a fit asks for
    assert bessel_j(0, 45.0) == sp.jv(0, 45.0)
    assert bessel_j(0, 51.0) == sp.jv(0, 51.0)
    assert bessel_j(3, 2000.0) == sp.jv(3, 2000.0)


def test_default_config_envelope_covers_grid_arguments():
    # the fit evaluates J at x = ||t|| R <= sqrt(2) * nu_est * R_max ~ 14.2
    xs = np.linspace(0.0, 14.5, 300)
    vals = bessel_j(0, xs)
    assert np.max(np.abs(vals - sp.j0(xs))) < 1e-10


@pytest.mark.parametrize("k_cut", range(13))
def test_rows_match_scipy_jv(k_cut):
    # the recurrence runs where x >= max(K, 1): probe x = 0 and both sides of
    # that boundary, and [0, X_CHECK]
    top = max(k_cut, 1)
    edges = [0.0, np.nextafter(top, 0.0), float(top), np.nextafter(top, np.inf)]
    xs = np.concatenate([edges, np.linspace(0.0, X_CHECK, 2001)])
    rows = bessel_rows(k_cut, xs)
    assert rows.shape == (top + 1, xs.size)
    assert np.max(np.abs(rows - sp.jv(np.arange(top + 1.0)[:, None], xs))) <= 2e-15


@pytest.mark.parametrize("k_cut", [1, 2, 11, 12])
def test_rows_satisfy_the_neumann_sum(k_cut):
    # J_0 + 2 sum_{k>=1} J_2k = 1 (DLMF 10.12.4): the even rows the kernel
    # returns, with the tail past its top order from jv up to order 120
    xs = np.linspace(0.0, X_CHECK, 2001)
    rows = bessel_rows(k_cut, xs)
    top = rows.shape[0] - 1
    tail = sp.jv(np.arange(top + 2 - top % 2, 121.0, 2.0)[:, None], xs)
    terms = np.vstack([rows[:1], 2.0 * rows[2::2], 2.0 * tail])
    assert max(abs(math.fsum(column) - 1.0) for column in terms.T) <= 1e-14


@pytest.mark.parametrize("k_cut, tol", [(12, 2.5e-15), (30, 1.2e-14)])
def test_rows_match_scipy_jv_far_out(k_cut, tol):
    # wide windows reach far past X_CHECK; the recurrence stays stable there
    xs = np.linspace(0.0, 2000.0, 20_001)
    rows = bessel_rows(k_cut, xs)
    assert np.max(np.abs(rows - sp.jv(np.arange(k_cut + 1.0)[:, None], xs))) <= tol


@pytest.mark.parametrize("k_cut", [32, 64])
def test_rows_match_scipy_jv_up_to_the_tail_cutoff(k_cut):
    # a known fit reaches K = TAIL_CUTOFF = 64; below x = K every row comes
    # from the backward recurrence.  The bound is 2.5e-15: at K = 64 jv
    # itself is 1.8e-15 off 40-digit values on this range, the rows 4e-16
    top = float(k_cut)
    edges = [0.0, np.nextafter(top, 0.0), top, np.nextafter(top, np.inf)]
    xs = np.concatenate([edges, np.linspace(0.0, X_CHECK, 2001)])
    rows = bessel_rows(k_cut, xs)
    assert np.max(np.abs(rows - sp.jv(np.arange(k_cut + 1.0)[:, None], xs))) <= 2.5e-15


@pytest.mark.parametrize("k_cut", [2, 4, 12, 32, 64])
def test_rows_at_tiny_arguments_raise_no_floating_point_error(k_cut):
    # a fixed starting order would overflow here (already at x = 1e-8 for
    # K >= 32); FitConfig(r_min=1e-6) reaches x ~ 5e-8
    xs = np.array([1e-300, 1e-12, 1e-8])
    with np.errstate(all="raise"):
        rows = bessel_rows(k_cut, xs)
    assert np.max(np.abs(rows - sp.jv(np.arange(k_cut + 1.0)[:, None], xs))) <= 1e-24
    assert np.array_equal(bessel_rows(k_cut, np.zeros(1))[:, 0], np.eye(k_cut + 1)[0])


@pytest.mark.parametrize("k_cut", [4, 12])
def test_rows_at_the_first_zeros_of_j0_and_j1(k_cut):
    # the Neumann sum normalises, so a vanishing J_0 or J_1 costs nothing
    zeros = np.array([2.404825557695773, 3.8317059702075125])
    xs = np.concatenate([zeros, np.nextafter(zeros, 0.0), np.nextafter(zeros, np.inf)])
    rows = bessel_rows(k_cut, xs)
    assert np.max(np.abs(rows - sp.jv(np.arange(k_cut + 1.0)[:, None], xs))) <= 2e-15


def test_rows_never_call_jv(monkeypatch):
    import spheredeconv.bessel as bessel_mod

    def refuse(*args):
        raise AssertionError("bessel_rows called jv")

    monkeypatch.setattr(bessel_mod, "jv", refuse)
    xs = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, 80.0, 801)])
    for k_cut in (0, 1, 2, 4, 12, 64):
        assert np.all(np.isfinite(bessel_rows(k_cut, xs)))


def test_each_column_depends_on_its_own_argument_alone():
    # the closed form's grid values equal its pointwise calls bit for bit only
    # if a point's rows do not depend on which other points share the call
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(0.0, 15.0, 60), [0.0, 1e-9, 11.99, 12.0]])
    rng.shuffle(xs)
    rows = bessel_rows(12, xs)
    for i, x in enumerate(xs):
        assert rows[:, i].tobytes() == bessel_rows(12, np.array([x]))[:, 0].tobytes()


def test_negligible_order_truncates_the_jacobi_anger_expansion():
    # the order that starts Miller's recurrence also truncates the ECF's
    # Chebyshev sums: the tail 2 sum_{p>n} |J_p(x)| it drops is a fraction of
    # an ulp of 1 (it peaks at 1.5e-17 over these points, at x = 30)
    for x in (1e-3, 0.5, 3.0, 10.0, 30.0):
        n = int(negligible_order(x))
        tail = 2.0 * np.sum(np.abs(sp.jv(np.arange(n + 1, n + 400), x)))
        assert tail <= 2e-17, (x, n, tail)
    assert negligible_order(0.0) == 0.0
    assert np.array_equal(negligible_order(np.array([0.0, 8.0])), [0.0, 32.0])
