"""Tests for the Bessel kernel.

Expected values come from independent routes: a 30-term reference series
evaluated with math.gamma (frozen literals), 40-digit values (frozen
literals), scipy.special as a second opinion, and composite quadrature for
the integral bounds.
"""

import math

import numpy as np
import pytest
import scipy.special as sp

from spheredeconv.bessel import X_HANKEL, bessel_rows, h_func, negligible_order


# the range the kernel's pinned 2e-15 agreement with jv is checked on
X_CHECK = 50.0


def reference_series(alpha, x, terms=30):
    # independent oracle: direct term-by-term sum with library gamma
    s = 0.0
    for m in range(terms):
        s += (-1.0) ** m * (x / 2.0) ** (alpha + 2 * m) / (math.factorial(m) * math.gamma(alpha + m + 1))
    return s


def half_integer_j(d, x):
    """J_{d/2}(x) at odd d through the package's h_func."""
    return h_func(d, x) * x ** (d / 2.0)


def plane_wave(z, theta, k_max):
    """sum_{|k| <= k_max} i^k J_k(z) exp(-i k theta) from bessel_rows, pairs of
    opposite orders collapsed: J_0(|z|) + 2 sum_{k>=1} i^k J_k(z) cos(k theta),
    with J_k(-z) = (-1)^k J_k(z)."""
    rows = bessel_rows(k_max, np.array([abs(z)]))[:, 0]
    ks = np.arange(1, k_max + 1)
    signs = (-1.0) ** ks if z < 0 else 1.0
    return rows[0] + 2.0 * np.sum(1j**ks * signs * rows[1:] * np.cos(ks * theta))


def test_j0_at_one_matches_frozen_oracle():
    # frozen from the 30-term reference series; 50 terms give the same digits
    assert bessel_rows(0, np.array([1.0]))[0, 0] == pytest.approx(0.7651976865579666, abs=1e-13)


def test_matches_reference_series_and_scipy():
    xs = np.linspace(0.0, 12.0, 49)
    rows = bessel_rows(3, xs)
    for order in (0, 1, 2, 3):
        ref = np.array([reference_series(order, x, 40) for x in xs])
        assert np.max(np.abs(rows[order] - ref)) < 1e-11
        assert np.max(np.abs(rows[order] - sp.jv(order, xs))) < 1e-10
    # the half-integer orders of odd d, through h_func
    for d in (3, 5):
        ref = np.array([reference_series(d / 2.0, x, 40) for x in xs])
        assert np.max(np.abs(half_integer_j(d, xs) - ref)) < 1e-11


def test_signed_integer_order_parity():
    # J_{-k} = (-1)^k J_k, against jv at the signed order
    xs = np.linspace(0.0, 10.0, 21)
    rows = bessel_rows(5, xs)
    for k in range(-5, 6):
        got = (-1.0) ** k * rows[abs(k)] if k < 0 else rows[k]
        assert np.max(np.abs(got - sp.jv(k, xs))) < 1e-10


def test_three_term_recurrence():
    # J_{a+1}(x) = (2a/x) J_a(x) - J_{a-1}(x), on both sides of X_HANKEL
    xs = np.concatenate([np.linspace(0.1, 10.0, 100), np.linspace(X_HANKEL - 1.0, X_HANKEL + 1.0, 21)])
    rows = bessel_rows(4, xs)
    for a in (1, 2, 3):
        rhs = (2.0 * a / xs) * rows[a] - rows[a - 1]
        assert np.max(np.abs(rows[a + 1] - rhs)) < 1e-9


def test_lipschitz_bound_integer_orders():
    # |J_k(x) - J_k(y)| <= |x - y|
    rng = np.random.default_rng(20240811)
    x = rng.uniform(0.0, 10.0, 1000)
    y = rng.uniform(0.0, 10.0, 1000)
    gap = np.abs(bessel_rows(5, x) - bessel_rows(5, y))
    assert np.all(gap <= np.abs(x - y) + 1e-12)


def test_small_argument_lower_bound():
    # J_a(x) >= (x/2)^a / Gamma(a+1) * (1 - x^2 / (4(a+1))) on [0, 1)
    xs = np.linspace(0.0, 0.999, 200)
    rows = bessel_rows(2, xs)
    for a, vals in ((0.0, rows[0]), (1.0, rows[1]), (1.5, half_integer_j(3, xs)), (2.0, rows[2])):
        lower = (xs / 2.0) ** a / math.gamma(a + 1.0) * (1.0 - xs**2 / (4.0 * (a + 1.0)))
        assert np.all(vals >= lower - 1e-12)


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
                rows = bessel_rows(N, r * R)
                for k in range(N + 1):
                    vals = r * rows[k] ** 2
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
        closed = -sp.jv(d / 2.0 + 1.0, xs) / xs ** (d / 2.0)
        assert np.max(np.abs(numeric - closed)) < 1e-6


def test_ball_average_series_identity():
    # sum_k (-1)^k x^{2k} / (2^{2k} k! Gamma(d/2+k+1)) = 2^{d/2} J_{d/2}(x) / x^{d/2}
    xs = np.linspace(0.0, 10.0, 41)
    for d in (2, 3, 4, 5):
        direct = np.zeros_like(xs)
        for k in range(60):
            direct += (-1.0) ** k * xs ** (2 * k) / (4.0**k * math.factorial(k) * math.gamma(d / 2.0 + k + 1.0))
        assert np.max(np.abs(direct - 2.0 ** (d / 2.0) * h_func(d, xs))) < 1e-10


def test_h_func_is_the_plane_wave_average_over_the_unit_ball():
    # 2^{d/2} Gamma(d/2 + 1) H(x): the disc's 2 J_1(x) / x and the ball's
    # 3 (sin x - x cos x) / x^3, not the circle's J_0(x)
    xs = np.linspace(0.5, 20.0, 40)
    assert np.max(np.abs(2.0 * h_func(2, xs) - 2.0 * sp.j1(xs) / xs)) < 1e-15
    ball = 3.0 * (np.sin(xs) - xs * np.cos(xs)) / xs**3
    assert np.max(np.abs(2.0**1.5 * math.gamma(2.5) * h_func(3, xs) - ball)) < 1e-14


def test_jacobi_anger_expansion():
    assert abs(plane_wave(2.0, 0.0, 30) - np.exp(2.0j)) < 1e-12
    rng = np.random.default_rng(7)
    zs = rng.uniform(-5.0, 5.0, 300)
    thetas = rng.uniform(0.0, 2.0 * np.pi, 300)
    worst = max(
        abs(plane_wave(z, th, 40) - np.exp(1j * z * np.cos(th))) for z, th in zip(zs, thetas)
    )
    assert worst < 1e-10


def test_rejects_bad_arguments():
    for d, x in ((1, 0.5), (2, -0.5), (2, np.nan), (3, np.inf)):
        with pytest.raises(ValueError):
            h_func(d, x)


def test_default_config_envelope_covers_grid_arguments():
    # the fit evaluates J at x = ||t|| R <= sqrt(2) * nu_est * R_max ~ 14.2
    xs = np.linspace(0.0, 14.5, 300)
    vals = bessel_rows(0, xs)[0]
    assert np.max(np.abs(vals - sp.j0(xs))) < 1e-10


@pytest.mark.parametrize("k_cut", range(13))
def test_rows_match_scipy_jv(k_cut):
    # the forward recurrence runs where x >= max(K, 1, X_HANKEL): probe x = 0,
    # both sides of x = max(K, 1), and [0, X_CHECK], past X_HANKEL
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


# J_p(x) at p = 0, 1, 4, 12, 64 to 40 digits (mpmath.besselj at 50 digits)
FORTY_DIGITS = {
    24.0: ("-0.05623027416685926701477611803416836171344", "-0.1540380651831212212829978942658168052767",
           "-0.00307617874186333914650489104922871990148", "0.07299008930873356486979848180713929952915",
           "9.663778088352950927905250669782765513598e-22"),
    24.999999999999996: ("0.09626678327595767083995701580069054684251", "-0.1253502495802902644734688826742920654517",
                         "0.1322971426971431337042022947298475779449", "-0.07286782727986241113788592115446112027461",
                         "1.083577140530055899232843242054272684322e-20"),
    25.0: ("0.09626678327595811617350334075402446428831", "-0.1253502495802899046518092710572511511316",
           "0.1322971426971434434139294211267024176855", "-0.07286782727986288457049614891129374236798",
           "1.083577140530064984905402654829235383657e-20"),
    26.0: ("0.1559993155224211296028067442401865094598", "0.01504573058691581114983236502768477470331",
           "0.1458725125620285754018934030388741076441", "-0.1610904086439132629265054027070455286999",
           "1.087200248625261208056431499329285632435e-19"),
    100.0: ("0.01998585030422312242422839095084899068063", "-0.07714535201411215803268549492723447021161",
            "0.02610580944772528218943951350298920346536", "0.06623604865963804125780243004599375368679",
            "0.039985069452918338196026568677209460386"),
    1000.0: ("0.02478668615242017456133073111569370878617", "0.004728311907089523917576071901216916285418",
             "0.02474826500365477182609779864658864806528", "0.02438408653043830402386023432200850492761",
             "-0.0156033911004570844764144632082456573664"),
    10000.0: ("-0.007096160353388801477265164170941140768029", "0.003647450755529580344117261367226914748347",
              "-0.007099076610739662691962683579877892728327", "-0.007122242961785649864239286064261527099088",
              "-0.007689801860151863578387568286951673934639"),
}
FORTY_DIGIT_ORDERS = (0, 1, 4, 12, 64)


@pytest.mark.parametrize("k_cut", [0, 1, 4, 12, 64])
def test_rows_across_the_hankel_threshold(k_cut):
    # J_0 and J_1 come from Miller's recurrence below max(K, X_HANKEL) and from
    # Hankel's expansion above it: probe both sides of X_HANKEL and out to 1e4,
    # against jv at the bounds of the tests above and against 40-digit values
    top = max(k_cut, 1)
    edges = [np.nextafter(X_HANKEL, 0.0), X_HANKEL, np.nextafter(X_HANKEL, np.inf)]
    near = np.concatenate([edges, np.linspace(X_HANKEL - 1.0, X_HANKEL + 1.0, 2001)])
    far = np.geomspace(X_HANKEL, 1e4, 2001)
    # jv itself strays by up to 2.5e-14 from 40-digit values past x = 25 at K = 64
    xs = np.concatenate([near, far]) if k_cut <= 12 else near
    rows = bessel_rows(k_cut, xs)
    assert np.max(np.abs(rows - sp.jv(np.arange(top + 1.0)[:, None], xs))) <= (2e-15 if k_cut <= 12 else 2.5e-15)
    xs = np.array(list(FORTY_DIGITS))
    rows = bessel_rows(k_cut, xs)
    for p, order in enumerate(FORTY_DIGIT_ORDERS):
        if order <= top:
            want = np.array([float(values[p]) for values in FORTY_DIGITS.values()])
            assert np.max(np.abs(rows[order] - want)) <= 4e-16


def test_rows_run_with_scipy_blocked(monkeypatch):
    # the kernel is the package's own recurrences, and the package imports no
    # scipy module (tests/test_api.py): a call imports none either
    import sys

    for name in [m for m in sys.modules if m.split(".")[0] == "scipy"]:
        monkeypatch.setitem(sys.modules, name, None)
    xs = np.concatenate([[0.0, 1e-300, 1e-8], np.linspace(0.0, 80.0, 801), [1e4]])
    for k_cut in (0, 1, 2, 4, 12, 64):
        assert np.all(np.isfinite(bessel_rows(k_cut, xs)))
    with pytest.raises(ImportError):
        h_func(3, xs)


def test_each_column_depends_on_its_own_argument_alone():
    # the closed form's grid values equal its pointwise calls bit for bit only
    # if a point's rows do not depend on which other points share the call;
    # the batch spans top and X_HANKEL, where the routes change
    rng = np.random.default_rng(5)
    edges = [0.0, 1e-9, 11.99, 12.0, np.nextafter(X_HANKEL, 0.0), X_HANKEL, np.nextafter(X_HANKEL, np.inf), 30.0]
    xs = np.concatenate([rng.uniform(0.0, 15.0, 60), rng.uniform(20.0, 35.0, 30), rng.uniform(35.0, 1e4, 10), edges])
    rng.shuffle(xs)
    for k_cut in (12, 30):
        rows = bessel_rows(k_cut, xs)
        for i, x in enumerate(xs):
            assert rows[:, i].tobytes() == bessel_rows(k_cut, np.array([x]))[:, 0].tobytes()


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
