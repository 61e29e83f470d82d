"""Tests for the sphere parametrization, densities, and sampling."""

import json
import math

import numpy as np
import pytest

from spheredeconv.errors import ConfigError
from spheredeconv.geometry import (
    TAIL_BOUND,
    TAIL_CUTOFF,
    CallableDensity,
    FourierDensity,
    density_eval,
    density_from_json,
    density_to_json,
    fourier_coefficients,
    fourier_form,
    fourier_series,
    sample_angles,
    sphere_map,
    sphere_mean,
    uniform_density,
    vonmises_like,
)


def trapezoid_integral(fn, n=20_001):
    xs = np.linspace(0.0, 1.0, n)
    return np.trapezoid(fn(xs), xs)


class TestSphereMap:
    def test_circle_cardinal_points(self):
        assert np.allclose(sphere_map(0.0), [1.0, 0.0], atol=1e-15)
        assert np.allclose(sphere_map(0.25), [0.0, 1.0], atol=1e-15)
        assert np.allclose(sphere_map(0.5), [-1.0, 0.0], atol=1e-15)

    def test_sphere_pole(self):
        assert np.allclose(sphere_map([0.25, 0.5]), [0.0, 0.0, 1.0], atol=1e-15)

    def test_unit_norm_random_batches(self):
        rng = np.random.default_rng(3)
        for dm1 in (1, 2, 3, 4):
            pts = rng.random((500, dm1))
            vecs = sphere_map(pts)
            assert vecs.shape == (500, dm1 + 1)
            assert np.max(np.abs(np.linalg.norm(vecs, axis=1) - 1.0)) < 1e-12

    def test_periodic_in_first_angle(self):
        assert np.allclose(sphere_map(0.0), sphere_map(1.0), atol=1e-12)

    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError):
            sphere_map(-0.1)
        with pytest.raises(ValueError):
            sphere_map([0.5, 1.2])


class TestFourierDensity:
    def test_validation(self):
        with pytest.raises(ValueError):
            FourierDensity(np.array([0.5 + 0j]))  # c_0 != 1
        with pytest.raises(ValueError):
            FourierDensity(np.array([0.2j, 1.0, 0.2j]))  # not conjugate-symmetric
        with pytest.raises(ValueError):
            FourierDensity(np.array([1.0, 1.0]))  # even length
        big = 3.0 + 0j
        with pytest.raises(ValueError):
            FourierDensity(np.array([np.conj(big), 1.0, big]))  # norm bound

    def test_from_half_layout(self):
        f = FourierDensity.from_half([0.2 + 0.1j, -0.05j])
        assert f.cutoff == 2
        assert f.coeffs[f.cutoff] == 1.0
        assert f.coeffs[f.cutoff + 1] == 0.2 + 0.1j
        assert f.coeffs[f.cutoff - 1] == 0.2 - 0.1j

    def test_series_evaluation_known_value(self):
        # f(u) = 1 + 2 * 0.3 * cos(2 pi u) at u = 0 -> 1.6
        f = FourierDensity.from_half([0.3])
        assert density_eval(f, 0.0)[0] == pytest.approx(1.6, abs=1e-14)

    def test_clipping_at_zero(self):
        f = FourierDensity.from_half([0.8])  # series dips to 1 - 1.6 < 0
        u = np.array([0.5])
        assert fourier_series(f.coeffs, u)[0] < 0.0
        assert density_eval(f, u)[0] == 0.0

    def test_unclipped_series_integrates_to_one(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            half = 0.3 * (rng.normal(size=3) + 1j * rng.normal(size=3))
            f = FourierDensity.from_half(half)
            mass = trapezoid_integral(lambda x: fourier_series(f.coeffs, x))
            assert mass == pytest.approx(1.0, abs=1e-8)


class TestCallableDensity:
    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            CallableDensity(lambda u: 2.0 * np.ones(u.shape[0]), dim_minus_1=1)

    def test_vonmises_like_value_against_quadrature(self):
        f = vonmises_like()
        z = trapezoid_integral(lambda x: np.exp(np.cos(2.0 * np.pi * x)))
        assert density_eval(f, 0.0)[0] == pytest.approx(np.e / z, rel=1e-8)
        assert trapezoid_integral(lambda x: density_eval(f, x)) == pytest.approx(1.0, abs=1e-8)

    def test_fourier_coefficient_against_quadrature(self):
        f = vonmises_like()
        c1 = fourier_coefficients(f, 1)[2]
        # frozen oracle: int exp(cos 2 pi u) e^{2 i pi u} du / int exp(cos 2 pi u) du
        assert c1.real == pytest.approx(0.4463899658965345, abs=1e-8)
        assert abs(c1.imag) < 1e-10

    def test_fourier_coefficients_equal_the_per_k_values_bit_for_bit(self):
        f = vonmises_like()
        coeffs = fourier_coefficients(f, 64)
        assert coeffs.shape == (129,)
        # each cutoff's c_-K..c_K are the same bits as the widest one's
        for k in range(65):
            assert np.array_equal(fourier_coefficients(f, k), coeffs[64 - k : 65 + k])
        # Fourier densities: exact values, zero-padded beyond the cutoff or cut to K
        g = FourierDensity.from_half([0.2 - 0.1j, 0.05j])
        assert np.array_equal(fourier_coefficients(g, 3), np.concatenate([[0.0], g.coeffs, [0.0]]))
        assert np.array_equal(fourier_coefficients(g, 1), g.coeffs[1:4])
        with pytest.raises(ValueError):
            fourier_coefficients(uniform_density(2), 1)

    @pytest.mark.parametrize(
        "fn",
        [
            lambda u: np.exp(np.cos(2.0 * np.pi * u)),
            lambda u: 1.0 + 0.5 * np.cos(2.0 * np.pi * 70.0 * u),
            lambda u: 2.0 * u,  # f(0) != f(1): the end nodes fold into their average
        ],
    )
    def test_fourier_coefficients_equal_direct_sums_on_the_same_rule(self, fn):
        # the 10 001-node trapezoid rule, summed node by node with exact phases
        # 2 pi (k j mod 10 000) / 10 000 and compensated sums
        f = CallableDensity(lambda u: fn(u[:, 0]) / trapezoid_integral(fn), dim_minus_1=1)
        j = np.arange(10_001)
        w = np.full(j.size, 1e-4)
        w[[0, -1]] = 0.5e-4
        payload = w * f.fn(j[:, None] / 10_000.0)
        got = fourier_coefficients(f, TAIL_CUTOFF)
        for k in range(TAIL_CUTOFF + 1):
            phase = 2.0 * np.pi * ((k * j) % 10_000) / 10_000.0
            want = complex(math.fsum(payload * np.cos(phase)), math.fsum(payload * np.sin(phase)))
            assert abs(got[TAIL_CUTOFF + k] - want) <= 1e-15
            assert got[TAIL_CUTOFF - k] == np.conj(got[TAIL_CUTOFF + k])

    def test_fourier_coefficients_past_the_rules_resolution_are_refused(self):
        f = vonmises_like()
        assert fourier_coefficients(f, 5000).shape == (10_001,)
        with pytest.raises(ValueError, match="up to k = 5000"):
            fourier_coefficients(f, 5001)

    def test_fourier_form_cuts_a_circle_callable_where_its_tail_vanishes(self):
        f = vonmises_like()
        g = fourier_form(f)
        # |c_12| is about 4e-13 and everything past it sums below TAIL_BOUND
        assert g.cutoff == 12
        coeffs = fourier_coefficients(f, 12)
        assert np.sum(np.abs(fourier_coefficients(f, TAIL_CUTOFF)[TAIL_CUTOFF + 13 :])) <= TAIL_BOUND
        assert g.coeffs[12] == 1.0 and np.array_equal(g.coeffs[13:], coeffs[13:])
        assert np.array_equal(g.coeffs[:12], np.conj(g.coeffs[:12:-1]))
        # Fourier densities and densities on higher spheres pass through
        h, sphere = FourierDensity.from_half([0.2]), uniform_density(2)
        assert fourier_form(h) is h and fourier_form(sphere) is sphere

    def test_fourier_form_projects_a_circle_callable_once(self):
        calls = []

        def fn(u):
            calls.append(u.shape[0])
            return vonmises_like().fn(u)

        f = CallableDensity(fn)
        g = fourier_form(f)
        # one evaluation on the projection's rule, then none: later calls
        # return the kept FourierDensity, the projection of a fresh twin bit for bit
        assert calls[1:] == [10_001]
        assert fourier_form(f) is g and len(calls) == 2
        assert np.array_equal(g.coeffs, fourier_form(CallableDensity(vonmises_like().fn)).coeffs)
        with pytest.raises(AttributeError):
            f.fn = np.ones_like

    def test_a_refused_circle_callable_is_refused_on_every_call(self):
        calls = []

        def fn(u):
            calls.append(u.shape[0])
            return 1.0 + 6.0 * np.cos(2.0 * np.pi * u[:, 0])

        f = CallableDensity(fn)
        for attempt in (1, 2):
            with pytest.raises(ConfigError, match="exceeds the bound"):
                fourier_form(f)
            assert len(calls) == 1 + attempt


class TestSphereMean:
    def test_uniform_is_centered(self):
        assert np.allclose(sphere_mean(uniform_density(1)), [0.0, 0.0], atol=1e-15)

    def test_fourier_first_coefficient(self):
        f = FourierDensity.from_half([0.25 - 0.1j])
        assert np.allclose(sphere_mean(f), [0.25, -0.1], atol=1e-15)

    def test_callable_matches_fourier_route(self):
        f = vonmises_like()
        direct = sphere_mean(f)
        c1 = fourier_coefficients(f, 1)[2]
        assert np.allclose(direct, [c1.real, c1.imag], atol=1e-8)


class TestSampling:
    def test_deterministic_given_seed(self):
        f = vonmises_like()
        a = sample_angles(f, 500, 42)
        b = sample_angles(f, 500, 42)
        c = sample_angles(f, 500, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_uniform_ks_statistic(self):
        n = 10_000
        u = sample_angles(uniform_density(1), n, 7)[:, 0]
        sorted_u = np.sort(u)
        ks = np.max(np.abs(sorted_u - (np.arange(1, n + 1) - 0.5) / n)) + 0.5 / n
        # 1% critical value for the one-sample KS statistic
        assert ks <= 1.63 / np.sqrt(n)

    def test_vonmises_like_first_moment(self):
        n = 100_000
        u = sample_angles(vonmises_like(), n, 123)[:, 0]
        emp = np.mean(np.exp(2j * np.pi * u))
        target = fourier_coefficients(vonmises_like(), 1)[2]
        assert abs(emp - target) <= 3.0 / np.sqrt(n)

    def test_clipped_fourier_density_sampling(self):
        # series dips below zero; sampler targets the clipped version
        f = FourierDensity.from_half([0.7])
        u = sample_angles(f, 20_000, 5)[:, 0]
        # clipped density vanishes near u = 0.5, so few draws land there
        frac_near_half = np.mean(np.abs(u - 0.5) < 0.05)
        assert frac_near_half < 0.005

    def test_product_form_inverse_cdf(self):
        # the product of the marginals 2x and 1, drawn by the rejection sampler:
        # each coordinate's draws follow its marginal's inverse CDF
        f = CallableDensity(lambda u: 2.0 * u[:, 0] * np.ones(u.shape[0]), dim_minus_1=2)
        pts = sample_angles(f, 50_000, 9)
        assert pts.shape == (50_000, 2)
        assert np.mean(pts[:, 0]) == pytest.approx(2.0 / 3.0, abs=0.01)
        assert np.mean(pts[:, 1]) == pytest.approx(0.5, abs=0.01)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            sample_angles(uniform_density(1), 0, 1)


class TestSerialization:
    def test_fourier_round_trip_bit_identical(self):
        f = FourierDensity.from_half([0.25 + 0.125j, -0.0625j])
        text = density_to_json(f)
        again = density_to_json(density_from_json(text))
        assert text == again
        back = density_from_json(text)
        assert np.array_equal(back.coeffs, f.coeffs)

    def test_named_round_trip_bit_identical(self):
        for maker in (lambda: uniform_density(1), vonmises_like):
            text = density_to_json(maker())
            assert json.loads(text)["type"] == "named"
            assert density_to_json(density_from_json(text)) == text

    def test_errors(self):
        with pytest.raises(ValueError):
            density_from_json('{"type":"wavelet"}')
        with pytest.raises(ValueError):
            density_from_json('{"type":"named","name":"cauchy"}')
        anon = CallableDensity(lambda u: np.ones(u.shape[0]), dim_minus_1=1)
        with pytest.raises(ValueError):
            density_to_json(anon)
