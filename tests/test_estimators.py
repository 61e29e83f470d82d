"""Estimator behavior: configs, reports, truncation, center, radius fits."""

import hashlib
import json
import math
import re
from fractions import Fraction

import numpy as np
import pytest

from spheredeconv.bench import BenchSpec
from spheredeconv.charfn import MAX_NODES, EvalGrid
from spheredeconv.contrast import ContrastContext, contrast_mn, contrast_probe, contrast_residual
from spheredeconv.errors import ConfigError, NumericalError
from spheredeconv.estimators import (
    AUDIT_POINTS,
    EstimateReport,
    FitConfig,
    estimate_center,
    fit_joint,
    fit_radius_known_density,
    minimize,
    truncate_density,
    truncation_level,
)
from spheredeconv.geometry import (
    COEFF_NORM_BOUND,
    TAIL_CUTOFF,
    CallableDensity,
    FourierDensity,
    density_from_json,
    density_to_json,
    fourier_form,
    fourier_series,
    sample_angles,
    sphere_map,
    sphere_mean,
    uniform_density,
    vonmises_like,
)
from spheredeconv.simulate import NoiseModel, Scenario, generate, scenario


# ---------------------------------------------------------------- config


def test_fitconfig_defaults():
    cfg = FitConfig()
    assert cfg.r_min == 0.5 and cfg.r_max == 10.0
    assert cfg.restarts == 8


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(r_min=0.0),
        dict(r_min=5.0, r_max=2.0),
        dict(k_cutoff=-1),
        dict(restarts=0),
        dict(max_iters=0),
        dict(r_min=2.0, r_max=2.0),
        dict(r_max=float("inf")),
        dict(k_cutoff=1.5),
        dict(restarts=2.5),
        dict(max_iters=2.5),
        dict(restarts=AUDIT_POINTS + 1),
        dict(max_iters=float("inf")),
        dict(r_min=None),
        dict(r_max="5"),
        dict(r_max=float("nan")),
    ],
)
def test_fitconfig_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        FitConfig(**kwargs)


@pytest.mark.parametrize(
    "name, value",
    [("restarts", 2.0), ("k_cutoff", 2.0), ("max_iters", 40.0), ("restarts", np.int64(2)), ("k_cutoff", np.int64(2))],
)
def test_fitconfig_integer_valued_fields_fit_as_their_int_twins(name, value):
    base = dict(restarts=2, k_cutoff=1, max_iters=60)
    cfg = FitConfig(**{**base, name: value})
    assert type(getattr(cfg, name)) is int and getattr(cfg, name) == value
    s = generate(scenario(1), 200, seed=8)
    grid = EvalGrid.build(nodes_per_axis=9)
    got = fit_joint(s, cfg, grid)
    want = fit_joint(s, FitConfig(**{**base, name: int(value)}), grid)
    assert (got.r_hat, got.contrast_value, got.iterations) == (want.r_hat, want.contrast_value, want.iterations)
    assert np.array_equal(got.f_hat_coeffs, want.f_hat_coeffs)


def test_fitconfig_stores_the_window_as_floats():
    cfg = FitConfig(r_min=1, r_max=Fraction(21, 2))
    assert (type(cfg.r_min), type(cfg.r_max)) == (float, float) and (cfg.r_min, cfg.r_max) == (1.0, 10.5)
    s = generate(scenario(1), 200, seed=8)
    grid = EvalGrid.build(nodes_per_axis=9)
    got, want = fit_joint(s, cfg, grid), fit_joint(s, FitConfig(r_min=1.0, r_max=10.5), grid)
    assert (got.r_hat, got.contrast_value, got.iterations) == (want.r_hat, want.contrast_value, want.iterations)


def _run_bench(overrides):
    from spheredeconv.bench import BenchSpec, run_bench

    return run_bench(BenchSpec(1, (100,), 1, fit_overrides=overrides))


@pytest.mark.parametrize(
    "work",
    [
        lambda s: fit_joint(s, FitConfig(r_max=10**400)),
        lambda s: fit_radius_known_density(s, scenario(1).density, FitConfig(r_max=Fraction(10**400, 3))),
        # a positive number below the float range is 0.0 as a float
        lambda s: fit_joint(s, FitConfig(r_min=Fraction(1, 10**400))),
        lambda s: fit_joint(s, grid=EvalGrid.build(nu_est=10**400)),
        lambda s: fit_joint(s, grid=EvalGrid.build(nu_est=Fraction(1, 10**400))),
        lambda s: fit_joint(s, grid=EvalGrid.build(nu_est=1j)),
        lambda s: _run_bench({"r_max": 10**400}),
        lambda s: _run_bench({"r_min": Fraction(1, 10**400)}),
    ],
    ids=["r_max", "r_max_fraction", "r_min_underflow", "nu_est", "nu_est_underflow", "nu_est_complex",
         "bench_r_max", "bench_r_min_underflow"],
)
def test_numbers_out_of_the_float_range_are_refused_before_any_work(monkeypatch, work):
    import spheredeconv.contrast as contrast_mod

    monkeypatch.setattr(contrast_mod, "ecf", lambda *a, **k: pytest.fail("ECF work started"))
    with pytest.raises(ConfigError):
        work(generate(scenario(1), 100, seed=0))


@pytest.mark.parametrize(
    "build",
    [
        lambda: EvalGrid.build(nodes_per_axis=10**400),
        lambda: EvalGrid.build(nodes_per_axis=10**400 + 1),
        lambda: EvalGrid.build(nodes_per_axis=MAX_NODES + 2),
        lambda: BenchSpec(1, n_values=(10**400,)),
        lambda: BenchSpec(1, n_values=(2**62,)),
        lambda: FitConfig(k_cutoff=10**12),
        lambda: FitConfig(k_cutoff=TAIL_CUTOFF + 1),
        lambda: BenchSpec(1, fit_overrides={"k_cutoff": TAIL_CUTOFF + 1}),
        lambda: FitConfig(restarts=10**400),
        lambda: FitConfig(max_iters=Fraction(10**400, 3)),
    ],
    ids=["nodes_even", "nodes_odd", "nodes_past_max", "bench_n", "bench_n_past_an_array", "k_cutoff",
         "k_cutoff_past_tail", "bench_k_cutoff", "restarts", "max_iters_fraction"],
)
def test_integers_past_a_field_bound_are_refused_before_any_work(monkeypatch, build):
    import spheredeconv.contrast as contrast_mod

    monkeypatch.setattr(contrast_mod, "ecf", lambda *a, **k: pytest.fail("ECF work started"))
    with pytest.raises(ConfigError):
        build()


def test_integers_at_a_field_bound_are_taken_as_they_are(monkeypatch):
    import spheredeconv.contrast as contrast_mod

    monkeypatch.setattr(contrast_mod, "ecf", lambda *a, **k: pytest.fail("ECF work started"))
    assert FitConfig(max_iters=10**400).max_iters == 10**400
    assert FitConfig(k_cutoff=TAIL_CUTOFF).k_cutoff == TAIL_CUTOFF
    assert BenchSpec(1, fit_overrides={"k_cutoff": TAIL_CUTOFF}).fit_overrides == {"k_cutoff": TAIL_CUTOFF}
    assert EvalGrid.build(nodes_per_axis=MAX_NODES).nodes_per_axis == MAX_NODES


def test_a_max_iters_past_the_float_range_caps_nothing():
    s, f = generate(scenario(1), 200, seed=8), scenario(1).density
    grid = EvalGrid.build(nodes_per_axis=9)
    got = fit_radius_known_density(s, f, FitConfig(max_iters=10**400), grid)
    want = fit_radius_known_density(s, f, FitConfig(), grid)
    assert want.iterations < FitConfig().max_iters
    assert (got.r_hat, got.contrast_value, got.iterations) == (want.r_hat, want.contrast_value, want.iterations)


# ---------------------------------------------------------------- report


def test_report_json_roundtrip_is_exact():
    rep = EstimateReport(
        r_hat=2.9999999123456789,
        c_hat=np.array([0.1, -0.2]),
        f_hat_coeffs=np.array([0.25 - 0.125j, 1.0 + 0.0j, 0.25 + 0.125j]),
        contrast_value=3.0674432831575392e-08,
        iterations=8581,
        wall_time=8.859,
        seed=42,
        n=3000,
    )
    back = EstimateReport.from_json(rep.to_json())
    assert back.r_hat == rep.r_hat
    assert np.array_equal(back.c_hat, rep.c_hat)
    assert np.array_equal(back.f_hat_coeffs, rep.f_hat_coeffs)
    assert back.contrast_value == rep.contrast_value
    assert back.iterations == rep.iterations and back.wall_time == rep.wall_time
    assert back.seed == rep.seed and back.n == rep.n

    rep_none = EstimateReport(
        r_hat=1.0, c_hat=np.zeros(2), f_hat_coeffs=np.array([1.0 + 0.0j]),
        contrast_value=0.0, iterations=1, wall_time=0.0, seed=None, n=100,
    )
    assert EstimateReport.from_json(rep_none.to_json()).seed is None
    assert json.loads(rep_none.to_json())["seed"] is None


def test_report_json_bytes_are_pinned():
    # SHA-256 of the text to_json wrote before it read the field table
    rep = EstimateReport(
        r_hat=2.9871234567890123, c_hat=np.array([-0.012345678901234567, 1e-300]),
        f_hat_coeffs=np.array([0.05 + 0.02j, 1.0 + 0.0j, 0.05 - 0.02j]) / (2 * np.pi),
        contrast_value=3.0517578125e-05 / 3, iterations=17, wall_time=0.125, seed=42, n=10_000,
    )
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "a9d37ca20ef0411e0e7e6edd512a0f226c59451606bbf77749d75a1f7fd8754e"


# ------------------------------------------------- trigonometric polynomial


def test_trig_polynomial_evaluates_the_fourier_sum():
    coeffs = np.array([0.2 - 0.1j, 1.0, 0.2 + 0.1j])
    p = FourierDensity(coeffs)
    assert p.cutoff == 1
    xs = np.linspace(0.0, 1.0, 17)
    manual = np.real(
        sum(c * np.exp(-2j * np.pi * k * xs) for k, c in zip(range(-1, 2), coeffs))
    )
    assert np.allclose(fourier_series(p.coeffs, xs), manual, atol=1e-14)


# ---------------------------------------------------------------- truncation


def test_truncation_level_frozen_values():
    assert truncation_level(10_000, 0.45) == 1
    assert truncation_level(10_000, 1.0) == 4
    assert truncation_level(1_000_000, 1.0) == 5


def test_truncation_level_rejects_bad_inputs():
    with pytest.raises(ValueError):
        truncation_level(15, 1.0)
    with pytest.raises(ValueError):
        truncation_level(1000, 0.0)


def _report_with(coeffs, n=10_000):
    return EstimateReport(
        r_hat=3.0, c_hat=np.zeros(2), f_hat_coeffs=np.asarray(coeffs, dtype=complex),
        contrast_value=0.0, iterations=0, wall_time=0.0, seed=None, n=n,
    )


def test_truncate_density_keeps_low_harmonics():
    half = np.array([0.3 + 0.1j, 0.05 - 0.02j, 0.01, 0.002j])
    full = np.concatenate([np.conj(half[::-1]), [1.0], half])
    poly = truncate_density(_report_with(full))
    # N(10^4, 0.45) = 1: only c_{-1}, c_0, c_1 survive
    assert poly.cutoff == 1
    assert np.allclose(poly.coeffs, [np.conj(half[0]), 1.0, half[0]], atol=0)


def test_truncate_density_uniform_is_constant_one():
    full = np.zeros(9, dtype=complex)
    full[4] = 1.0
    poly = truncate_density(_report_with(full))
    xs = np.linspace(0.0, 1.0, 101)
    assert np.all(fourier_series(poly.coeffs, xs) == 1.0)


def test_truncate_density_raises_when_level_exceeds_cutoff():
    with pytest.raises(ValueError, match="cutoff"):
        truncate_density(_report_with([0.0, 1.0, 0.0], n=10**6))


def test_truncate_density_reads_n_from_the_report():
    full = np.array([0.01, 0.1, 1.0, 0.1, 0.01], dtype=complex)
    # N(10^4, 0.45) = 1, N(10^6, 0.45) = 2
    assert truncate_density(_report_with(full, n=10_000)).cutoff == 1
    assert truncate_density(_report_with(full, n=10**6)).cutoff == 2


@pytest.mark.parametrize("alpha", [0.5, 0.0, -0.1, float("nan")])
def test_truncate_density_rejects_alpha_outside_the_open_half(alpha):
    with pytest.raises(ValueError, match="alpha"):
        truncate_density(_report_with([0.0, 1.0, 0.0]), alpha)


def test_the_density_estimate_plugs_into_every_angle_density_consumer():
    s = generate(scenario(4), 10_000, seed=0)
    f_hat = truncate_density(fit_joint(s))
    assert isinstance(f_hat, FourierDensity) and f_hat.cutoff == 1
    # N(1e4, 0.45) = 1 keeps c_1 alone of exp(cos), whose c_2 is 0.11, so
    # this fit is biased (r_hat 2.84 for R = 3); it must run, not fit well
    rep = fit_radius_known_density(s, f_hat)
    assert np.isfinite(rep.contrast_value) and 2.5 < rep.r_hat < 3.5
    assert np.array_equal(rep.f_hat_coeffs, f_hat.coeffs)
    u = sample_angles(f_hat, 20_000, seed=1)[:, 0]
    c1 = f_hat.coeffs[2]
    assert abs(np.mean(np.exp(2j * np.pi * u)) - c1) <= 3.0 / math.sqrt(u.size)
    assert np.array_equal(sphere_mean(f_hat), [c1.real, c1.imag])
    assert np.array_equal(density_from_json(density_to_json(f_hat)).coeffs, f_hat.coeffs)


# ---------------------------------------------------------------- center


def test_estimate_center_uniform_density_returns_sample_mean():
    rng = np.random.default_rng(1)
    data = rng.standard_normal((50, 2))
    c_hat = estimate_center(data, 2.5, uniform_density())
    # the mean of each column, bit for bit
    assert np.array_equal(c_hat, [data[:, 0].mean(), data[:, 1].mean()])


def test_estimate_center_exact_on_equally_spaced_circle():
    m = 360
    u = (np.arange(m) + 0.5) / m
    center = np.array([1.0, -2.0])
    data = center + 3.0 * sphere_map(u[:, None])
    c_hat = estimate_center(data, 3.0, uniform_density())
    assert np.allclose(c_hat, center, atol=1e-12)


def test_estimate_center_subtracts_density_barycenter():
    f = FourierDensity.from_half([0.3 + 0.1j])
    data = np.zeros((10, 2))
    c_hat = estimate_center(data, 2.0, f)
    assert np.allclose(c_hat, [-0.6, -0.2], atol=1e-15)


def test_estimate_center_is_within_ulps_of_the_exact_mean():
    # an offset far above the spread: summing row after row drifts by
    # hundreds of ulps at this n, pairwise column sums stay within a few
    n = 200_000
    data = np.random.default_rng(5).normal(size=(n, 2)) * 3.0 + np.array([1e3, -2.5])
    f = vonmises_like()
    c_hat = estimate_center(data, 2.0, f)
    exact = np.array([math.fsum(col) / n for col in data.T])
    assert np.all(np.abs((c_hat + 2.0 * sphere_mean(f)) - exact) <= 4 * np.spacing(np.abs(exact)))


def test_estimate_center_validates_inputs():
    with pytest.raises(ValueError):
        estimate_center(np.zeros(5), 1.0, uniform_density())
    with pytest.raises(ValueError):
        estimate_center(np.zeros((5, 2)), 0.0, uniform_density())
    with pytest.raises(ValueError):
        estimate_center(np.zeros((5, 3)), 1.0, uniform_density())


# ------------------------------------------------------ known-density radius


# a sphere in R^3 with a non-uniform angular density, off the closed form
D3_SCENARIO = Scenario(
    0,
    CallableDensity(lambda u: 1.0 + 0.5 * np.cos(2.0 * np.pi * u[:, 0]), dim_minus_1=2),
    NoiseModel.isotropic_gaussian(0.3, 3),
    r_star=2.0,
)


def test_known_density_fit_noiseless_circle():
    s = generate(scenario(1).noiseless(), 3000, seed=11)
    rep = fit_radius_known_density(s, uniform_density())
    assert abs(rep.r_hat - 3.0) <= 0.01
    assert np.array_equal(rep.f_hat_coeffs, np.array([1.0 + 0.0j]))
    assert rep.contrast_value >= 0.0
    assert rep.iterations > AUDIT_POINTS  # scan plus least-squares descent probes
    assert rep.seed == 11 and rep.n == 3000
    # per-coordinate std of the mean is 3/sqrt(2n) here, so 0.15 is ~3.5 sigma
    assert np.linalg.norm(rep.c_hat) <= 0.15


def test_known_density_fit_callable_density():
    s = generate(scenario(4).noiseless(), 600, seed=5)
    grid = EvalGrid.build(dim=2, nodes_per_axis=17)
    rep = fit_radius_known_density(s, vonmises_like(), grid=grid)
    assert abs(rep.r_hat - 3.0) <= 0.05
    mid = rep.f_hat_coeffs.size // 2
    assert rep.f_hat_coeffs[mid] == 1.0
    assert np.allclose(rep.f_hat_coeffs, np.conj(rep.f_hat_coeffs[::-1]), atol=0)


def test_known_density_fit_flat_sample_is_deterministic_leftmost():
    one = np.zeros((1, 2))
    first = fit_radius_known_density(one, uniform_density())
    second = fit_radius_known_density(one, uniform_density())
    assert first.r_hat == second.r_hat
    assert FitConfig().r_min <= first.r_hat <= FitConfig().r_max


def test_known_density_fit_from_a_window_edge_stops_at_its_first_repeat():
    # the truth, R = 12, lies past r_max: the descent starts at r_max and its
    # first trial step, clipped back onto r_max, ends it, so the fit makes
    # the audit's probes and two more
    s = generate(scenario(1), 1000, seed=0)
    rep = fit_radius_known_density(4.0 * s.data, uniform_density())
    assert rep.r_hat == FitConfig().r_max and rep.iterations == AUDIT_POINTS + 2
    assert (rep.r_hat.hex(), rep.contrast_value.hex()) == ("0x1.4000000000000p+3", "0x1.a66907c145d7cp-11")


def test_known_density_fit_keeps_its_exact_radius_descent():
    # pinned values of the known-density fit, which descends with the exact
    # radius column of the Jacobian from the best of the AUDIT_POINTS scan
    # radii; a circle callable is fitted in its Fourier form
    s = generate(scenario(1), 1000, seed=21)
    rep = fit_radius_known_density(s, FourierDensity.from_half([0.1 - 0.05j]))
    assert (rep.r_hat, rep.contrast_value, rep.iterations) == (2.9985643616769777, 0.00017344957472986065, 20)
    s = generate(scenario(4), 600, seed=5)
    rep = fit_radius_known_density(s, vonmises_like(), grid=EvalGrid.build(nodes_per_axis=17))
    assert (rep.r_hat, rep.contrast_value, rep.iterations) == (2.9716510279247395, 0.00011760948167644109, 20)


def _basins(values, cap):
    """Audit indices a fit descends from: the best (leftmost on ties), then each
    interior strict local minimum, best first, at most cap of them."""
    ranked = sorted(range(len(values)), key=lambda i: values[i])
    interior = [i for i in range(1, len(values) - 1) if values[i - 1] > values[i] < values[i + 1]]
    return ([ranked[0]] + [i for i in ranked if i in interior and i != ranked[0]])[:cap]


def per_radius(monkeypatch, each, jacobian=None):
    """Patch the fits' contrast_residual and contrast_probe so that
    each(f, radius, row) sees the real residual's row at each radius, one
    radius at a time, and returns the row the fit takes there.  A batch of
    radii, a fit's audit, is still evaluated in one call, and the rows each
    returns are stacked into it.  A descent probe's Jacobian is
    jacobian(f, radius) when given, else the real one."""
    import spheredeconv.estimators as est_mod

    real_residual, real_probe = est_mod.contrast_residual, est_mod.contrast_probe

    def residual(f, radii, ctx):
        return np.stack([each(f, float(at), row) for at, row in zip(radii, real_residual(f, radii, ctx))])

    def probe(f, radius, ctx, radius_only=False):
        row, jac = real_probe(f, radius, ctx, radius_only)
        return each(f, radius, row), (jac if jacobian is None else lambda: jacobian(f, radius))

    monkeypatch.setattr(est_mod, "contrast_residual", residual)
    monkeypatch.setattr(est_mod, "contrast_probe", probe)


def _recording_minimize(monkeypatch, starts):
    import spheredeconv.estimators as est_mod

    real_minimize = est_mod.minimize

    def recording_minimize(fun, x0, max_nfev):
        starts.append(x0.copy())
        return real_minimize(fun, x0, max_nfev)

    monkeypatch.setattr(est_mod, "minimize", recording_minimize)


def test_both_fits_scan_the_audit_radii_and_descend_from_the_best(monkeypatch):
    probes, starts = [], []

    def recording_residual(f, radius, row):
        probes.append((float(row @ row), radius))
        return row

    per_radius(monkeypatch, recording_residual)
    _recording_minimize(monkeypatch, starts)
    cfg = FitConfig(restarts=3, k_cutoff=1)
    audit = np.linspace(cfg.r_min, cfg.r_max, AUDIT_POINTS)
    s = generate(scenario(1), 400, seed=2)
    fits = ((lambda: fit_joint(s, cfg), 3), (lambda: fit_radius_known_density(s, uniform_density(), cfg), 1))
    for fit, size in fits:
        probes.clear()
        starts.clear()
        fit()
        assert [radius for _, radius in probes[:AUDIT_POINTS]] == list(audit)
        basins = _basins([value for value, _ in probes[:AUDIT_POINTS]], cfg.restarts)
        assert [x0[0] for x0 in starts] == list(audit[basins])
        assert all(x0.size == size and not x0[1:].any() for x0 in starts)
    # two audit radii tie at the minimum: both fits descend from the
    # leftmost and then from the other basin
    nearest = lambda radius: min((audit[9], audit[5]), key=lambda a: abs(radius - a))  # noqa: E731
    tie = lambda f, radius, row: np.array([abs(radius - nearest(radius))])  # noqa: E731
    tie_jacobian = lambda f, radius: np.array([[np.sign(radius - nearest(radius))]])  # noqa: E731
    per_radius(monkeypatch, tie, tie_jacobian)
    starts.clear()
    rep = fit_radius_known_density(s, uniform_density(), cfg)
    assert [x0[0] for x0 in starts] == [audit[5], audit[9]]
    assert (rep.r_hat, rep.contrast_value) == (audit[5], 0.0)
    starts.clear()
    rep = fit_joint(s, FitConfig(restarts=3, k_cutoff=0))
    assert [x0[0] for x0 in starts] == [audit[5], audit[9]]
    assert (rep.r_hat, rep.contrast_value) == (audit[5], 0.0)


AUDIT = np.linspace(FitConfig.r_min, FitConfig.r_max, AUDIT_POINTS)
# interior minima near audit[4] (value 0.3) and audit[11] (value 0.1)
TWO_WELLS = ((0.3, 3.1), (0.1, 7.7))


def _profile(wells):
    return [min(a + (radius - m) ** 2 for a, m in wells) for radius in AUDIT]


def _profile_fit(monkeypatch, wells, restarts):
    """fit_joint at k_cutoff = 0 on the synthetic contrast min_k (a_k + (R - m_k)^2)
    over wells = ((a_k, m_k), ...): (descent start radii, report)."""

    def well(radius):
        return min(wells, key=lambda w: w[0] + (radius - w[1]) ** 2)

    def residual(f, radius, row):
        a, m = well(radius)
        return np.array([math.sqrt(a + (radius - m) ** 2)])

    def jacobian(f, radius):
        a, m = well(radius)
        return np.array([[(radius - m) / math.sqrt(a + (radius - m) ** 2)]])

    starts = []
    per_radius(monkeypatch, residual, jacobian)
    _recording_minimize(monkeypatch, starts)
    rep = fit_joint(generate(scenario(1), 60, seed=0), FitConfig(k_cutoff=0, restarts=restarts))
    return [float(x0[0]) for x0 in starts], rep


def test_two_interior_minima_get_two_descents_best_first(monkeypatch):
    assert _basins(_profile(TWO_WELLS), AUDIT_POINTS) == [11, 4]
    starts, rep = _profile_fit(monkeypatch, TWO_WELLS, restarts=8)
    assert starts == [AUDIT[11], AUDIT[4]]
    assert rep.r_hat == pytest.approx(7.7, abs=1e-6) and rep.contrast_value == pytest.approx(0.1, abs=1e-12)


def test_one_restart_descends_only_the_best_basin(monkeypatch):
    starts, rep = _profile_fit(monkeypatch, TWO_WELLS, restarts=1)
    assert starts == [AUDIT[11]]
    assert rep.r_hat == pytest.approx(7.7, abs=1e-6)


def test_an_endpoint_minimum_that_is_not_the_best_gets_no_descent(monkeypatch):
    # the second well falls all the way to r_max, where the profile ends lower
    # than its neighbour but above the interior minimum at audit[4]
    wells = ((0.1, 3.1), (0.5, 10.5))
    profile = _profile(wells)
    assert profile[4] < profile[15] < profile[14]
    starts, rep = _profile_fit(monkeypatch, wells, restarts=AUDIT_POINTS)
    assert starts == [AUDIT[4]]
    assert rep.r_hat == pytest.approx(3.1, abs=1e-6)


def test_a_best_audit_radius_at_the_endpoint_is_descended(monkeypatch):
    # the profile's best audit value is at r_max; the interior minimum at audit[4] follows
    wells = ((0.5, 3.1), (0.05, 10.5))
    profile = _profile(wells)
    assert profile[15] == min(profile) and profile[3] > profile[4] < profile[5]
    starts, rep = _profile_fit(monkeypatch, wells, restarts=8)
    assert starts == [AUDIT[15], AUDIT[4]]
    assert rep.r_hat == FitConfig.r_max


def test_basin_descents_rerun_bit_identically(monkeypatch):
    starts, rep = _profile_fit(monkeypatch, TWO_WELLS, restarts=8)
    again_starts, again = _profile_fit(monkeypatch, TWO_WELLS, restarts=8)
    assert again_starts == starts
    assert (again.r_hat, again.contrast_value, again.iterations) == (rep.r_hat, rep.contrast_value, rep.iterations)


def _same_fit(a, b):
    return (a.r_hat, a.contrast_value, a.iterations) == (b.r_hat, b.contrast_value, b.iterations) and np.array_equal(
        a.f_hat_coeffs, b.f_hat_coeffs
    )


def test_default_fits_build_their_grid_once(monkeypatch):
    s = generate(scenario(1), 1000, seed=3)
    builds = []
    real = EvalGrid.build.__func__

    def counting(cls, *args, **kwargs):
        builds.append(kwargs)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(EvalGrid, "build", classmethod(counting))
    fits = [fit_joint(s), fit_radius_known_density(s, scenario(1).density)]
    first = len(builds)
    again = [fit_joint(s), fit_radius_known_density(s, scenario(1).density)]
    # at most the first default fit of the process builds the grid
    assert first <= 1 and len(builds) == first
    monkeypatch.undo()
    grid = EvalGrid.build()
    explicit = [fit_joint(s, grid=grid), fit_radius_known_density(s, scenario(1).density, grid=grid)]
    for a, b, c in zip(fits, again, explicit):
        assert _same_fit(a, c) and _same_fit(b, c) and np.array_equal(a.c_hat, c.c_hat)


def test_fits_on_a_prebuilt_context_are_bitwise_the_fits_that_build_their_own():
    grid, cfg = EvalGrid.build(nu_est=0.5), FitConfig(restarts=2, k_cutoff=2)
    s = generate(scenario(4), 300, seed=5)
    own = (fit_radius_known_density(s, scenario(4).density, cfg, grid), fit_joint(s, cfg, grid))
    # one context for both fits, in run_bench's order; grid None takes ctx's
    ctx = ContrastContext.from_sample(s.data, grid)
    shared = (fit_radius_known_density(s, scenario(4).density, cfg, ctx=ctx), fit_joint(s, cfg, grid, ctx=ctx))
    assert all(_same_fit(a, b) for a, b in zip(own, shared))


def test_a_context_on_another_grid_is_refused_before_any_work(monkeypatch):
    import spheredeconv.estimators as est_mod

    monkeypatch.setattr(est_mod, "contrast_residual", lambda *a: pytest.fail("probed"))
    monkeypatch.setattr(est_mod, "contrast_probe", lambda *a: pytest.fail("probed"))
    monkeypatch.setattr(est_mod, "fourier_form", lambda *a: pytest.fail("projected"))
    s = generate(scenario(1), 100, seed=0)
    ctx = ContrastContext.from_sample(s.data, EvalGrid.build(nodes_per_axis=5))
    other = EvalGrid.build(nodes_per_axis=5)
    with pytest.raises(ValueError, match="another grid"):
        fit_joint(s, grid=other, ctx=ctx)
    with pytest.raises(ValueError, match="another grid"):
        fit_radius_known_density(s, uniform_density(), grid=other, ctx=ctx)


def test_known_density_fit_validates_inputs():
    with pytest.raises(ValueError):
        fit_radius_known_density(np.zeros((5, 3)), uniform_density())


def _normalized(raw):
    x = np.linspace(0.0, 1.0, 10_001)
    z = np.trapezoid(raw(x[:, None]), x)
    return CallableDensity(lambda u: raw(u) / z)


@pytest.mark.parametrize(
    "raw, match",
    [
        # a narrow bump: |c_64| is about exp(-64^2 / 400) ~ 4e-5
        (lambda u: np.exp(200.0 * (np.cos(2.0 * np.pi * u[:, 0]) - 1.0)), "do not fall below"),
        # c_1 = 3: sum_(k != 0) |c_k|^2 = 18
        (lambda u: 1.0 + 6.0 * np.cos(2.0 * np.pi * u[:, 0]), "exceeds the bound"),
        # all of its mass past k = 64 at c_70 = 1/4: 1/8 of int f^2 there
        (lambda u: 1.0 + 0.5 * np.cos(2.0 * np.pi * 70.0 * u[:, 0]), "past k = 64 carry 0.125"),
    ],
    ids=["past_the_tail_cutoff", "past_the_norm_bound", "mass_past_the_cap"],
)
def test_circle_callable_off_the_fourier_form_is_refused_before_ecf(monkeypatch, raw, match):
    import spheredeconv.contrast as contrast_mod

    def no_ecf(*args, **kwargs):
        raise AssertionError("ECF work started before the density was refused")

    monkeypatch.setattr(contrast_mod, "ecf", no_ecf)
    density = _normalized(raw)
    # a refusal is not kept: each fit on the density is refused afresh
    for _ in range(2):
        with pytest.raises(ConfigError, match=match):
            fit_radius_known_density(generate(scenario(1), 100, 0), density)


@pytest.mark.parametrize("known", [False, True])
def test_a_window_whose_bessel_arguments_overflow_is_refused_before_ecf(monkeypatch, known):
    import spheredeconv.contrast as contrast_mod

    def no_ecf(*args, **kwargs):
        raise AssertionError("ECF work started")

    monkeypatch.setattr(contrast_mod, "ecf", no_ecf)
    s, grid = generate(scenario(1), 500, seed=0), EvalGrid.build(nu_est=1e3)

    def fit(r_max):
        cfg = FitConfig(r_max=r_max)
        return fit_radius_known_density(s, scenario(1).density, cfg, grid) if known else fit_joint(s, cfg, grid)

    # max|t| is about 1.4e3 here: r_max = 1e306 puts the largest argument past
    # the largest double, r_max = 1e300 does not, and that fit reaches the ECF
    with pytest.raises(ConfigError, match="r_max = 1e\\+306 at nu_est = 1000"):
        fit(1e306)
    with pytest.raises(AssertionError, match="ECF work started"):
        fit(1e300)


@pytest.mark.parametrize("known", [False, True])
@pytest.mark.parametrize("nu_est", [1e3, 1e60, 1e70, 1e80, 1e90, 1e100])
def test_a_window_whose_descent_can_overflow_is_refused_before_ecf(monkeypatch, known, nu_est):
    import spheredeconv.contrast as contrast_mod

    def no_ecf(*args, **kwargs):
        raise AssertionError("ECF work started")

    monkeypatch.setattr(contrast_mod, "ecf", no_ecf)
    s, grid = generate(scenario(1), 500, seed=0), EvalGrid.build(nu_est=nu_est)
    # from 1e60 up, _trust_step's denom**3 overflowed, and from 1e80 the
    # joint fit failed mid-descent on a NaN radius; every window the other
    # tests fit on (nu_est <= 1e3) still reaches the ECF
    refused = pytest.raises(ConfigError, match=re.escape(f"nu_est = {nu_est:g}: the descent's Gram matrix"))
    with refused if nu_est > 1e3 else pytest.raises(AssertionError, match="ECF work started"):
        fit_radius_known_density(s, scenario(1).density, grid=grid) if known else fit_joint(s, grid=grid)


def test_known_density_fit_recovers_the_radius_in_three_dimensions():
    # off the closed form: the angle quadrature, with its exact radius column
    # on 3 nodes per axis; seeds 1-3 missed R by at most 0.0019 at this n
    s = generate(D3_SCENARIO.noiseless(), 20_000, seed=1)
    rep = fit_radius_known_density(s, D3_SCENARIO.density, grid=EvalGrid.build(dim=3, nodes_per_axis=3))
    assert abs(rep.r_hat - D3_SCENARIO.r_star) <= 0.01
    assert np.array_equal(rep.f_hat_coeffs, np.array([1.0 + 0.0j]))
    assert rep.iterations > AUDIT_POINTS


def test_known_density_fit_descends_every_audit_basin():
    # this sample's audit profile has two basins on 3 nodes per axis; the
    # best audit radius descends to r_hat = 8.996, the other basin to the
    # lower contrast near R = 2
    s = generate(D3_SCENARIO, 300, seed=2)
    rep = fit_radius_known_density(s, D3_SCENARIO.density, grid=EvalGrid.build(dim=3, nodes_per_axis=3))
    assert abs(rep.r_hat - D3_SCENARIO.r_star) <= 0.05


# ---------------------------------------------------------------- radius window


@pytest.mark.parametrize(
    "cfg, grid",
    [(FitConfig(r_max=40.0, restarts=2, k_cutoff=1), None), (FitConfig(restarts=2, k_cutoff=1), EvalGrid.build(nu_est=4.0))],
    ids=["r_max_40", "nu_est_4"],
)
def test_wide_windows_fit(cfg, grid):
    # Bessel arguments past 50 (r_max 40 on the default grid reaches ~57,
    # nu_est 4 with r_max 10 ~57) fit like any other window
    s = generate(scenario(1), 100, 0)
    for f_star in (uniform_density(), vonmises_like()):
        rep = fit_radius_known_density(s, f_star, cfg, grid)
        assert np.isfinite(rep.contrast_value) and cfg.r_min <= rep.r_hat <= cfg.r_max
    rep = fit_joint(s, cfg, grid)
    assert np.isfinite(rep.contrast_value) and cfg.r_min <= rep.r_hat <= cfg.r_max


def test_wide_window_fit_reaches_the_largest_argument(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    seen = []
    real = charfn_mod.bessel_rows

    def recording(k_cut, x):
        seen.append(float(np.max(x)))
        return real(k_cut, x)

    cfg, grid = FitConfig(r_max=40.0), EvalGrid.build()
    # the sample's ECF calls the kernel too, once per coordinate, before the fit
    ctx = ContrastContext.from_sample(generate(scenario(1), 100, 0), grid)
    monkeypatch.setattr(charfn_mod, "bessel_rows", recording)
    rep = fit_radius_known_density(generate(scenario(1), 100, 0), uniform_density(), cfg, grid, ctx=ctx)
    assert max(seen) == float(grid.polar_table(uniform_density().cutoff).radii[-1]) * cfg.r_max > 50.0
    # one call for the whole audit, then one per descent probe, the first,
    # at an audit radius, included
    assert len(seen) == 1 + (rep.iterations - AUDIT_POINTS)


# ---------------------------------------------------------------- probe log


def test_probe_log_picks_the_smallest_value_and_breaks_only_exact_ties():
    import spheredeconv.estimators as est_mod

    values = {1.0: float(np.nextafter(0.25, 1.0)), 2.0: 0.5, 3.5: 0.25, 4.0: 0.25, 5.0: float("nan")}
    # residuals whose squared norms are exactly the values above: 2**-54 is
    # one ulp of 0.25
    residuals = {
        1.0: np.array([0.5, 2.0**-27]),
        2.0: np.array([0.5, 0.5]),
        3.5: np.array([0.5]),
        4.0: np.array([0.5]),
        5.0: np.array([float("nan")]),
    }
    assert all(float(residuals[radius] @ residuals[radius]) == values[radius] for radius in (1.0, 2.0, 3.5, 4.0))
    data = generate(scenario(1), 60, seed=0).data
    log = est_mod._ProbeLog(data, 7, 0.0)
    big, small = FourierDensity.from_half([0.2]), FourierDensity.from_half([0.1])
    for f, radius in ((big, 1.0), (big, 2.0), (big, 4.0), (big, 3.5), (small, 3.5), (small, 4.0)):
        log(f, radius, residuals[radius])
        assert log.probes[-1][0] == values[radius]
    with pytest.raises(NumericalError):
        log(small, 5.0, residuals[5.0])
    # the value one ulp above the minimum at a smaller radius loses; among
    # the exact ties the smallest radius wins, then the smaller mass
    value, radius, f = log.best()
    assert (value, radius) == (0.25, 3.5) and f is small
    rep = log.report()
    assert (rep.r_hat, rep.contrast_value, rep.iterations) == (3.5, 0.25, 6)
    assert np.array_equal(rep.f_hat_coeffs, small.coeffs)
    assert np.array_equal(rep.c_hat, estimate_center(data, 3.5, small))
    assert rep.seed == 7 and rep.n == 60


def test_a_full_tie_goes_to_the_first_logged_probe():
    import spheredeconv.estimators as est_mod

    log = est_mod._ProbeLog(generate(scenario(1), 60, seed=0).data, None, 0.0)
    first, second = FourierDensity.from_half([0.1j]), FourierDensity.from_half([-0.1])
    for f in (first, second, first):
        log(f, 3.0, np.array([0.5]))
    assert log.best()[2] is first
    log(second, 3.0, np.array([0.25]))
    assert log.best()[2] is second


def test_a_batch_of_radii_is_one_probe_per_row():
    import spheredeconv.estimators as est_mod

    rows = {1.0: [0.5, 0.25], 2.0: [float("nan"), 0.0], 3.0: [0.25, 0.0]}
    data = generate(scenario(1), 60, seed=0).data
    log = est_mod._ProbeLog(data, None, 0.0)
    f = FourierDensity.uniform()
    log(f, np.array([3.0, 1.0]), np.array([rows[3.0], rows[1.0]]))
    assert log.probes == [(0.0625, 3.0, f), (0.3125, 1.0, f)]
    assert all(type(radius) is float for _, radius, _ in log.probes)
    # the rows before the first non-finite one are logged, then it is refused
    with pytest.raises(NumericalError):
        log(f, np.array([1.0, 2.0, 3.0]), np.array([rows[1.0], rows[2.0], rows[3.0]]))
    assert [radius for _, radius, _ in log.probes] == [3.0, 1.0, 1.0]


@pytest.mark.parametrize("kind", ["joint", "known"])
def test_every_contrast_evaluation_is_a_logged_probe(monkeypatch, kind):
    calls = []

    def counting(f, radius, row):
        calls.append((float(row @ row), radius))
        return row

    per_radius(monkeypatch, counting)
    s = generate(scenario(1), 200, seed=8)
    if kind == "joint":
        rep = fit_joint(s, FitConfig(restarts=2, max_iters=100, k_cutoff=1))
    else:
        rep = fit_radius_known_density(s, uniform_density())
    assert len(calls) == rep.iterations
    # the report carries the winning probe's logged value, not a re-evaluation
    assert (rep.contrast_value, rep.r_hat) in calls
    assert rep.contrast_value == min(value for value, _ in calls)


def test_max_iters_caps_each_descent():
    s = generate(scenario(1), 200, seed=8)
    full = fit_joint(s, FitConfig(restarts=2, k_cutoff=1))
    capped = fit_joint(s, FitConfig(restarts=2, k_cutoff=1, max_iters=3))
    # each descent: at most max_iters probes; its exact Jacobians reuse them
    assert capped.iterations <= AUDIT_POINTS + 2 * 3
    assert capped.iterations < full.iterations


@pytest.mark.parametrize("kind", ["joint", "known"])
def test_every_probe_radius_lies_in_the_box(monkeypatch, kind):
    import spheredeconv.estimators as est_mod

    radii, logged = [], []

    def recording(f, radius, row):
        radii.append(radius)
        return row

    real_log = est_mod._ProbeLog.__call__

    def logging(log, f, radius, residual):
        logged.extend(float(at) for at in np.atleast_1d(radius))
        return real_log(log, f, radius, residual)

    per_radius(monkeypatch, recording)
    monkeypatch.setattr(est_mod._ProbeLog, "__call__", logging)
    # the truth lies beyond r_max, so every descent pushes against the box
    scn = Scenario(scenario_id=0, density=uniform_density(), noise=NoiseModel.none(2), r_star=12.0)
    s = generate(scn, 400, seed=3)
    cfg = FitConfig(restarts=2, k_cutoff=1)
    rep = fit_joint(s, cfg) if kind == "joint" else fit_radius_known_density(s, uniform_density(), cfg)
    # every probe is evaluated and logged, a repeat of a projected point too
    assert len(logged) == rep.iterations == len(radii)
    assert all(cfg.r_min <= radius <= cfg.r_max for radius in logged + radii)
    assert logged.count(cfg.r_max) > 2 and rep.r_hat == cfg.r_max


# ---------------------------------------------------------------- Jacobian


def central_differences(fn, x, step=1e-6):
    return np.column_stack([(fn(x + step * e) - fn(x - step * e)) / (2.0 * step) for e in np.eye(x.size)])


def _jacobian_cases():
    joint = {"inside": (3.0, 0.1), "below_r_min": (0.3, 0.1), "above_r_max": (11.0, 0.1),
             "shrunk": (3.0, 2.0), "clipped_and_shrunk": (12.0, 2.0)}
    for scenario_id in (1, 4):
        for name, (radius, coeff_scale) in joint.items():
            yield pytest.param(scenario_id, radius, coeff_scale, id=f"{scenario_id}-{name}")
    # the known-density fit's radius column: a circle callable in its
    # Fourier form, and a d = 3 density through the angle quadrature
    for scenario_id in (4, "d3"):
        for name, radius in (("inside", 3.0), ("below_r_min", 0.3)):
            yield pytest.param(scenario_id, radius, None, id=f"{scenario_id}-known_{name}")


@pytest.mark.parametrize("scenario_id, radius, coeff_scale", _jacobian_cases())
def test_projected_jacobian_matches_central_differences(scenario_id, radius, coeff_scale):
    import spheredeconv.estimators as est_mod

    cfg = FitConfig()
    if scenario_id == "d3":
        scn, grid = D3_SCENARIO, EvalGrid.build(dim=3, nodes_per_axis=5)
    else:
        scn, grid = scenario(scenario_id), EvalGrid.build()
    ctx = ContrastContext.from_sample(generate(scn, 2000, seed=4), grid)
    if coeff_scale is None:
        f_star = fourier_form(scn.density)
        x, density = np.array([radius]), lambda half: f_star
    else:
        rng = np.random.default_rng(scenario_id)
        x, density = np.concatenate([[radius], coeff_scale * rng.standard_normal(8)]), FourierDensity.from_half
    shrunk = 2.0 * float(x[1:] @ x[1:]) > COEFF_NORM_BOUND
    assert shrunk == (coeff_scale == 2.0)

    def residual(x):
        r_proj, half = est_mod._project(x, cfg)
        return contrast_residual(density(half), r_proj, ctx)

    r_proj, half = est_mod._project(x, cfg)
    got = est_mod._project_jacobian(contrast_probe(density(half), r_proj, ctx, x.size == 1)[1](), x, cfg)
    want = central_differences(residual, x)
    assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))
    clipped = not cfg.r_min <= radius <= cfg.r_max
    assert (not got[:, 0].any()) == clipped
    if shrunk:
        # the radial direction is flat under the shrink
        assert np.max(np.abs(got[:, 1:] @ x[1:])) <= 1e-12 * np.max(np.abs(got[:, 1:]))


def test_default_joint_fit_runs_one_series_call_per_probe(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    series, probes = [], []
    real_series = charfn_mod.bessel_rows

    def counting_series(k_cut, x):
        series.append(k_cut)
        return real_series(k_cut, x)

    def counting_residual(f, radius, row):
        probes.append(radius)
        return row

    s = generate(scenario(1), 2000, seed=6)
    # the sample's ECF calls the kernel too, once per coordinate, before the fit
    ctx = ContrastContext.from_sample(s, EvalGrid.build(dim=2))
    monkeypatch.setattr(charfn_mod, "bessel_rows", counting_series)
    per_radius(monkeypatch, counting_residual)
    rep = fit_joint(s, ctx=ctx)
    # one call for the whole audit, then one per descent probe, the first,
    # at the best audit radius, included
    assert len(probes) == rep.iterations
    assert len(series) == 1 + (rep.iterations - AUDIT_POINTS)
    assert set(series) == {FitConfig().k_cutoff}
    again = fit_joint(s)
    assert (again.r_hat, again.contrast_value, again.iterations) == (rep.r_hat, rep.contrast_value, rep.iterations)
    assert np.array_equal(again.f_hat_coeffs, rep.f_hat_coeffs) and np.array_equal(again.c_hat, rep.c_hat)


def record_probes(monkeypatch):
    """Record each probe's (density, radius, logged value) as the fit's log computes it."""
    probes = []

    def recording(f, radius, row):
        probes.append((f, radius, float(row @ row)))
        return row

    per_radius(monkeypatch, recording)
    return probes


@pytest.mark.parametrize("known", [False, True])
def test_audit_values_equal_the_contrast_at_each_radius(monkeypatch, known):
    s, grid = generate(scenario(4), 2000, seed=2), EvalGrid.build(dim=2)
    probes = record_probes(monkeypatch)
    if known:
        fit_radius_known_density(s, scenario(4).density, grid=grid)
    else:
        fit_joint(s, grid=grid)
    audit = np.linspace(FitConfig().r_min, FitConfig().r_max, AUDIT_POINTS)
    assert [radius for _, radius, _ in probes[:AUDIT_POINTS]] == list(audit)
    # each value as a context holding that radius alone computes it
    for f, radius, value in probes[:AUDIT_POINTS]:
        assert value == contrast_mn(f, radius, ContrastContext.from_sample(s, grid))


@pytest.mark.parametrize("known", [False, True])
def test_the_audit_is_one_kernel_call_on_every_audit_radius(monkeypatch, known):
    import spheredeconv.charfn as charfn_mod

    seen = []
    real = charfn_mod.bessel_rows

    def recording(k_cut, x):
        seen.append(x.copy())
        return real(k_cut, x)

    s, grid = generate(scenario(1), 2000, seed=4), EvalGrid.build(dim=2)
    # the sample's ECF calls the kernel too, once per coordinate, before the fit
    ctx = ContrastContext.from_sample(s, grid)
    monkeypatch.setattr(charfn_mod, "bessel_rows", recording)
    if known:
        rep = fit_radius_known_density(s, uniform_density(), grid=grid, ctx=ctx)
    else:
        rep = fit_joint(s, grid=grid, ctx=ctx)
    radii = grid.polar_table(0 if known else FitConfig().k_cutoff).radii
    assert radii.size == 153
    audit = np.linspace(FitConfig().r_min, FitConfig().r_max, AUDIT_POINTS)
    assert seen[0].tobytes() == np.multiply.outer(audit, radii).ravel().tobytes()
    assert all(x.size == 153 for x in seen[1:]) and rep.iterations > AUDIT_POINTS


def _report_bytes(rep) -> dict:
    """Every report field but wall_time, as bytes."""
    fields = json.loads(rep.to_json())
    fields.pop("wall_time")
    fields.update(r_hat=rep.r_hat.hex(), contrast_value=rep.contrast_value.hex())
    fields.update(c_hat=rep.c_hat.tobytes(), f_hat_coeffs=rep.f_hat_coeffs.tobytes())
    return fields


def _fit(s, known, grid, cfg=None, density=None, ctx=None):
    if known:
        return fit_radius_known_density(s, density or scenario(s.scenario_id).density, cfg, grid, ctx=ctx)
    return fit_joint(s, cfg, grid, ctx=ctx)


def _audit_calls(monkeypatch, grid) -> list:
    """Record the size of every bessel_rows call as the 16-radius audit on grid makes it."""
    import spheredeconv.charfn as charfn_mod

    sizes, real = [], charfn_mod.bessel_rows

    def recording(k_cut, x):
        sizes.append(x.size)
        return real(k_cut, x)

    monkeypatch.setattr(charfn_mod, "bessel_rows", recording)
    return sizes


@pytest.mark.parametrize("known", [False, True])
@pytest.mark.parametrize("scenario_id", [1, 4])
@pytest.mark.parametrize("bench", [False, True])
def test_a_fit_on_a_warm_grid_is_the_fit_on_a_fresh_grid(known, scenario_id, bench):
    from spheredeconv.charfn import default_grid

    # bench: the narrower window nu_est = 0.5
    warm = EvalGrid.build(nu_est=0.5) if bench else default_grid()
    # another sample's fit leaves this fit's audit in the grid's store
    _fit(generate(scenario(scenario_id), 500, seed=11), known, warm)
    s = generate(scenario(scenario_id), 1000, seed=12)
    assert _report_bytes(_fit(s, known, warm)) == _report_bytes(_fit(s, known, EvalGrid.build(nu_est=warm.nu_est)))


@pytest.mark.parametrize("known", [False, True])
def test_a_warm_fit_makes_no_audit_kernel_call(monkeypatch, known):
    grid = EvalGrid.build()
    _fit(generate(scenario(4), 500, seed=13), known, grid)
    s = generate(scenario(4), 1000, seed=14)
    # the sample's ECF calls the kernel too, once per coordinate, before the fit
    ctx = ContrastContext.from_sample(s, grid)
    sizes = _audit_calls(monkeypatch, grid)
    rep = _fit(s, known, grid, ctx=ctx)
    # descent probes alone call it, each on the grid's 153 distinct radii, the
    # first, at an audit radius, included
    assert set(sizes) == {153} and rep.iterations > AUDIT_POINTS
    assert len(sizes) == rep.iterations - AUDIT_POINTS


@pytest.mark.parametrize(
    "known, change",
    [(False, FitConfig(r_max=12.0)), (False, FitConfig(k_cutoff=3)), (True, FitConfig(r_max=12.0)), (True, None)],
)
def test_another_audit_misses_the_store_and_is_the_cold_fit(monkeypatch, known, change):
    grid = EvalGrid.build()
    s = generate(scenario(1), 1000, seed=15)
    _fit(s, known, grid, density=uniform_density())
    # the known fit's other audit is another density's
    density = scenario(4).density if change is None else uniform_density()
    ctx = ContrastContext.from_sample(s, grid)
    sizes = _audit_calls(monkeypatch, grid)
    rep = _fit(s, known, grid, change, density, ctx)
    assert sizes[0] == AUDIT_POINTS * 153 and set(sizes[1:]) == {153}
    monkeypatch.undo()
    assert _report_bytes(rep) == _report_bytes(_fit(s, known, EvalGrid.build(), change, density))


def test_three_dimensional_audit_is_one_quadrature_pass_per_radius(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    passes = []
    real_pass = charfn_mod._psi_quadrature

    def recording(f, radius, pts):
        passes.append(radius)
        return real_pass(f, radius, pts)

    s = generate(D3_SCENARIO, 300, seed=1)
    grid = EvalGrid.build(dim=3, nodes_per_axis=3)
    cfg = FitConfig(max_iters=1)
    probes = record_probes(monkeypatch)
    monkeypatch.setattr(charfn_mod, "_psi_quadrature", recording)
    fit_radius_known_density(s, D3_SCENARIO.density, cfg, grid)
    audit = np.linspace(cfg.r_min, cfg.r_max, AUDIT_POINTS)
    # one pass per audit radius, then one per descent, whose one probe (at an
    # audit radius) takes its Jacobian from that pass
    descents = _basins([value for _, _, value in probes[:AUDIT_POINTS]], cfg.restarts)
    assert len(descents) > 1
    assert passes == list(audit) + [audit[i] for i in descents]
    monkeypatch.undo()
    # the values a context holding each radius alone computes
    fresh = ContrastContext.from_sample(s, grid)
    for f, radius, value in probes[:AUDIT_POINTS]:
        assert value == contrast_mn(f, radius, fresh)


@pytest.mark.parametrize("known", [False, True])
def test_a_projected_repeat_is_logged_and_evaluated_again(monkeypatch, known):
    import spheredeconv.charfn as charfn_mod
    import spheredeconv.estimators as est_mod

    cfg, s = FitConfig(restarts=1, k_cutoff=1), generate(scenario(1), 300, seed=2)
    ctx = ContrastContext.from_sample(s, EvalGrid.build())
    kernel, seen = [], {}
    real_rows = charfn_mod.bessel_rows
    monkeypatch.setattr(charfn_mod, "bessel_rows", lambda k_cut, x: kernel.append(x.size) or real_rows(k_cut, x))

    def two_probes_past_r_max(fun, x0, max_nfev):
        # both points project to (r_max, the same coefficients)
        outer = np.array([cfg.r_max + 1.0, 0.01, -0.02])[: x0.size]
        further = outer + np.eye(x0.size)[0]
        before = len(kernel)
        seen["outer"], seen["further"] = fun(outer), fun(further)
        seen["jacobians"] = seen["outer"][1](), seen["further"][1]()
        seen["kernel"], seen["x"] = len(kernel) - before, further
        return x0

    monkeypatch.setattr(est_mod, "minimize", two_probes_past_r_max)
    if known:
        rep = fit_radius_known_density(s, uniform_density(), cfg, ctx=ctx)
        f = fourier_form(uniform_density())
    else:
        rep = fit_joint(s, cfg, ctx=ctx)
        f = FourierDensity.from_half([0.01 - 0.02j])
    # each probe makes its own evaluation, one kernel call, and its Jacobian
    # none; both give the same residual
    assert seen["kernel"] == 2 and seen["further"][0] is not seen["outer"][0]
    assert np.array_equal(seen["further"][0], seen["outer"][0])
    # both probes are logged, at the clipped radius
    assert rep.iterations == AUDIT_POINTS + 2 and rep.r_hat <= cfg.r_max
    monkeypatch.undo()
    residual, jacobian = contrast_probe(f, cfg.r_max, ctx, known)
    assert all(np.array_equal(seen[at][0], residual) for at in ("outer", "further"))
    # each probe chains its Jacobian through its own raw point: a clipped radius's zero column
    want = est_mod._project_jacobian(jacobian(), seen["x"], cfg)
    assert not want[:, 0].any() and want.shape[1] == (1 if known else 3)
    assert all(np.array_equal(got, want) for got in seen["jacobians"])


# ---------------------------------------------------------------- the descent


def _counted(residual):
    """residual, recording every point it is evaluated at in .points."""

    def wrapped(x):
        wrapped.points.append(x.copy())
        return residual(x)

    wrapped.points = []
    return wrapped


def _paired(residual, jac):
    """minimize's fun of a residual and a Jacobian function: (residual(x), the Jacobian at x as a callable)."""
    return lambda x: (residual(x), lambda: jac(x))


def _linear(a, b):
    return _counted(lambda x: a @ x - b), lambda x: a.copy()


def test_descent_reaches_the_least_squares_solution_of_a_linear_residual_in_one_step():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((40, 3))
    b = a @ np.array([3.0, -2.0, 1.0]) + 0.1 * rng.standard_normal(40)
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    residual, jac = _linear(a, b)
    # the Gauss-Newton step from x0 fits in the first trust region, of radius |x0|
    x = minimize(_paired(residual, jac), want + np.array([0.1, -0.05, 0.08]), 100)
    assert np.max(np.abs(residual.points[1] - want)) <= 1e-12
    assert np.max(np.abs(x - want)) <= 1e-12


def test_descent_with_a_zero_jacobian_column_converges():
    # the column of a clipped radius: J^T J is singular, so every step is a
    # Levenberg-Marquardt one on the rank-deficient path
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 2))
    b = a @ np.array([3.0, -2.0]) + 0.1 * rng.standard_normal(40)
    want = np.linalg.lstsq(a, b, rcond=None)[0]
    residual, jac = _linear(np.column_stack([a, np.zeros(40)]), b)
    x0 = np.array([0.0, 0.0, 4.0])
    x = minimize(_paired(residual, jac), x0, 200)
    assert len(residual.points) < 200
    # that path converges linearly, and ftol stops it at the minimum's cost
    # to roundoff, short of its point
    floor = np.sum((a @ want - b) ** 2)
    assert np.sum(residual(x) ** 2) - floor <= 1e-14 * floor
    assert np.max(np.abs(x[:2] - want)) <= 1e-8
    assert x[2] == x0[2]


def _exponential(noise, scale=1.0):
    """(residual, jac) of scale * (x0 exp(x1 t) - y) for y = 2 exp(-1.3 t) plus
    noise times standard normal draws on 200 points, each counted in .points."""
    t = np.linspace(0.0, 2.0, 200)
    y = 2.0 * np.exp(-1.3 * t) + noise * np.random.default_rng(7).standard_normal(t.size)

    def jac(x):
        jac.points.append(x.copy())
        e = np.exp(x[1] * t)
        return scale * np.column_stack([e, x[0] * t * e])

    jac.points = []
    return _counted(lambda x: scale * (x[0] * np.exp(x[1] * t) - y)), jac


def _model_reduction(residual, jac, x):
    """(cost, reduction): cost |f|^2 / 2 and the Gauss-Newton model's
    reduction |J dx|^2 / 2 at x, from lstsq, off the descent's records."""
    f, j = residual(x), jac(x)
    residual.points.pop()
    jac.points.pop()
    dx = np.linalg.lstsq(j, -f, rcond=None)[0]
    return 0.5 * (f @ f), 0.5 * np.sum((j @ dx) ** 2)


def test_descent_stops_where_the_model_reduction_reaches_the_rounding_floor():
    # a large-residual fit: the cost converges to its minimum linearly, and the
    # descent ends at the first accepted point whose Gauss-Newton model
    # promises at most m eps cost, with no residual evaluation past it
    residual, jac = _exponential(0.5)
    x = minimize(_paired(residual, jac), np.array([1.0, -0.5]), 200)
    floor = lambda cost: 200 * np.finfo(float).eps * cost
    stops = [_model_reduction(residual, jac, p) for p in jac.points]
    assert np.array_equal(jac.points[-1], x) and np.array_equal(residual.points[-1], x)
    assert all(reduction > floor(cost) for cost, reduction in stops[:-1])
    cost, reduction = stops[-1]
    assert reduction <= floor(cost)
    # the true minimum, by further Gauss-Newton steps from x
    least, point = cost, x
    for _ in range(5):
        point = point + np.linalg.lstsq(jac(point), -residual(point), rcond=None)[0]
        least = min(least, 0.5 * float(residual(point) @ residual(point)))
    assert cost - least <= floor(cost)


def test_descent_whose_model_reduction_stays_above_the_floor_reaches_the_minimizer():
    # a zero-residual fit of small cost: the model promises about the whole
    # cost at every point, far above m eps cost, so only the trust-region
    # tests end the descent, at the minimizer to roundoff
    residual, jac = _exponential(0.0, scale=1e-3)
    x = minimize(_paired(residual, jac), np.array([1.0, -0.5]), 200)
    for p in jac.points:
        cost, reduction = _model_reduction(residual, jac, p)
        assert reduction > 1e3 * 200 * np.finfo(float).eps * cost
    assert np.max(np.abs(x - np.array([2.0, -1.3]))) <= 1e-10


def test_descent_ends_at_a_trial_that_changes_nothing():
    # a residual flat past x = 1, as a radius clipped to r_max, whose cost
    # falls outwards: from x0 = 1 every step goes past the bound, so the
    # first trial's residual is the current one, bit for bit
    residual = _counted(lambda x: np.array([3.0 - min(x[0], 1.0)]))
    x = minimize(_paired(residual, lambda x: np.array([[0.0 if x[0] > 1.0 else -1.0]])), np.array([1.0]), 100)
    assert len(residual.points) == 2 and residual.points[1][0] > 1.0
    assert np.array_equal(x, [1.0])


def test_descent_max_nfev_caps_the_residual_evaluations_exactly():
    def rosenbrock(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    def jac(x):
        return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    for cap in (1, 2, 3, 5, 8):
        residual = _counted(rosenbrock)
        minimize(_paired(residual, jac), np.array([-1.2, 1.0]), cap)
        assert len(residual.points) == cap
    residual = _counted(rosenbrock)
    x = minimize(_paired(residual, jac), np.array([-1.2, 1.0]), 1000)
    assert len(residual.points) < 1000
    assert np.max(np.abs(x - 1.0)) <= 1e-10


@pytest.mark.parametrize("start", [(-1.2, 1.0), (-3.0, -3.0)])
def test_descent_calls_only_the_jacobian_of_its_latest_accepted_point(start):
    # Rosenbrock's valley makes the descent reject trial steps along the way
    def rosenbrock(x):
        return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

    events = []

    def fun(x):
        f = rosenbrock(x)
        events.append(("probe", x.copy(), 0.5 * float(f @ f)))
        return f, lambda: events.append(("jacobian", x.copy())) or np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])

    x = minimize(fun, np.array(start), 1000)
    assert np.max(np.abs(x - 1.0)) <= 1e-10
    # a probe is accepted when it lowers the cost of the latest accepted one,
    # x0 first; each Jacobian is that probe's, asked for right after it
    cost, accepted, rejected = math.inf, [], 0
    for before, event in zip([None] + events, events):
        if event[0] == "probe":
            if event[2] < cost:
                cost = event[2]
                accepted.append(event[1])
            else:
                rejected += 1
        else:
            assert before[0] == "probe" and np.array_equal(before[1], event[1])
            assert np.array_equal(event[1], accepted[-1])
    jacobians = [event[1] for event in events if event[0] == "jacobian"]
    assert len(jacobians) in (len(accepted) - 1, len(accepted)) and rejected > 0
    assert np.array_equal(accepted[-1], x)


def _first_descent(monkeypatch, fit):
    """(fun, x0, max_nfev) of the first descent fit makes."""
    import spheredeconv.estimators as est_mod

    calls = []
    real_minimize = est_mod.minimize

    def recording_minimize(fun, x0, max_nfev):
        calls.append((fun, x0.copy(), max_nfev))
        return real_minimize(fun, x0, max_nfev)

    monkeypatch.setattr(est_mod, "minimize", recording_minimize)
    fit()
    return calls[0]


@pytest.mark.parametrize("fit", ["joint_s1", "known_s4"])
def test_descent_agrees_with_scipy_trf(monkeypatch, fit):
    from scipy.optimize import least_squares

    if fit == "joint_s1":
        s = generate(scenario(1), 2000, seed=6)
        fun, x0, max_nfev = _first_descent(monkeypatch, lambda: fit_joint(s))
        assert x0.size == 9
    else:
        scn = scenario(4)
        s = generate(scn, 2000, seed=6)
        fun, x0, max_nfev = _first_descent(monkeypatch, lambda: fit_radius_known_density(s, scn.density))
        assert x0.size == 1
    ours = minimize(fun, x0, max_nfev)
    residual, jac = (lambda x: fun(x)[0]), (lambda x: fun(x)[1]())
    theirs = least_squares(
        residual, x0, jac=jac, method="trf", xtol=1e-12, ftol=1e-15, gtol=1e-15, max_nfev=max_nfev
    ).x
    assert abs(ours[0] - theirs[0]) <= 1e-8
    ours_cost, theirs_cost = (float(residual(x) @ residual(x)) for x in (ours, theirs))
    assert abs(ours_cost - theirs_cost) <= 1e-12 * theirs_cost


def test_fit_bits_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS reads its thread count once, at load, so each count needs its
    # own process; the descent forms J^T J and J^T f in single-threaded slices
    import os
    import subprocess
    import sys
    from pathlib import Path

    import spheredeconv

    src = str(Path(spheredeconv.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "from spheredeconv import fit_joint, fit_radius_known_density, generate, scenario; "
        "scn = scenario(4); "
        "reports = (fit_joint(generate(scenario(1), 2000, 1)), "
        "fit_radius_known_density(generate(scn, 2000, 1), scn.density)); "
        "print([(r.r_hat.hex(), r.contrast_value.hex(), r.iterations) for r in reports])"
    )
    outputs = set()
    for threads in ("1", "2"):
        env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout.strip())
    assert len(outputs) == 1, outputs


# ---------------------------------------------------------------- joint fit

JOINT_CFG = FitConfig(restarts=4, max_iters=600, k_cutoff=2)


@pytest.fixture(scope="module")
def joint_fit_result():
    s = generate(scenario(1), 1500, seed=42)
    return s, fit_joint(s, JOINT_CFG)


def test_joint_fit_recovers_circle(joint_fit_result):
    s, rep = joint_fit_result
    assert abs(rep.r_hat - 3.0) <= 0.05
    assert np.linalg.norm(rep.c_hat) <= 0.05
    mid = rep.f_hat_coeffs.size // 2
    off_mass = np.sum(np.abs(np.delete(rep.f_hat_coeffs, mid)) ** 2)
    assert off_mass <= 0.05  # truth is uniform: all c_k, k != 0, are 0
    assert rep.f_hat_coeffs[mid] == 1.0
    assert np.allclose(rep.f_hat_coeffs, np.conj(rep.f_hat_coeffs[::-1]), atol=0)
    assert JOINT_CFG.r_min <= rep.r_hat <= JOINT_CFG.r_max
    assert rep.contrast_value >= 0.0
    assert rep.seed == 42 and rep.n == 1500
    assert rep.iterations > 0 and rep.wall_time > 0.0


def test_joint_fit_density_is_real_valued(joint_fit_result):
    _, rep = joint_fit_result
    xs = np.linspace(0.0, 1.0, 1000, endpoint=False)
    ks = np.arange(-rep.f_hat_coeffs.size // 2 + 1, rep.f_hat_coeffs.size // 2 + 1)
    complex_sum = np.exp(-2j * np.pi * np.outer(xs, ks)) @ rep.f_hat_coeffs
    assert np.max(np.abs(complex_sum.imag)) <= 1e-12


def test_joint_fit_is_deterministic(joint_fit_result):
    s, rep = joint_fit_result
    again = fit_joint(s, JOINT_CFG)
    assert again.r_hat == rep.r_hat
    assert np.array_equal(again.f_hat_coeffs, rep.f_hat_coeffs)
    assert np.array_equal(again.c_hat, rep.c_hat)
    assert again.contrast_value == rep.contrast_value


def test_joint_fit_certifies_against_audit_radii(joint_fit_result):
    s, rep = joint_fit_result
    ctx = ContrastContext.from_sample(s.data, EvalGrid.build(dim=2))
    uniform = uniform_density()
    for radius in np.linspace(JOINT_CFG.r_min, JOINT_CFG.r_max, 16):
        assert rep.contrast_value <= contrast_mn(uniform, radius, ctx) + 1e-15


def test_joint_fit_clamps_radius_to_the_box():
    scn = Scenario(scenario_id=0, density=uniform_density(),
                   noise=NoiseModel.none(2), r_star=12.0)
    s = generate(scn, 400, seed=3)
    rep = fit_joint(s, FitConfig(restarts=2, max_iters=400, k_cutoff=2))
    assert rep.r_hat == 10.0
    assert np.isfinite(rep.contrast_value)


def test_joint_fit_validates_inputs():
    with pytest.raises(ValueError):
        fit_joint(np.zeros((100, 3)))
    with pytest.raises(ValueError):
        fit_joint(np.zeros((10, 2)))
