"""Exact invariances of the model, checked as properties.

The contrast is invariant under translating the data, under a quarter
turn of the data with c_k -> i^k c_k, and scales by 1/s^2 when the data
scale by s together with R -> sR and the frequency window -> nu_est/s.
Psi itself rotates with the density: c_k e^{2 i pi k phi} at t equals c_k
at t rotated by -2 pi phi.  Quarter turns are the only rotations that map
the square frequency box onto itself, so (b) uses them alone.

Both fits inherit these invariances, and so does the mirror x2 -> -x2,
which conjugates every c_k: the fits of a transformed sample are the
transformed fits, to the resolution of the descent's stop.
"""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spheredeconv.charfn import EvalGrid, default_grid, psi_model
from spheredeconv.contrast import ContrastContext, contrast_mn, contrast_probe
from spheredeconv.estimators import FitConfig, fit_joint, fit_radius_known_density
from spheredeconv.geometry import FourierDensity, fourier_form
from spheredeconv.simulate import generate, scenario

N_OBS = 500
NODES = 17
TOL = 1e-10

seeds = st.integers(0, 2**32 - 1)
radii = st.floats(0.5, 8.0)
# K <= 3 coefficients of modulus <= 1 keep sum_{k != 0} |c_k|^2 <= 6, inside the bound 10
halves = st.integers(0, 3).flatmap(
    lambda k: st.lists(
        st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
        min_size=k,
        max_size=k,
    )
)


def _data(seed: int) -> np.ndarray:
    return generate(scenario(1), N_OBS, seed).data


def _contrast(half, radius, data, nu_est=1.0):
    grid = EvalGrid.build(nu_est=nu_est, nodes_per_axis=NODES)
    return contrast_mn(FourierDensity.from_half(half), radius, ContrastContext.from_sample(data, grid))


def _rotation(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


@given(seed=seeds, half=halves, radius=radii, shift=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)))
def test_translation_leaves_contrast_unchanged(seed, half, radius, shift):
    data = _data(seed)
    base = _contrast(half, radius, data)
    assert _contrast(half, radius, data + np.array(shift)) == pytest.approx(base, rel=TOL, abs=0.0)


@given(seed=seeds, half=halves, radius=radii)
def test_quarter_turn_rotates_coefficients(seed, half, radius):
    data = _data(seed)
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])  # +90 degrees
    turned = [c * 1j**k for k, c in enumerate(half, start=1)]
    base = _contrast(half, radius, data)
    assert _contrast(turned, radius, data @ quarter.T) == pytest.approx(base, rel=TOL, abs=0.0)


@given(seed=seeds, half=halves, radius=radii, scale=st.floats(0.5, 2.0))
def test_scaling_data_radius_and_window_scales_contrast(seed, half, radius, scale):
    data = _data(seed)
    base = _contrast(half, radius, data)
    scaled = _contrast(half, scale * radius, scale * data, nu_est=1.0 / scale)
    assert scaled * scale**2 == pytest.approx(base, rel=TOL, abs=0.0)


@given(half=halves, radius=radii, phi=st.floats(0.0, 1.0), point_seed=seeds)
def test_psi_rotates_with_the_density(half, radius, phi, point_seed):
    t = np.random.default_rng(point_seed).uniform(-1.0, 1.0, size=(8, 2))
    spun = [c * np.exp(2j * np.pi * k * phi) for k, c in enumerate(half, start=1)]
    got = psi_model(FourierDensity.from_half(spun), radius, t)
    want = psi_model(FourierDensity.from_half(half), radius, t @ _rotation(2.0 * np.pi * phi))
    assert np.max(np.abs(got - want)) <= TOL


# ---------------------------------------------------------------- the fits

FIT_N = 300
EPS = float(np.finfo(float).eps)
# i^k for k mod 4
POWERS_OF_I = np.array([1.0, 1j, -1.0, -1j])

scenario_ids = st.integers(1, 4)
fit_seeds = st.integers(0, 4)


def _fits(data, f, cfg=None, grid=None):
    """(joint fit, known-density fit at f) of data."""
    return fit_joint(data, cfg, grid), fit_radius_known_density(data, f, cfg, grid)


@lru_cache(maxsize=None)
def _base(scenario_id: int, seed: int):
    """A scenario's sample, its density in Fourier form, both default fits of
    it and how far each fit's point is pinned (_width)."""
    scn = scenario(scenario_id)
    data, f = generate(scn, FIT_N, seed).data, fourier_form(scn.density)
    fits = _fits(data, f)
    return data, f, fits, [_width(data, rep, known) for rep, known in zip(fits, (None, f))]


def _orders(coeffs):
    """The orders k = -K..K of a coefficient array."""
    return np.arange(coeffs.size) - coeffs.size // 2


def _width(data, report, f=None) -> float:
    """How far the descent's stop pins a default fit's point (R, c_1..c_K),
    or R alone with the density known as f: the descent ends once its
    Gauss-Newton model promises a reduction of at most m eps C (m the
    residual's length, C the contrast), so every point x with
    (x - x*)^T J^T J (x - x*) <= m eps C at the fit x* is as good to
    rounding.  That is sqrt(m eps C / lambda_min(J^T J))."""
    ctx = ContrastContext.from_sample(data, default_grid(2))
    probed = FourierDensity(report.f_hat_coeffs) if f is None else f
    residual, jacobian = contrast_probe(probed, report.r_hat, ctx, radius_only=f is not None)
    j = jacobian()
    return math.sqrt(residual.size * EPS * report.contrast_value / np.linalg.eigvalsh(j.T @ j)[0])


def _assert_transformed(base, moved, moved_data, scale=1.0, center=None, coeffs=None):
    """moved, the fits of moved_data, are the fits of _base's sample, base,
    transformed: the contrast times scale^2, r_hat times scale, c_k mapped by
    coeffs and the center by center and times scale.

    Both descents end within m eps C of one minimum, so their contrasts
    differ by at most two such floors, and their points by at most two
    widths (_width).  A center is the sample mean less r_hat times the
    density's barycenter, whose entries are Re c_1 and Im c_1, so it moves
    by at most (1 + r_hat) times the points' gap, plus the mean's rounding,
    a few eps of the largest coordinate.  A shifted sample carries its own
    rounding, eps |Y| per coordinate, which moves the fit by as much again.
    """
    base_data, _, fits, widths = base
    center = center or (lambda c: c)
    coeffs = coeffs or (lambda c: c)
    rounding = EPS * (np.max(np.abs(base_data)) + np.max(np.abs(moved_data)) / scale)
    length = 2 * default_grid(2).m1 * default_grid(2).m2
    for b, m, width in zip(fits, moved, widths):
        assert abs(m.contrast_value * scale**2 - b.contrast_value) <= 2 * length * EPS * b.contrast_value
        gap = 2.0 * width + 4.0 * rounding
        assert abs(m.r_hat / scale - b.r_hat) <= gap
        assert np.max(np.abs(m.f_hat_coeffs - coeffs(b.f_hat_coeffs))) <= gap
        assert np.max(np.abs(m.c_hat / scale - center(b.c_hat))) <= (1.0 + b.r_hat) * gap + 16.0 * rounding


@given(scenario_id=scenario_ids, seed=fit_seeds, shift=st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_fits_follow_a_shift(scenario_id, seed, shift):
    base = _base(scenario_id, seed)
    data, f = base[:2]
    moved = data + np.array(shift)
    _assert_transformed(base, _fits(moved, f), moved, center=lambda c: c + np.array(shift))


@given(scenario_id=scenario_ids, seed=fit_seeds, turn=st.sampled_from([1, -1]))
def test_fits_follow_a_quarter_turn(scenario_id, seed, turn):
    # turning the data by turn * 90 degrees turns the density by a quarter
    # of its period, so c_k picks up i^(turn k)
    base = _base(scenario_id, seed)
    data, f = base[:2]
    quarter = np.array([[0.0, -turn], [turn, 0.0]])

    def coeffs(c):
        return c * POWERS_OF_I[(turn * _orders(c)) % 4]

    moved = data @ quarter.T
    turned = _fits(moved, FourierDensity(coeffs(f.coeffs)))
    _assert_transformed(base, turned, moved, center=lambda c: quarter @ c, coeffs=coeffs)


@given(scenario_id=scenario_ids, seed=fit_seeds)
def test_fits_follow_the_mirror(scenario_id, seed):
    # (x1, x2) -> (x1, -x2) reverses the angle, so c_k -> c_-k = conj(c_k)
    base = _base(scenario_id, seed)
    data, f = base[:2]
    flip = np.array([1.0, -1.0])
    moved = data * flip
    mirrored = _fits(moved, FourierDensity(np.conj(f.coeffs)))
    _assert_transformed(base, mirrored, moved, center=lambda c: c * flip, coeffs=np.conj)


@lru_cache(maxsize=None)
def _scaled_grid(scale: float) -> EvalGrid:
    """The default window divided by scale, built once per scale."""
    return EvalGrid.build(nu_est=1.0 / scale)


@given(scenario_id=scenario_ids, seed=fit_seeds, power=st.integers(-4, 4))
def test_fits_scale_with_the_data_the_window_and_the_grid(scenario_id, seed, power):
    # a power of two scales the sample, the window and the grid exactly; the
    # joint descent's trust region does not scale its coefficients with R, so
    # it may end elsewhere within its width
    base = _base(scenario_id, seed)
    data, f = base[:2]
    scale = 2.0**power
    cfg = FitConfig(r_min=scale * FitConfig.r_min, r_max=scale * FitConfig.r_max)
    moved = scale * data
    _assert_transformed(base, _fits(moved, f, cfg, _scaled_grid(scale)), moved, scale=scale)
