"""Exact invariances of the model, checked as properties.

The contrast is invariant under translating the data, under a quarter
turn of the data with c_k -> i^k c_k, and scales by 1/s^2 when the data
scale by s together with R -> sR and the frequency window -> nu_est/s.
Psi itself rotates with the density: c_k e^{2 i pi k phi} at t equals c_k
at t rotated by -2 pi phi.  Quarter turns are the only rotations that map
the square frequency box onto itself, so (b) uses them alone.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spheredeconv.charfn import EvalGrid, psi_model
from spheredeconv.contrast import ContrastContext, contrast_mn
from spheredeconv.geometry import FourierDensity
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
