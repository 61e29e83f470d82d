"""Blind deconvolution of noisy observations on an unknown circle or sphere.

Observations Y_i = C + R * S(U_i) + eps_i with everything unknown: the
package estimates the radius R, the center C and the angular density of U
by minimizing a characteristic-function contrast, and ships a seeded
benchmark harness plus a CLI (`deconv`).
"""

from .bench import (
    DESK_GRID,
    FULL_GRID,
    BenchRow,
    BenchSpec,
    RateFit,
    determinism_hash,
    emit,
    rate_regression,
    read_rows,
    run_bench,
)
from .charfn import EvalGrid, ecf, psi_model, psi_model_grid
from .contrast import ContrastContext, contrast_m_oracle, contrast_mn
from .errors import ConfigError, NumericalError
from .estimators import (
    EstimateReport,
    FitConfig,
    estimate_center,
    fit_joint,
    fit_radius_known_density,
    truncate_density,
    truncation_level,
)
from .geometry import (
    AngleDensity,
    CallableDensity,
    FourierDensity,
    density_eval,
    density_from_json,
    density_to_json,
    fourier_series,
    sample_angles,
    sphere_map,
    sphere_mean,
    uniform_density,
    vonmises_like,
)
from .simulate import (
    NoiseModel,
    Sample,
    Scenario,
    derive_seed,
    draw_noise,
    generate,
    load_sample,
    save_sample,
    scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AngleDensity",
    "BenchRow",
    "BenchSpec",
    "CallableDensity",
    "ConfigError",
    "ContrastContext",
    "DESK_GRID",
    "EstimateReport",
    "EvalGrid",
    "FULL_GRID",
    "FitConfig",
    "FourierDensity",
    "NoiseModel",
    "NumericalError",
    "RateFit",
    "Sample",
    "Scenario",
    "contrast_m_oracle",
    "contrast_mn",
    "density_eval",
    "density_from_json",
    "density_to_json",
    "derive_seed",
    "determinism_hash",
    "draw_noise",
    "ecf",
    "emit",
    "estimate_center",
    "fit_joint",
    "fit_radius_known_density",
    "fourier_series",
    "generate",
    "load_sample",
    "psi_model",
    "psi_model_grid",
    "rate_regression",
    "read_rows",
    "run_bench",
    "sample_angles",
    "save_sample",
    "scenario",
    "sphere_map",
    "sphere_mean",
    "truncate_density",
    "truncation_level",
    "uniform_density",
    "vonmises_like",
]
