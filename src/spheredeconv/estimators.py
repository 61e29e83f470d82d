"""Estimators built on the empirical contrast.

fit_joint minimizes the contrast jointly over the radius and the density's
Fourier coefficients with multi-start Nelder-Mead; fit_radius_known_density
minimizes over the radius alone (coarse scan plus golden-section).  Both
probe the contrast through one _ProbeLog, which logs every probe and
reports the best probed point, so the reported value is a certified
near-minimum over everything examined.
The center estimate plugs the fitted radius and density barycenter into
C-hat = mean(Y) - R-hat * int S(u) f-hat(u) du.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .bessel import ABS_TOL, _series_multi
from .charfn import EvalGrid, closed_form_applies
from .contrast import ContrastContext, contrast_mn
from .errors import ConfigError, NumericalError
from .geometry import COEFF_NORM_BOUND, AngleDensity, FourierDensity, fourier_coefficients, fourier_series, sphere_mean

AUDIT_POINTS = 16
# radii in the known-density fit's coarse scan over [r_min, r_max]
SCAN_POINTS = 64
# the default alpha of the truncation level N = floor(alpha log n / log log n)
ALPHA = 0.45


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the contrast minimizers.

    r_min/r_max bound the admissible radius (estimates clamp to them);
    k_cutoff is the Fourier cutoff K of the joint fit's density, and of a
    known circle callable's reported coefficients; restarts and max_iters
    set the joint fit's Nelder-Mead starts and budget.
    """

    r_min: float = 0.5
    r_max: float = 10.0
    k_cutoff: int = 4
    restarts: int = 8
    max_iters: int = 2000

    def __post_init__(self) -> None:
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ValueError("need 0 < r_min < r_max < inf")
        for name in ("k_cutoff", "restarts", "max_iters"):
            if int(getattr(self, name)) != getattr(self, name):
                raise ValueError(f"{name} must be an integer")
        if self.k_cutoff < 0:
            raise ValueError("k_cutoff must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(eq=False)
class EstimateReport:
    """Everything a fit returns: point estimates plus diagnostics."""

    r_hat: float
    c_hat: np.ndarray
    f_hat_coeffs: np.ndarray
    contrast_value: float
    iterations: int
    wall_time: float
    seed: int | None
    n: int

    def density(self) -> FourierDensity:
        return FourierDensity(self.f_hat_coeffs)

    def to_json(self) -> str:
        payload = {
            "r_hat": self.r_hat,
            "c_hat": [float(v) for v in self.c_hat],
            "f_hat_coeffs": [[c.real, c.imag] for c in self.f_hat_coeffs],
            "contrast_value": self.contrast_value,
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "seed": self.seed,
            "n": self.n,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        d = json.loads(text)
        return cls(
            r_hat=float(d["r_hat"]),
            c_hat=np.asarray(d["c_hat"], dtype=float),
            f_hat_coeffs=np.array([complex(re, im) for re, im in d["f_hat_coeffs"]]),
            contrast_value=float(d["contrast_value"]),
            iterations=int(d["iterations"]),
            wall_time=float(d["wall_time"]),
            seed=None if d["seed"] is None else int(d["seed"]),
            n=int(d["n"]),
        )


@dataclass(eq=False)
class TrigPolynomial:
    """Real trigonometric polynomial sum_{|k| <= N} c_k exp(-2 i pi k x)."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.ndim != 1 or self.coeffs.size % 2 == 0:
            raise ValueError("coeffs must have odd length")

    @property
    def degree(self) -> int:
        return self.coeffs.size // 2

    def __call__(self, x):
        return fourier_series(self.coeffs, x)

    def l2_distance(self, other: "TrigPolynomial") -> float:
        """Exact L2([0,1]) distance: the exponential basis is orthonormal,
        so the squared distance is the sum of squared coefficient gaps."""
        big = max(self.degree, other.degree)
        a = np.zeros(2 * big + 1, dtype=complex)
        b = np.zeros(2 * big + 1, dtype=complex)
        a[big - self.degree : big + self.degree + 1] = self.coeffs
        b[big - other.degree : big + other.degree + 1] = other.coeffs
        return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))


def truncation_level(n: int, alpha: float | None = None) -> int:
    """floor(alpha * log n / log log n); alpha=None applies factor 1.

    Requires n >= 16 so that log log n is safely positive.
    """
    if n < 16:
        raise ValueError("n must be >= 16 for a meaningful truncation level")
    factor = 1.0 if alpha is None else float(alpha)
    if factor <= 0.0:
        raise ValueError("alpha must be positive")
    return int(math.floor(factor * math.log(n) / math.log(math.log(n))))


def truncate_density(report: EstimateReport, alpha: float = ALPHA) -> TrigPolynomial:
    """Keep the estimated coefficients up to N = floor(alpha log n / log log n),
    n = report.n; alpha must lie in (0, 1/2)."""
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 1/2)")
    level = truncation_level(report.n, alpha)
    k_cut = report.f_hat_coeffs.size // 2
    if level > k_cut:
        raise ValueError(
            f"truncation level {level} exceeds the estimated cutoff {k_cut}; refit with larger k_cutoff"
        )
    mid = k_cut
    return TrigPolynomial(report.f_hat_coeffs[mid - level : mid + level + 1])


def estimate_center(sample, r_hat: float, f_hat: AngleDensity) -> np.ndarray:
    """C-hat = mean(Y) - R-hat * int S(u) f-hat(u) du."""
    data = np.asarray(getattr(sample, "data", sample), dtype=float)
    if data.ndim != 2:
        raise ValueError("sample must be a 2-d array of shape (n, d)")
    if not (r_hat > 0.0):
        raise ValueError("r_hat must be positive")
    bary = sphere_mean(f_hat)
    if bary.size != data.shape[1]:
        raise ValueError("density dimension does not match the sample")
    return data.mean(axis=0) - r_hat * bary


def _pack(radius: float, half: np.ndarray) -> np.ndarray:
    x = np.empty(1 + 2 * half.size)
    x[0] = radius
    x[1::2] = half.real
    x[2::2] = half.imag
    return x


def _project(x: np.ndarray, cfg: FitConfig) -> tuple[float, np.ndarray]:
    """Map a raw optimizer point into the admissible set.

    Radius clips to [r_min, r_max]; coefficients shrink radially when
    sum_{k != 0} |c_k|^2 = 2 sum_{k >= 1} |c_k|^2 exceeds COEFF_NORM_BOUND.
    """
    radius = float(min(max(x[0], cfg.r_min), cfg.r_max))
    half = x[1::2] + 1j * x[2::2]
    off_mass = 2.0 * float(np.sum(np.abs(half) ** 2))
    if off_mass > COEFF_NORM_BOUND:
        half = half * math.sqrt(COEFF_NORM_BOUND / off_mass)
    return radius, half


def _half(f: AngleDensity) -> np.ndarray:
    """c_1..c_K of a Fourier density; empty for any other density."""
    return f.coeffs[f.cutoff + 1 :] if isinstance(f, FourierDensity) else np.zeros(0, dtype=complex)


class _ProbeLog:
    """The fit contract both estimators share.

    Each probe evaluates contrast_mn on the sample's ECF, refuses a
    non-finite value with NumericalError, and is logged.  The best probe
    has the smallest contrast; exact value ties break towards the smallest
    radius, then the smallest coefficient mass sum_{k >= 1} |c_k|^2.  A
    tolerance window here would let the pick wander by sqrt(tol/curvature)
    in R, which is far larger than the advertised 1e-6 determinism, so
    only exact ties are broken.
    """

    def __init__(self, data: np.ndarray, grid: EvalGrid, seed: int | None, t_start: float) -> None:
        self.data, self.seed, self.t_start = data, seed, t_start
        self.ctx = ContrastContext.from_sample(data, grid)
        self.probes: list[tuple[float, float, AngleDensity]] = []

    def __call__(self, f: AngleDensity, radius: float) -> float:
        value = contrast_mn(f, radius, self.ctx)
        if not np.isfinite(value):
            raise NumericalError("contrast evaluated non-finite; degenerate grid or sample")
        self.probes.append((value, radius, f))
        return value

    def best(self) -> tuple[float, float, AngleDensity]:
        """(value, radius, density) of the best probe."""
        vmin = min(p[0] for p in self.probes)
        return min(
            (p for p in self.probes if p[0] == vmin),
            key=lambda p: (p[1], float(np.sum(np.abs(_half(p[2])) ** 2))),
        )

    def report(self, coeffs: np.ndarray | None = None) -> EstimateReport:
        """The best probe as a report: its logged contrast, the center it
        implies, and coeffs (default: the probed density's own)."""
        value, r_hat, f_hat = self.best()
        return EstimateReport(
            r_hat=float(r_hat),
            c_hat=estimate_center(self.data, r_hat, f_hat),
            f_hat_coeffs=f_hat.coeffs if coeffs is None else coeffs,
            contrast_value=float(value),
            iterations=len(self.probes),
            wall_time=time.perf_counter() - self.t_start,
            seed=self.seed,
            n=self.data.shape[0],
        )


def _initial_simplex(x0: np.ndarray, r_step: float, c_step: float) -> np.ndarray:
    dim = x0.size
    simplex = np.tile(x0, (dim + 1, 1))
    simplex[1, 0] += r_step
    for j in range(1, dim):
        simplex[j + 1, j] += c_step
    return simplex


def check_radius_window(cfg: FitConfig, grid: EvalGrid, f_star: AngleDensity | None = None) -> None:
    """Refuse, with ConfigError, a radius window the Bessel series cannot certify.

    The closed form evaluates J_0..J_K at r * R for every grid radius r
    and probed radius R, and every fit probes R = r_max, so the largest
    argument, r_max times the largest radius in the fit's own table (the
    largest |t| on the grid), decides whether the fit can finish.  f_star
    None stands for the joint fit (K = k_cutoff); a known density uses its
    own cutoff, or needs no Bessel values when the closed form does not
    apply to it.
    """
    if f_star is None:
        k_cut = cfg.k_cutoff
    elif closed_form_applies(f_star, grid.dim):
        k_cut = f_star.cutoff
    else:
        return
    x = float(grid.polar_table(k_cut).radii[-1]) * cfg.r_max
    try:
        _series_multi(np.arange(k_cut + 1, dtype=float), np.array([x]))
    except NumericalError as exc:
        raise ConfigError(
            f"r_max={cfg.r_max:g} with nu_est={grid.nu_est:g} needs Bessel values at x={x:g}, "
            f"beyond what the series certifies to abs_tol={ABS_TOL:g}; lower r_max or nu_est"
        ) from exc


def fit_joint(sample, cfg: FitConfig | None = None, grid: EvalGrid | None = None) -> EstimateReport:
    """Jointly estimate the radius and the angular density on the circle.

    Multi-start Nelder-Mead over (R, Re c_1, Im c_1, ..., Re c_K, Im c_K):
    radius starts sit on an equispaced grid over [r_min, r_max], coefficient
    starts alternate between zero (uniform density) and a small seeded
    perturbation (stream: SeedSequence(sample seed, spawn_key=(101, restart))).
    A fixed audit scan of AUDIT_POINTS radii at the uniform density is probed
    as well, the best probe is polished with a tight final simplex, and ties
    break towards the smallest radius.  Deterministic given (sample, config).
    Raises ConfigError before any work when check_radius_window refuses.
    """
    t_start = time.perf_counter()
    cfg = cfg or FitConfig()
    data = np.asarray(getattr(sample, "data", sample), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("fit_joint works on circle data of shape (n, 2)")
    if data.shape[0] < 50:
        raise ValueError("need at least 50 observations for a joint fit")
    grid = grid or EvalGrid.build(dim=2)
    check_radius_window(cfg, grid)
    seed = getattr(sample, "seed", None)
    log = _ProbeLog(data, grid, seed, t_start)

    def objective(x: np.ndarray) -> float:
        radius, half = _project(x, cfg)
        return log(FourierDensity.from_half(half), radius)

    zeros = np.zeros(cfg.k_cutoff, dtype=complex)
    for radius in np.linspace(cfg.r_min, cfg.r_max, AUDIT_POINTS):
        objective(_pack(radius, zeros))

    span = cfg.r_max - cfg.r_min
    r_starts = cfg.r_min + (np.arange(cfg.restarts) + 0.5) * span / cfg.restarts
    # exploration only has to land the right basin to ~1e-2; the refine
    # stages below own the final precision, so keep the per-restart budget low
    nm_options = dict(
        maxiter=min(cfg.max_iters, 400),
        maxfev=min(2 * cfg.max_iters, 800),
        xatol=1e-4,
        fatol=1e-13,
        adaptive=True,
    )
    for restart in range(cfg.restarts):
        if restart % 2 == 0 or cfg.k_cutoff == 0:
            half0 = zeros
        else:
            stream = np.random.default_rng(
                np.random.SeedSequence(entropy=0 if seed is None else seed, spawn_key=(101, restart))
            )
            half0 = 0.05 * (stream.standard_normal(cfg.k_cutoff) + 1j * stream.standard_normal(cfg.k_cutoff))
        x0 = _pack(r_starts[restart], half0)
        minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options=dict(nm_options, initial_simplex=_initial_simplex(x0, 0.25 * span / cfg.restarts, 0.1)),
        )

    # refine the winning basin in two stages: a medium simplex travels the
    # remaining ~1e-2, then a tiny one localizes the minimizer to ~1e-9,
    # which is what makes reruns on translated data agree to the
    # advertised 1e-6
    for step, xatol in ((1e-2, 1e-6), (1e-5, 1e-9)):
        _, r_best, f_best = log.best()
        x_refine = _pack(r_best, _half(f_best))
        minimize(
            objective,
            x_refine,
            method="Nelder-Mead",
            options=dict(
                maxiter=min(cfg.max_iters, 800),
                maxfev=min(2 * cfg.max_iters, 1600),
                xatol=xatol,
                fatol=1e-18,
                adaptive=True,
                initial_simplex=_initial_simplex(x_refine, step, step),
            ),
        )
    return log.report()


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def fit_radius_known_density(
    sample,
    f_star: AngleDensity,
    cfg: FitConfig | None = None,
    grid: EvalGrid | None = None,
) -> EstimateReport:
    """Estimate the radius with the angular density held at f_star.

    Coarse scan of SCAN_POINTS radii over [r_min, r_max] (leftmost minimum
    on ties) followed by golden-section refinement of the bracketing
    interval; every contrast evaluation is logged and the best probed
    radius is returned, ties breaking towards the smaller radius.  Works for any density
    representation the model characteristic function supports; raises
    ConfigError before any work when check_radius_window refuses.
    """
    t_start = time.perf_counter()
    cfg = cfg or FitConfig()
    data = np.asarray(getattr(sample, "data", sample), dtype=float)
    if data.ndim != 2 or data.shape[1] != f_star.dim_minus_1 + 1:
        raise ValueError("sample dimension does not match the density")
    grid = grid or EvalGrid.build(dim=data.shape[1])
    check_radius_window(cfg, grid, f_star)
    log = _ProbeLog(data, grid, getattr(sample, "seed", None), t_start)

    def objective(radius: float) -> float:
        return log(f_star, float(min(max(radius, cfg.r_min), cfg.r_max)))

    scan = np.linspace(cfg.r_min, cfg.r_max, SCAN_POINTS)
    scan_values = np.array([objective(r) for r in scan])
    best_idx = int(np.argmin(scan_values))  # argmin takes the leftmost minimum
    lo = scan[max(best_idx - 1, 0)]
    hi = scan[min(best_idx + 1, SCAN_POINTS - 1)]
    a, b = float(lo), float(hi)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = objective(c), objective(d)
    while (b - a) > 1e-9:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = objective(d)

    if isinstance(f_star, FourierDensity):
        return log.report()
    if f_star.dim_minus_1 == 1:
        coeffs = fourier_coefficients(f_star, cfg.k_cutoff)
        coeffs[cfg.k_cutoff] = 1.0  # quadrature puts it within 1e-10 of 1 already
        return log.report(0.5 * (coeffs + np.conj(coeffs[::-1])))
    return log.report(np.array([1.0 + 0.0j]))  # no circle Fourier expansion above d = 2
