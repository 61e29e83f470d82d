"""Estimators built on the empirical contrast.

The contrast is the squared norm of a weighted residual vector, so both
fits minimize it as a nonlinear least-squares problem through one driver
(_fit): after each fit's own input checks, it refuses what cannot be
fitted before any work, builds the sample's context and probe log, then
runs an audit scan of radii, one residual batch from one model evaluation
at every audit radius, and one trust-region descent (minimize) per basin
of that audit profile.  Each descent probe (contrast_probe) returns its
residual with the residual's exact Jacobian as a callable, derived from
the probe's own model evaluation (psi_model_grid's values and
derivatives) and chained through the projection onto the admissible set.
The descent is the package's own port of scipy's unbounded
trust-region reflective method: More's Levenberg-Marquardt step, solved
on the (1 + 2K)-square Gram matrix J^T J rather than on an SVD of the tall
Jacobian, so the package never imports scipy.optimize.
fit_joint descends in the radius and the density's Fourier coefficients;
fit_radius_known_density is the same fit with the density held at
f_star, descending in the radius alone.  Both log every probe's
residual in one _ProbeLog, which reports the best probed point, a
certified near-minimum over everything examined.
The center estimate plugs the fitted radius and density barycenter into
C-hat = mean(Y) - R-hat * int S(u) f-hat(u) du.  The d = 2 density
estimate (truncate_density) is a FourierDensity, the fitted coefficients
kept up to N = floor(alpha log n / log log n), so every AngleDensity
consumer takes it: sample_angles, sphere_mean, density_to_json, or a
known-density fit.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .charfn import _ONE_THREAD_PRODUCT, EvalGrid, default_grid
from .contrast import ContrastContext, contrast_probe, contrast_residual
from .errors import ConfigError, NumericalError, _as_float, _as_int, _parse_fields
from .geometry import (
    COEFF_NORM_BOUND,
    TAIL_CUTOFF,
    AngleDensity,
    FourierDensity,
    fourier_form,
    sphere_mean,
)

# radii in both fits' audit scan over [r_min, r_max], the free coefficients at zero
AUDIT_POINTS = 16
# the default alpha of the truncation level N = floor(alpha log n / log log n)
ALPHA = 0.45
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class FitConfig:
    """Knobs for the contrast minimizers.

    r_min/r_max bound the admissible radius (estimates clamp to them).
    The paper's estimators minimize over a compact parameter set, and
    [r_min, r_max] is that set for the radius: keep it a window around the
    plausible radii, not a stand-in for "any R".  The model's Psi vanishes
    away from t = 0 as R grows, so the contrast C(R) tends to 0 there, and
    a huge r_max finds that degenerate minimum; the audit's 16 radii also
    spread (r_max - r_min) / 15 apart.  On scenario 1 at n = 2000 (seed 3)
    the joint fit finds R = 3 up to r_max = 50, not at r_max = 100, and
    returns r_hat ~ 1e6 at r_max = 1e6.
    k_cutoff is the Fourier cutoff K of the joint fit's density, at most
    geometry.TAIL_CUTOFF (64), the harmonic past which fourier_form counts
    a circle density's coefficients as zero; restarts
    caps the number of audit basins each fit descends from (see _fit; at
    most AUDIT_POINTS), and max_iters caps every descent's probes, in both
    fits.  The fits refuse, before any work, an r_max whose product with
    the grid's largest |t| overflows, and a nu_est at which the descent's
    arithmetic can overflow (see _fit).
    r_min and r_max are stored as floats, and the other fields'
    integer-valued floats as ints.  Every value it refuses, a non-real or
    float-overflowing r_min or r_max included, is refused with ConfigError,
    a ValueError.
    """

    r_min: float = 0.5
    r_max: float = 10.0
    k_cutoff: int = 4
    restarts: int = 8
    max_iters: int = 2000

    def __post_init__(self) -> None:
        for name in ("r_min", "r_max"):
            object.__setattr__(self, name, _as_float(name, getattr(self, name)))
        if not (0.0 < self.r_min < self.r_max < math.inf):
            raise ConfigError("need 0 < r_min < r_max < inf")
        for name in ("k_cutoff", "restarts", "max_iters"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if not (0 <= self.k_cutoff <= TAIL_CUTOFF):
            raise ConfigError(f"k_cutoff must lie in [0, {TAIL_CUTOFF}]")
        if not (1 <= self.restarts <= AUDIT_POINTS):
            raise ConfigError(f"restarts must lie in [1, {AUDIT_POINTS}]")
        if self.max_iters < 1:
            raise ConfigError("max_iters must be >= 1")


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

    def to_json(self) -> str:
        payload = {name: dump(getattr(self, name)) for name, (dump, _) in _REPORT_FIELDS.items()}
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EstimateReport":
        """The report to_json wrote; ValueError names a missing or malformed field."""
        parsers = {name: parse for name, (_, parse) in _REPORT_FIELDS.items()}
        return cls(**_parse_fields(json.loads(text), parsers, "report field"))


# each report field: (to its JSON value, back from it)
_REPORT_FIELDS = {
    "r_hat": (float, float),
    "c_hat": (lambda a: [float(v) for v in a], lambda v: np.asarray(v, dtype=float)),
    "f_hat_coeffs": (lambda a: [[c.real, c.imag] for c in a], lambda v: np.array([complex(re, im) for re, im in v])),
    "contrast_value": (float, float),
    "iterations": (int, int),
    "wall_time": (float, float),
    "seed": (lambda v: v, lambda v: None if v is None else int(v)),
    "n": (int, int),
}


def truncation_level(n: int, alpha: float) -> int:
    """floor(alpha * log n / log log n).

    Requires n >= 16 so that log log n is safely positive.
    """
    if n < 16:
        raise ValueError("n must be >= 16 for a meaningful truncation level")
    if not alpha > 0.0:
        raise ValueError("alpha must be positive")
    return int(math.floor(alpha * math.log(n) / math.log(math.log(n))))


def truncate_density(report: EstimateReport, alpha: float = ALPHA) -> FourierDensity:
    """The paper's d = 2 density estimate: the FourierDensity of the estimated
    coefficients c_-N..c_N, N = floor(alpha log n / log log n), n = report.n;
    alpha must lie in (0, 1/2).  Kept coefficients that are not a density's
    (c_0 != 1, c_-k != conj(c_k), or past COEFF_NORM_BOUND) are refused with
    FourierDensity's ValueError."""
    if not (0.0 < alpha < 0.5):
        raise ValueError("alpha must lie in (0, 1/2)")
    level = truncation_level(report.n, alpha)
    k_cut = report.f_hat_coeffs.size // 2
    if level > k_cut:
        raise ValueError(
            f"truncation level {level} exceeds the estimated cutoff {k_cut}; refit with larger k_cutoff"
        )
    return FourierDensity(report.f_hat_coeffs[k_cut - level : k_cut + level + 1])


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
    # column by column: numpy reduces a column by pairwise sums, and far
    # faster than axis 0 of an (n, d) array, which it sums row after row
    return np.array([col.mean() for col in data.T]) - r_hat * bary


def _pack(radius: float, half: np.ndarray) -> np.ndarray:
    return np.concatenate([[radius], np.column_stack([half.real, half.imag]).ravel()])


def _shrink(half: np.ndarray) -> float:
    """The factor _project scales c_1..c_K by: sqrt(COEFF_NORM_BOUND / m) when
    their mass m = sum_{k != 0} |c_k|^2 = 2 sum_{k >= 1} |c_k|^2 exceeds
    COEFF_NORM_BOUND, else 1."""
    off_mass = 2.0 * float(np.sum(np.abs(half) ** 2))
    return math.sqrt(COEFF_NORM_BOUND / off_mass) if off_mass > COEFF_NORM_BOUND else 1.0


def _project(x: np.ndarray, cfg: FitConfig) -> tuple[float, np.ndarray]:
    """Map a raw optimizer point into the admissible set.

    Radius clips to [r_min, r_max]; coefficients shrink radially by _shrink.
    A length-1 x, the known-density fit's, maps to (clipped R, no coefficients).
    """
    radius = float(min(max(x[0], cfg.r_min), cfg.r_max))
    half = x[1::2] + 1j * x[2::2]
    scale = _shrink(half)
    return radius, half if scale == 1.0 else half * scale


def _project_jacobian(jac: np.ndarray, x: np.ndarray, cfg: FitConfig) -> np.ndarray:
    """Chain jac, a Jacobian in the projected point (R, Re c_1, Im c_1, ...),
    through _project to the raw point x, in place.

    A clipped radius has a zero column.  Shrunk coefficients u = s v, with
    v = x[1:] and s = sqrt(COEFF_NORM_BOUND / (2 |v|^2)), have
    du/dv = s (I - v v^T / |v|^2).
    """
    if not cfg.r_min <= x[0] <= cfg.r_max:
        jac[:, 0] = 0.0
    scale = _shrink(x[1::2] + 1j * x[2::2])
    if scale != 1.0:
        v = x[1:]
        jac[:, 1:] = scale * (jac[:, 1:] - np.outer(jac[:, 1:] @ v, v) / (v @ v))
    return jac


def _half(f: AngleDensity) -> np.ndarray:
    """c_1..c_K of a Fourier density; empty for any other density."""
    return f.coeffs[f.cutoff + 1 :] if isinstance(f, FourierDensity) else np.zeros(0, dtype=complex)


class _ProbeLog:
    """The fit contract both estimators share.

    Each probe hands over the residual of the candidate (f, R) on the
    sample's ECF; the log evaluates nothing, but logs its squared norm (the
    value contrast_mn returns, bit for bit) and refuses a non-finite value
    with NumericalError.  A residual batch at a 1-d array of radii, a fit's
    audit, logs one probe per row, in order, refusing at its first
    non-finite row.  Every residual a descent asks for is a probe.  The best
    probe has the smallest contrast; exact value ties break towards the
    smallest radius, then the smallest coefficient mass sum_{k >= 1} |c_k|^2.
    A tolerance window here would let the pick wander by sqrt(tol/curvature)
    in R, far more than the advertised 1e-6 determinism, so only exact ties
    are broken.
    """

    def __init__(self, data: np.ndarray, seed: int | None, t_start: float) -> None:
        self.data, self.seed, self.t_start = data, seed, t_start
        self.probes: list[tuple[float, float, AngleDensity]] = []

    def __call__(self, f: AngleDensity, radius, residual: np.ndarray) -> None:
        for row, at in zip(np.atleast_2d(residual), np.atleast_1d(radius)):
            value = float(row @ row)
            if not np.isfinite(value):
                raise NumericalError("contrast evaluated non-finite; degenerate grid or sample")
            self.probes.append((value, float(at), f))

    def best(self) -> tuple[float, float, AngleDensity]:
        """(value, radius, density) of the best probe; a full tie goes to the first logged."""
        return min(self.probes, key=lambda p: (p[0], p[1], float(np.sum(np.abs(_half(p[2])) ** 2))))

    def report(self) -> EstimateReport:
        """The best probe as a report: its logged contrast, the center it
        implies, and the probed density's coefficients ([1] in d >= 3)."""
        value, r_hat, f_hat = self.best()
        return EstimateReport(
            r_hat=float(r_hat),
            c_hat=estimate_center(self.data, r_hat, f_hat),
            f_hat_coeffs=f_hat.coeffs if isinstance(f_hat, FourierDensity) else np.array([1.0 + 0.0j]),
            contrast_value=float(value),
            iterations=len(self.probes),
            wall_time=time.perf_counter() - self.t_start,
            seed=self.seed,
            n=self.data.shape[0],
        )


def _gram(jac: np.ndarray, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J^T J and J^T f, from [J f]^T [J f] summed over row slices narrow
    enough that each product stays on one BLAS thread, as ecf sums its
    products, so their bits do not depend on the BLAS thread count."""
    aug = np.column_stack([jac, f])
    rows = max(1, (_ONE_THREAD_PRODUCT - 1) // aug.shape[1] ** 2)
    gram = aug[:rows].T @ aug[:rows]
    for k in range(rows, aug.shape[0], rows):
        gram += aug[k : k + rows].T @ aug[k : k + rows]
    return gram[:-1, :-1], gram[:-1, -1]


def _trust_step(s2: np.ndarray, vg: np.ndarray, vecs: np.ndarray, m: int, delta: float, alpha: float):
    """The step p = -(J^T J + alpha I)^+ J^T f with |p| = delta, or the
    Gauss-Newton step (alpha = 0) if J has full rank and that step fits in
    the trust region; (p, alpha).  s2 are the eigenvalues of J^T J, in
    descending order, vecs their eigenvectors and vg = vecs^T J^T f.  alpha
    is found by Newton's method on |p(alpha)| - delta, warm-started from
    the previous step's alpha, to 1% of delta in at most 10 iterations."""

    def phi(a: float) -> tuple[float, float]:
        denom = s2 + a
        p_norm = math.sqrt(np.sum((vg / denom) ** 2))
        return p_norm - delta, -np.sum(vg**2 / denom**3) / p_norm

    full_rank = m >= s2.size and s2[-1] > (_EPS * m) ** 2 * s2[0]
    if full_rank:
        p = -vecs @ (vg / s2)
        if math.sqrt(p @ p) <= delta:
            return p, 0.0
    upper, lower = math.sqrt(vg @ vg) / delta, 0.0
    if full_rank:
        value, slope = phi(0.0)
        lower = -value / slope
    elif alpha == 0.0:
        alpha = max(0.001 * upper, math.sqrt(lower * upper))
    for _ in range(10):
        if not lower <= alpha <= upper:
            alpha = max(0.001 * upper, math.sqrt(lower * upper))
        value, slope = phi(alpha)
        if value < 0.0:
            upper = alpha
        ratio = value / slope
        lower = max(lower, alpha - ratio)
        alpha -= (value + delta) * ratio / delta
        if abs(value) < 0.01 * delta:
            break
    p = -vecs @ (vg / (s2 + alpha))
    return p * (delta / math.sqrt(p @ p)), alpha


def minimize(fun, x0: np.ndarray, max_nfev: int) -> np.ndarray:
    """Least-squares descent from x0, run to roundoff; returns the last
    accepted point.  fun(x) returns the residual at x and its Jacobian there
    as a callable, which the descent calls only at the point it has just
    accepted (x0 first); max_nfev caps the calls of fun, the one at x0
    included.

    A port of scipy's unbounded trust-region reflective descent
    (least_squares(method="trf") without bounds, x_scale = 1, linear loss,
    xtol = 1e-12, ftol = gtol = 1e-15): the trust region starts at |x0|
    (1 if x0 = 0), each step is More's (1977) Levenberg-Marquardt step with
    warm-started alpha (_trust_step), and the radius update and termination
    tests are trf's.  Only the linear algebra differs: with at most 1 + 2K
    unknowns, the step needs J^T J and J^T f alone, so one eigh of the small
    Gram matrix (_gram) replaces trf's SVD of the tall J, and the predicted
    reduction is -(p^T J^T J p / 2 + p^T J^T f).  trf's branch that shrinks
    the region after a non-finite trial residual is dropped: _ProbeLog
    raises NumericalError on one first.

    Two tests are added.  More's and MINPACK's predicted-reduction test,
    with the cost's rounding bound as its floor, ends the descent before a
    step once the Gauss-Newton model promises at most m eps cost, where m
    is the residual's length, i.e. sum vg_i^2 / (2 s2_i) <= m eps cost over
    the eigenvalues s2_i that pass _trust_step's full-rank threshold.  A sum
    of m squares is only known to about m eps of itself (Higham's gamma_m),
    so below that floor trf's ftol = 1e-15 keeps probing points whose costs
    rounding cannot tell apart.  And a trial whose residual is bit-identical
    to the current point's ends it, unaccepted: fun mapped the trial back
    onto that point, as _project clips a step past a window edge, and trf
    would only shrink its region over such repeats until xtol fires.
    """
    x = np.array(x0, dtype=float)
    f, jac = fun(x)
    cost, nfev, alpha = 0.5 * (f @ f), 1, 0.0
    delta = math.sqrt(x @ x) or 1.0
    gram, g = _gram(jac(), f)
    while np.max(np.abs(g)) >= 1e-15 and nfev < max_nfev:
        eigenvalues, vecs = np.linalg.eigh(gram)
        s2, vecs = np.maximum(eigenvalues[::-1], 0.0), vecs[:, ::-1]
        vg = vecs.T @ g
        resolved = s2 > (_EPS * f.size) ** 2 * s2[0]
        if 0.5 * np.sum(vg[resolved] ** 2 / s2[resolved]) <= f.size * _EPS * cost:
            break
        reduction, done = -1.0, False
        while reduction <= 0.0 and nfev < max_nfev:
            step, alpha = _trust_step(s2, vg, vecs, f.size, delta, alpha)
            predicted = -(0.5 * (step @ gram @ step) + g @ step)
            x_new = x + step
            f_new, jac_new = fun(x_new)
            nfev += 1
            done = np.array_equal(f_new, f)
            if done:
                break
            cost_new = 0.5 * (f_new @ f_new)
            reduction, step_norm = cost - cost_new, math.sqrt(step @ step)
            if predicted > 0.0:
                ratio = reduction / predicted
            else:
                ratio = 1.0 if predicted == reduction == 0.0 else 0.0
            new_delta = delta
            if ratio < 0.25:
                new_delta = 0.25 * step_norm
            elif ratio > 0.75 and step_norm > 0.95 * delta:
                new_delta = 2.0 * delta
            done = (reduction < 1e-15 * cost and ratio > 0.25) or step_norm < 1e-12 * (1e-12 + math.sqrt(x @ x))
            if done:
                break
            alpha *= delta / new_delta
            delta = new_delta
        if reduction > 0.0:
            x, f, jac, cost = x_new, f_new, jac_new, cost_new
        if done or nfev == max_nfev:
            break
        gram, g = _gram(jac(), f)
    return x


def _fit(sample, data: np.ndarray, cfg: FitConfig | None, grid, ctx, density, joint: bool = False) -> EstimateReport:
    """The fit driver, once a fit's own checks pass; cfg None is FitConfig().
    Before any work it refuses a ctx built on another grid than a given
    grid, with ValueError, and a window whose largest Bessel argument
    r_max max|t| is not finite, with ConfigError; then it takes the audit's
    density density(zeros), whose refusal also precedes the ECF.  Then it
    refuses, with ConfigError naming nu_est, a grid on which the descent's
    arithmetic can overflow.  Every density probed has sum_k |c_k| <= A =
    1 + sqrt(2 K COEFF_NORM_BOUND) (K its cutoff; A = 1 in d >= 3), and
    |J_p|, |J_p'| <= 1 and |ECF| <= 1, so |Psi| <= A, |dPsi/dR| <= |t| A and
    |dPsi/d(Re, Im c_k)| <= 2.  With W = sum_ij w1_i w2_j, J^T J is then at
    most G = W (1 + 2A)^2 ((max|t| A)^2 + 8K) and |f|^2 at most
    F = W (A (1 + A))^2; _trust_step cubes J^T J's eigenvalues (denom**3)
    and squares vg = V^T J^T f, |vg|^2 <= G F, so G^3 and G F must be finite
    (on a 2-d grid at K = 4, nu_est up to about 2e24).  Last it builds the
    sample's ContrastContext on the fit's grid (ctx's, else grid, else
    default_grid) and the probe log.

    Then probe AUDIT_POINTS radii evenly over [r_min, r_max] with the free
    coefficients (cfg.k_cutoff of them when joint, else none) at zero, in
    one residual batch on density(zeros) (on the closed form one Bessel
    kernel call, whose values the grid keeps among its latest few,
    EvalGrid.kept_psi), and rank them by value (stable, so ties go to the
    smaller radius).  Then descend once per basin of that audit profile,
    best first, at most cfg.restarts times: from the best audit radius,
    then from each interior strict local minimum (both neighbours strictly
    higher).  An endpoint gets a descent only as the best audit radius.
    Each descent makes at most cfg.max_iters probes; returns the log's
    report.

    A descent probe maps its point through _project, and density(half) is
    the density probed there: one contrast_probe call gives the residual,
    which the probe logs, and its Jacobian callable, in the point's
    coordinates (R alone for a length-1 point), which the probe chains
    through _project at its own raw point.  No state survives between
    probes.
    """
    t_start = time.perf_counter()
    cfg = cfg or FitConfig()
    if ctx is not None and grid is not None and ctx.grid is not grid:
        raise ValueError("ctx was built on another grid than the fit's")
    grid = ctx.grid if ctx else grid or default_grid(data.shape[1])
    t_max = math.hypot(*np.abs(grid.points()).max(axis=0))
    if not math.isfinite(cfg.r_max * t_max):
        raise ConfigError(f"r_max = {cfg.r_max:g} at nu_est = {grid.nu_est:g}: the largest Bessel argument overflows")
    zeros = np.zeros(cfg.k_cutoff if joint else 0, dtype=complex)
    start = density(zeros)
    k = max(zeros.size, _half(start).size)
    a = 1.0 + math.sqrt(2 * k * COEFF_NORM_BOUND)
    weight_sum = float(np.sum(grid.axis1_weights)) * float(np.sum(grid.axis2_weights))
    gram_max = weight_sum * (1.0 + 2.0 * a) ** 2 * ((t_max * a) * (t_max * a) + 8 * k)
    cost_max = weight_sum * (a * (1.0 + a)) ** 2
    if not (math.isfinite(gram_max * gram_max * gram_max) and math.isfinite(gram_max * cost_max)):
        raise ConfigError(
            f"nu_est = {grid.nu_est:g}: the descent's Gram matrix may reach {gram_max:.3g}, past what its step can cube"
        )
    ctx = ctx or ContrastContext.from_sample(data, grid)
    log = _ProbeLog(data, getattr(sample, "seed", None), t_start)

    def probe(x: np.ndarray) -> tuple:
        radius, half = _project(x, cfg)
        f = density(half)
        residual, jacobian = contrast_probe(f, radius, ctx, x.size == 1)
        log(f, radius, residual)
        return residual, lambda: _project_jacobian(jacobian(), x, cfg)

    audit = np.linspace(cfg.r_min, cfg.r_max, AUDIT_POINTS)
    log(start, audit, contrast_residual(start, audit, ctx))
    values = np.array([value for value, _, _ in log.probes])
    ranked = np.argsort(values, kind="stable")
    basin = np.zeros(AUDIT_POINTS, dtype=bool)
    basin[1:-1] = (values[1:-1] < values[:-2]) & (values[1:-1] < values[2:])
    basin[ranked[0]] = True
    for i in ranked[basin[ranked]][: cfg.restarts]:
        minimize(probe, _pack(audit[i], zeros), cfg.max_iters)
    return log.report()


def fit_joint(
    sample, cfg: FitConfig | None = None, grid: EvalGrid | None = None, *, ctx: ContrastContext | None = None
) -> EstimateReport:
    """Jointly estimate the radius and the angular density on the circle.

    Runs the fit driver (_fit) over (R, Re c_1, Im c_1, ..., Re c_K, Im c_K),
    K = cfg.k_cutoff, from the uniform density, one descent per audit
    basin, at most cfg.restarts of them.  The radius clips to
    [r_min, r_max] and the coefficients shrink into the admissible set
    inside the residual.  Returns the best probe, ties breaking towards the
    smallest radius.  ctx, if given, is the sample's ContrastContext, so a
    caller fitting one sample twice builds its ECF once; the fit runs on
    its grid, and one built on another grid than a given grid is refused
    with ValueError before any work, as is a window whose Bessel arguments
    or descent arithmetic can overflow, with ConfigError.  Deterministic
    given (sample, config).
    """
    data = np.asarray(getattr(sample, "data", sample), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("fit_joint works on circle data of shape (n, 2)")
    if data.shape[0] < 50:
        raise ValueError("need at least 50 observations for a joint fit")
    return _fit(sample, data, cfg, grid, ctx, FourierDensity.from_half, joint=True)


def fit_radius_known_density(
    sample,
    f_star: AngleDensity,
    cfg: FitConfig | None = None,
    grid: EvalGrid | None = None,
    *,
    ctx: ContrastContext | None = None,
) -> EstimateReport:
    """Estimate the radius with the angular density held at f_star.

    Runs the fit driver (_fit) in R alone, the density fixed: one descent
    per audit basin, at most cfg.restarts of them, as in fit_joint.  Every
    contrast evaluation is logged and the best probed radius is returned,
    ties breaking towards the smaller radius.  A circle callable is fitted
    and reported in its fourier_form, which may refuse it with ConfigError
    before any work, after the driver's own refusals.  ctx is taken as in
    fit_joint.
    """
    data = np.asarray(getattr(sample, "data", sample), dtype=float)
    if data.ndim != 2 or data.shape[1] != f_star.dim_minus_1 + 1:
        raise ValueError("sample dimension does not match the density")
    return _fit(sample, data, cfg, grid, ctx, lambda half: fourier_form(f_star))
