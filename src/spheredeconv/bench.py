"""Benchmark sweep: MSE tables over n, rate regression, and the table
files: emit writes and read_rows reads JSON for a path ending in .json,
CSV for any other.

run_bench drives the two radius estimators over a grid of sample sizes
with seeded replications; both modes consume identical samples per
replication so the known/unknown comparison is paired.  Everything is
deterministic given the BenchSpec base_seed (wall-clock columns aside).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .charfn import default_grid
from .contrast import ContrastContext
from .errors import ConfigError, NumericalError, _as_int, _parse_fields
from .estimators import FitConfig, fit_joint, fit_radius_known_density, truncation_level
from .geometry import fourier_coefficients, fourier_form
from .simulate import derive_seed, generate, scenario

# paper-scale grid; the desk default keeps the suite in minutes
FULL_GRID = (
    100, 200, 300, 400, 500,
    1_000, 2_000, 3_000, 5_000,
    10_000, 50_000, 75_000, 100_000,
    300_000, 500_000, 800_000, 1_000_000,
)
DESK_GRID = (100, 1_000, 10_000)
MODES = ("known_f", "unknown_f")
# each emitted column, in file order, and its parser: reps is the requested
# count, reps - failures replications entered the means, and med_abs_R is the
# median |R_hat - R*| that rate_regression fits
COLUMNS = {"n": int, "mode": str, "mse_R": float, "mse_C": float, "l2_density_err": float, "reps": int,
           "base_seed": int, "failures": int, "wall_ms": float, "med_abs_R": float}


@dataclass(frozen=True)
class BenchSpec:
    scenario_id: int
    n_values: tuple = DESK_GRID
    replications: int = 10
    mode: str = "both"
    base_seed: int = 0
    fit_overrides: dict | None = None

    def __post_init__(self) -> None:
        if self.scenario_id not in (1, 2, 3, 4):
            raise ConfigError(f"unknown scenario id {self.scenario_id}")
        ns = tuple(_as_int("n_values", n) for n in self.n_values)
        if not ns:
            raise ConfigError("n_values must be non-empty")
        if any(n < 50 for n in ns):
            raise ConfigError("sample sizes below 50 are not benchable")
        # every scenario is on the circle: a sample is n rows of 2 float64s
        if any(n > np.iinfo(np.intp).max // 16 for n in ns):
            raise ConfigError(f"sample sizes above {np.iinfo(np.intp).max // 16} do not fit in one array")
        if list(ns) != sorted(ns):
            raise ConfigError("n_values must be sorted ascending")
        object.__setattr__(self, "n_values", ns)
        for name in ("replications", "base_seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")
        if self.mode not in MODES + ("both",):
            raise ConfigError(f"mode must be one of {MODES + ('both',)}")
        if self.fit_overrides:
            allowed = {f.name for f in fields(FitConfig)}
            bad = set(self.fit_overrides) - allowed
            if bad:
                raise ConfigError(f"unknown FitConfig overrides: {sorted(bad)}")
            # refuse a bad value now, not at run_bench's first cell; run_bench
            # sets only k_cutoff besides, to a value FitConfig accepts
            FitConfig(**self.fit_overrides)

    def modes(self) -> tuple:
        return MODES if self.mode == "both" else (self.mode,)


@dataclass
class BenchRow:
    n: int
    mode: str
    mse_R: float
    mse_C: float
    l2_density_err: float
    reps: int
    base_seed: int
    wall_ms: float
    failures: int = 0
    # rate regression wants a robust location
    med_abs_R: float = math.nan


@dataclass(frozen=True)
class RateFit:
    mode: str
    slope: float
    intercept: float
    stderr: float


def run_bench(spec: BenchSpec, progress: bool = False) -> list:
    """Run the sweep; one row per (n, mode), deterministic given base_seed.

    Replications run sequentially with seeds derived from (base_seed,
    scenario, n, replication); each computes its sample's ECF once, for
    both modes, so wall_ms times the fits alone.  A replication whose fit
    raises is recorded as a failure and excluded from that cell's
    aggregates.  The truth density enters in its fourier_form, projected
    once per sweep: the known fits take it, and the density error is
    sum_{|k| <= level} |c-hat_k - c_k|^2 plus the truth's tail
    sum_{|k| > level} |c_k|^2.
    """
    scn = scenario(spec.scenario_id)
    density = fourier_form(scn.density)
    grid = default_grid()
    rows = []
    for n in spec.n_values:
        # score and fit up to N(n, 1), above the estimator's N(n, ALPHA): K = max(4, N)
        level = truncation_level(n, 1.0)
        base_kwargs = dict(k_cutoff=max(FitConfig.k_cutoff, level))
        base_kwargs.update(spec.fit_overrides or {})
        cfg = FitConfig(**base_kwargs)
        level = min(level, cfg.k_cutoff)
        truth = fourier_coefficients(density, level)
        tail_sq = 2.0 * float(np.sum(np.abs(density.coeffs[density.cutoff + level + 1 :]) ** 2))
        cell = {
            mode: dict(sq_r=[], sq_c=[], sq_f=[], wall=0.0, failures=0)
            for mode in spec.modes()
        }
        for rep in range(spec.replications):
            seed = derive_seed(spec.base_seed, spec.scenario_id, n, rep)
            sample = generate(scn, n, seed)
            ctx = ContrastContext.from_sample(sample.data, grid)
            for mode in spec.modes():
                acc = cell[mode]
                try:
                    if mode == "known_f":
                        report = fit_radius_known_density(sample, density, cfg, grid, ctx=ctx)
                    else:
                        report = fit_joint(sample, cfg, grid, ctx=ctx)
                except (NumericalError, ValueError) as exc:
                    acc["failures"] += 1
                    if progress:
                        print(f"  [fail] n={n} mode={mode} rep={rep}: {exc}", file=sys.stderr)
                    continue
                acc["sq_r"].append((report.r_hat - scn.r_star) ** 2)
                acc["sq_c"].append(float(np.sum((report.c_hat - scn.c_star) ** 2)))
                if mode == "known_f":
                    acc["sq_f"].append(0.0)
                else:
                    mid = report.f_hat_coeffs.size // 2
                    low = report.f_hat_coeffs[mid - level : mid + level + 1]
                    acc["sq_f"].append(float(np.sum(np.abs(low - truth) ** 2)) + tail_sq)
                acc["wall"] += report.wall_time * 1000.0
        for mode in spec.modes():
            acc = cell[mode]
            ok = len(acc["sq_r"])
            rows.append(
                BenchRow(
                    n=n,
                    mode=mode,
                    mse_R=float(np.mean(acc["sq_r"])) if ok else math.nan,
                    mse_C=float(np.mean(acc["sq_c"])) if ok else math.nan,
                    l2_density_err=float(np.mean(acc["sq_f"])) if ok else math.nan,
                    reps=spec.replications,
                    base_seed=spec.base_seed,
                    wall_ms=acc["wall"] / ok if ok else math.nan,
                    med_abs_R=float(np.median(np.sqrt(acc["sq_r"]))) if ok else math.nan,
                    failures=acc["failures"],
                )
            )
            if progress:
                r = rows[-1]
                print(f"n={r.n} {r.mode}: mse_R={r.mse_R:.3e} ({r.failures} failures)", file=sys.stderr)
    return rows


def rate_regression(rows) -> dict:
    """OLS of log(median |R_hat - R*|) on log n, one fit per mode.

    Needs >= 3 distinct n per mode and positive finite medians; the
    standard error uses the usual residual variance with m - 2 dof.
    """
    out = {}
    for mode in MODES:
        pts = [(row.n, row.med_abs_R) for row in rows if row.mode == mode]
        if not pts:
            continue
        if len({n for n, _ in pts}) < 3:
            raise ValueError(f"rate regression for {mode} needs >= 3 distinct n")
        meds = np.array([m for _, m in pts])
        if not np.all(np.isfinite(meds)) or np.any(meds <= 0.0):
            raise ValueError(f"rate regression for {mode}: medians must be positive finite")
        x = np.log([n for n, _ in pts])
        y = np.log(meds)
        slope, intercept = np.polyfit(x, y, 1)
        resid = y - (slope * x + intercept)
        dof = len(pts) - 2
        sxx = float(np.sum((x - x.mean()) ** 2))
        stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if dof > 0 else 0.0
        out[mode] = RateFit(mode=mode, slope=float(slope), intercept=float(intercept), stderr=stderr)
    if not out:
        raise ValueError("no rows to regress")
    return out


def _format_value(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def emit(rows, path: str) -> str:
    """Write rows to path in the stable column order, as JSON when path ends
    in .json and as CSV otherwise; returns the path."""
    try:
        with open(path, "w", newline="") as handle:
            if str(path).endswith(".json"):
                json.dump([{col: getattr(row, col) for col in COLUMNS} for row in rows], handle, indent=1)
                handle.write("\n")
            else:
                writer = csv.writer(handle)
                writer.writerow(COLUMNS)
                for row in rows:
                    writer.writerow([_format_value(getattr(row, col)) for col in COLUMNS])
    except OSError as exc:
        raise OSError(f"cannot write benchmark output to {path!r}: {exc}") from exc
    return path


def read_rows(path: str) -> list:
    """Parse a file written by emit back into BenchRow values, reading
    JSON when path ends in .json and CSV otherwise; ValueError names a
    missing or malformed column."""
    try:
        with open(path, newline="") as handle:
            raw = json.load(handle) if str(path).endswith(".json") else list(csv.DictReader(handle))
    except OSError as exc:
        raise OSError(f"cannot read benchmark output from {path!r}: {exc}") from exc
    return [BenchRow(**_parse_fields(rec, COLUMNS, f"{path}: column")) for rec in raw]


def determinism_hash(rows) -> str:
    """SHA-256 over the emitted columns before wall_ms, n to failures.
    wall_ms is a clock; med_abs_R, emitted after it, is left out so that
    every hash recorded before it was emitted still holds, and mse_R
    already depends on the same fitted radii."""
    stable = list(COLUMNS)[: list(COLUMNS).index("wall_ms")]
    digest = hashlib.sha256()
    for row in rows:
        line = ",".join(_format_value(getattr(row, col)) for col in stable)
        digest.update(line.encode())
        digest.update(b"\n")
    return digest.hexdigest()
