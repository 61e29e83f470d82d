"""Benchmark harness: spec validation, sweep behavior, regression, emits."""

import csv
import json
import math

import numpy as np
import pytest

from spheredeconv.bench import (
    COLUMNS,
    DESK_GRID,
    FULL_GRID,
    MODES,
    BenchRow,
    BenchSpec,
    determinism_hash,
    emit,
    rate_regression,
    read_rows,
    run_bench,
)
from spheredeconv.errors import ConfigError


# ---------------------------------------------------------------- spec


def test_benchspec_defaults():
    spec = BenchSpec(scenario_id=1)
    assert spec.n_values == DESK_GRID
    assert spec.replications == 10
    assert spec.mode == "both"
    assert spec.modes() == ("known_f", "unknown_f")
    assert BenchSpec(scenario_id=1, mode="known_f").modes() == ("known_f",)


def test_benchspec_stores_integer_valued_floats_as_ints():
    spec = BenchSpec(1, (100.0, np.int64(200)), 2.0, base_seed=3.0)
    assert (spec.n_values, spec.replications, spec.base_seed) == ((100, 200), 2, 3)
    assert all(type(v) is int for v in (*spec.n_values, spec.replications, spec.base_seed))


def test_full_grid_matches_published_sweep():
    assert FULL_GRID[0] == 100 and FULL_GRID[-1] == 1_000_000
    assert list(FULL_GRID) == sorted(FULL_GRID)
    assert len(FULL_GRID) == 17


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(scenario_id=5),
        dict(scenario_id=1, n_values=()),
        dict(scenario_id=1, n_values=(10,)),
        dict(scenario_id=1, n_values=(1000, 100)),
        dict(scenario_id=1, replications=0),
        dict(scenario_id=1, mode="all"),
        dict(scenario_id=1, fit_overrides={"bogus": 1}),
        dict(scenario_id=1, n_values=(100.7,)),
        dict(scenario_id=1, replications=2.5),
        dict(scenario_id=1, base_seed=-1),
        dict(scenario_id=1, base_seed=1.5),
        dict(scenario_id=1, replications=float("nan")),
        dict(scenario_id=1, n_values=(100, float("inf"))),
        dict(scenario_id=1, fit_overrides={"r_max": "5"}),
        dict(scenario_id=1, fit_overrides={"r_min": 20.0}),
        dict(scenario_id=1, fit_overrides={"restarts": 0}),
    ],
)
def test_benchspec_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        BenchSpec(**kwargs)


# ---------------------------------------------------------------- sweep


@pytest.fixture(scope="module")
def smoke_rows():
    spec = BenchSpec(scenario_id=1, n_values=(100,), replications=1, mode="both", base_seed=9)
    return spec, run_bench(spec)


def test_smoke_sweep_emits_one_row_per_mode(smoke_rows):
    _, rows = smoke_rows
    assert len(rows) == 2
    assert [r.mode for r in rows] == ["known_f", "unknown_f"]
    for row in rows:
        assert row.n == 100 and row.reps == 1 and row.base_seed == 9
        assert math.isfinite(row.mse_R) and row.mse_R >= 0.0
        assert math.isfinite(row.mse_C) and row.mse_C >= 0.0
        assert math.isfinite(row.l2_density_err) and row.l2_density_err >= 0.0
        assert math.isfinite(row.med_abs_R)
        assert row.wall_ms > 0.0 and row.failures == 0
    known = rows[0]
    assert known.l2_density_err == 0.0  # the density is given, not estimated


def test_sweep_is_deterministic_modulo_wall_time(smoke_rows):
    spec, rows = smoke_rows
    again = run_bench(spec)
    assert determinism_hash(rows) == determinism_hash(again)
    for a, b in zip(rows, again):
        assert (a.mse_R, a.mse_C, a.l2_density_err, a.med_abs_R) == (
            b.mse_R,
            b.mse_C,
            b.l2_density_err,
            b.med_abs_R,
        )


def test_determinism_hash_ignores_wall_time_but_not_results(smoke_rows):
    _, rows = smoke_rows
    jittered = [
        BenchRow(**{**row.__dict__, "wall_ms": row.wall_ms + 123.4}) for row in rows
    ]
    assert determinism_hash(jittered) == determinism_hash(rows)
    altered = [BenchRow(**{**rows[0].__dict__, "mse_R": rows[0].mse_R + 1e-9})] + rows[1:]
    assert determinism_hash(altered) != determinism_hash(rows)


def test_modes_share_samples_per_replication(smoke_rows):
    """known_f and unknown_f see the same draws: with one replication the
    center estimates differ only through the fitted radius/density, so the
    sample means implied by both rows must coincide.  Cheap proxy: rerun
    the known_f-only sweep and compare against the both-modes known_f row."""
    spec, rows = smoke_rows
    solo = run_bench(BenchSpec(scenario_id=1, n_values=(100,), replications=1,
                               mode="known_f", base_seed=9))
    assert solo[0].mse_R == rows[0].mse_R
    assert solo[0].mse_C == rows[0].mse_C


def test_failed_replications_are_recorded_not_raised(monkeypatch):
    import spheredeconv.bench as bench_mod

    calls = {"k": 0}

    def flaky(sample, density, cfg, grid, *, ctx):
        calls["k"] += 1
        raise ValueError("synthetic failure")

    monkeypatch.setattr(bench_mod, "fit_radius_known_density", flaky)
    spec = BenchSpec(scenario_id=1, n_values=(100,), replications=2, mode="known_f")
    rows = run_bench(spec)
    assert calls["k"] == 2
    assert rows[0].failures == 2
    assert math.isnan(rows[0].mse_R)
    assert "failures" in COLUMNS
    assert determinism_hash(rows) != determinism_hash([BenchRow(**{**rows[0].__dict__, "failures": 0})])


def test_each_replication_computes_one_ecf_for_both_modes(monkeypatch):
    import spheredeconv.contrast as contrast_mod

    calls = []
    real_ecf = contrast_mod.ecf

    def counting_ecf(sample, grid):
        calls.append(len(sample))
        return real_ecf(sample, grid)

    monkeypatch.setattr(contrast_mod, "ecf", counting_ecf)
    spec = BenchSpec(1, (100, 200), 2, mode="both", fit_overrides={"restarts": 1})
    rows = run_bench(spec)
    assert calls == [100, 100, 200, 200]
    assert all(row.failures == 0 for row in rows)


def test_callable_density_error_is_the_parseval_split(monkeypatch):
    import spheredeconv.bench as bench_mod
    from spheredeconv.estimators import truncation_level
    from spheredeconv.geometry import TAIL_CUTOFF, fourier_coefficients
    from spheredeconv.simulate import scenario

    reports, real = [], bench_mod.fit_joint

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(bench_mod, "fit_joint", recording)
    rows = run_bench(BenchSpec(scenario_id=4, n_values=(100,), replications=2, mode="unknown_f", base_seed=5))
    f, level = scenario(4).density, truncation_level(100, 1.0)
    coeffs = dict(zip(range(-TAIL_CUTOFF, TAIL_CUTOFF + 1), fourier_coefficients(f, TAIL_CUTOFF)))
    tail = sum(abs(coeffs[k]) ** 2 for k in coeffs if abs(k) > level)
    want = []
    for rep in reports:
        mid = rep.f_hat_coeffs.size // 2
        want.append(sum(abs(rep.f_hat_coeffs[mid + k] - coeffs[k]) ** 2 for k in range(-level, level + 1)) + tail)
    assert tail > 1e-6
    assert rows[0].l2_density_err == pytest.approx(np.mean(want), rel=1e-12, abs=0.0)


def test_fourier_density_error_adds_the_mass_past_the_level(monkeypatch):
    import spheredeconv.bench as bench_mod
    from spheredeconv.estimators import EstimateReport
    from spheredeconv.geometry import FourierDensity
    from spheredeconv.simulate import Scenario, scenario

    truth = FourierDensity.from_half([0.2, 0.1j, 0.05, 0.04, 0.03j])
    fitted = FourierDensity.from_half([0.1, 0.0, 0.0, 0.0])

    def fake_fit(sample, cfg, grid, *, ctx):
        assert cfg.k_cutoff == fitted.cutoff
        return EstimateReport(3.0, np.zeros(2), fitted.coeffs, 0.0, 1, 0.0, None, 100)

    monkeypatch.setattr(bench_mod, "scenario", lambda _: Scenario(1, truth, scenario(1).noise))
    monkeypatch.setattr(bench_mod, "fit_joint", fake_fit)
    rows = run_bench(BenchSpec(scenario_id=1, n_values=(100,), replications=2, mode="unknown_f"))
    # level 3 at n = 100: the gaps at |k| = 1, 2, 3, then the truth's mass at |k| = 4, 5
    gaps = 2.0 * (0.1**2 + 0.1**2 + 0.05**2)
    assert rows[0].l2_density_err == pytest.approx(gaps + 2.0 * (0.04**2 + 0.03**2), rel=1e-14, abs=0.0)


def test_wide_window_sweep_fits_every_replication():
    # the default grid's largest |t| is about 1.4, so r_max = 80 reaches Bessel
    # arguments near 113
    rows = run_bench(BenchSpec(1, (100,), 1, fit_overrides={"r_max": 80, "restarts": 2}))
    assert [row.mode for row in rows] == list(MODES)
    assert all(row.failures == 0 and math.isfinite(row.mse_R) for row in rows)


def test_bench_cli_prints_the_grid_it_used(capsys, tmp_path):
    from spheredeconv.charfn import default_grid
    from spheredeconv.cli import main

    out = str(tmp_path / "b.csv")
    assert main(["bench", "--scenario", "1", "--n", "100", "--reps", "1", "--mode", "known_f",
                 "--quiet", "--out", out]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    grid = default_grid()
    assert f"nodes={grid.nodes_per_axis} nu_est={grid.nu_est:g} " in first


def test_every_default_is_the_one_default_grid(monkeypatch, capsys, tmp_path):
    # default fits, sweeps, the population contrast and deconv bench share one window
    import spheredeconv.contrast as contrast_mod
    from spheredeconv.charfn import default_grid
    from spheredeconv.cli import main
    from spheredeconv.contrast import ContrastContext, contrast_m_oracle
    from spheredeconv.estimators import FitConfig, fit_joint, fit_radius_known_density
    from spheredeconv.simulate import generate, scenario

    seen = []
    from_sample, psi_model_grid = ContrastContext.from_sample.__func__, contrast_mod.psi_model_grid

    def recording_context(cls, data, grid):
        seen.append(("context", grid))
        return from_sample(cls, data, grid)

    def recording_psi(f, radius, grid):
        seen.append(("psi", grid))
        return psi_model_grid(f, radius, grid)

    monkeypatch.setattr(ContrastContext, "from_sample", classmethod(recording_context))
    monkeypatch.setattr(contrast_mod, "psi_model_grid", recording_psi)
    scn = scenario(1)
    sample = generate(scn, 100, seed=0)
    fit_joint(sample, FitConfig(max_iters=1))
    fit_radius_known_density(sample, scn.density, FitConfig(max_iters=1))
    run_bench(BenchSpec(1, (100,), 1, fit_overrides={"max_iters": 1}))
    before = len(seen)
    contrast_m_oracle(scn.density, 2.7, scn.density, scn.r_star, scn.noise)
    # the oracle evaluates the candidate's and the truth's Psi
    assert [kind for kind, _ in seen[before:]] == ["psi"] * 2
    out = str(tmp_path / "b.csv")
    assert main(["bench", "--scenario", "1", "--n", "100", "--reps", "1", "--mode", "known_f",
                 "--quiet", "--out", out]) == 0
    grid = default_grid(2)
    # two fits, one sweep replication and the CLI's replication; every Psi the
    # contrast evaluated, the fits' descent probes' too, was on the same grid
    assert [kind for kind, _ in seen if kind == "context"] == ["context"] * 4
    assert all(g is grid for _, g in seen)
    banner = capsys.readouterr().out.splitlines()[0]
    assert f"nodes={grid.nodes_per_axis} nu_est={grid.nu_est:g} " in banner


# ---------------------------------------------------------------- regression


def _synth_rows(errors_by_n, mode="unknown_f"):
    return [
        BenchRow(n=n, mode=mode, mse_R=err**2, mse_C=0.0, l2_density_err=0.0,
                 reps=1, base_seed=0, wall_ms=1.0, med_abs_R=err)
        for n, err in errors_by_n
    ]


def test_rate_regression_recovers_exact_power_law():
    rows = _synth_rows([(n, n**-0.5) for n in (1000, 3000, 10000, 30000)])
    fit = rate_regression(rows)["unknown_f"]
    assert abs(fit.slope + 0.5) <= 1e-12
    assert abs(fit.intercept) <= 1e-12
    assert fit.stderr <= 1e-12


def test_rate_regression_constant_error_gives_zero_slope():
    rows = _synth_rows([(n, 0.25) for n in (1000, 3000, 10000)])
    fit = rate_regression(rows)["unknown_f"]
    assert abs(fit.slope) <= 1e-14


def test_rate_regression_needs_three_distinct_n():
    rows = _synth_rows([(1000, 0.1), (3000, 0.05)])
    with pytest.raises(ValueError):
        rate_regression(rows)
    with pytest.raises(ValueError):
        rate_regression([])


def test_rate_regression_rejects_nonpositive_medians():
    rows = _synth_rows([(1000, 0.1), (3000, 0.05), (10000, 0.0)])
    with pytest.raises(ValueError):
        rate_regression(rows)


def test_rate_regression_reports_both_modes():
    rows = _synth_rows([(n, n**-0.5) for n in (1000, 3000, 10000)], mode="known_f")
    rows += _synth_rows([(n, 2.0 * n**-0.4) for n in (1000, 3000, 10000)], mode="unknown_f")
    fits = rate_regression(rows)
    assert set(fits) == {"known_f", "unknown_f"}
    assert abs(fits["known_f"].slope + 0.5) <= 1e-12
    assert abs(fits["unknown_f"].slope + 0.4) <= 1e-12


# ---------------------------------------------------------------- emit


def _example_rows():
    return [
        BenchRow(n=100, mode="known_f", mse_R=3.7957912345678901e-04, mse_C=9.978e-02,
                 l2_density_err=0.0, reps=2, base_seed=9, wall_ms=81.5, med_abs_R=1.9482789e-02),
        BenchRow(n=100, mode="unknown_f", mse_R=1.905e-04, mse_C=2.564e-03,
                 l2_density_err=5.052e-02, reps=2, base_seed=9, wall_ms=6200.0, failures=1,
                 med_abs_R=1.3802173e-02),
        BenchRow(n=400, mode="known_f", mse_R=float("nan"), mse_C=float("nan"),
                 l2_density_err=float("nan"), reps=2, base_seed=9, wall_ms=float("nan")),
    ]


def _rows_equal(a, b):
    def key(r):
        return (r.n, r.mode, r.reps, r.base_seed, r.failures) + tuple(
            (math.isnan(v), v if not math.isnan(v) else 0.0)
            for v in (r.mse_R, r.mse_C, r.l2_density_err, r.wall_ms, r.med_abs_R)
        )

    return [key(r) for r in a] == [key(r) for r in b]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_read_roundtrip(tmp_path, fmt):
    rows = _example_rows()
    path = str(tmp_path / f"out.{fmt}")
    assert emit(rows, path) == path
    back = read_rows(path)
    assert _rows_equal(rows, back)


@pytest.fixture(scope="module")
def sweep_rows():
    return run_bench(BenchSpec(1, (100, 300, 1000), 2))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_saved_sweep_regresses_as_the_sweep(tmp_path, sweep_rows, fmt):
    # rate_regression fits med_abs_R, so a saved sweep must carry it
    back = read_rows(emit(sweep_rows, str(tmp_path / f"sweep.{fmt}")))
    assert back == sweep_rows
    assert rate_regression(back) == rate_regression(sweep_rows)


def test_determinism_hash_keeps_the_recorded_columns():
    # n to failures, as hashed before med_abs_R was emitted: recorded hashes hold
    rows = _example_rows()
    assert determinism_hash(rows) == "5b4fec224d812b31c505512d0f9e8970deafecd544ce12e3959f71e0ba3c1d0b"
    moved = [BenchRow(**{**row.__dict__, "med_abs_R": 0.5}) for row in rows]
    assert determinism_hash(moved) == determinism_hash(rows)


def test_emit_csv_layout(tmp_path):
    path = str(tmp_path / "out.csv")
    emit(_example_rows(), path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == ",".join(COLUMNS)
    assert lines[0] == "n,mode,mse_R,mse_C,l2_density_err,reps,base_seed,failures,wall_ms,med_abs_R"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "100" and first[1] == "known_f"
    # 17 significant digits survive the trip exactly
    assert float(first[2]) == 3.7957912345678901e-04


def test_the_format_follows_the_path(tmp_path):
    # JSON for a path ending in .json, CSV for any other, str or Path
    rows = _example_rows()
    payload = json.loads(open(emit(rows, tmp_path / "x.json")).read())
    assert [list(rec) for rec in payload] == [list(COLUMNS)] * len(rows)
    assert payload[1]["mode"] == "unknown_f" and payload[1]["failures"] == 1
    csv_text = open(emit(rows, str(tmp_path / "x.csv"))).read()
    for name in ("x.txt", "x", "x.json.csv"):
        assert open(emit(rows, str(tmp_path / name))).read() == csv_text
        assert _rows_equal(read_rows(str(tmp_path / name)), rows)
    assert _rows_equal(read_rows(tmp_path / "x.json"), rows)


@pytest.mark.parametrize("suffix", ["csv", "json"])
@pytest.mark.parametrize(
    "column, edit, problem",
    [
        # a file written before med_abs_R was emitted
        ("med_abs_R", lambda rec: rec.pop("med_abs_R"), "KeyError"),
        ("mse_R", lambda rec: rec.update(mse_R="x"), "ValueError"),
        ("n", lambda rec: rec.update(n="1e3"), "ValueError"),
    ],
    ids=["missing", "malformed_float", "malformed_int"],
)
def test_read_rows_names_a_missing_or_malformed_column(tmp_path, suffix, column, edit, problem):
    path = emit(_example_rows(), str(tmp_path / f"rows.{suffix}"))
    with open(path, newline="") as handle:
        recs = json.load(handle) if suffix == "json" else list(csv.DictReader(handle))
    for rec in recs:
        edit(rec)
    with open(path, "w", newline="") as handle:
        if suffix == "json":
            json.dump(recs, handle)
        else:
            writer = csv.DictWriter(handle, list(recs[0]))
            writer.writeheader()
            writer.writerows(recs)
    with pytest.raises(ValueError, match=f"column '{column}' is missing or malformed: {problem}") as info:
        read_rows(path)
    assert str(info.value).startswith(f"{path}: ")


def test_emit_surfaces_io_errors_with_path():
    with pytest.raises(OSError, match="no/such/dir"):
        emit(_example_rows(), "/no/such/dir/out.csv")
    with pytest.raises(OSError, match="missing.csv"):
        read_rows("/no/such/dir/missing.csv")
