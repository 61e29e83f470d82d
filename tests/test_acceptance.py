"""End-to-end acceptance suite.

Each test covers one release criterion and prints exactly one
[PASS]/[FAIL] line on the real stdout (past pytest's capture) so a plain
`pytest -v` run leaves an eleven-line scoreboard in the log.  Stochastic
criteria use pinned seeds; tolerances are the contractual ones, not
tuned-to-pass values.
"""

import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.special as sp

from spheredeconv.bench import BenchSpec, rate_regression, run_bench
from spheredeconv.bessel import bessel_rows, h_func
from spheredeconv.cli import main as cli_main
from spheredeconv.contrast import contrast_m_oracle
from spheredeconv.estimators import fit_joint, fit_radius_known_density
from spheredeconv.geometry import CallableDensity, FourierDensity, fourier_series, uniform_density
from spheredeconv.simulate import Sample, generate, scenario


_CAPMAN = None


@pytest.fixture(autouse=True)
def _verdict_console(request):
    # default capture is fd-level, which swallows sys.__stdout__ too; keep a
    # handle on the capture manager so verdict lines reach the real terminal
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _console(line):
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


@contextmanager
def verdict(num, desc):
    try:
        yield
    except BaseException:
        _console(f"[FAIL] acceptance {num:>2}: {desc}")
        raise
    _console(f"[PASS] acceptance {num:>2}: {desc}")


def _plane_wave(z, theta, k_max):
    """sum_{|k| <= k_max} i^k J_k(z) exp(-i k theta) from bessel_rows, as
    J_0(|z|) + 2 sum_{k>=1} i^k J_k(z) cos(k theta), J_k(-z) = (-1)^k J_k(z)."""
    rows = bessel_rows(k_max, np.array([abs(z)]))[:, 0]
    ks = np.arange(1, k_max + 1)
    signs = (-1.0) ** ks if z < 0 else 1.0
    return rows[0] + 2.0 * np.sum(1j**ks * signs * rows[1:] * np.cos(ks * theta))


def test_acceptance_01_bessel_identity_suite():
    with verdict(1, "Bessel identity suite (parity, expansion, Lipschitz, recurrence, bounds)"):
        t0 = time.perf_counter()
        xs = np.linspace(0.05, 12.0, 120)
        rows = bessel_rows(8, xs)

        # negative-order parity, against jv at the negative order
        for k in range(1, 9):
            assert np.max(np.abs(sp.jv(-k, xs) - (-1.0) ** k * rows[k])) <= 1e-9

        # plane-wave expansion, spot check (the dedicated criterion below is larger)
        rng = np.random.default_rng(101)
        for z, theta in zip(rng.uniform(0, 5, 100), rng.uniform(0, 2 * np.pi, 100)):
            assert abs(_plane_wave(z, theta, 40) - np.exp(1j * z * np.cos(theta))) <= 1e-10

        # unit Lipschitz bound in the argument
        pairs = rng.uniform(0.01, 12.0, (500, 2))
        gap = np.abs(bessel_rows(6, pairs[:, 0]) - bessel_rows(6, pairs[:, 1]))
        assert np.max(gap - np.abs(pairs[:, 0] - pairs[:, 1])) <= 1e-12

        # three-term recurrence
        for alpha in range(1, 8):
            resid = rows[alpha + 1] - (2.0 * alpha / xs) * rows[alpha] + rows[alpha - 1]
            assert np.max(np.abs(resid)) <= 1e-9

        # small-argument lower bound, fractional orders included: 1.5 as
        # x^1.5 h_func(3, x), and 0.5 (h_func's d = 1, which it refuses) from jv
        small = np.linspace(0.0, 0.999, 200)
        small_rows = bessel_rows(3, small)
        fractional = {0.5: sp.jv(0.5, small), 1.5: small**1.5 * h_func(3, small)}
        for alpha in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
            vals = fractional.get(alpha, small_rows[int(alpha)])
            bound = (small / 2.0) ** alpha / math.gamma(alpha + 1.0) * (1.0 - small**2 / (4.0 * (alpha + 1.0)))
            assert np.min(vals - bound) >= -1e-12

        # weighted square-integral lower bound
        radius, nu, level = 3.0, 0.3, 3
        floor = (9.0 * nu**2 / 32.0) * (nu * radius) ** (2 * level) / (
            (level + 1) * 4.0**level * math.factorial(level) ** 2
        )
        grid = np.linspace(0.0, nu, 20_001)
        grid_rows = bessel_rows(level, grid * radius)
        for k in range(level + 1):
            integral = np.trapezoid(grid * grid_rows[k] ** 2, grid)
            assert integral >= floor

        # derivative of the ball-average kernel
        step = 1e-5
        for dim in (2, 3):
            pts = np.linspace(0.5, 10.0, 40)
            numeric = (h_func(dim, pts + step) - h_func(dim, pts - step)) / (2.0 * step)
            exact = -sp.jv(dim / 2.0 + 1.0, pts) / pts ** (dim / 2.0)
            assert np.max(np.abs(numeric - exact)) <= 1e-6

        # ball-average series identity
        pts = np.linspace(0.0, 10.0, 41)
        for dim in (2, 3, 4, 5):
            series = np.zeros_like(pts)
            for m in range(60):
                series += (-1.0) ** m * pts ** (2 * m) / (
                    4.0**m * math.factorial(m) * math.gamma(dim / 2.0 + m + 1.0)
                )
            assert np.max(np.abs(series - 2.0 ** (dim / 2.0) * h_func(dim, pts))) <= 1e-9

        assert time.perf_counter() - t0 < 5.0


def test_acceptance_02_jacobi_anger_truncation():
    with verdict(2, "plane-wave expansion truncated at 40 terms, 1e3 random points, <= 1e-10"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(202)
        zs = rng.uniform(-5.0, 5.0, 1000)
        thetas = rng.uniform(0.0, 2.0 * np.pi, 1000)
        worst = max(
            abs(_plane_wave(z, th, 40) - np.exp(1j * z * np.cos(th)))
            for z, th in zip(zs, thetas)
        )
        assert worst <= 1e-10
        assert time.perf_counter() - t0 < 5.0


def test_acceptance_03_closed_form_vs_quadrature():
    with verdict(3, "model char. fn: closed form vs quadrature <= 1e-8; uniform equals J0 <= 1e-10"):
        from spheredeconv.charfn import psi_model

        rng = np.random.default_rng(303)
        for _ in range(50):
            k_cut = rng.integers(1, 4)
            half = 0.25 * (rng.standard_normal(k_cut) + 1j * rng.standard_normal(k_cut)) / np.arange(1, k_cut + 1)
            f = FourierDensity.from_half(half)
            radius = rng.uniform(0.5, 8.0)
            t = rng.uniform(-1.5, 1.5, 2)
            closed = psi_model(f, radius, t)
            # the same series as a circle callable takes the angle quadrature
            series = CallableDensity(lambda u: fourier_series(f.coeffs, u[:, 0]))
            quad = psi_model(series, radius, t)
            assert abs(closed - quad) <= 1e-8

        uniform = uniform_density()
        for _ in range(40):
            radius = rng.uniform(0.5, 8.0)
            t = rng.uniform(-1.5, 1.5, 2)
            val = psi_model(uniform, radius, t)
            assert abs(val - sp.j0(radius * np.hypot(*t))) <= 1e-10


def test_acceptance_04_population_contrast_identifiability():
    with verdict(4, "population contrast: 0 at the truth, > 1e-8 on the 21x21 off-truth grid"):
        t0 = time.perf_counter()
        scn = scenario(1)
        radii = np.linspace(2.0, 4.0, 21)
        c1_vals = np.linspace(-0.5, 0.5, 21)
        at_truth = contrast_m_oracle(scn.density, scn.r_star, scn.density, scn.r_star, scn.noise)
        assert at_truth < 1e-18
        worst_off = np.inf
        for i, radius in enumerate(radii):
            for j, c1 in enumerate(c1_vals):
                if i == 10 and j == 10:
                    continue
                f = FourierDensity.from_half([complex(c1, 0.0)])
                value = contrast_m_oracle(f, radius, scn.density, scn.r_star, scn.noise)
                worst_off = min(worst_off, value)
        assert worst_off > 1e-8
        assert time.perf_counter() - t0 < 60.0


def test_acceptance_05_noiseless_recovery():
    with verdict(5, "noiseless n=1e4: |R~-3|<=0.01 known f, |R^-3|<=0.02 joint, ||C^||<=0.02"):
        t0 = time.perf_counter()
        sample = generate(scenario(1).noiseless(), 10_000, seed=12)
        known = fit_radius_known_density(sample, uniform_density())
        joint = fit_joint(sample)
        assert abs(known.r_hat - 3.0) <= 0.01
        assert abs(joint.r_hat - 3.0) <= 0.02
        assert float(np.linalg.norm(joint.c_hat)) <= 0.02
        assert time.perf_counter() - t0 < 120.0


@pytest.fixture(scope="module")
def bench_table():
    spec = BenchSpec(scenario_id=1, n_values=(1_000, 10_000), replications=10,
                     mode="both", base_seed=0)
    return run_bench(spec)


def test_acceptance_06_mse_table_reproduction(bench_table):
    with verdict(6, "MSE table at desk scale: brackets at n=1e4 and strict decrease in n"):
        t0 = time.perf_counter()
        cell = {(r.n, r.mode): r for r in bench_table}
        assert 1e-6 <= cell[(10_000, "known_f")].mse_R <= 1e-3
        assert 1e-7 <= cell[(10_000, "unknown_f")].mse_R <= 1e-3
        assert cell[(10_000, "known_f")].mse_R < cell[(1_000, "known_f")].mse_R
        assert cell[(10_000, "unknown_f")].mse_R < cell[(1_000, "unknown_f")].mse_R
        assert cell[(10_000, "unknown_f")].med_abs_R < cell[(1_000, "unknown_f")].med_abs_R
        assert all(r.failures == 0 for r in bench_table)
        assert time.perf_counter() - t0 < 1800.0  # table is prebuilt by the fixture


def test_acceptance_07_rate_of_convergence():
    with verdict(7, "log-log slope of median radius error over n is <= -0.35"):
        t0 = time.perf_counter()
        spec = BenchSpec(scenario_id=1, n_values=(1_000, 3_000, 10_000, 30_000),
                         replications=10, mode="unknown_f", base_seed=0)
        rows = run_bench(spec)
        fit = rate_regression(rows)["unknown_f"]
        assert fit.slope <= -0.35
        assert time.perf_counter() - t0 < 2700.0


def test_acceptance_08_translation_equivariance():
    with verdict(8, "shifting the data by m moves C^ by m (1e-3) and leaves R^, |f_k| (1e-6)"):
        shift = np.array([5.0, -7.0])
        base = generate(scenario(1), 2_000, seed=7)
        moved = Sample(data=base.data + shift, seed=base.seed, scenario_id=base.scenario_id)
        rep_base = fit_joint(base)
        rep_moved = fit_joint(moved)
        assert abs(rep_base.r_hat - rep_moved.r_hat) <= 1e-6
        gap = np.abs(np.abs(rep_base.f_hat_coeffs) - np.abs(rep_moved.f_hat_coeffs))
        assert np.max(gap) <= 1e-6
        assert np.max(np.abs((rep_moved.c_hat - rep_base.c_hat) - shift)) <= 1e-3


def test_acceptance_09_noncentered_noise_bias():
    with verdict(9, "scenario-4 center estimate is biased by the noise mean (-1.6, 2.5) +/- 0.05"):
        scn = scenario(4)
        sample = generate(scn, 100_000, seed=1)
        rep = fit_joint(sample)
        deviation = (rep.c_hat - scn.c_star) - np.array([-1.6, 2.5])
        assert np.max(np.abs(deviation)) <= 0.05


def test_acceptance_10_truncation_parseval_bookkeeping():
    with verdict(10, "truncated-density L2 error: Parseval split matches 2^12-node integration to 1e-12"):
        rng = np.random.default_rng(1010)
        xs = (np.arange(4096) + 0.5) / 4096
        level = 2
        for _ in range(5):
            half_est = 0.3 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.arange(1, 5)
            half_star = 0.3 * (rng.standard_normal(6) + 1j * rng.standard_normal(6)) / np.arange(1, 7)
            est = np.concatenate([np.conj(half_est[::-1]), [1.0], half_est])
            star = np.concatenate([np.conj(half_star[::-1]), [1.0], half_star])

            # keep |k| <= level of the estimate
            kept = est[4 - level : 4 + level + 1]
            coeff_term = float(np.sum(np.abs(kept - star[6 - level : 6 + level + 1]) ** 2))
            tail_term = float(
                np.sum(np.abs(star[: 6 - level]) ** 2) + np.sum(np.abs(star[6 + level + 1 :]) ** 2)
            )

            ks_kept = np.arange(-level, level + 1)
            ks_star = np.arange(-6, 7)
            trunc_vals = np.real(np.exp(-2j * np.pi * np.outer(xs, ks_kept)) @ kept)
            star_vals = np.real(np.exp(-2j * np.pi * np.outer(xs, ks_star)) @ star)
            numeric = float(np.mean((trunc_vals - star_vals) ** 2))

            assert abs((coeff_term + tail_term) - numeric) <= 1e-12


def test_acceptance_11_cli_bench_determinism(tmp_path, capsys):
    with verdict(11, "repeated CLI bench runs with equal specs give identical determinism hashes"):
        args = ["bench", "--scenario", "1", "--n", "100", "--reps", "1",
                "--mode", "known_f", "--seed", "4", "--quiet"]
        assert cli_main(args + ["--out", str(tmp_path / "a.csv")]) == 0
        out_a = capsys.readouterr().out
        assert cli_main(args + ["--out", str(tmp_path / "b.csv")]) == 0
        out_b = capsys.readouterr().out
        hash_a = [l for l in out_a.splitlines() if l.startswith("determinism_hash")]
        hash_b = [l for l in out_b.splitlines() if l.startswith("determinism_hash")]
        assert hash_a and hash_a == hash_b
        # emitted rows agree byte-for-byte outside the wall-clock column
        rows_a = [line.split(",") for line in open(tmp_path / "a.csv").read().splitlines()]
        rows_b = [line.split(",") for line in open(tmp_path / "b.csv").read().splitlines()]
        strip = lambda rows: [row[:7] for row in rows]
        assert strip(rows_a) == strip(rows_b)
