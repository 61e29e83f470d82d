"""Tests for the empirical and population contrast functionals."""

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from spheredeconv.charfn import EvalGrid, ecf, psi_model, psi_model_grid
from spheredeconv.contrast import (
    ContrastContext,
    contrast_m_oracle,
    contrast_mn,
    contrast_probe,
    contrast_residual,
)
from spheredeconv.geometry import CallableDensity, FourierDensity, fourier_form, uniform_density
from spheredeconv.simulate import NoiseModel, Scenario, generate, scenario


def product_ref(f, radius, noise, grid):
    """ECF replaced by its infinite-n limit Psi * Phi_eps (factorized)."""
    phi1 = noise.coord_char(0, grid.axis1_nodes)
    phi2 = noise.coord_char(1, grid.axis2_nodes[:, 0])
    return psi_model_grid(f, radius, grid)[0] * np.multiply.outer(phi1, phi2)


class TestEmpiricalContrast:
    def test_zero_when_cache_equals_model_noiseless(self):
        grid = EvalGrid.build(nodes_per_axis=17, nu_est=0.5)
        f = uniform_density(1)
        val = contrast_mn(f, 3.0, ContrastContext(grid, psi_model_grid(f, 3.0, grid)[0]))
        assert 0.0 <= val <= 1e-20

    def test_zero_at_truth_for_exact_product_cache(self):
        grid = EvalGrid.build(nodes_per_axis=17, nu_est=0.5)
        scn = scenario(1)
        ref = product_ref(scn.density, scn.r_star, scn.noise, grid)
        val = contrast_mn(scn.density, scn.r_star, ContrastContext(grid, ref))
        assert 0.0 <= val <= 1e-12

    def test_positive_off_truth_for_exact_product_cache(self):
        grid = EvalGrid.build(nodes_per_axis=17, nu_est=0.5)
        scn = scenario(1)
        ctx = ContrastContext(grid, product_ref(scn.density, scn.r_star, scn.noise, grid))
        assert contrast_mn(scn.density, 2.2, ctx) > 1e-8
        bumped = FourierDensity.from_half([0.1])
        assert contrast_mn(bumped, scn.r_star, ctx) > 1e-8

    def test_truth_beats_wrong_radius_on_data(self):
        grid = EvalGrid.build(nodes_per_axis=33, nu_est=0.5)
        scn = scenario(1)
        ctx = ContrastContext.from_sample(generate(scn, 1000, 0).data, grid)
        at_truth = contrast_mn(scn.density, 3.0, ctx)
        assert at_truth < contrast_mn(scn.density, 2.0, ctx)
        assert at_truth < contrast_mn(scn.density, 4.0, ctx)
        assert at_truth >= 0.0

    def test_contrast_is_the_residual_squared_norm(self):
        grid = EvalGrid.build(nodes_per_axis=9, nu_est=0.5)
        ctx = ContrastContext.from_sample(generate(scenario(2), 200, 3).data, grid)
        f = FourierDensity.from_half([0.1 - 0.05j, 0.02j])
        r = contrast_residual(f, 2.7, ctx)
        assert r.shape == (2 * grid.m1 * grid.m2,)
        assert contrast_mn(f, 2.7, ctx) == float(r @ r)
        # reference: the quadrature of |diff|^2 over the box, summed directly
        # the marginals straight from their definition: t2 = 0 is node m2 // 2, t1 = 0 node m1 - 1
        psi = psi_model_grid(f, 2.7, grid)[0]
        col, ref = grid.m2 // 2, ctx.ref
        assert grid.axis1_nodes[-1] == 0.0 and not grid.axis2_nodes[col].any()
        diff = psi * np.multiply.outer(ref[:, col], ref[-1]) - ref * np.multiply.outer(psi[:, col], psi[-1])
        direct = grid.axis1_weights @ np.abs(diff) ** 2 @ grid.axis2_weights
        assert float(r @ r) == pytest.approx(direct, rel=1e-13)

    def test_nonnegative_at_random_candidates(self):
        grid = EvalGrid.build(nodes_per_axis=9, nu_est=0.5)
        ctx = ContrastContext.from_sample(generate(scenario(2), 200, 3).data, grid)
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = FourierDensity.from_half(0.1 * (rng.normal(size=3) + 1j * rng.normal(size=3)))
            assert contrast_mn(f, float(rng.uniform(0.5, 8.0)), ctx) >= 0.0

    def test_grid_refinement_stability(self):
        # doubling nodes_per_axis barely moves the value (smooth integrand)
        scn = scenario(1)
        data = generate(scn, 1000, 5).data
        vals = []
        for nodes in (33, 65):
            grid = EvalGrid.build(nodes_per_axis=nodes, nu_est=0.5)
            ctx = ContrastContext.from_sample(data, grid)
            vals.append(contrast_mn(scn.density, 2.7, ctx))
        assert abs(vals[1] - vals[0]) <= 1e-6 * abs(vals[0])

    def test_deterministic(self):
        grid = EvalGrid.build(nodes_per_axis=17, nu_est=0.5)
        data = generate(scenario(1), 500, 9).data
        a = contrast_mn(uniform_density(1), 2.5, ContrastContext.from_sample(data, grid))
        b = contrast_mn(uniform_density(1), 2.5, ContrastContext.from_sample(data, grid))
        assert a == b


def test_one_series_call_per_closed_form_contrast(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    calls = []
    real = charfn_mod.bessel_rows

    def counting(k_cut, x):
        calls.append(x.size)
        return real(k_cut, x)

    grid = EvalGrid.build(nodes_per_axis=33)
    # the sample's ECF calls the kernel too, once per coordinate, before any contrast
    ctx = ContrastContext.from_sample(generate(scenario(1), 200, seed=3), grid)
    monkeypatch.setattr(charfn_mod, "bessel_rows", counting)
    for k, radius in enumerate((2.0, 2.5, 3.0, 3.5)):
        contrast_mn(FourierDensity.from_half([0.02j] * k), radius, ctx)
        assert len(calls) == k + 1
    # the odd grid's axis radii are among the full grid's 17 * 18 / 2 distinct radii
    assert calls == [153] * 4


def test_the_grid_serves_batches_read_only_from_a_bounded_store(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    calls = []
    real = charfn_mod.bessel_rows

    def counting(k_cut, x):
        calls.append(x.size)
        return real(k_cut, x)

    grid = EvalGrid.build(nodes_per_axis=9)
    ctx, other = (ContrastContext.from_sample(generate(scenario(1), 200, seed=k), grid) for k in (3, 4))
    monkeypatch.setattr(charfn_mod, "bessel_rows", counting)
    f = FourierDensity.from_half([0.05 - 0.02j, 0.01j])
    batches = [np.linspace(0.5, 10.0, 16) + k for k in range(charfn_mod._KEPT_PSI + 2)]
    contrast_residual(f, batches[0], ctx)
    (psi,) = vars(grid)["_kept_psi"].values()
    with pytest.raises(ValueError, match="read-only"):
        psi[...] = 0.0
    # a second context on the grid, or another density object with the same
    # coefficients, is served the kept batch; the store's least recently used
    # batch goes first
    contrast_residual(FourierDensity.from_half([0.05 - 0.02j, 0.01j]), batches[0], other)
    assert len(calls) == 1
    for batch in batches[1:]:
        contrast_residual(f, batches[0], ctx)
        contrast_residual(f, batch, ctx)
        assert len(vars(grid)["_kept_psi"]) <= charfn_mod._KEPT_PSI
    assert len(calls) == len(batches)
    kept = list(vars(grid)["_kept_psi"])
    assert {key[2] for key in kept} == {b.tobytes() for b in (batches[0], *batches[-charfn_mod._KEPT_PSI + 1 :])}
    # a single radius and off the closed form are evaluated afresh, never kept
    contrast_residual(f, batches[0][0], ctx)
    contrast_residual(CallableDensity(lambda u: np.ones(u.shape[0]), dim_minus_1=1), batches[1], ctx)
    assert list(vars(grid)["_kept_psi"]) == kept and len(calls) == len(batches) + 1
    # -0.0 and +0.0 coefficients are other keys
    contrast_residual(FourierDensity(np.array([0.0, 1.0, -0.0j])), batches[0], ctx)
    contrast_residual(FourierDensity(np.array([-0.0, 1.0, 0.0j])), batches[0], ctx)
    assert len(calls) == len(batches) + 3


AUDIT_RADII = np.linspace(0.5, 10.0, 16)


def test_kept_psi_returns_read_only_values_and_keeps_no_bessel_rows():
    grid = EvalGrid.build(nodes_per_axis=9)
    f = FourierDensity.from_half([0.05 - 0.02j, 0.01j])
    got = grid.kept_psi(f, AUDIT_RADII)
    assert got.tobytes() == psi_model_grid(f, AUDIT_RADII, grid)[0].tobytes()
    with pytest.raises(ValueError, match="read-only"):
        got[...] = 0.0
    # the store's one entry is that one Psi array alone
    (entry,) = vars(grid)["_kept_psi"].values()
    assert entry is got and grid.kept_psi(f, AUDIT_RADII.copy()) is got
    assert isinstance(entry, np.ndarray) and entry.shape == (AUDIT_RADII.size, grid.m1, grid.m2)


def _rows_match_scalar_calls(monkeypatch, f, radii, ctx):
    """A batched contrast_residual at radii is one _combine call, and each of
    its rows and squared norms equals, bit for bit, the residual at that
    radius alone, on a fresh context."""
    import spheredeconv.contrast as contrast_mod

    combines = []
    real = contrast_mod._combine

    def counting(*args):
        combines.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(contrast_mod, "_combine", counting)
    batch = contrast_residual(f, radii, ctx)
    monkeypatch.undo()
    assert combines == [(radii.size, ctx.grid.m1, ctx.grid.m2)]
    assert batch.shape == (radii.size, 2 * ctx.grid.m1 * ctx.grid.m2)
    fresh = ContrastContext(ctx.grid, ctx.ref)
    for radius, row in zip(radii, batch):
        alone = contrast_residual(f, float(radius), fresh)
        assert row.tobytes() == alone.tobytes()
        assert float(row @ row) == float(alone @ alone)


@pytest.mark.parametrize("grid_name", ["default", "bench", "nine_nodes"])
@pytest.mark.parametrize("scenario_id", [1, 2, 3, 4])
def test_batched_residual_rows_bitwise_match_per_radius_calls(monkeypatch, scenario_id, grid_name):
    # bench: the narrower window nu_est = 0.5
    grid = {
        "default": EvalGrid.build,
        "bench": lambda: EvalGrid.build(nu_est=0.5),
        "nine_nodes": lambda: EvalGrid.build(nodes_per_axis=9),
    }
    grid = grid[grid_name]()
    for seed in (0, 1, 2):
        ctx = ContrastContext.from_sample(generate(scenario(scenario_id), 500, seed), grid)
        rng = np.random.default_rng(seed)
        for k_cut in (0, 4, 12):
            half = 0.08 * (rng.normal(size=k_cut) + 1j * rng.normal(size=k_cut)) / np.arange(1, k_cut + 1)
            _rows_match_scalar_calls(monkeypatch, FourierDensity.from_half(half), AUDIT_RADII, ctx)


def test_batched_residual_rows_bitwise_match_per_radius_calls_in_three_dimensions(monkeypatch):
    f = CallableDensity(lambda u: 1.0 + 0.5 * np.cos(2.0 * np.pi * u[:, 0]), dim_minus_1=2)
    data = np.random.default_rng(3).standard_normal((300, 3)) + np.array([2.0, 0.0, 0.0])
    ctx = ContrastContext.from_sample(data, EvalGrid.build(dim=3, nodes_per_axis=3))
    _rows_match_scalar_calls(monkeypatch, f, AUDIT_RADII, ctx)


def test_one_quadrature_call_per_contrast_off_the_closed_form(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    calls = []
    real = charfn_mod._psi_quadrature

    def counting(f, radius, pts, **kwargs):
        calls.append(pts.shape[0])
        return real(f, radius, pts, **kwargs)

    monkeypatch.setattr(charfn_mod, "_psi_quadrature", counting)
    grid = EvalGrid.build(nodes_per_axis=9, nu_est=0.5)
    ctx = ContrastContext.from_sample(generate(scenario(4), 200, seed=3), grid)
    contrast_mn(scenario(4).density, 3.0, ctx)
    assert calls == [5 * 9]


def central_differences(fn, x, step=1e-6):
    """Jacobian of fn at x by central differences, one column per coordinate."""
    return np.column_stack([(fn(x + step * e) - fn(x - step * e)) / (2.0 * step) for e in np.eye(x.size)])


def residual_at(ctx):
    """contrast_residual as a function of (R, Re c_1, Im c_1, ..., Re c_K, Im c_K)."""
    return lambda x: contrast_residual(FourierDensity.from_half(x[1::2] + 1j * x[2::2]), x[0], ctx)


@pytest.mark.parametrize("k_cut", [0, 1, 4, 12])
@pytest.mark.parametrize("scenario_id", [1, 4])
def test_contrast_jacobian_matches_central_differences(scenario_id, k_cut):
    # the Jacobian a descent probe returns with its residual
    grid = EvalGrid.build()
    ctx = ContrastContext.from_sample(generate(scenario(scenario_id), 2000, seed=scenario_id), grid)
    rng = np.random.default_rng(10 * scenario_id + k_cut)
    residual = residual_at(ctx)
    for _ in range(3):
        x = np.concatenate([[rng.uniform(0.8, 9.0)], 0.1 * rng.standard_normal(2 * k_cut)])
        want = central_differences(residual, x)
        f = FourierDensity.from_half(x[1::2] + 1j * x[2::2])
        residual_there, jacobian = contrast_probe(f, x[0], ctx)
        assert np.array_equal(residual_there, residual(x))
        got = jacobian()
        assert got.shape == (2 * grid.m1 * grid.m2, 1 + 2 * k_cut)
        assert np.max(np.abs(got - want)) <= 1e-6 * np.max(np.abs(want))


def test_contrast_jacobian_reuses_the_latest_bessel_rows(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    calls = []
    real = charfn_mod.bessel_rows

    def counting(k_cut, x):
        calls.append(k_cut)
        return real(k_cut, x)

    # the sample's ECF calls the kernel too, once per coordinate, before any contrast
    ctx = ContrastContext.from_sample(generate(scenario(1), 200, seed=3), EvalGrid.build(nodes_per_axis=9))
    monkeypatch.setattr(charfn_mod, "bessel_rows", counting)
    f = FourierDensity.from_half([0.05 - 0.02j, 0.01j])
    # a probe is one kernel call, its residual's; its Jacobian, asked for in
    # any order after other probes, reads that call's rows
    residual, at_probe = contrast_probe(f, 2.5, ctx)
    elsewhere_residual, elsewhere = contrast_probe(f, 2.7, ctx)
    assert calls == [2, 2]
    assert not np.array_equal(at_probe(), elsewhere())
    assert np.array_equal(at_probe(), at_probe()) and calls == [2, 2]
    assert np.array_equal(residual, contrast_residual(f, 2.5, ctx))
    assert np.array_equal(elsewhere_residual, contrast_residual(f, 2.7, ctx))
    # K = 0 rows hold J_1 too, so its Jacobian also reuses the probe's rows
    contrast_probe(FourierDensity.uniform(), 2.5, ctx)[1]()
    assert calls[4:] == [0]


def test_contrast_jacobian_reuses_the_probes_quadrature_pass(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    calls = []
    real = charfn_mod._psi_quadrature

    def counting(f, radius, pts):
        calls.append(radius)
        return real(f, radius, pts)

    monkeypatch.setattr(charfn_mod, "_psi_quadrature", counting)
    data = np.random.default_rng(3).standard_normal((200, 3))
    ctx = ContrastContext.from_sample(data, EvalGrid.build(dim=3, nodes_per_axis=3))
    f = uniform_density(2)
    # each evaluation is one pass, which gives dPsi/dR alongside Psi
    residual, at_probe = contrast_probe(f, 2.5, ctx, radius_only=True)
    elsewhere = contrast_probe(f, 2.7, ctx, radius_only=True)[1]
    assert np.array_equal(residual, contrast_residual(f, 2.5, ctx))
    assert calls == [2.5, 2.7, 2.5]
    got = at_probe()
    assert calls[3:] == [] and not np.array_equal(got, elsewhere())
    assert got.shape == (residual.size, 1)
    # the probe's pass gives what a fresh grid computes from scratch
    fresh = ContrastContext.from_sample(data, EvalGrid.build(dim=3, nodes_per_axis=3))
    assert np.array_equal(got, contrast_probe(f, 2.5, fresh, radius_only=True)[1]())


def test_contrast_jacobian_needs_the_closed_form(monkeypatch):
    import spheredeconv.charfn as charfn_mod

    def no_pass(*args, **kwargs):
        raise AssertionError("quadrature pass before the refusal")

    ctx = ContrastContext.from_sample(generate(scenario(4), 200, seed=3), EvalGrid.build(nodes_per_axis=9))
    monkeypatch.setattr(charfn_mod, "_psi_quadrature", no_pass)
    with pytest.raises(ValueError, match="closed form"):
        contrast_probe(scenario(4).density, 3.0, ctx)


@pytest.mark.parametrize("dim", [2, 3])
def test_interleaved_contexts_on_one_grid_keep_their_own_evaluations(monkeypatch, dim):
    import spheredeconv.charfn as charfn_mod

    calls = []
    real_rows, real_pass = charfn_mod.bessel_rows, charfn_mod._psi_quadrature

    def rows(k_cut, x):
        calls.append("rows")
        return real_rows(k_cut, x)

    def quadrature_pass(*args, **kwargs):
        calls.append("pass")
        return real_pass(*args, **kwargs)

    monkeypatch.setattr(charfn_mod, "bessel_rows", rows)
    monkeypatch.setattr(charfn_mod, "_psi_quadrature", quadrature_pass)
    nodes = 9 if dim == 2 else 3
    rng = np.random.default_rng(dim)
    data_a, data_b = (rng.standard_normal((200, dim)) + 2.5 * np.eye(dim)[0] for _ in range(2))
    f = FourierDensity.from_half([0.05 - 0.02j, 0.01j]) if dim == 2 else uniform_density(2)
    radius_only = dim == 3
    grid = EvalGrid.build(dim=dim, nodes_per_axis=nodes)
    a, b = ContrastContext.from_sample(data_a, grid), ContrastContext.from_sample(data_b, grid)
    # a probe on each context, then each Jacobian, the first probe's last
    at_a, at_b = contrast_probe(f, 2.5, a, radius_only)[1], contrast_probe(f, 2.7, b, radius_only)[1]
    before = len(calls)
    got_b, got_a = at_b(), at_a()
    assert len(calls) == before
    fresh_grid = EvalGrid.build(dim=dim, nodes_per_axis=nodes)
    for data, radius, got in ((data_a, 2.5, got_a), (data_b, 2.7, got_b)):
        fresh = ContrastContext.from_sample(data, fresh_grid)
        assert np.array_equal(got, contrast_probe(f, radius, fresh, radius_only)[1]())
    # the shared grid holds only what it determines: its points and one table per cutoff
    assert set(vars(grid)) - set(EvalGrid.__dataclass_fields__) <= {"_points", "_polar_tables", "_kept_psi"}
    for table in vars(grid).get("_polar_tables", {}).values():
        assert set(vars(table)) == {"k_cut", "radii", "index", "phases"}
    # and a context only what every evaluation on its sample reuses
    assert set(vars(a)) == {"grid", "ref", "root_weights", "ref_outer"}


def unfolded_contrast(cand, ref, nu_est, nodes, dim, weight=None):
    """Quadrature of |cand(t) ref(t1, 0) ref(0, t2) - ref(t) cand(t1, 0) cand(0, t2)|^2
    [* weight(t)] over the whole Gauss-Legendre box [-nu_est, nu_est]^dim."""
    x, w = leggauss(nodes)
    t = np.stack([a.ravel() for a in np.meshgrid(*[nu_est * x] * dim, indexing="ij")], axis=1)
    wt = np.prod([a.ravel() for a in np.meshgrid(*[nu_est * w] * dim, indexing="ij")], axis=0)
    head, tail = t.copy(), t.copy()
    head[:, 1:] = 0.0
    tail[:, 0] = 0.0
    diff = cand(t) * ref(head) * ref(tail) - ref(t) * cand(head) * cand(tail)
    if weight is not None:
        wt = wt * weight(t)
    return float(np.sum(wt * np.abs(diff) ** 2))


FOLD_CASES = {
    2: (scenario(4), FourierDensity.from_half([0.08 - 0.03j, 0.02j])),
    3: (
        Scenario(0, uniform_density(2), NoiseModel.isotropic_gaussian(0.3, 3), r_star=2.0),
        CallableDensity(lambda u: 1.0 + 0.5 * np.cos(2.0 * np.pi * u[:, 0]), dim_minus_1=2),
    ),
}


@pytest.mark.parametrize("dim, nodes", [(2, 9), (2, 11), (3, 5), (3, 3)])
def test_folded_grid_matches_unfolded_box(dim, nodes):
    # the half-box rule sums an integrand even under t -> -t exactly as the full box does
    scn, f = FOLD_CASES[dim]
    grid = EvalGrid.build(dim=dim, nu_est=0.8, nodes_per_axis=nodes)
    data = generate(scn, 200, 7).data

    def cand(t):
        return psi_model(f, 2.3, t)

    def ecf_direct(t):
        return np.exp(1j * (t @ data.T)).mean(axis=1)

    def truth(t):
        return psi_model(scn.density, scn.r_star, t)

    def noise_weight(t):
        return np.abs(scn.noise.char_fn(t)) ** 2

    got = contrast_mn(f, 2.3, ContrastContext.from_sample(data, grid))
    assert got == pytest.approx(unfolded_contrast(cand, ecf_direct, 0.8, nodes, dim), rel=1e-13, abs=0.0)
    got = contrast_m_oracle(f, 2.3, scn.density, scn.r_star, scn.noise, grid)
    want = unfolded_contrast(cand, truth, 0.8, nodes, dim, weight=noise_weight)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


class TestPopulationContrast:
    def test_default_grid_is_the_bench_grid(self):
        # the grid of every sweep and fit given none
        from spheredeconv.charfn import default_grid

        scn = scenario(1)
        f = FourierDensity.from_half([0.03 - 0.01j])
        default = contrast_m_oracle(f, 2.7, scn.density, scn.r_star, scn.noise)
        assert default == contrast_m_oracle(f, 2.7, scn.density, scn.r_star, scn.noise, grid=default_grid())
        narrow = contrast_m_oracle(f, 2.7, scn.density, scn.r_star, scn.noise, grid=EvalGrid.build(nu_est=0.5))
        assert narrow != default

    def test_default_grid_is_built_once(self, monkeypatch):
        scn = scenario(1)
        f = FourierDensity.from_half([0.03 - 0.01j])
        first = contrast_m_oracle(f, 2.7, scn.density, scn.r_star, scn.noise)
        builds = []
        real = EvalGrid.build.__func__

        def counting(cls, *args, **kwargs):
            builds.append(kwargs)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(EvalGrid, "build", classmethod(counting))
        assert contrast_m_oracle(f, 2.7, scn.density, scn.r_star, scn.noise) == first
        assert builds == []

    def test_zero_at_truth(self):
        scn = scenario(1)
        val = contrast_m_oracle(scn.density, scn.r_star, scn.density, scn.r_star, scn.noise)
        assert 0.0 <= val <= 1e-18

    def test_strictly_decreasing_towards_truth_in_radius(self):
        scn = scenario(1)
        vals = [
            contrast_m_oracle(scn.density, r, scn.density, scn.r_star, scn.noise)
            for r in (2.0, 2.5, 2.9, 3.0)
        ]
        assert vals[0] > vals[1] > vals[2] > vals[3]
        assert vals[3] <= 1e-18

    def test_positive_at_perturbed_density(self):
        scn = scenario(1)
        bumped = FourierDensity.from_half([0.05])
        assert contrast_m_oracle(bumped, scn.r_star, scn.density, scn.r_star, scn.noise) > 1e-8

    def test_heavier_noise_damps_but_keeps_positivity(self):
        scn = scenario(3)  # unit Gaussian noise
        off = contrast_m_oracle(scn.density, 2.5, scn.density, scn.r_star, scn.noise)
        assert off > 0.0

    def test_requires_closed_form_noise(self):
        class Opaque:
            pass

        with pytest.raises(ValueError):
            contrast_m_oracle(
                uniform_density(1), 2.0, uniform_density(1), 3.0, Opaque()
            )

    def test_mixture_noise_supported(self):
        scn = scenario(2)
        val = contrast_m_oracle(scn.density, 2.4, scn.density, scn.r_star, scn.noise)
        assert val > 0.0
        at_truth = contrast_m_oracle(scn.density, scn.r_star, scn.density, scn.r_star, scn.noise)
        assert at_truth <= 1e-18


@pytest.mark.parametrize("scenario_id", [1, 2, 3, 4])
def test_the_oracle_is_the_large_sample_limit_of_the_contrast(scenario_id):
    # the oracle is contrast_mn on the true law's Psi * Phi_eps, the ECF's
    # limit: at n = 1e6 the empirical contrast is within 2% of it
    from spheredeconv.charfn import default_grid

    scn, grid = scenario(scenario_id), default_grid()
    f = FourierDensity.from_half([0.05 - 0.02j])
    sample_ctx = ContrastContext.from_sample(generate(scn, 1_000_000, 5).data, grid)
    phi = scn.noise.char_fn(grid.points()).reshape(grid.m1, grid.m2)
    population = ContrastContext(grid, psi_model_grid(fourier_form(scn.density), scn.r_star, grid)[0] * phi)
    for radius in (2.7, 3.0):
        oracle = contrast_m_oracle(f, radius, scn.density, scn.r_star, scn.noise)
        assert oracle == contrast_mn(f, radius, population)
        assert abs(contrast_mn(f, radius, sample_ctx) - oracle) <= 2e-2 * oracle


@pytest.mark.parametrize("case", ["3_node_corner", "3_node", "17_node", "transposed", "triple"])
def test_an_ecf_off_the_context_grid_is_refused(case):
    # scenario 1, n = 500: a context on the 33-node grid once took a 3-node
    # ECF's 1 x 1 corner, and both fits then returned r_max, or a 17-node ECF,
    # and the fits failed mid-audit with a broadcasting error
    grid = EvalGrid.build()
    data = generate(scenario(1), 500, 0).data
    own = ecf(data, grid)
    three, seventeen = (ecf(data, EvalGrid.build(nodes_per_axis=nodes)) for nodes in (3, 17))
    ref = {
        "3_node_corner": three[-1:, 1:2],
        "3_node": three,
        "17_node": seventeen,
        "transposed": own.T,
        "triple": (own[:, grid.m2 // 2], own[-1], own),
    }[case]
    with pytest.raises(ValueError, match=r"grid's shape \(17, 33\)"):
        ContrastContext(grid, ref)
    assert ContrastContext(grid, own).ref is own
