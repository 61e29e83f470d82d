"""Tests for the evaluation grid, the ECF, and the model characteristic
function (closed form and quadrature routes)."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.special as sp
from numpy.polynomial.legendre import leggauss

from spheredeconv.bessel import negligible_order
from spheredeconv.charfn import (
    _WINDOW,
    EvalGrid,
    _core,
    _phase,
    _reach,
    default_grid,
    ecf,
    psi_model,
    psi_model_grid,
)
from spheredeconv.contrast import _marginals
from spheredeconv.errors import ConfigError
from spheredeconv.geometry import (
    FourierDensity,
    sphere_map,
    uniform_density,
    vonmises_like,
)
from spheredeconv.simulate import NoiseModel, Scenario, generate, scenario


def exact_exp(t, x):
    """exp(i t x) for the given doubles, with the product t x split exactly
    into p + e (Dekker's two-product on Veltkamp's split), then exp(i p)(1 + i e):
    the exp(i fl(t x)) of a naive formula is off by up to |t x| 2^-53."""
    p = t * x

    def split(a):
        c = 134217729.0 * a
        high = c - (c - a)
        return high, a - high

    (t1, t2), (x1, x2) = split(t), split(x)
    e = ((t1 * x1 - p) + t1 * x2 + t2 * x1) + t2 * x2
    return np.exp(1j * p) * (1.0 + 1j * e)


def direct_ecf(data, g):
    """The unfolded formula on the full grid, exact in the phase: one
    exp(i t_c x_c) factor per node, coordinate and observation."""
    e1 = exact_exp(g.axis1_nodes[:, None], data[:, 0])
    e2 = np.ones((g.m2, data.shape[0]), dtype=complex)
    for c in range(1, data.shape[1]):
        e2 *= exact_exp(g.axis2_nodes[:, c - 1, None], data[:, c])
    return e1 @ e2.T / data.shape[0]


def core(data, g):
    """_core as ecf calls it: (centre, half-width, orders, mask or None)."""
    return _core(data, g, data.min(axis=0), data.max(axis=0))


def with_outlier(data, x1):
    moved = data.copy()
    moved[7, 0] = x1
    return moved


def d3_sample(n, seed):
    scn = Scenario(0, uniform_density(2), NoiseModel.isotropic_gaussian(0.1, 3), r_star=1.0)
    return generate(scn, n, seed).data


def random_density(rng, k_cut=4, scale=0.08):
    half = scale * (rng.normal(size=k_cut) + 1j * rng.normal(size=k_cut)) / np.arange(1, k_cut + 1)
    return FourierDensity.from_half(half)


class TestEvalGrid:
    def test_weights_sum_to_box_volume(self):
        for dim in (2, 3):
            g = EvalGrid.build(dim=dim, nu_est=0.5, nodes_per_axis=17)
            vol = np.sum(g.axis1_weights) * np.sum(g.axis2_weights)
            assert vol == pytest.approx((2 * 0.5) ** dim, rel=1e-12)

    def test_nodes_symmetric_and_centered(self):
        g = EvalGrid.build(dim=2, nu_est=1.0, nodes_per_axis=33)
        axis, weights = g.axis2_nodes[:, 0], g.axis2_weights
        assert np.array_equal(axis[::-1], -axis) and np.array_equal(weights[::-1], weights)
        # axis 1 keeps the non-positive half of the same nodes, ending at the origin (odd count)
        assert g.m1 == 17 and np.array_equal(g.axis1_nodes, axis[:17])
        assert g.axis1_nodes[-1] == 0.0 and np.all(g.axis1_nodes[:-1] < 0.0)
        # every weight but the centre node's doubled
        assert np.array_equal(g.axis1_weights[:-1], 2.0 * weights[:16])
        assert g.axis1_weights[-1] == weights[16]

    def test_full_points_ordering(self):
        g = EvalGrid.build(dim=2, nu_est=1.0, nodes_per_axis=5)
        pts = g.points()
        assert pts.shape == (3 * 5, 2)
        # row i * m2 + j pairs axis1 node i with axis2 node j
        assert pts[7, 0] == g.axis1_nodes[1]
        assert pts[7, 1] == g.axis2_nodes[2, 0]

    def test_dim3_block_shapes(self):
        g = EvalGrid.build(dim=3, nu_est=1.0, nodes_per_axis=7)
        assert g.axis2_nodes.shape == (49, 2)
        assert np.array_equal(g.axis2_nodes[::-1], -g.axis2_nodes)
        assert g.axis1_nodes.shape == (4,)
        assert g.points().shape == (4 * 49, 3)

    def test_marginals_are_views_of_the_full_grid_on_its_zero_lines(self):
        # psi and the ECF are one (m1, m2) array each; _marginals reads their
        # lines (t1, 0), the column m2 // 2, where t2 = +0.0, and (0, t2), the
        # last row, where t1 = +0.0
        rng = np.random.default_rng(3)
        for dim, nodes in ((2, 9), (2, 33), (3, 5)):
            g = EvalGrid.build(dim=dim, nu_est=0.7, nodes_per_axis=nodes)
            col = g.m2 // 2
            axis1, axis2 = _marginals(np.moveaxis(g.points().reshape(g.m1, g.m2, dim), -1, 0))
            assert np.array_equal(axis1[0], g.axis1_nodes) and np.array_equal(axis2[1:].T, g.axis2_nodes)
            for zeros in (axis1[1:], axis2[0]):
                assert not zeros.any() and np.all(np.copysign(1.0, zeros) == 1.0)
            if dim == 2:
                f, data = random_density(rng), generate(scenario(1), 300, 1).data
            else:
                f, data = uniform_density(2), d3_sample(300, 1)
            for full in (psi_model_grid(f, 2.3, g)[0], ecf(data, g)):
                assert full.shape == (g.m1, g.m2)
                one, two = _marginals(full)
                assert np.shares_memory(one, full) and np.shares_memory(two, full)
                assert one.tobytes() == full[:, col].tobytes() and two.tobytes() == full[-1].tobytes()

    def test_leggauss_rules_exactly_symmetric(self):
        # the fold and the ECF's mirrored axis-2 rows rely on both equalities holding bit for bit
        for count in range(2, 65):
            x, w = leggauss(count)
            assert np.array_equal(x[::-1], -x), count
            assert np.array_equal(w[::-1], w), count

    def test_validation(self):
        with pytest.raises(ValueError):
            EvalGrid.build(dim=1)
        with pytest.raises(ValueError):
            EvalGrid.build(nu_est=0.0)
        with pytest.raises(ValueError):
            EvalGrid.build(nodes_per_axis=1)
        with pytest.raises(ValueError):
            EvalGrid.build(nu_est=float("inf"))
        with pytest.raises(ValueError):
            EvalGrid.build(nodes_per_axis=2.5)
        with pytest.raises(ValueError):
            EvalGrid.build(dim=2.5)

    @pytest.mark.parametrize("dim, nodes", [(2.0, 7.0), (np.int64(3), np.int64(5)), (2, 11.0)])
    def test_integer_valued_floats_build_the_int_grid(self, dim, nodes):
        got = EvalGrid.build(dim=dim, nodes_per_axis=nodes)
        want = EvalGrid.build(dim=int(dim), nodes_per_axis=int(nodes))
        assert type(got.dim) is int and type(got.nodes_per_axis) is int
        assert (got.dim, got.nodes_per_axis) == (want.dim, want.nodes_per_axis)
        assert got.points().tobytes() == want.points().tobytes()
        assert got.axis1_weights.tobytes() == want.axis1_weights.tobytes()
        assert got.axis2_weights.tobytes() == want.axis2_weights.tobytes()

    def test_default_grid_is_one_grid_per_setting(self):
        grid = default_grid()
        forms = [((2,), {}), ((), {"dim": 2}), ((2.0,), {}), ((np.int64(2),), {}), ((), {"dim": np.float64(2.0)})]
        for args, kwargs in forms:
            assert default_grid(*args, **kwargs) is grid
        assert default_grid(3) is not grid
        assert (grid.dim, grid.nu_est, grid.nodes_per_axis) == (2, 1.0, 33)
        assert type(default_grid(3.0).dim) is int and default_grid(3.0) is default_grid(3)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 2.5},
            {"dim": 1},
            {"nu_est": 0.0},
            {"nu_est": float("inf")},
            {"nu_est": float("nan")},
            {"dim": float("inf")},
            {"dim": float("nan")},
            {"nodes_per_axis": float("inf")},
            {"nodes_per_axis": float("nan")},
            # an even rule has no node 0, so the axis slices would be no lines of the grid
            {"nodes_per_axis": 32},
            {"nodes_per_axis": 2},
            {"dim": 3, "nodes_per_axis": 4},
        ],
    )
    def test_default_grid_refuses_what_build_refuses(self, kwargs, monkeypatch):
        # checked before it is normalised: dim 2.5 is refused, never taken as 2;
        # and before any work: no Gauss-Legendre rule is computed
        import spheredeconv.charfn as charfn_mod

        monkeypatch.setattr(charfn_mod, "leggauss", None)
        with pytest.raises(ValueError) as built:
            EvalGrid.build(**kwargs)
        # default_grid takes the dimension alone, and refuses a bad one as build does
        if set(kwargs) == {"dim"}:
            with pytest.raises(ValueError, match=str(built.value)):
                default_grid(**kwargs)

    @pytest.mark.parametrize("dim, refused, accepted", [(2, 1e155, 1e154), (3, 1e104, 1e103)])
    def test_a_window_whose_weight_products_overflow_is_refused(self, dim, refused, accepted, monkeypatch):
        import spheredeconv.contrast as contrast_mod

        def no_ecf(*args, **kwargs):
            raise AssertionError("ECF work started on a refused grid")

        monkeypatch.setattr(contrast_mod, "ecf", no_ecf)
        with pytest.raises(ConfigError, match="weight products overflow"):
            EvalGrid.build(dim=dim, nu_est=refused, nodes_per_axis=9)
        g = EvalGrid.build(dim=dim, nu_est=accepted, nodes_per_axis=9)
        assert np.isfinite(np.multiply.outer(g.axis1_weights, g.axis2_weights)).all()
        # the default 33-node rule's weights are smaller, so it overflows later
        with pytest.raises(ConfigError, match="weight products overflow"):
            EvalGrid.build(dim=dim, nu_est=1e300)


class TestEcf:
    def test_single_observation_exact(self):
        g = EvalGrid.build(nodes_per_axis=9)
        y = np.array([[0.7, -1.3]])
        full = ecf(y, g)
        t = g.points()
        want = np.exp(1j * (t @ y[0])).reshape(5, 9)
        assert np.max(np.abs(full - want)) < 1e-14

    def test_mirrored_axis2_rows_match_direct_exp(self):
        # with one observation marg2[j] is the axis-2 factor exp(i t2_j . y2) itself,
        # computed for j <= m2 // 2 and mirrored by conjugation for the rest
        for dim, nodes in ((2, 9), (2, 11), (3, 5), (3, 3)):
            g = EvalGrid.build(dim=dim, nu_est=1.3, nodes_per_axis=nodes)
            y = np.array([[0.7, -1.3, 2.9][:dim]])
            marg2 = _marginals(ecf(y, g))[1]
            want = np.exp(1j * (g.axis2_nodes @ y[0, 1:]))
            assert np.max(np.abs(marg2 - want)) <= 1e-15, (dim, nodes)

    def test_unit_value_at_origin_and_modulus_bound(self):
        g = EvalGrid.build(nodes_per_axis=33)
        full = ecf(generate(scenario(1), 500, 21).data, g)
        marg1, marg2 = _marginals(full)
        mid1, mid2 = g.m1 - 1, g.m2 // 2  # the folded axis 1 ends at the origin
        assert g.axis1_nodes[mid1] == 0.0 and g.axis2_nodes[mid2, 0] == 0.0
        assert abs(marg1[mid1] - 1.0) < 1e-12
        assert abs(marg2[mid2] - 1.0) < 1e-12
        assert abs(full[mid1, mid2] - 1.0) < 1e-12
        for arr in (full, marg1, marg2):
            assert np.max(np.abs(arr)) <= 1.0 + 1e-12

    def test_conjugate_symmetry(self):
        g = EvalGrid.build(nodes_per_axis=9)
        data = generate(scenario(2), 300, 4).data
        full = ecf(data, g)
        # the axis-2 slice, the t1 = 0 row, holds both t and -t
        marg2 = _marginals(full)[1]
        assert np.allclose(marg2, np.conj(marg2[::-1]), atol=1e-13)
        # the dropped half box: psi-tilde at -t is the reflected sample's value at t
        assert np.allclose(ecf(-data, g), np.conj(full), atol=1e-13)

    def test_chunking_consistent(self):
        g = EvalGrid.build(nodes_per_axis=9)
        data = generate(scenario(1), 1000, 2).data
        assert np.array_equal(ecf(data, g), ecf(data, g))  # fixed chunking is bitwise stable

    def test_concentration_around_product_form(self):
        # psi-tilde should concentrate around Psi * Phi_eps: checked on 20 seeds
        n = 10_000
        g = EvalGrid.build(nodes_per_axis=17, nu_est=1.0)
        scn = scenario(1)
        t = g.points()
        product = sp.j0(scn.r_star * np.linalg.norm(t, axis=1)) * scn.noise.char_fn(t)
        bound = 5.0 / np.sqrt(n) * (1.0 + np.sqrt(2.0) * g.nu_est)
        for seed in range(20):
            full = ecf(generate(scn, n, seed).data, g)
            gap = np.max(np.abs(full.ravel() - product))
            assert gap <= bound, (seed, gap, bound)

    def test_matches_the_direct_complex_exponential(self):
        samples = [generate(scenario(sid), 1500, sid).data for sid in (1, 2, 3, 4)]
        # shifted by 1e6, where fl(t x) is off by up to 1e-10
        samples += [data + 1e6 for data in samples]
        # one observation moved out, to the tail
        samples += [with_outlier(samples[0], x1) for x1 in (30.0, 1e3)]
        d3 = d3_sample(1500, 2)
        cases = [(data, EvalGrid.build(nodes_per_axis=nodes)) for nodes in (9, 33, 65) for data in samples]
        for g3 in (EvalGrid.build(dim=3, nodes_per_axis=9), EvalGrid.build(dim=3, nodes_per_axis=17)):
            cases += [(data, g3) for data in (d3, d3 + 1e6, with_outlier(d3, 30.0))]
        for data, g in cases:
            assert np.max(np.abs(ecf(data, g) - direct_ecf(data, g))) <= 2e-15, (g.dim, g.nodes_per_axis)

    def test_scenario_samples_take_the_moment_route(self):
        # the whole sample is the core, summed by moments: an empty tail
        for g in (EvalGrid.build(), EvalGrid.build(nu_est=0.5)):
            for sid in (1, 2, 3, 4):
                for n in (300, 10_000):
                    data = generate(scenario(sid), n, sid).data
                    centre, scale, orders, keep = core(data, g)
                    assert keep is None
                    # the core about its midrange
                    lo, hi = data.min(axis=0), data.max(axis=0)
                    assert np.array_equal(centre, 0.5 * lo + 0.5 * hi) and np.array_equal(scale, 0.5 * hi - 0.5 * lo)
                    assert np.array_equal(orders, negligible_order(g.nu_est * scale))

    def test_shifted_sample_is_all_core_after_centring(self):
        # a sample 1e6 off the origin costs what the sample at the origin does
        g = EvalGrid.build()
        data = generate(scenario(4), 1500, 4).data
        near, far = core(data, g), core(data + 1e6, g)
        assert near[3] is None and far[3] is None
        # the orders of the core's own spread, not of max |x| = 1e6
        assert np.array_equal(near[2], far[2]) and np.all(far[2] < 30)

    def test_an_outlier_lands_in_the_tail(self):
        g = EvalGrid.build()
        clean = generate(scenario(1), 1500, 1).data
        orders = core(clean, g)[2]
        for x1 in (30.0, 1e3, -1e3):
            centre, scale, got, keep = core(with_outlier(clean, x1), g)
            assert np.flatnonzero(~keep).tolist() == [7]
            # the core keeps the clean sample's orders, on a box that holds it
            assert np.array_equal(got, orders)
            assert np.all(np.abs(np.delete(clean, 7, axis=0) - centre) <= scale)

    def test_the_window_caps_a_wide_bulk(self):
        # a circle of radius 80 at nu_est = 1 outgrows the window: the core
        # orders stop at the cap and the ring goes to the tail, summed directly
        g = EvalGrid.build()
        cap = int(np.sqrt(_WINDOW * (1 + g.m1) * (1 + g.m2))) - 1
        for radius, in_window in ((40.0, True), (80.0, False)):
            scn = Scenario(0, uniform_density(1), NoiseModel.isotropic_gaussian(0.12, 2), r_star=radius)
            data = generate(scn, 1500, 5).data
            centre, scale, orders, keep = core(data, g)
            assert (keep is None) == in_window
            assert np.all(orders <= cap) and (in_window or np.all(orders == cap))
            assert np.max(np.abs(ecf(data, g) - direct_ecf(data, g))) <= 2e-15
        # a window of nu_est = 50 leaves no observation of scenario 1 in the core
        g = EvalGrid.build(nu_est=50.0, nodes_per_axis=9)
        data = generate(scenario(1), 1500, 1).data
        assert not core(data, g)[3].any()
        assert np.max(np.abs(ecf(data, g) - direct_ecf(data, g))) <= 2e-15

    def test_a_spread_past_any_order_is_summed_directly(self):
        # negligible_order(1e300) is no integer order: the pair goes to the tail
        g = EvalGrid.build(nodes_per_axis=9)
        pair = np.array([[1e300, 0.0], [-1e300, 0.0]])
        assert not core(pair, g)[3].any()
        full = ecf(pair, g)
        marg1, marg2 = _marginals(full)
        assert np.max(np.abs(marg1 - np.cos(1e300 * g.axis1_nodes))) <= 1e-15
        assert np.array_equal(marg2, np.ones(g.m2)) and np.max(np.abs(full - marg1[:, None])) <= 1e-15

    def test_reach_is_the_widest_argument_of_an_order(self):
        orders = np.arange(0.0, 200.0)
        reach = _reach(orders)
        assert np.array_equal(reach[:5], np.zeros(5)) and np.all(np.diff(reach[4:]) > 0.0)
        assert np.all(negligible_order(reach * (1.0 - 1e-12)) <= np.maximum(orders, 0.0))
        assert np.all(negligible_order(reach[5:] * (1.0 + 1e-12)) > orders[5:])

    def test_phase_is_the_exact_product_phase(self):
        from fractions import Fraction

        two_pi = 2 * Fraction("3.14159265358979323846264338327950288419716939937510")
        nodes = EvalGrid.build(dim=3, nodes_per_axis=9).axis2_nodes
        for centre in ([1e6 + 0.1, -3.7], [0.0, -2.5e7], [0.1, 1e15]):
            got = _phase(nodes, np.array(centre))
            for row, value in zip(nodes, got):
                # <t, centre> mod 2 pi from the exact rational products
                turns = sum(Fraction(t) * Fraction(m) for t, m in zip(row, centre)) / two_pi
                assert abs(value - np.exp(2j * np.pi * float(turns - round(turns)))) <= 1e-15
        # the split of a centre near the largest doubles does not overflow
        assert np.all(np.abs(np.abs(_phase(nodes, np.array([1e300, -1.7e308]))) - 1.0) <= 1e-15)

    def test_zero_coordinate_on_the_moment_route(self):
        # a zero half-range gives J = 0: the coordinate's one Chebyshev row T_0 = 1
        g = EvalGrid.build(nu_est=1.3, nodes_per_axis=9)
        pair = np.array([[0.7, 0.0], [-0.7, 0.0]])
        assert core(pair, g)[2].tolist() == [15, 0]
        full = ecf(pair, g)
        marg1, marg2 = _marginals(full)
        assert np.array_equal(marg2, np.ones(g.m2))
        assert np.max(np.abs(marg1 - np.cos(0.7 * g.axis1_nodes))) <= 1e-15
        assert np.max(np.abs(full - marg1[:, None])) <= 1e-15
        full = ecf(np.array([[0.0, -1.3]]), g)
        marg1, marg2 = _marginals(full)
        assert np.array_equal(marg1, np.ones(g.m1))
        assert np.max(np.abs(marg2 - np.exp(-1.3j * g.axis2_nodes[:, 0]))) <= 1e-15
        assert np.max(np.abs(full - marg2)) <= 1e-15
        assert np.array_equal(ecf(np.zeros((1, 2)), g), np.ones((g.m1, g.m2)))

    def test_moment_route_in_three_dimensions(self):
        data = d3_sample(1500, 2)
        g = EvalGrid.build(dim=3, nodes_per_axis=17)
        assert core(data, g)[3] is None
        assert np.max(np.abs(ecf(data, g) - direct_ecf(data, g))) <= 2e-15

    def test_bits_do_not_depend_on_the_blas_thread_count(self):
        # OpenBLAS reads its thread count once, at load, so each count needs its
        # own process; the moment and the direct products are sliced to stay on
        # one thread, on 33 and on 65 nodes per axis, about any centre, and at
        # nu_est = 50 the whole sample is summed directly
        import spheredeconv

        src = str(Path(spheredeconv.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import hashlib; from spheredeconv.charfn import EvalGrid, ecf; "
            "from spheredeconv.simulate import generate, scenario\n"
            "d = generate(scenario(4), 3000, 1).data; far = d.copy(); far[7, 0] = 1e3\n"
            "for nodes in (33, 65):\n"
            "    g, wide = EvalGrid.build(nodes_per_axis=nodes), EvalGrid.build(nu_est=50.0, nodes_per_axis=nodes)\n"
            "    for sample, grid in ((d, g), (d + 1e6, g), (far, g), (d, wide)):\n"
            "        print(hashlib.sha256(ecf(sample, grid).tobytes()).hexdigest())"
        )
        outputs = []
        for threads in ("1", "2"):
            env.update(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout.split())
        assert len(outputs[0]) == 8 and outputs[0] == outputs[1]

    def test_errors(self):
        g = EvalGrid.build(nodes_per_axis=5)
        with pytest.raises(ValueError):
            ecf(np.zeros((0, 2)), g)
        with pytest.raises(ValueError):
            ecf(np.zeros((5, 3)), g)
        for value in (np.inf, -np.inf, np.nan):
            bad = np.zeros((4, 2))
            bad[1, 0] = value
            with pytest.raises(ValueError):
                ecf(bad, g)


class TestPsiModel:
    def test_uniform_density_is_bessel_j0(self):
        g = EvalGrid.build(nodes_per_axis=17, nu_est=1.0)
        t = g.points()
        vals = psi_model(uniform_density(1), 3.0, t)
        want = sp.j0(3.0 * np.linalg.norm(t, axis=1))
        assert np.max(np.abs(vals - want)) < 1e-12
        assert np.max(np.abs(vals - sp.j0(3.0 * np.linalg.norm(t, axis=1)))) < 1e-10

    def test_value_one_at_zero_frequency(self):
        rng = np.random.default_rng(0)
        f = random_density(rng)
        for method in ("closed", "quadrature"):
            assert psi_model(f, 2.5, np.zeros(2), method=method) == pytest.approx(1.0, abs=1e-12)

    def test_closed_and_quadrature_routes_agree(self):
        rng = np.random.default_rng(42)
        worst = 0.0
        for _ in range(50):
            f = random_density(rng, k_cut=int(rng.integers(1, 7)))
            radius = float(rng.uniform(0.5, 8.0))
            t = rng.uniform(-1.5, 1.5, size=2)
            a = psi_model(f, radius, t, method="closed")
            b = psi_model(f, radius, t, method="quadrature")
            worst = max(worst, abs(a - b))
        assert worst < 1e-8

    def test_polar_bessel_expansion_signs(self):
        # Psi for f = 1 + 2 Re(c_1 e^{-2 i pi u}) at t = r e_1:
        # theta = 0, so Psi = J_0(rR) + 2 i c_1.real J_1(rR) ... with the
        # imaginary part entering through i^1; verified against quadrature
        f = FourierDensity.from_half([0.3 + 0.2j])
        radius, r = 2.0, 0.8
        got = psi_model(f, radius, np.array([r, 0.0]), method="closed")
        want = sp.j0(r * radius) + 1j * sp.j1(r * radius) * 2.0 * 0.3
        assert got == pytest.approx(want, abs=1e-13)
        quad = psi_model(f, radius, np.array([r, 0.0]), method="quadrature")
        assert got == pytest.approx(quad, abs=1e-10)

    def test_case4_density_against_midpoint_oracle(self):
        # independent oracle: 1e6-point midpoint average of exp(i R <t, S(u)>) f(u)
        f = vonmises_like()
        t = np.array([0.2, 0.1])
        radius = 3.0
        u = (np.arange(1_000_000) + 0.5) / 1_000_000
        fvals = f.fn(u[:, None])
        phases = np.exp(1j * radius * (sphere_map(u[:, None]) @ t))
        oracle = np.mean(phases * fvals)
        got = psi_model(f, radius, t)
        assert abs(got - oracle) < 1e-6

    def test_parseval_on_circles(self):
        # (1/L) sum_theta |Psi(r, theta)|^2 == sum_p |c_p J_p(rR)|^2
        rng = np.random.default_rng(5)
        f = random_density(rng, k_cut=4)
        radius = 2.7
        L = 1024
        thetas = np.arange(L) / L
        for r in (0.5, 2.0):
            t = r * np.column_stack([np.cos(2 * np.pi * thetas), np.sin(2 * np.pi * thetas)])
            vals = psi_model(f, radius, t)
            lhs = np.mean(np.abs(vals) ** 2)
            ks = np.arange(-f.cutoff, f.cutoff + 1)
            rhs = sum(
                abs(f.coeffs[k + f.cutoff] * sp.jv(k, r * radius)) ** 2 for k in ks
            )
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_dim3_quadrature_against_midpoint_oracle(self):
        f = uniform_density(2)
        t = np.array([0.4, -0.2, 0.3])
        radius = 2.0
        m = 600
        axis = (np.arange(m) + 0.5) / m
        u1, u2 = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([u1.ravel(), u2.ravel()])
        oracle = np.mean(np.exp(1j * radius * (sphere_map(pts) @ t)))
        got = psi_model(f, radius, t)
        assert abs(got - oracle) < 1e-8

    def test_dim3_quadrature_peak_memory_is_bounded(self):
        # a block's waves hold at most 524 288 entries: 8 points against the
        # 65 536 angle nodes in d = 3, where 128-point blocks peaked near 150 MB
        g = EvalGrid.build(dim=3, nu_est=0.5, nodes_per_axis=5)
        f = uniform_density(2)
        psi_model_grid(f, 2.3, g)  # the angle rule is built once and cached
        tracemalloc.start()
        try:
            psi_model_grid(f, 2.3, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 60e6

    def test_quadrature_values_do_not_depend_on_the_blocks(self):
        # a point's value is the same in any multi-point call, 129 points
        # included: no block is one row, whose product rounds differently
        f = uniform_density(2)
        pts = np.random.default_rng(3).uniform(-0.5, 0.5, size=(129, 3))
        full = psi_model(f, 2.3, pts)
        for i in (0, 64, 127, 128):
            assert psi_model(f, 2.3, pts[[i, i - 1]])[0] == full[i]

    def test_marginals_bitwise_match_pointwise_calls(self):
        # cutoffs are interleaved so each grid serves several cached tables
        rng = np.random.default_rng(9)
        for nodes_per_axis in (9, 11):
            for nu_est in (0.5, 1.0):
                g = EvalGrid.build(nu_est=nu_est, nodes_per_axis=nodes_per_axis)
                for k_cut in (2, 0, 4, 1, 3, 2):
                    f = random_density(rng, k_cut)
                    radius = float(rng.uniform(0.5, 10.0))
                    want = np.array([psi_model(f, radius, t) for t in g.points()])
                    assert psi_model_grid(f, radius, g)[0].ravel().tobytes() == want.tobytes()

    def test_marginals_bitwise_match_pointwise_calls_at_high_cutoffs(self):
        # past 8 orders of one parity numpy's sum pairs up a single column's terms
        # differently from many columns'; the closed form sums order after order
        rng = np.random.default_rng(13)
        g = EvalGrid.build(nu_est=1.0, nodes_per_axis=9)
        for k_cut, radius in ((16, 2.2), (40, 9.5)):
            f = random_density(rng, k_cut)
            want = np.array([psi_model(f, radius, t) for t in g.points()])
            assert psi_model_grid(f, radius, g)[0].ravel().tobytes() == want.tobytes()

    def test_closed_and_quadrature_routes_agree_at_high_cutoffs(self):
        rng = np.random.default_rng(14)
        t = rng.uniform(-1.0, 1.0, size=(40, 2))
        for k_cut in (12, 24):
            f = random_density(rng, k_cut)
            for radius in (0.7, 3.0, 8.0):
                closed = psi_model(f, radius, t, method="closed")
                assert np.max(np.abs(closed - psi_model(f, radius, t, method="quadrature"))) < 1e-12

    def test_quadrature_marginals_bitwise_match_batch_calls(self):
        # in d = 3 the grid spans many quadrature blocks of 8 points, so the
        # lines straddle them; each marginal equals a batch call on its own
        # line of points
        for f, dim, nodes in ((vonmises_like(), 2, 17), (uniform_density(2), 3, 7)):
            g = EvalGrid.build(dim=dim, nu_est=0.5, nodes_per_axis=nodes)
            pts = g.points()
            assert pts.shape[0] > 128
            full = psi_model_grid(f, 2.3, g)[0]
            assert full.ravel().tobytes() == psi_model(f, 2.3, pts).tobytes()
            lines = _marginals(np.moveaxis(pts.reshape(g.m1, g.m2, dim), -1, 0))
            for got, line in zip(_marginals(full), lines):
                assert got.tobytes() == psi_model(f, 2.3, np.ascontiguousarray(line.T)).tobytes()

    def test_jacobian_values_bitwise_match_marginals(self, monkeypatch):
        import spheredeconv.contrast as contrast_mod

        rng = np.random.default_rng(12)
        g = EvalGrid.build(nu_est=0.5, nodes_per_axis=9)
        for k_cut in (0, 3):
            f = random_density(rng, k_cut)
            psi, derivatives = psi_model_grid(f, 2.7, g)
            assert psi.tobytes() == psi_model_grid(f, 2.7, g)[0].tobytes()
            for radius_only, rows in ((False, 1 + 2 * k_cut), (True, 1)):
                assert derivatives(radius_only).shape == (rows, g.m1, g.m2)
        # the contrast's Jacobian multiplies the very Psi arrays its probe compared
        seen = []
        real_combine, real_jacobian = contrast_mod._combine, contrast_mod._combine_jacobian

        def combine(psi, *args):
            seen.append(psi)
            return real_combine(psi, *args)

        def combine_jacobian(psi, *args):
            seen.append(psi)
            return real_jacobian(psi, *args)

        monkeypatch.setattr(contrast_mod, "_combine", combine)
        monkeypatch.setattr(contrast_mod, "_combine_jacobian", combine_jacobian)
        ctx = contrast_mod.ContrastContext.from_sample(generate(scenario(1), 200, seed=3), g)
        contrast_mod.contrast_probe(f, 2.7, ctx)[1]()
        assert seen[1] is seen[0]

    @pytest.mark.parametrize("k_cut", [0, 1, 4, 12, 40])
    @pytest.mark.parametrize("nodes_per_axis", [9, 11])
    @pytest.mark.parametrize("nu_est", [0.5, 1.0])
    def test_batched_radii_bitwise_match_per_radius_calls(self, k_cut, nodes_per_axis, nu_est):
        g = EvalGrid.build(nu_est=nu_est, nodes_per_axis=nodes_per_axis)
        f = random_density(np.random.default_rng(k_cut), k_cut)
        # unsorted radii whose arguments x = r R fall on both sides of x = max(K, 1)
        top = max(k_cut, 1) / float(g.polar_table(k_cut).radii[-1])
        radii = np.array([3.0, 0.3, 1.7 * top, 0.6 * top, 1e-3])
        xs = np.multiply.outer(radii, g.polar_table(k_cut).radii)
        assert (xs < max(k_cut, 1)).any() and (xs >= max(k_cut, 1)).any()
        batch, derivatives = psi_model_grid(f, radii, g)
        assert batch.shape == (radii.size, g.m1, g.m2)
        rows = {radius_only: derivatives(radius_only) for radius_only in (False, True)}
        assert rows[False].shape == (radii.size, 1 + 2 * k_cut, g.m1, g.m2)
        assert rows[True].shape == (radii.size, 1, g.m1, g.m2)
        for b, radius in enumerate(radii):
            want_vals, want_derivatives = psi_model_grid(f, float(radius), g)
            assert batch[b].tobytes() == want_vals.tobytes()
            # the derivative rows, built on the Bessel rows and the weights
            # shared by every radius, equal those of a call at that radius alone
            for radius_only, got_rows in rows.items():
                assert got_rows[b].tobytes() == want_derivatives(radius_only).tobytes()

    def test_batched_radii_off_the_closed_form_are_one_pass_per_radius(self, monkeypatch):
        import spheredeconv.charfn as charfn_mod

        passes = []
        real_pass = charfn_mod._psi_quadrature

        def counting(f, radius, pts):
            passes.append(radius)
            return real_pass(f, radius, pts)

        monkeypatch.setattr(charfn_mod, "_psi_quadrature", counting)
        for f, dim in ((vonmises_like(), 2), (uniform_density(2), 3)):
            g = EvalGrid.build(dim=dim, nu_est=0.5, nodes_per_axis=3)
            radii = np.array([2.5, 0.7])
            passes.clear()
            batch, derivatives = psi_model_grid(f, radii, g)
            # off the closed form dPsi/dR is the only row, whatever radius_only says
            got_rows = derivatives(True)
            assert passes == list(radii) and derivatives(False).tobytes() == got_rows.tobytes()
            assert got_rows.shape == (radii.size, 1, g.m1, g.m2)
            for b, radius in enumerate(radii):
                want_vals, want_derivatives = psi_model_grid(f, float(radius), g)
                assert batch[b].tobytes() == want_vals.tobytes()
                assert got_rows[b].tobytes() == want_derivatives(True).tobytes()
            # the derivatives made no pass of their own
            assert passes == [2.5, 0.7, 2.5, 0.7]

    def test_errors(self):
        f = uniform_density(1)
        for radii in (np.array([2.0, 0.0]), np.array([[1.0]]), np.array([1.0, np.nan])):
            with pytest.raises(ValueError, match="radius must be positive"):
                psi_model_grid(f, radii, EvalGrid.build(nodes_per_axis=3))
        with pytest.raises(ValueError):
            psi_model(f, 0.0, np.zeros(2))
        with pytest.raises(ValueError):
            psi_model(f, 1.0, np.zeros(3))
        with pytest.raises(ValueError):
            psi_model(f, 1.0, np.zeros(2), method="mc")
        with pytest.raises(ValueError):
            psi_model(uniform_density(2), 1.0, np.zeros(3), method="closed")
