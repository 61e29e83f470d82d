"""Tests for noise models, scenario sampling, and sample serialization."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from scipy.special import i0e

from spheredeconv.geometry import CallableDensity, FourierDensity, uniform_density
from spheredeconv.simulate import (
    MIXTURE_MEAN,
    MIXTURE_POINT,
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

# SHA-256 of panel_samples(), recorded before generate worked in place and in slices
PANEL_SHA256 = "ad5d364c1036845343f3556914a9b4c6d3320d6e652ce3ff873865880c4dbae2"
# SHA-256 of the CSV files test_csv_text_is_pinned_and_round_trips_bit_for_bit writes
CSV_SHA256 = "1972534ba69da93e6692320def9375f371cea7e5b14ce6e5794277a4990ef1e8"
CSV_ANONYMOUS_SHA256 = "615fe26b7a5f0fb3e6822dde58ac110bb501ad3fd4aad24890a73083a0ff3125"


def panel_samples():
    """generate's outputs that PANEL_SHA256 pins, in order.  The sizes straddle
    the rejection batch's minimum (64 rows), the 2**14-row slices of
    sample_angles (13505 draws a batch of 16384 candidates) and of sphere_map
    (16385 rows); the peaked density takes a second rejection batch at n = 7
    (seed 2) and n = 50 (seeds 1, 2)."""
    peaked = CallableDensity(lambda u: np.exp(20.0 * (np.cos(2.0 * np.pi * u[:, 0]) - 1.0)) / i0e(20.0))
    scns = [scenario(i) for i in (1, 2, 3, 4)] + [
        Scenario(0, uniform_density(2), NoiseModel.isotropic_gaussian(0.3, 3), r_star=2.0, c_star=(1.0, -2.0, 0.5)),
        Scenario(0, FourierDensity.from_half([0.2 + 0.1j, 0.05 - 0.1j]),
                 NoiseModel.diagonal_gaussian(mean=(0.3, -0.2), sigma=(0.1, 0.2)), r_star=2.5, c_star=(1.5, -0.5)),
        Scenario(0, peaked, NoiseModel.isotropic_gaussian(0.1, 2), r_star=0.5),
        scenario(1).noiseless(),
    ]
    for scn in scns:
        for n in (1, 7, 50, 1000, 13505, 16385, 20000, 100003):
            for seed in (0, 1, 2, 12345):
                yield generate(scn, n, seed).data
    yield generate(scenario(1), 1_000_000, 0).data


class TestNoiseModels:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel("laplace", 2)
        with pytest.raises(ValueError):
            NoiseModel.isotropic_gaussian(-0.1, 2)
        with pytest.raises(ValueError):
            draw_noise(NoiseModel.none(2), 0, 1)

    def test_draws_deterministic(self):
        m = NoiseModel.mixture_dirac_exp(2)
        a = draw_noise(m, 100, 5)
        b = draw_noise(m, 100, 5)
        assert np.array_equal(a, b)

    def test_none_kind(self):
        assert np.all(draw_noise(NoiseModel.none(3), 10, 0) == 0.0)

    def test_mixture_moments(self):
        # analytic mixture mean: 0.5 * (-1) + 0.5 * 0.12 = -0.44
        target = 0.5 * MIXTURE_POINT + 0.5 * MIXTURE_MEAN
        eps = draw_noise(NoiseModel.mixture_dirac_exp(2), 100_000, 11)
        assert np.max(np.abs(eps.mean(axis=0) - target)) < 0.02

    def test_gaussian_moments_and_independence(self):
        eps = draw_noise(NoiseModel.isotropic_gaussian(0.12, 2), 100_000, 3)
        assert np.allclose(eps.var(axis=0), 0.12**2, rtol=0.1)
        corr = np.corrcoef(eps.T)[0, 1]
        assert abs(corr) <= 0.02

    def test_diagonal_gaussian_mean(self):
        m = NoiseModel.diagonal_gaussian(mean=(-1.6, 2.5), sigma=(0.2, 0.57))
        eps = draw_noise(m, 100_000, 8)
        assert np.allclose(eps.mean(axis=0), (-1.6, 2.5), atol=0.02)
        assert np.allclose(eps.std(axis=0), (0.2, 0.57), rtol=0.05)

    def test_char_fn_matches_empirical(self):
        n = 100_000
        tol = 5.0 / np.sqrt(n)
        models = [
            NoiseModel.none(2),
            NoiseModel.isotropic_gaussian(0.12, 2),
            NoiseModel.diagonal_gaussian(mean=(-1.6, 2.5), sigma=(0.2, 0.57)),
            NoiseModel.mixture_dirac_exp(2),
        ]
        ts = np.linspace(-1.0, 1.0, 20)
        for idx, model in enumerate(models):
            eps = draw_noise(model, n, 100 + idx)
            for j in range(2):
                emp = np.array([np.mean(np.exp(1j * t * eps[:, j])) for t in ts])
                closed = model.coord_char(j, ts)
                assert np.max(np.abs(emp - closed)) <= tol, model.kind

    def test_mixture_char_fn_formula(self):
        m = NoiseModel.mixture_dirac_exp(1)
        t = 0.7
        want = 0.5 * np.exp(-1j * t) + 0.5 / (1.0 - 0.12j * t)
        assert m.coord_char(0, t) == pytest.approx(want)

    def test_joint_char_fn_factorizes(self):
        m = NoiseModel.diagonal_gaussian(mean=(0.5, -0.25), sigma=(1.0, 2.0))
        t = np.array([0.3, -0.8])
        assert m.char_fn(t) == pytest.approx(m.coord_char(0, t[0]) * m.coord_char(1, t[1]))


class TestScenarios:
    def test_presets(self):
        assert scenario(1).noise.kind == "isotropic_gaussian"
        assert scenario(2).noise.kind == "mixture_dirac_exp"
        assert scenario(3).noise.sigma[0] == 1.0
        s4 = scenario(4)
        assert s4.density.name == "vonmises_like"
        assert np.allclose(s4.noise.mean, (-1.6, 2.5))
        for sid in range(1, 5):
            s = scenario(sid)
            assert s.r_star == 3.0
            assert np.all(s.c_star == 0.0)
        with pytest.raises(ValueError):
            scenario(9)

    def test_dimensions_must_agree(self):
        circle, plane, space = uniform_density(1), NoiseModel.none(2), NoiseModel.none(3)
        for density, noise in ((uniform_density(2), plane), (circle, space)):
            with pytest.raises(ValueError, match="dimensions disagree"):
                Scenario(0, density, noise)
        for c_star in ((1.0,), (1.0, 2.0, 3.0), [[0.0, 0.0]]):
            with pytest.raises(ValueError, match="c_star"):
                Scenario(0, circle, plane, c_star=c_star)
        scn = Scenario(0, uniform_density(2), space, c_star=(1.0, 2.0, 3.0))
        assert scn.dim == 3 and generate(scn, 5, 0).data.shape == (5, 3)

    def test_noiseless_points_lie_on_circle(self):
        s = scenario(1).noiseless()
        sample = generate(s, 300, 17)
        radii = np.linalg.norm(sample.data - s.c_star, axis=1)
        assert np.max(np.abs(radii - s.r_star)) < 1e-12

    def test_generate_deterministic_and_tagged(self):
        s = scenario(2)
        a = generate(s, 200, 99)
        b = generate(s, 200, 99)
        c = generate(s, 200, 100)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)
        assert a.seed == 99 and a.scenario_id == 2
        assert a.n == 200 and a.dim == 2

    def test_samples_are_pinned_bit_for_bit(self):
        assert hashlib.sha256(b"".join(data.tobytes() for data in panel_samples())).hexdigest() == PANEL_SHA256

    @pytest.mark.parametrize("scenario_id", [1, 2, 3, 4])
    def test_generate_peaks_at_a_small_multiple_of_its_output(self, scenario_id):
        # the sample, the angles, the noise and one rejection batch's
        # candidates and heights: at most 3.5 times the output's bytes
        # (scenario 4's batch is 2.6 n rows, the others' 1.2 n)
        generate(scenario(scenario_id), 1_000, 0)  # warm every cache first
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            sample = generate(scenario(scenario_id), 200_000, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * sample.data.nbytes

    def test_derive_seed_distinct_cells(self):
        seeds = {
            derive_seed(42, sid, n, rep)
            for sid in (1, 2)
            for n in (100, 1000)
            for rep in range(3)
        }
        assert len(seeds) == 12
        assert derive_seed(42, 1, 100, 0) == derive_seed(42, 1, 100, 0)


class TestSampleIO:
    def test_csv_round_trip_lossless(self, tmp_path):
        sample = generate(scenario(1), 50, 7)
        path = tmp_path / "sample.csv"
        save_sample(sample, path)
        back = load_sample(path)
        assert np.array_equal(back.data, sample.data)
        assert back.seed == 7 and back.scenario_id == 1
        header = path.read_text().splitlines()[0]
        assert header == "# seed=7 scenario=1"

    def test_csv_text_is_pinned_and_round_trips_bit_for_bit(self, tmp_path):
        # the file's bytes were hashed from the format that joined every line
        # into one string; the streaming writer writes the same bytes
        data = generate(scenario(4), 300, 5).data.copy()
        data[:6, 0] = [-0.0, 5e-324, -1.7976931348623157e308, 0.1, 1.0, 2.0**-1074 * 3]
        for sample, want in ((Sample(data, seed=5, scenario_id=4), CSV_SHA256),
                             (Sample(data[:3]), CSV_ANONYMOUS_SHA256)):
            path = tmp_path / "sample.csv"
            save_sample(sample, path)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == want
            back = load_sample(path)
            assert back.data.tobytes() == sample.data.tobytes()
            assert (back.seed, back.scenario_id) == (sample.seed, sample.scenario_id)

    def test_csv_skips_blank_lines_and_refuses_ragged_rows(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("\n# seed=3 scenario=-\n\ny1,y2\n1,2\n  \n3,4\n")
        back = load_sample(path)
        assert back.data.tolist() == [[1.0, 2.0], [3.0, 4.0]] and (back.seed, back.scenario_id) == (3, None)
        path.write_text("# seed=- scenario=-\ny1,y2\n1,2\n3,4,5\n")
        with pytest.raises(ValueError, match="data row 2 has 3 values"):
            load_sample(path)
        path.write_text("# seed=- scenario=-\ny1,y2\n1,2\n3,x\n")
        with pytest.raises(ValueError, match="could not convert"):
            load_sample(path)
        path.write_text("# seed=- scenario=-\ny1,y2\n\n")
        with pytest.raises(ValueError, match="missing header"):
            load_sample(path)

    def test_csv_io_streams_rows(self, tmp_path):
        # no text of the whole file and no list of rows: writing holds one
        # row's text, reading one growing float buffer
        sample = generate(scenario(1), 20_000, 3)
        path = tmp_path / "sample.csv"
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            save_sample(sample, path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = load_sample(path)
            read_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.data, sample.data)
        assert write_peak <= 0.5 * sample.data.nbytes
        assert read_peak <= 2.0 * sample.data.nbytes

    def test_binary_round_trip_lossless(self, tmp_path):
        sample = generate(scenario(4), 64, 123)
        path = tmp_path / "sample.bin"
        save_sample(sample, path)
        back = load_sample(path)
        assert np.array_equal(back.data, sample.data)
        assert back.seed == 123 and back.scenario_id == 4

    def test_binary_rejects_corruption(self, tmp_path):
        sample = generate(scenario(1), 10, 1)
        path = tmp_path / "sample.bin"
        save_sample(sample, path)
        blob = path.read_bytes()
        (tmp_path / "bad_magic.bin").write_bytes(b"XXXXXXXX" + blob[8:])
        with pytest.raises(ValueError):
            load_sample(tmp_path / "bad_magic.bin")
        (tmp_path / "short.bin").write_bytes(blob[:-16])
        with pytest.raises(ValueError):
            load_sample(tmp_path / "short.bin")

    def test_the_format_follows_the_path(self, tmp_path):
        # binary for a path ending in .bin, CSV for any other, str or Path
        sample = generate(scenario(4), 64, 123)
        save_sample(sample, tmp_path / "a.bin")
        save_sample(sample, str(tmp_path / "a.csv"))
        assert (tmp_path / "a.bin").read_bytes().startswith(b"SPHSMP01")
        assert (tmp_path / "a.csv").read_text().startswith("# seed=123 scenario=4\n")
        for name in ("a.txt", "a", "a.bin.csv"):
            save_sample(sample, tmp_path / name)
            assert (tmp_path / name).read_bytes() == (tmp_path / "a.csv").read_bytes()
        for name in ("a.bin", "a.csv", "a.txt", "a"):
            assert load_sample(str(tmp_path / name)).data.tobytes() == sample.data.tobytes()
        # a binary file under another name is read as CSV, and refused
        (tmp_path / "b.csv").write_bytes((tmp_path / "a.bin").read_bytes())
        with pytest.raises(ValueError):
            load_sample(tmp_path / "b.csv")

    def test_csv_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError):
            load_sample(path)

    def test_sample_validation(self):
        with pytest.raises(ValueError):
            Sample(np.zeros(5))
