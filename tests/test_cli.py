"""CLI behavior: subcommand chains, output files, exit codes."""

import hashlib
import json
import math

import numpy as np
import pytest

from spheredeconv.bench import DESK_GRID, FULL_GRID, determinism_hash, rate_regression, read_rows
from spheredeconv.cli import main
from spheredeconv.estimators import fit_joint
from spheredeconv.simulate import generate, load_sample, scenario


def test_generate_writes_loadable_sample(tmp_path, capsys):
    out = str(tmp_path / "sample.csv")
    assert main(["generate", "--scenario", "1", "--n", "200", "--seed", "7", "--out", out]) == 0
    assert "200 observations" in capsys.readouterr().out
    sample = load_sample(out)
    assert sample.n == 200 and sample.seed == 7 and sample.scenario_id == 1
    direct = generate(scenario(1), 200, 7)
    assert np.allclose(sample.data, direct.data, atol=1e-15)


def test_generate_binary_output(tmp_path):
    out = str(tmp_path / "sample.bin")
    assert main(["generate", "--scenario", "2", "--n", "64", "--seed", "1", "--out", out]) == 0
    assert load_sample(out).n == 64


# SHA-256 of the files `deconv generate --scenario 4 --n 64 --seed 3` wrote
# when the command chose the sample format itself: CSV, binary, CSV
GENERATED_SHA256 = {
    "csv": "c060cd6b0494098c700ca48a4da43cdabed0206ebf1938b9f574089a88cdae8c",
    "bin": "488f837753ce10c5ecededab7877f7b948cee76dfd5c16666f34bb10dae07a3b",
    "txt": "c060cd6b0494098c700ca48a4da43cdabed0206ebf1938b9f574089a88cdae8c",
}


@pytest.mark.parametrize("suffix", sorted(GENERATED_SHA256))
def test_generated_files_are_pinned(tmp_path, capsys, suffix):
    out = tmp_path / f"sample.{suffix}"
    assert main(["generate", "--scenario", "4", "--n", "64", "--seed", "3", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATED_SHA256[suffix]
    assert load_sample(out).data.tobytes() == generate(scenario(4), 64, 3).data.tobytes()


def test_estimate_then_density_chain(tmp_path, capsys):
    sample_path = str(tmp_path / "s.csv")
    report_path = str(tmp_path / "r.json")
    density_path = str(tmp_path / "d.csv")
    assert main(["generate", "--scenario", "1", "--n", "400", "--seed", "3", "--out", sample_path]) == 0
    assert main(["estimate", "--input", sample_path, "--rmin", "0.5", "--rmax", "10",
                 "--nu-est", "1.0", "--out", report_path]) == 0
    printed = capsys.readouterr().out
    assert "r_hat=" in printed

    payload = json.loads(open(report_path).read())
    assert abs(payload["r_hat"] - 3.0) < 0.2
    assert payload["nu_est"] == 1.0
    assert payload["n"] == 400
    assert len(payload["f_hat_coeffs"]) % 2 == 1

    # the same draw written as .bin fits to the same report
    bin_path = str(tmp_path / "s.bin")
    bin_report = str(tmp_path / "rb.json")
    assert main(["generate", "--scenario", "1", "--n", "400", "--seed", "3", "--out", bin_path]) == 0
    assert main(["estimate", "--input", bin_path, "--out", bin_report]) == 0
    capsys.readouterr()
    from_bin = json.loads(open(bin_report).read())
    for key in ("r_hat", "c_hat", "f_hat_coeffs", "contrast_value", "iterations", "n"):
        assert from_bin[key] == payload[key]

    assert main(["density", "--report", report_path, "--alpha", "0.45",
                 "--grid", "128", "--out", density_path]) == 0
    lines = open(density_path).read().strip().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 129
    xs, vals = zip(*(map(float, line.split(",")) for line in lines[1:]))
    # mass on a midpoint grid should be ~1 for a near-uniform estimate
    assert abs(sum(vals) / len(vals) - 1.0) < 0.05
    assert all(0.0 < x < 1.0 for x in xs)


def test_bench_smoke_and_hash_stability(tmp_path, capsys):
    out1 = str(tmp_path / "b1.csv")
    out2 = str(tmp_path / "b2.csv")
    args = ["bench", "--scenario", "1", "--n", "100", "--reps", "1",
            "--mode", "known_f", "--seed", "4", "--quiet"]
    assert main(args + ["--out", out1]) == 0
    hash1 = [l for l in capsys.readouterr().out.splitlines() if l.startswith("determinism_hash")][0]
    assert main(args + ["--out", out2]) == 0
    hash2 = [l for l in capsys.readouterr().out.splitlines() if l.startswith("determinism_hash")][0]
    assert hash1 == hash2
    assert open(out1).readline() == open(out2).readline()
    body1 = open(out1).read().splitlines()
    assert body1[0].startswith("n,mode,mse_R")
    assert len(body1) == 2


def test_bench_json_output(tmp_path, capsys):
    out = str(tmp_path / "b.json")
    assert main(["bench", "--scenario", "1", "--n", "100", "--reps", "1",
                 "--mode", "known_f", "--seed", "4", "--quiet", "--out", out]) == 0
    rows = json.load(open(out))
    assert len(rows) == 1 and rows[0]["mode"] == "known_f"


def test_a_json_sweep_regresses_from_its_file(tmp_path, capsys):
    # the README's rate_regression(read_rows(path)) on the file deconv bench wrote
    out = str(tmp_path / "sweep.json")
    assert main(["bench", "--scenario", "1", "--n", "100,200,300", "--reps", "2",
                 "--mode", "known_f", "--seed", "4", "--quiet", "--out", out]) == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    rows = read_rows(out)
    assert printed == f"determinism_hash {determinism_hash(rows)}"
    fit = rate_regression(rows)["known_f"]
    assert math.isfinite(fit.slope) and math.isfinite(fit.stderr)


def test_exit_code_2_on_config_errors(tmp_path, capsys):
    # missing input file
    assert main(["estimate", "--input", str(tmp_path / "absent.csv")]) == 2
    assert "error:" in capsys.readouterr().err
    # bad n list
    assert main(["bench", "--scenario", "1", "--n", "100,abc", "--quiet"]) == 2
    capsys.readouterr()
    # unsorted n list
    assert main(["bench", "--scenario", "1", "--n", "1000,100", "--quiet"]) == 2
    capsys.readouterr()
    # a wide radius window fits: Bessel arguments reach about 57 here
    sample_path = str(tmp_path / "s.csv")
    assert main(["generate", "--scenario", "1", "--n", "100", "--seed", "0", "--out", sample_path]) == 0
    assert main(["estimate", "--input", sample_path, "--rmax", "40", "--out", str(tmp_path / "r.json")]) == 0
    capsys.readouterr()
    # a frequency window that cannot be finite is refused before any ECF work
    assert main(["estimate", "--input", sample_path, "--nu-est", "inf"]) == 2
    assert "nu_est" in capsys.readouterr().err
    # bad density grid
    assert main(["density", "--report", str(tmp_path / "nope.json"), "--grid", "1"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, named, reason",
    [
        (["--rmax", "-1"], "--rmax -1", "r_max"),
        (["--rmin", "4", "--rmax", "3"], "--rmin 4 --rmax 3", "r_min < r_max"),
        (["--nu-est", "0"], "--nu-est 0", "nu_est"),
        (["--nu-est", "inf"], "--nu-est inf", "nu_est"),
        (["--nu-est", "1e300"], "--nu-est 1e+300", "weight products overflow"),
    ],
    ids=["negative_rmax", "empty_window", "zero_nu_est", "infinite_nu_est", "overflowing_nu_est"],
)
def test_estimate_refuses_bad_flags_before_reading_its_input(tmp_path, capsys, monkeypatch, flags, named, reason):
    import spheredeconv.cli as cli_mod

    def unread(path):
        raise AssertionError("--input was read before the flags were checked")

    monkeypatch.setattr(cli_mod, "load_sample", unread)
    for name in ("s.csv", "s.bin"):
        assert main(["estimate", "--input", str(tmp_path / name), *flags, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert named in err and reason in err


def test_estimate_is_the_default_joint_fit(tmp_path, capsys):
    sample_path, report_path = str(tmp_path / "s.bin"), str(tmp_path / "r.json")
    assert main(["generate", "--scenario", "4", "--n", "500", "--seed", "2", "--out", sample_path]) == 0
    assert main(["estimate", "--input", sample_path, "--out", report_path]) == 0
    capsys.readouterr()
    rep = fit_joint(load_sample(sample_path))
    assert json.loads(open(report_path).read())["r_hat"] == rep.r_hat


def test_density_rejects_alpha_outside_the_open_half(tmp_path, capsys):
    from spheredeconv.estimators import EstimateReport

    report_path = str(tmp_path / "r.json")
    report = EstimateReport(
        r_hat=3.0, c_hat=np.zeros(2), f_hat_coeffs=np.array([0.1, 1.0, 0.1], dtype=complex),
        contrast_value=0.0, iterations=1, wall_time=0.0, seed=None, n=10_000,
    )
    open(report_path, "w").write(report.to_json())
    out = str(tmp_path / "d.csv")
    assert main(["density", "--report", report_path, "--alpha", "0.5", "--out", out]) == 2
    assert "alpha" in capsys.readouterr().err
    assert main(["density", "--report", report_path, "--out", out]) == 0
    assert "truncation_level=1 " in capsys.readouterr().out


def _write_report(path, coeffs, n=10**6):
    from spheredeconv.estimators import EstimateReport

    report = EstimateReport(
        r_hat=3.0, c_hat=np.zeros(2), f_hat_coeffs=np.asarray(coeffs, dtype=complex),
        contrast_value=0.0, iterations=1, wall_time=0.0, seed=None, n=n,
    )
    path.write_text(report.to_json())
    return str(path)


@pytest.mark.parametrize(
    "flags, digest",
    [
        ([], "27b0338841921ac90caaa0062e8a07603abb4c0ae62d0dd20d4beb9979cf0fe5"),
        (["--alpha", "0.3", "--grid", "33"], "1513b016de88c66dfe86328034844e4ebf36a44375ab4bfb9030852dfe3d9293"),
    ],
    ids=["defaults", "alpha_0.3_grid_33"],
)
def test_density_table_is_pinned(tmp_path, capsys, flags, digest):
    import hashlib

    half = np.array([0.3 + 0.1j, 0.05 - 0.02j, 0.01, 0.002j])
    report = _write_report(tmp_path / "r.json", np.concatenate([np.conj(half[::-1]), [1.0], half]))
    out = tmp_path / "d.csv"
    assert main(["density", "--report", report, *flags, "--out", str(out)]) == 0
    # the unclipped sum c_-N..c_N at N(1e6, 0.45) = 2 and N(1e6, 0.3) = 1
    assert f"truncation_level={2 if not flags else 1} " in capsys.readouterr().out
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "coeffs, reason",
    [
        ([0.0, 0.1, 2.0, 0.1, 0.0], "c_0 must equal 1"),
        ([0.0, 0.1 + 0.2j, 1.0, 0.1 + 0.2j, 0.0], "c_{-k} = conj(c_k)"),
    ],
    ids=["mass_2", "not_real"],
)
def test_density_refuses_coefficients_that_are_not_a_density(tmp_path, capsys, coeffs, reason):
    out = tmp_path / "d.csv"
    assert main(["density", "--report", _write_report(tmp_path / "r.json", coeffs), "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not out.exists()
    # only the kept coefficients must be a density's: past N(1e6, 0.3) = 1 anything goes
    assert main(["density", "--report", _write_report(tmp_path / "r.json", [5.0, 0.1, 1.0, 0.1, 0.0]),
                 "--alpha", "0.3", "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["generate", "density"])
def test_a_size_that_cannot_be_allocated_exits_2(tmp_path, capsys, command):
    # 10**15 values of 8 bytes exceed any address space, so numpy fails
    # before it touches memory
    out = tmp_path / "out.csv"
    if command == "generate":
        argv = ["generate", "--scenario", "1", "--n", str(10**15), "--seed", "0"]
    else:
        argv = ["density", "--report", _write_report(tmp_path / "r.json", [0.1, 1.0, 0.1]), "--grid", str(10**15)]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err
    assert not out.exists()


def test_cli_defaults_are_the_library_defaults(monkeypatch, tmp_path):
    import inspect

    import spheredeconv.cli as cli_mod
    from spheredeconv.bench import BenchSpec
    from spheredeconv.cli import _build_parser
    from spheredeconv.estimators import FitConfig, truncate_density

    parser = _build_parser()
    estimate = parser.parse_args(["estimate", "--input", "s.csv"])
    assert (estimate.rmin, estimate.rmax) == (FitConfig().r_min, FitConfig().r_max)
    density = parser.parse_args(["density", "--report", "r.json"])
    assert density.alpha == inspect.signature(truncate_density).parameters["alpha"].default
    specs = []
    monkeypatch.setattr(cli_mod, "run_bench", lambda spec, progress: specs.append(spec) or [])
    assert main(["bench", "--scenario", "1", "--quiet", "--out", str(tmp_path / "b.csv")]) == 0
    library = BenchSpec(1)
    assert (specs[0].replications, specs[0].base_seed, specs[0].mode) == (
        library.replications, library.base_seed, library.mode
    )
    assert (specs[0].n_values, specs[0].fit_overrides) == (library.n_values, None)


def test_argparse_rejects_unknown_scenario(capsys):
    assert main(["bench", "--scenario", "9"]) == 2
    capsys.readouterr()


def test_console_script_entry_point():
    import os, subprocess, sys
    from pathlib import Path

    import spheredeconv

    # the child imports the package from wherever this process found it
    src = str(Path(spheredeconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "spheredeconv.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "bench" in proc.stdout and "estimate" in proc.stdout


@pytest.mark.parametrize(
    "flags, reps",
    [([], 10), (["--full"], 30), (["--full", "--reps", "10"], 10), (["--reps", "3"], 3)],
    ids=["desk", "full", "full_reps_10", "reps_3"],
)
def test_bench_replications(monkeypatch, tmp_path, flags, reps):
    import spheredeconv.cli as cli_mod

    specs = []
    monkeypatch.setattr(cli_mod, "run_bench", lambda spec, progress: specs.append(spec) or [])
    out = str(tmp_path / "b.csv")
    assert main(["bench", "--scenario", "1", "--quiet", "--out", out, *flags]) == 0
    assert specs[0].replications == reps
    assert specs[0].n_values == (FULL_GRID if "--full" in flags else DESK_GRID)


def test_unwritable_out_is_refused_before_any_work(monkeypatch, tmp_path, capsys):
    import spheredeconv.cli as cli_mod

    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before its --out was checked")

    monkeypatch.setattr(cli_mod, "run_bench", no_work)
    monkeypatch.setattr(cli_mod, "fit_joint", no_work)
    monkeypatch.setattr(cli_mod, "generate", no_work)
    sample_path = tmp_path / "s.csv"
    sample_path.write_text("not read")
    missing = str(tmp_path / "absent" / "x.csv")
    for argv in (
        ["bench", "--scenario", "1", "--n", "100,200", "--reps", "2", "--quiet", "--out", missing],
        ["estimate", "--input", str(sample_path), "--out", missing],
        ["generate", "--scenario", "1", "--n", "10", "--seed", "0", "--out", missing],
        ["density", "--report", str(sample_path), "--out", missing],
        ["bench", "--scenario", "1", "--quiet", "--out", str(tmp_path)],
        ["bench", "--scenario", "1", "--quiet", "--out", ""],
    ):
        assert main(argv) == 2, argv
        assert "--out" in capsys.readouterr().err
    # an existing output file is left as it was
    existing = tmp_path / "keep.csv"
    existing.write_text("old\n")
    assert main(["estimate", "--input", str(tmp_path / "absent.csv"), "--out", str(existing)]) == 2
    assert existing.read_text() == "old\n"


@pytest.mark.parametrize(
    "field, value",
    [("n", None), ("f_hat_coeffs", [1.0, [1.0, 0.0], 1.0]), ("f_hat_coeffs", [[1.0, 0.0, 2.0]]), ("seed", "x")],
    ids=["missing_n", "scalar_coeffs", "triple_coeffs", "bad_seed"],
)
def test_malformed_report_exits_2_naming_the_field(tmp_path, capsys, field, value):
    from spheredeconv.estimators import EstimateReport

    report = EstimateReport(
        r_hat=3.0, c_hat=np.zeros(2), f_hat_coeffs=np.array([0.1, 1.0, 0.1], dtype=complex),
        contrast_value=0.0, iterations=1, wall_time=0.0, seed=None, n=10_000,
    )
    payload = json.loads(report.to_json())
    if value is None:
        del payload[field]
    else:
        payload[field] = value
    report_path = tmp_path / "r.json"
    report_path.write_text(json.dumps(payload))
    assert main(["density", "--report", str(report_path), "--out", str(tmp_path / "d.csv")]) == 2
    assert repr(field) in capsys.readouterr().err
    with pytest.raises(ValueError, match=field):
        EstimateReport.from_json(json.dumps(payload))
