"""Print the fit-parity hashes and per-fit values of the checkout this script sits in.

    python3 scripts/fit_parity.py [--against FILE]

Runs fit_joint and fit_radius_known_density (the scenario's true density)
at the default FitConfig on scenarios 1-4, n in {300, 1e3, 1e4}, seeds 0-1,
on EvalGrid.build() and on EvalGrid.build(nu_est=0.5), labelled "default"
and "bench" (older outputs' name for the narrower window, so --against
lines up with them): 96 fits, with BLAS pinned to one thread.  Prints one SHA-256 over every
fit's (r_hat, c_hat, f_hat_coeffs, contrast_value, iterations), one per
field over all fits (so a moved hash names the field that moved), and the
determinism_hash of the sweep_s4 benchmark spec (scenario 4, n = 1e4, 2
replications, both modes, restarts = 2, on the default grid) at base seeds
1-3.  Then one line per fit: its scenario, n, seed, grid and fit, with
r_hat.hex(), contrast_value.hex() and iterations (the fit's probes).  Then the same for two d = 3 known fits
(the d = 3 audit and descent off the closed form: a circle-cosine density
on the 2-sphere, isotropic noise 0.3, R = 2, n = 300, seeds 0-1, on a
3-node grid): one hash line over both, then one line per fit.  Then one
line per fit the benchmark's fit workloads refit (perfbench/harness.py):
joint_s1 (fit_joint, scenario 1, n = 1e4), known_s1_big
(fit_radius_known_density, scenario 1, n = 1e6) and known_s4 (scenario 4,
n = 1e4), each at seeds 1-3 on EvalGrid.build(dim=2, nodes_per_axis=33)
with the default FitConfig.  Then the same for
128 fits whose descents start at a window edge: both fits on scenarios
1-4, n = 1e3, seeds 0-1, both grids, in four clipped windows, the
default one on the data scaled by 0.1 (the truth below r_min) and by 4
(above r_max), and [0.5, 2.5] and [3.5, 8] on the data as drawn: one
hash line over all of them, then one line per fit.  Then one SHA-256
over the 54 values of the population contrast's panel (contrast_m_oracle
on scenarios 1-4 at R in {2, 2.9, 3, 3.3} for 3 candidates and at each
scenario's truth, on the default grid, and 2 values in d = 3 on a 5-node
grid), then one line per value, its float.hex().  Last, one SHA-256
over generate's output for every sample the script fits, in the order
drawn, the sweep_s4 replications' and the benchmark's 9 inputs included,
so a moved fit is told apart from a moved sample.  Two
checkouts whose lines agree fit bit for bit alike on these inputs; where
they differ, diffing the per-fit lines sizes the move of each fit and its
change in probes.

With --against FILE, a saved output of this script, it prints instead how
this checkout's fits differ from that run's: the largest |delta r_hat| and
relative |delta contrast_value| over the fits both name, each fit whose
probe count changed, each hash line that differs and each fit only one of
the two names.
"""

import argparse
import hashlib
import os
import re
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import spheredeconv as sd  # noqa: E402

FIELDS = ("r_hat", "c_hat", "f_hat_coeffs", "contrast_value", "iterations")


def draw(drawn: list, scn, n: int, seed: int):
    """generate(scn, n, seed), the SHA-256 of its data appended to drawn."""
    sample = sd.generate(scn, n, seed)
    drawn.append(hashlib.sha256(sample.data.tobytes()).digest())
    return sample


def fit_reports(drawn: list):
    """The 96 parity fits' labels and reports, in a fixed order."""
    grids = (("default", sd.EvalGrid.build(dim=2)), ("bench", sd.EvalGrid.build(dim=2, nu_est=0.5)))
    for scenario_id in (1, 2, 3, 4):
        scn = sd.scenario(scenario_id)
        for n in (300, 1_000, 10_000):
            for seed in (0, 1):
                sample = draw(drawn, scn, n, seed)
                for name, grid in grids:
                    label = f"s{scenario_id} n={n} seed={seed} {name}"
                    yield f"{label} joint", sd.fit_joint(sample, grid=grid)
                    yield f"{label} known", sd.fit_radius_known_density(sample, scn.density, grid=grid)


def d3_reports(drawn: list):
    """The two d = 3 known fits' labels and reports."""
    scn = sd.Scenario(
        0,
        sd.CallableDensity(lambda u: 1.0 + 0.5 * np.cos(2.0 * np.pi * u[:, 0]), dim_minus_1=2),
        sd.NoiseModel.isotropic_gaussian(0.3, 3),
        r_star=2.0,
    )
    grid = sd.EvalGrid.build(dim=3, nodes_per_axis=3)
    for seed in (0, 1):
        sample = draw(drawn, scn, 300, seed)
        yield f"d3 n=300 seed={seed} known", sd.fit_radius_known_density(sample, scn.density, grid=grid)


# clipped windows, each putting the truth past an edge of [r_min, r_max]:
# (label, data scale, FitConfig fields)
EDGE_WINDOWS = (("x0.1", 0.1, {}), ("x4", 4.0, {}), ("[0.5,2.5]", 1.0, {"r_max": 2.5}),
                ("[3.5,8]", 1.0, {"r_min": 3.5, "r_max": 8.0}))


def edge_reports(drawn: list):
    """The clipped-window fits' labels and reports: both fits on scenarios
    1-4, n = 1e3, seeds 0-1, both grids, in each EDGE_WINDOWS window."""
    grids = (("default", sd.EvalGrid.build(dim=2)), ("bench", sd.EvalGrid.build(dim=2, nu_est=0.5)))
    for scenario_id in (1, 2, 3, 4):
        scn = sd.scenario(scenario_id)
        for seed in (0, 1):
            data = draw(drawn, scn, 1_000, seed).data
            for window, scale, bounds in EDGE_WINDOWS:
                cfg = sd.FitConfig(**bounds)
                for name, grid in grids:
                    label = f"edge s{scenario_id} n=1000 seed={seed} {window} {name}"
                    yield f"{label} joint", sd.fit_joint(scale * data, cfg, grid)
                    yield f"{label} known", sd.fit_radius_known_density(scale * data, scn.density, cfg, grid)


# the population contrast's candidates at each scenario and radius: (label, density)
ORACLE_CANDIDATES = (("uniform", sd.FourierDensity.uniform()), ("c1", sd.FourierDensity.from_half([0.05 - 0.02j])),
                     ("c1c2", sd.FourierDensity.from_half([0.1j, 0.03])))


def oracle_values():
    """The population contrast's panel, labelled: scenarios 1-4 at R in
    {2, 2.9, 3, 3.3} for each ORACLE_CANDIDATES density and at the truth,
    then in d = 3 (uniform truth on the 2-sphere, R* = 2, isotropic noise
    0.3, 5-node grid) at the truth and a circle-cosine candidate at R = 2.3."""
    for scenario_id in (1, 2, 3, 4):
        scn = sd.scenario(scenario_id)
        for radius in (2.0, 2.9, 3.0, 3.3):
            for name, f in ORACLE_CANDIDATES:
                yield f"oracle s{scenario_id} R={radius:g} {name}", sd.contrast_m_oracle(
                    f, radius, scn.density, scn.r_star, scn.noise)
        yield f"oracle s{scenario_id} truth", sd.contrast_m_oracle(
            scn.density, scn.r_star, scn.density, scn.r_star, scn.noise)
    truth, noise = sd.uniform_density(2), sd.NoiseModel.isotropic_gaussian(0.3, 3)
    cosine = sd.CallableDensity(lambda u: 1.0 + 0.5 * np.cos(2.0 * np.pi * u[:, 0]), dim_minus_1=2)
    grid = sd.EvalGrid.build(dim=3, nodes_per_axis=5)
    yield "oracle d3 truth", sd.contrast_m_oracle(truth, 2.0, truth, 2.0, noise, grid)
    yield "oracle d3 R=2.3 cosine", sd.contrast_m_oracle(cosine, 2.3, truth, 2.0, noise, grid)


# the benchmark's fit workloads: (name, fit, scenario, n)
BENCH_FITS = (("joint_s1", "joint", 1, 10_000), ("known_s1_big", "known", 1, 1_000_000), ("known_s4", "known", 4, 10_000))


def bench_reports(drawn: list):
    """The benchmark workloads' fits at seeds 1-3, labelled by workload and seed."""
    grid = sd.EvalGrid.build(dim=2, nodes_per_axis=33)
    for name, kind, scenario_id, n in BENCH_FITS:
        scn = sd.scenario(scenario_id)
        for seed in (1, 2, 3):
            sample = draw(drawn, scn, n, seed)
            if kind == "joint":
                report = sd.fit_joint(sample, sd.FitConfig(), grid)
            else:
                report = sd.fit_radius_known_density(sample, scn.density, sd.FitConfig(), grid)
            yield f"bench {name} seed={seed} {kind}", report


def fits_hash(fits) -> str:
    total = hashlib.sha256()
    for _, report in fits:
        for name in FIELDS:
            total.update(field_bytes(report, name))
    return total.hexdigest()


def per_fit_line(label, report) -> str:
    return f"{label} r_hat {report.r_hat.hex()} contrast {report.contrast_value.hex()} iterations {report.iterations}"


def field_bytes(report, name: str) -> bytes:
    value = getattr(report, name)
    if name == "iterations":
        return str(value).encode()
    return np.ascontiguousarray(value, dtype=complex if name == "f_hat_coeffs" else float).tobytes()


def parity_lines():
    """The script's output, line by line."""
    per_field = {name: hashlib.sha256() for name in FIELDS}
    drawn = []  # every fitted sample's hash, in the order drawn
    fits = list(fit_reports(drawn))
    for _, report in fits:
        for name in FIELDS:
            per_field[name].update(field_bytes(report, name))
    yield f"fits {len(fits)} {fits_hash(fits)}"
    for name in FIELDS:
        yield f"  {name} {per_field[name].hexdigest()}"
    for seed in (1, 2, 3):
        spec = sd.BenchSpec(4, n_values=(10_000,), replications=2, mode="both", base_seed=seed,
                            fit_overrides={"restarts": 2})
        yield f"sweep_s4 seed {seed} {sd.determinism_hash(sd.run_bench(spec))}"
        for rep in range(spec.replications):
            draw(drawn, sd.scenario(4), 10_000, sd.derive_seed(seed, 4, 10_000, rep))
    for label, report in fits:
        yield per_fit_line(label, report)
    d3 = list(d3_reports(drawn))
    yield f"d3 fits {len(d3)} {fits_hash(d3)}"
    for label, report in d3:
        yield per_fit_line(label, report)
    for label, report in bench_reports(drawn):
        yield per_fit_line(label, report)
    edge = list(edge_reports(drawn))
    yield f"edge fits {len(edge)} {fits_hash(edge)}"
    for label, report in edge:
        yield per_fit_line(label, report)
    oracle = list(oracle_values())
    yield f"oracle values {len(oracle)} {hashlib.sha256(np.array([v for _, v in oracle]).tobytes()).hexdigest()}"
    for label, value in oracle:
        yield f"{label} {value.hex()}"
    yield f"samples {len(drawn)} {hashlib.sha256(b''.join(drawn)).hexdigest()}"


PER_FIT = re.compile(r"(.+) r_hat (\S+) contrast (\S+) iterations (\d+)")


def split_lines(lines):
    """{label: (r_hat, contrast_value, iterations)} of the per-fit lines, and
    {name: hash} of the others, named by all their words but the last."""
    fits, hashes = {}, {}
    for line in lines:
        match = PER_FIT.fullmatch(line.strip())
        if match:
            label, r_hat, contrast, probes = match.groups()
            fits[label] = (float.fromhex(r_hat), float.fromhex(contrast), int(probes))
        elif line.strip():
            *name, value = line.split()
            hashes[" ".join(name)] = value
    return fits, hashes


def compare(saved, current) -> list[str]:
    """How the current lines differ from the saved ones."""
    (old_fits, old_hashes), (new_fits, new_hashes) = split_lines(saved), split_lines(current)
    both = [label for label in new_fits if label in old_fits]
    out = [f"{len(both)} fits in both runs"]
    if both:
        dr = {label: abs(new_fits[label][0] - old_fits[label][0]) for label in both}
        dc = {label: abs(new_fits[label][1] - old_fits[label][1]) / abs(old_fits[label][1] or 1.0) for label in both}
        worst_r, worst_c = max(dr, key=dr.get), max(dc, key=dc.get)
        out.append(f"max |delta r_hat| {dr[worst_r]:.3g} ({worst_r})")
        out.append(f"max relative |delta contrast| {dc[worst_c]:.3g} ({worst_c})")
    moved = [label for label in both if new_fits[label][2] != old_fits[label][2]]
    out.append(f"probe counts changed on {len(moved)} fits")
    out += [f"  {label}: {old_fits[label][2]} -> {new_fits[label][2]}" for label in moved]
    out += [f"hash {name}: {old_hashes.get(name)} -> {new_hashes.get(name)}"
            for name in sorted(set(old_hashes) | set(new_hashes)) if old_hashes.get(name) != new_hashes.get(name)]
    out += [f"only in the saved run: {label}" for label in old_fits if label not in new_fits]
    out += [f"only in this run: {label}" for label in new_fits if label not in old_fits]
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE", help="a saved output of this script to compare with")
    args = parser.parse_args(argv)
    if args.against is None:
        for line in parity_lines():
            print(line, flush=True)
        return
    with open(args.against) as saved:
        print("\n".join(compare(saved.read().splitlines(), list(parity_lines()))))


if __name__ == "__main__":
    main()
