"""Command line front end.

Subcommands: bench (MSE sweep to CSV, or JSON for a .json --out), estimate
(joint fit of one sample file to a JSON report), generate (write a seeded
synthetic sample), density (evaluate the truncated density estimate on a
grid).  A sample file is binary when its path ends in .bin, CSV otherwise.
Exit codes: 0 success, 2 configuration problem or a size too large to allocate, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import DESK_GRID, FULL_GRID, BenchSpec, determinism_hash, emit, run_bench
from .charfn import DEFAULT_NU_EST, EvalGrid, default_grid
from .errors import ConfigError, NumericalError
from .estimators import ALPHA, EstimateReport, FitConfig, fit_joint, truncate_density
from .geometry import fourier_series
from .simulate import generate, load_sample, save_sample, scenario


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"--n expects comma-separated integers, got {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deconv",
        description="Circle/sphere deconvolution: estimate radius, center and angular density "
        "from noisy observations by characteristic-function contrast minimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bench", help="run the seeded MSE sweep")
    b.add_argument("--scenario", type=int, required=True, choices=(1, 2, 3, 4))
    b.add_argument("--n", type=_int_list, default=None, metavar="N1,N2,...")
    b.add_argument("--reps", type=int, default=None,
                   help=f"replications per cell (default: {BenchSpec.replications}, or 30 with --full)")
    b.add_argument("--mode", default=BenchSpec.mode, choices=("known_f", "unknown_f", "both"))
    b.add_argument("--seed", type=int, default=BenchSpec.base_seed)
    b.add_argument("--out", default="bench.csv")
    b.add_argument("--rmin", type=float, default=None)
    b.add_argument("--rmax", type=float, default=None)
    b.add_argument(
        "--full",
        action="store_true",
        help="paper-scale grid (n up to 1e6, 30 replications); 30-40 s per scenario on 2 cores",
    )
    b.add_argument("--quiet", action="store_true", help="suppress per-cell progress")

    e = sub.add_parser("estimate", help="joint fit on a .csv or .bin sample")
    e.add_argument("--input", required=True)
    e.add_argument("--rmin", type=float, default=FitConfig.r_min)
    e.add_argument("--rmax", type=float, default=FitConfig.r_max)
    e.add_argument("--nu-est", type=float, default=DEFAULT_NU_EST, dest="nu_est",
                   help="half-width of the frequency window the contrast integrates over "
                   f"(default {DEFAULT_NU_EST:g}, the window of every fit and of deconv bench)")
    e.add_argument("--out", default="report.json")

    g = sub.add_parser("generate", help="write a synthetic sample")
    g.add_argument("--scenario", type=int, required=True, choices=(1, 2, 3, 4))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True)

    d = sub.add_parser("density", help="tabulate the truncated density estimate")
    d.add_argument("--report", required=True)
    d.add_argument("--alpha", type=float, default=ALPHA)
    d.add_argument("--grid", type=int, default=512)
    d.add_argument("--out", default="density.csv")
    return parser


def _cmd_bench(args) -> int:
    n_values = args.n if args.n is not None else (FULL_GRID if args.full else DESK_GRID)
    reps = args.reps if args.reps is not None else (30 if args.full else BenchSpec.replications)
    overrides = {key: value for key, value in (("r_min", args.rmin), ("r_max", args.rmax)) if value is not None}
    spec = BenchSpec(
        scenario_id=args.scenario,
        n_values=n_values,
        replications=reps,
        mode=args.mode,
        base_seed=args.seed,
        fit_overrides=overrides or None,
    )
    rows = run_bench(spec, progress=not args.quiet)
    emit(rows, args.out)
    grid = default_grid()
    print(
        f"integration=gauss-legendre nodes={grid.nodes_per_axis} nu_est={grid.nu_est:g} "
        f"rows={len(rows)} out={args.out}"
    )
    print(f"determinism_hash {determinism_hash(rows)}")
    return 0


def _cmd_estimate(args) -> int:
    # fit_joint takes d = 2 samples only, so the flags are checked before --input is read
    try:
        cfg, grid = FitConfig(r_min=args.rmin, r_max=args.rmax), EvalGrid.build(dim=2, nu_est=args.nu_est)
    except ConfigError as exc:
        raise ConfigError(f"--rmin {args.rmin:g} --rmax {args.rmax:g} --nu-est {args.nu_est:g}: {exc}") from exc
    sample = load_sample(args.input)
    report = fit_joint(sample, cfg, grid)
    payload = json.loads(report.to_json())
    payload["nu_est"] = args.nu_est
    with open(args.out, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")
    print(
        f"r_hat={report.r_hat:.6g} c_hat=({report.c_hat[0]:.6g}, {report.c_hat[1]:.6g}) "
        f"contrast={report.contrast_value:.6g} out={args.out}"
    )
    return 0


def _cmd_generate(args) -> int:
    sample = generate(scenario(args.scenario), args.n, args.seed)
    save_sample(sample, args.out)
    print(f"wrote {sample.n} observations to {args.out}")
    return 0


def _cmd_density(args) -> int:
    if args.grid < 2:
        raise ConfigError("--grid must be >= 2")
    with open(args.report) as handle:
        report = EstimateReport.from_json(handle.read())
    density = truncate_density(report, args.alpha)
    xs = (np.arange(args.grid) + 0.5) / args.grid
    values = fourier_series(density.coeffs, xs)
    np.savetxt(args.out, np.column_stack([xs, values]), fmt="%.17g", delimiter=",", header="x,density", comments="")
    print(f"truncation_level={density.cutoff} points={args.grid} out={args.out}")
    return 0


_HANDLERS = {
    "bench": _cmd_bench,
    "estimate": _cmd_estimate,
    "generate": _cmd_generate,
    "density": _cmd_density,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        # every subcommand writes --out last: refuse one that cannot be written before any work
        parent = os.path.dirname(os.path.abspath(args.out))
        if os.path.isdir(args.out or ".") or not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
            raise ConfigError(f"--out {args.out}: not a file in an existing writable directory")
        return _HANDLERS[args.command](args)
    except (ConfigError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
