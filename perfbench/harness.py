"""Benchmark harness for the spheredeconv fitting pipeline.

A run sets up one seeded workload, then runs operations in a closed loop
(one caller; each operation starts when the previous one returns) for the
requested time, at least MIN_OPS of them.  One operation is one estimator
call, or one run_bench call on the sweep.  Every operation of a run refits
the same input, handed over as a fresh copy, so each result after the first
is also a bit-for-bit determinism check.

An operation's cost is reported as its CPU time over the CPU time per step
of the speed sampler running beside it (see speed.py), which cancels most
of a shared host's drifting speed; wall seconds go to the info line.  Set-up
time is reported in plain seconds, the median of SETUP_REPS set-ups.

With tracing on, untraced and traced operations alternate: end-to-end
numbers come from the untraced ones only, per-layer numbers from the traced
ones, and the difference of their medians is the tracing overhead.
"""

from __future__ import annotations

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS reads these once, when numpy loads; under load extra BLAS threads
# oversubscribe the cores and slow the ECF product many times over
NUMPY_LOADED_BEFORE_PIN = "numpy" in sys.modules
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import spheredeconv as sd  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import Tracer, instrument, layer_totals, probe_count  # noqa: E402

MIN_OPS = 2
SETUP_REPS = 3
# acceptance 6 caps the radius MSE at n=1e4 at 1e-3 over ten replications;
# a single replication may stray to three times that RMS error
R_TOL = 3.0 * math.sqrt(1e-3)

IMPORT_PROBE = "import time; t = time.perf_counter(); import spheredeconv; print(time.perf_counter() - t)"


@dataclass(frozen=True)
class Workload:
    """One estimator on one seeded input; ``fit`` holds FitConfig keywords."""

    name: str
    kind: str  # "joint", "known" or "sweep"
    scenario_id: int
    n: int
    fit: dict = field(default_factory=dict)
    nodes_per_axis: int = 33
    replications: int = 2
    r_tol: float = R_TOL


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("joint_s1", "joint", 1, 10_000),
        Workload("known_s1_big", "known", 1, 1_000_000),
        Workload("known_s4", "known", 4, 10_000),
        # two restarts keep a whole sweep near a default joint fit's cost
        Workload("sweep_s4", "sweep", 4, 10_000, fit={"restarts": 2}),
    )
}

# per-layer metrics read straight off one span name, per traced operation.
# A layer's time is a metric only where every workload exercises the layer,
# since a time that reads 0 on every run of a workload is no measurement;
# the self time of every span name goes to the info line instead.
SPAN_METRICS = {
    "charfn.ecf_s": ("charfn.ecf", "self_s"),
    "charfn.ecf_calls": ("charfn.ecf", "calls"),
    "bessel.series_calls": ("bessel.series", "calls"),
    "bessel.series_args": ("bessel.series", "count"),
    "charfn.psi_polar_calls": ("charfn.psi_polar", "calls"),
    "charfn.psi_quad_calls": ("charfn.psi_quad", "calls"),
    "contrast.combine_s": ("contrast.combine", "self_s"),
    "contrast.combine_calls": ("contrast.combine", "calls"),
    "estimators.probes": ("estimators.fit", "count"),
    "estimators.minimize_calls": ("estimators.minimize", "calls"),
}


@dataclass
class Inputs:
    scn: object
    sample: object = None
    grid: object = None
    spec: object = None
    truth_contrast: float = math.nan


def load_spec(root: Path) -> dict:
    """BENCHMARK.json, checked against the workloads this harness defines."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(WORKLOADS):
        raise ValueError(f"BENCHMARK.json workloads {names} differ from the harness's {sorted(WORKLOADS)}")
    return spec


def environment(root: Path) -> dict:
    try:
        blas_dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_dep['name']} {blas_dep['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "numpy_loaded_before_pin": NUMPY_LOADED_BEFORE_PIN,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "python": sys.version.split()[0],
        "git_revision": _git_revision(root),
    }


def _git_revision(root: Path) -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == root.resolve() else "unknown"


def _import_seconds(src: Path) -> float:
    """Seconds a fresh interpreter spends importing the package."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def _setup_once(wl: Workload, seed: int, src: Path) -> tuple[float, float, Inputs]:
    """One set-up: package import, input generation and grid build."""
    total = _import_seconds(src)
    t0 = time.perf_counter()
    scn = sd.scenario(wl.scenario_id)
    if wl.kind == "sweep":
        spec = sd.BenchSpec(
            wl.scenario_id, n_values=(wl.n,), replications=wl.replications, mode="both",
            base_seed=seed, fit_overrides=dict(wl.fit) or None,
        )
        return total + time.perf_counter() - t0, math.nan, Inputs(scn, spec=spec)
    g0 = time.perf_counter()
    sample = sd.generate(scn, wl.n, seed)
    generate_s = time.perf_counter() - g0
    grid = sd.EvalGrid.build(dim=2, nodes_per_axis=wl.nodes_per_axis)
    return total + time.perf_counter() - t0, generate_s, Inputs(scn, sample, grid)


def _call(wl: Workload, inputs: Inputs):
    """The estimator and arguments of one operation, built outside its timing."""
    if wl.kind == "sweep":
        return sd.run_bench, (inputs.spec,)
    sample = sd.Sample(inputs.sample.data.copy(), inputs.sample.seed, inputs.sample.scenario_id)
    cfg = sd.FitConfig(**wl.fit)
    if wl.kind == "joint":
        return sd.fit_joint, (sample, cfg, inputs.grid)
    return sd.fit_radius_known_density, (sample, inputs.scn.density, cfg, inputs.grid)


def _check(wl: Workload, inputs: Inputs, out, first) -> str | None:
    """Why an operation's output is wrong, or None when it passes."""
    if wl.kind == "sweep":
        # run_bench records a failed replication only in BenchRow.failures
        for row in out:
            if row.failures:
                return f"{row.failures} failed replications at n={row.n} ({row.mode})"
            rms = math.sqrt(row.mse_R)
            if not rms <= wl.r_tol:
                return f"RMS radius error {rms:.3g} exceeds {wl.r_tol:.3g} at n={row.n} ({row.mode})"
        if first is not None and sd.determinism_hash(out) != sd.determinism_hash(first):
            return "rerun of the same sweep changed its rows"
        return None
    if not (math.isfinite(out.r_hat) and math.isfinite(out.contrast_value)):
        return "non-finite r_hat or contrast_value"
    err = abs(out.r_hat - inputs.scn.r_star)
    if err > wl.r_tol:
        return f"|r_hat - R*| = {err:.3g} exceeds {wl.r_tol:.3g}"
    # the truth lies in the searched class, so a converged fit cannot end above it
    if out.contrast_value > inputs.truth_contrast:
        return f"final contrast {out.contrast_value:.6g} above the truth's {inputs.truth_contrast:.6g}"
    if first is not None and out.r_hat != first.r_hat:
        return "rerun on the same sample changed r_hat"
    return None


def _layer_metrics(traced: list[list], generate_s: float, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metric values, and the self seconds of every span name, per traced operation."""
    ops = len(traced)
    totals: dict = {}
    bench_fits = 0
    for spans in traced:
        for name, layer in layer_totals(spans).items():
            merged = totals.setdefault(name, dict.fromkeys(layer, 0))
            for key, value in layer.items():
                merged[key] += value
        bench_fits += sum(
            1 for span in spans if span[0] == "estimators.fit" and span[3] >= 0 and spans[span[3]][0] == "bench.run_bench"
        )

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    out = {metric: total(name, key) / ops for metric, (name, key) in SPAN_METRICS.items()}
    ecf_s, probes = total("charfn.ecf", "self_s"), total("estimators.fit", "count")
    generated = total("simulate.generate", "calls")
    out.update({
        "simulate.generate_s": total("simulate.generate", "total_s") / generated if generated else generate_s,
        "charfn.ecf_obs_per_s": total("charfn.ecf", "count") / ecf_s if ecf_s else 0.0,
        # model-psi assembly with the Bessel kernel and angle quadrature it calls
        "charfn.psi_s": (total("charfn.psi_polar", "total_s") + total("charfn.psi_quad", "total_s")) / ops,
        "estimators.optimizer_self_s": (total("estimators.fit", "self_s") + total("estimators.minimize", "self_s")) / ops,
        "estimators.ms_per_probe": 1000.0 * total("estimators.fit", "total_s") / probes if probes else 0.0,
        "bench.fits": bench_fits / ops,
        "trace.overhead_s": overhead_s,
    })
    return out, {name: layer["self_s"] / ops for name, layer in sorted(totals.items())}


def run(wl: Workload, seed: int, seconds: float, trace: bool, root: Path, trace_dir: Path | None = None) -> dict:
    """Set up and measure one workload; returns {"info": ..., "values": ...}."""
    setups = [_setup_once(wl, seed, root / "src") for _ in range(SETUP_REPS)]
    inputs = setups[0][2]
    if wl.kind != "sweep":
        ctx = sd.ContrastContext.from_sample(inputs.sample, inputs.grid)
        inputs.truth_contrast = sd.contrast_mn(inputs.scn.density, inputs.scn.r_star, ctx)
        del ctx

    root_name = "bench.run_bench" if wl.kind == "sweep" else "estimators.fit"
    count = None if wl.kind == "sweep" else probe_count
    ops, traced_spans, absent, errors = [], [], set(), []
    first = None
    with SpeedSampler() as sampler:
        deadline = time.perf_counter() + seconds
        while len(ops) < MIN_OPS or time.perf_counter() < deadline:
            traced = trace and len(ops) % 2 == 1
            fn, args = _call(wl, inputs)
            tracer = Tracer()
            steps0, step_cpu0 = sampler.read()
            with instrument(tracer) if traced else nullcontext([]) as missing:
                t0, cpu0 = time.perf_counter(), time.process_time()
                try:
                    out = tracer.call(root_name, fn, args, count=count) if traced else fn(*args)
                    error = None
                except Exception as exc:  # a failed operation is counted, not fatal
                    traceback.print_exc(file=sys.stderr)
                    out, error = None, f"{type(exc).__name__}: {exc}"
                elapsed, cpu = time.perf_counter() - t0, time.process_time() - cpu0
            steps1, step_cpu1 = sampler.read()
            absent.update(missing)
            if traced:
                traced_spans.append(tracer.spans)
            if out is not None:
                error = _check(wl, inputs, out, first)
                first = out if first is None else first
            ops.append({
                "traced": traced, "s": elapsed, "cpu_s": cpu,
                "steps": steps1 - steps0, "step_cpu_s": step_cpu1 - step_cpu0, "out": out,
            })
            if error:
                errors.append(error)

    # an operation too short for the sampler to step uses the run's mean step
    run_step_s = sum(op["step_cpu_s"] for op in ops) / sum(op["steps"] for op in ops)
    for op in ops:
        op["step_s"] = op["step_cpu_s"] / op["steps"] if op["steps"] else run_step_s
        op["steps_cost"] = op["cpu_s"] / op["step_s"]

    def median_of(key, traced):
        return statistics.median(op[key] for op in ops if op["traced"] == traced)

    attempted, failed = len(ops), len(errors)
    info = {
        "workload": wl.name,
        "seed": seed,
        "ops": attempted,
        "traced_ops": len(traced_spans),
        "fail_share": failed / attempted,
        "errors": errors,
        "op_s": median_of("s", False),
        "op_s_samples": [op["s"] for op in ops],
        "step_us_samples": [1e6 * op["step_s"] for op in ops],
        "setup_s_samples": [s[0] for s in setups],
    }
    outs = [op["out"] for op in ops if op["out"] is not None]
    if outs and wl.kind == "sweep":
        info["determinism_hash"] = sd.determinism_hash(first)
        info["bench_failures"] = sum(row.failures for rows in outs for row in rows)
    elif outs:
        info["contrast_value"] = statistics.fmean(r.contrast_value for r in outs)
        info["truth_contrast"] = inputs.truth_contrast
        info["r_hat"] = first.r_hat
        info["probes"] = first.iterations

    values = {
        "setup_s": statistics.median(s[0] for s in setups),
        "op_steps": median_of("steps_cost", False),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        # in seconds at the run's median speed
        step_s = statistics.median(op["step_s"] for op in ops)
        overhead_s = (median_of("steps_cost", True) - median_of("steps_cost", False)) * step_s
        generate_s = statistics.median(s[1] for s in setups)
        layer_values, info["layer_self_s"] = _layer_metrics(traced_spans, generate_s, overhead_s)
        values.update(layer_values)
        info["absent_layers"] = sorted(absent)
        info["traced_op_s_mean"] = statistics.fmean(op["s"] for op in ops if op["traced"])
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            payload = {"workload": wl.name, "seed": seed, "ops": [{"op": i, "spans": s} for i, s in enumerate(traced_spans)]}
            (trace_dir / f"{wl.name}.json").write_text(json.dumps(payload))
    return {"info": info, "values": values}


def report(spec: dict, values: dict, trace: bool, attempted: int, failed: int) -> dict:
    """The result object: every metric BENCHMARK.json names for this mode."""
    names = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in names}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
