"""Smoke tests of the benchmark harness at tiny sizes.

    python3 -m pytest -q perfbench/tests

Tiny inputs carry no accuracy claim, so their radius tolerance only
catches gross errors; the point is that every workload runs through the
real estimators and emits every metric BENCHMARK.json names.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import harness
import pytest
import tracing

ROOT = Path(__file__).resolve().parents[2]
TINY_FIT = {"restarts": 1, "max_iters": 40}
TINY = {
    "joint_s1": dict(n=500, fit=TINY_FIT, nodes_per_axis=9, r_tol=1.0),
    "known_s1_big": dict(n=2_000, nodes_per_axis=9, r_tol=1.0),
    "known_s4": dict(n=500, nodes_per_axis=9, r_tol=1.0),
    "sweep_s4": dict(n=100, replications=1, fit=TINY_FIT, r_tol=1.0),
}


def tiny(name):
    return replace(harness.WORKLOADS[name], **TINY[name])


def test_tiny_sizes_cover_every_workload():
    spec = harness.load_spec(ROOT)
    assert sorted(TINY) == sorted(w["name"] for w in spec["workloads"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_is_emitted(name, trace):
    spec = harness.load_spec(ROOT)
    out = harness.run(tiny(name), seed=3, seconds=0.0, trace=trace, root=ROOT)
    info = out["info"]
    result = harness.report(spec, out["values"], trace, info["ops"], len(info["errors"]))
    assert info["errors"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= harness.MIN_OPS
    named = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in named]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        assert info["absent_layers"] == []
        # every layer time is measured on every workload, never a constant 0
        timed = [m["name"] for m in named if m["unit"] in ("s", "ms") and m["name"] != "trace.overhead_s"]
        assert all(result["metrics"][name]["value"] > 0 for name in timed)
        # self times partition each traced operation
        assert sum(info["layer_self_s"].values()) == pytest.approx(info["traced_op_s_mean"], rel=1e-3)


@pytest.mark.parametrize(
    "wrong, share",
    [
        (lambda r_hat, call: r_hat + 5.0, 1.0),  # every answer far off: the tolerance fails them all
        (lambda r_hat, call: r_hat + 1e-12 * call, 0.5),  # reruns drift: the determinism check fails the second
    ],
)
def test_injected_failure_raises_fail_share(monkeypatch, wrong, share):
    real = harness.sd.fit_radius_known_density
    calls = []

    def injected(*args, **kwargs):
        report = real(*args, **kwargs)
        calls.append(None)
        return replace(report, r_hat=wrong(report.r_hat, len(calls) - 1))

    monkeypatch.setattr(harness.sd, "fit_radius_known_density", injected)
    info = harness.run(tiny("known_s1_big"), seed=3, seconds=0.0, trace=False, root=ROOT)["info"]
    assert info["ops"] == 2
    assert info["fail_share"] == share


def test_missing_layer_is_reported_absent():
    charfn = harness.sd.charfn
    original = charfn._psi_polar
    extra = (
        tracing.Target("spheredeconv.charfn", "_renamed_away", "charfn.gone"),
        tracing.Target("spheredeconv.no_such_module", "fn", "gone.too"),
    )
    with tracing.instrument(tracing.Tracer(), tracing.TARGETS + extra) as absent:
        assert charfn._psi_polar is not original
    assert absent == ["spheredeconv.charfn._renamed_away", "spheredeconv.no_such_module.fn"]
    assert charfn._psi_polar is original


def test_speed_sampler_steps_beside_the_run_and_stops():
    affinity = os.sched_getaffinity(0)
    with harness.SpeedSampler() as sampler:
        steps0, cpu0 = sampler.read()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
        steps1, cpu1 = sampler.read()
        assert len(os.sched_getaffinity(0)) == 1
    assert steps1 > steps0 and cpu1 > cpu0
    assert sampler._proc.returncode == 0
    assert os.sched_getaffinity(0) == affinity


def test_failed_sweep_replications_fail_the_operation(monkeypatch):
    """run_bench averages past a failed fit; only BenchRow.failures shows it."""
    real = harness.sd.bench.fit_joint
    calls = []

    def first_of_each_sweep_fails(*args, **kwargs):
        calls.append(None)
        if len(calls) % 2:
            raise harness.sd.NumericalError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(harness.sd.bench, "fit_joint", first_of_each_sweep_fails)
    info = harness.run(replace(tiny("sweep_s4"), replications=2), seed=3, seconds=0.0, trace=False, root=ROOT)["info"]
    assert info["fail_share"] == 1.0
    assert info["bench_failures"] == 2
