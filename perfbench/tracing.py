"""Spans around the package's layer boundaries, installed from outside.

Each target is a callee looked up in the namespace of the module that calls
it (``contrast.ecf`` is the ``ecf`` that ``contrast`` imported), so swapping
that one attribute times every call the layer receives without editing the
package.  A target that a later commit renames or removes is reported as
absent and left alone, so the traced run keeps working.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _observations(args, kwargs, out) -> int:
    sample = args[0] if args else kwargs.get("sample")
    return len(np.asarray(getattr(sample, "data", sample))) if sample is not None else 0


def _bessel_args(args, kwargs, out) -> int:
    return int(np.size(args[1])) if len(args) > 1 else int(np.size(kwargs.get("x", ())))


def probe_count(args, kwargs, out) -> int:
    return int(getattr(out, "iterations", 0))


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    span: str
    count: Callable | None = None


TARGETS = (
    Target("spheredeconv.contrast", "ecf", "charfn.ecf", _observations),
    Target("spheredeconv.charfn", "_series_multi", "bessel.series", _bessel_args),
    Target("spheredeconv.charfn", "_psi_polar", "charfn.psi_polar"),
    Target("spheredeconv.charfn", "_psi_quadrature", "charfn.psi_quad"),
    Target("spheredeconv.contrast", "_combine", "contrast.combine"),
    Target("spheredeconv.estimators", "minimize", "estimators.minimize"),
    Target("spheredeconv.bench", "fit_joint", "estimators.fit", probe_count),
    Target("spheredeconv.bench", "fit_radius_known_density", "estimators.fit", probe_count),
    Target("spheredeconv.bench", "generate", "simulate.generate"),
)


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start, end, parent, count]``: ``parent`` indexes
    the enclosing span (-1 for a root) and ``count`` is the work the span
    did, such as observations or probes, where its target defines one.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def call(self, name: str, fn: Callable, args=(), kwargs=None, count: Callable | None = None):
        kwargs = kwargs or {}
        span = [name, 0.0, 0.0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._open.pop()
        if count is not None:
            span[4] = count(args, kwargs, out)
        return out

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced


@contextmanager
def instrument(tracer: Tracer, targets=TARGETS):
    """Route every present target through the tracer; yields the absent ones."""
    absent, saved = [], []
    for target in targets:
        try:
            module = importlib.import_module(target.module)
        except ModuleNotFoundError:
            module = None
        original = getattr(module, target.attr, None)
        if original is None:
            absent.append(f"{target.module}.{target.attr}")
            continue
        saved.append((module, target.attr, original))
        setattr(module, target.attr, tracer.wrap(target.span, original, target.count))
    try:
        yield absent
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def layer_totals(spans: list[list]) -> dict:
    """Per span name: summed self time, total time, calls and counted work.

    Self time is a span's duration minus the time its child spans cover.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict = {}
    for (name, start, end, _, count), child_s in zip(spans, covered):
        layer = totals.setdefault(name, {"self_s": 0.0, "total_s": 0.0, "calls": 0, "count": 0})
        layer["self_s"] += end - start - child_s
        layer["total_s"] += end - start
        layer["calls"] += 1
        layer["count"] += count
    return totals
