"""The benchmark's tracer wraps package callees by name: each Target(module,
attr, ...) in perfbench/tracing.py swaps module.attr for a timed wrapper,
and reports a name it cannot find as an absent layer.  These tests read
that file's source with ast, without importing it, and check that every
name it targets still exists, so a rename in the package cannot silently
turn a layer's timings off."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# deleted from charfn when the Bessel kernel moved to bessel.bessel_rows; the
# target is mended by a change to the benchmark itself
STALE = {"spheredeconv.charfn._series_multi"}


def tracer_targets(source: str) -> list[str]:
    """'module.attr' of every Target(module, attr, ...) call with two string
    literals first, in source order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "Target":
            module, attr = node.args[:2]
            names.append(f"{ast.literal_eval(module)}.{ast.literal_eval(attr)}")
    return names


def test_every_tracer_target_resolves_in_the_package():
    targets = tracer_targets(TRACING.read_text())
    assert len(targets) >= 9 and "spheredeconv.contrast._combine" in targets
    absent = set()
    for name in targets:
        module, attr = name.rsplit(".", 1)
        if not hasattr(importlib.import_module(module), attr):
            absent.add(name)
    assert absent <= STALE, f"tracer targets missing from the package: {sorted(absent - STALE)}"


def test_the_scan_reads_module_and_attribute_of_each_target():
    source = 'T = (Target("a.b", "c", "span"), Target("d", "e", "f", count), Other("x", "y"))'
    assert tracer_targets(source) == ["a.b.c", "d.e"]
