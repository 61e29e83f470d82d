"""The package's public names: every export resolves, once, in order."""

import spheredeconv


def test_all_names_resolve():
    missing = [name for name in spheredeconv.__all__ if not hasattr(spheredeconv, name)]
    assert missing == []


def test_all_is_unique_and_sorted():
    names = spheredeconv.__all__
    assert len(set(names)) == len(names)
    assert list(names) == sorted(names)


def _run_with_package(code: str):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(spheredeconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)


def test_import_leaves_scipy_optimize_unloaded():
    # the fits' descent and Bessel kernel are the package's own, so importing
    # it loads no scipy module; scipy.special alone adds about 0.3 s and 20 MB
    code = "import spheredeconv, sys; assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']"
    proc = _run_with_package(code)
    assert proc.returncode == 0, proc.stderr


def test_fits_and_bench_run_with_scipy_blocked():
    # a default joint fit, a known-density fit and a one-cell sweep need no scipy
    code = """
import sys
sys.modules["scipy"] = None
import spheredeconv as sd
sample = sd.generate(sd.scenario(1), 400, seed=0)
assert abs(sd.fit_joint(sample).r_hat - 3.0) < 0.5
assert abs(sd.fit_radius_known_density(sample, sd.uniform_density()).r_hat - 3.0) < 0.5
rows = sd.run_bench(sd.BenchSpec(1, n_values=(100,), replications=1, mode="known_f"))
assert len(rows) == 1 and rows[0].failures == 0
"""
    proc = _run_with_package(code)
    assert proc.returncode == 0, proc.stderr
