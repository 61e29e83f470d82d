"""The package's public names: every export resolves, once, in order."""

import spheredeconv


def test_all_names_resolve():
    missing = [name for name in spheredeconv.__all__ if not hasattr(spheredeconv, name)]
    assert missing == []


def test_all_is_unique_and_sorted():
    names = spheredeconv.__all__
    assert len(set(names)) == len(names)
    assert list(names) == sorted(names)


def test_import_leaves_scipy_optimize_unloaded():
    # the fits' descent is the package's own, so importing it need not load
    # scipy.optimize, which alone adds about 0.25 s and 24 MB to the import
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(spheredeconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import spheredeconv, sys; assert 'scipy.optimize' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
