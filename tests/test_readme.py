"""The README stays true to the package: its quickstart runs, and every name
its API bullets introduce resolves."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import spheredeconv

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)


def api_names(text: str) -> list[str]:
    """The backticked names before the " — " of each bullet of the API list
    (the one after "Key pieces:"), continuation lines joined and call
    parentheses stripped."""
    section = text.split("Key pieces:", 1)[1].split("\n## ", 1)[0]
    names = []
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        head, dash, _ = " ".join(bullet.split()).partition(" — ")
        assert dash, f"API bullet without ' — ': {head[:60]!r}"
        names += [re.sub(r"\(.*\)$", "", name) for name in re.findall(r"`([^`]+)`", head)]
    return names


def resolves(name: str) -> bool:
    """A bare name is one spheredeconv exports; a dotted one an attribute of
    the submodule it names."""
    if "." not in name:
        return name in spheredeconv.__all__
    module, _, attr = name.partition(".")
    try:
        obj = importlib.import_module(f"spheredeconv.{module}")
    except ImportError:
        return False
    for part in attr.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_the_scan_reads_the_names_before_the_dash():
    text = (
        "Key pieces:\n\n"
        "- `a.b(K, x)`, `c` — text with `d`\n"
        "  more `e`.\n"
        "- `f`,\n"
        "  `g` — `h`\n\n"
        "## Next\n\n- `z` — `y`\n"
    )
    assert api_names(text) == ["a.b", "c", "f", "g"]
    assert resolves("fit_joint") and resolves("bessel.bessel_rows") and resolves("charfn.EvalGrid.points")
    assert not resolves("psi_model_marginals") and not resolves("charfn._split") and not resolves("nope.x")


def test_every_api_bullet_name_resolves():
    names = api_names(README)
    assert len(names) >= 15
    assert [name for name in names if not resolves(name)] == []


def test_the_quickstart_runs():
    (code,) = python_blocks(README)
    src = str(Path(spheredeconv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == code.count("print(")
