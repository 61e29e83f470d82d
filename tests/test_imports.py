"""Source hygiene: every name a module imports, the module reads."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name source imports and never reads, anywhere in
    the module, skipping __future__ imports and the names __all__ lists."""
    tree = ast.parse(source)
    imported, read, exported = [], set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, alias.asname or alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, alias.asname or alias.name) for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in read | exported]


def test_the_scan_flags_only_names_never_read():
    source = (
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.linalg\n"
        "from json import dumps as to_json, loads\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "def f():\n"
        "    import re\n"
        "    return sys.argv, numpy.linalg.norm, loads\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "to_json"), (8, "re")]


def test_no_module_imports_a_name_it_never_reads():
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for folder in ("src", "tests", "scripts")
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert unused == []
