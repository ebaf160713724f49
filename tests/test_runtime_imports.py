"""The package needs only numpy and the standard library at run time
(`pyproject.toml` declares numpy as its one dependency)."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "p2psim"


def test_the_package_imports_only_numpy_and_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or a relative one inside the package
            found.update((path.name, name.partition(".")[0]) for name in names)
    assert {top for _, top in found} >= {"numpy", "__future__"}
    assert sorted((f, top) for f, top in found if top not in allowed) == []
