"""Every name a module imports is used in that module: an `ast` check, since
the test stack carries no linter."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# __init__.py imports only to re-export
MODULES = sorted(
    p for p in (ROOT / "src" / "seedloop").glob("*.py") if p.name != "__init__.py"
) + [ROOT / "scripts" / "experiment.py"]


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_is_found():
    source = "from __future__ import annotations\nimport os, numpy as np\nfrom x import a, b\nnp.f(a)\n"
    assert unused_imports(source) == ["b", "os"]
