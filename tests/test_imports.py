"""Every name a module imports is used in that module: an `ast` check, since
the test stack carries no linter. And every native function's ctypes binding
takes as many arguments as its C prototype."""

import ast
import re
from pathlib import Path

import pytest

from seedloop import superpixel

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


def native_prototypes(source: str) -> dict:
    """The parameter count of each function _felzenszwalb.c declares at its
    top, by name: a prototype ends in ");", a definition in a body."""
    found = re.findall(r"^(?:void|int64_t) (\w+)\(([^;{]*)\);", source, re.M)
    return {name: params.count(",") + 1 for name, params in found}


# under cdecl an argument that C no longer takes is dropped silently, and a
# missing one reads whatever the register holds: neither fails at the call
def test_every_native_binding_matches_its_prototype():
    prototypes = native_prototypes(superpixel._FELZ_SOURCE.read_text())
    lib = superpixel._load_felz()
    assert len(prototypes) == 7
    assert {name: len(getattr(lib, name).argtypes) for name in prototypes} == prototypes
