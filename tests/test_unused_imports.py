"""No module under ``src/groupfair`` imports a name it never uses.

Each module is parsed with :mod:`ast`: a name bound by an import counts as
used when some expression in the module reads it or the module's literal
``__all__`` lists it (a re-export).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groupfair"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list:
    """``(line, name)`` for each imported name ``source`` never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if "__all__" in targets and isinstance(node.value, (ast.List, ast.Tuple)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_unused_imports():
    source = (
        "import os\nimport os.path as osp\nimport importlib.util\n"
        "from x import y, z as w\nfrom __future__ import annotations\n"
        "__all__ = ['y']\nimportlib.util.find_spec(w)\n"
    )
    assert unused_imports(source) == [(1, "os"), (2, "osp")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []
