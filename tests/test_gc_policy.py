"""Only the CLI's process entry touches the cyclic garbage collector.

:func:`groupfair.cli._console`, behind ``python -m groupfair.cli`` and the
installed ``groupfair`` script, turns the collector off for the command and
freezes what is left before the interpreter exits.  The library and
:func:`groupfair.cli.main` leave the collector to their caller: tests, the
benchmark's in-process runs and library users keep theirs.  Each module is
parsed with :mod:`ast`: an import of ``gc`` fails outside ``cli``, and in
``cli`` a read of the name ``gc`` fails outside ``_console``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groupfair"
MODULES = sorted(SRC.glob("*.py"))
#: cli's module-level import, and the reads in its process entry
ALLOWED = {("", "import"), ("_console", "read")}


def gc_uses(source: str) -> list:
    """``(line, qualified name of the enclosing def or class, "import" or
    "read")`` for each import of ``gc`` and each read of the name ``gc`` in
    ``source`` (the name is ``""`` at module level)."""
    found = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if (isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "gc"):
            found.append((node.lineno, scope, "import"))
        elif isinstance(node, ast.Name) and node.id == "gc" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, scope, "read"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_check_finds_gc_uses():
    source = (
        "import gc\n"
        "import os, gc as collector\n"
        "from gc import freeze\n"
        "def f():\n"
        "    gc.disable()\n"
        "class C:\n"
        "    def g(self):\n"
        "        return gc\n"
        "gc_count = self.gc\n"
    )
    assert gc_uses(source) == [(1, "", "import"), (2, "", "import"),
                               (3, "", "import"), (5, "f", "read"),
                               (8, "C.g", "read")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_process_entry_touches_the_collector(path):
    uses = [(line, scope, what) for line, scope, what in gc_uses(path.read_text())
            if path.name != "cli.py" or (scope, what) not in ALLOWED]
    assert uses == []


def test_the_process_entry_still_calls_the_collector():
    # an exemption that no longer applies is taken out of ALLOWED
    assert ALLOWED <= {(scope, what)
                       for _, scope, what in gc_uses((SRC / "cli.py").read_text())}
