"""Only the CLI's process entry touches the cyclic garbage collector or the
process environment.

:func:`groupfair.cli._console`, behind ``python -m groupfair.cli`` and the
installed ``groupfair`` script, turns the collector off for the command,
freezes what is left before the interpreter exits, and picks one OpenBLAS
thread when the caller chose no count.  The library and
:func:`groupfair.cli.main` leave the collector and the environment to their
caller: tests, the benchmark's in-process runs and library users keep
theirs.  Each module is parsed with :mod:`ast`: an import of ``gc`` fails
outside ``cli``, and in ``cli`` a read of the name ``gc`` fails outside
``_console``; a write to ``os.environ`` or a call of ``os.putenv`` fails
anywhere but ``cli._console``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groupfair"
MODULES = sorted(SRC.glob("*.py"))
#: cli's module-level import, and the reads in its process entry
ALLOWED = {("", "import"), ("_console", "read")}
#: the one scope that may write the environment
ENVIRON_ALLOWED = ("cli.py", "_console")
#: the ``os.environ`` methods that change it
ENVIRON_MUTATORS = {"__setitem__", "__delitem__", "clear", "pop", "popitem",
                    "setdefault", "update"}


def scoped_nodes(source: str):
    """Each node of ``source`` with the qualified name of its enclosing def
    or class (``""`` at module level)."""

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        yield node, scope
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(ast.parse(source), "")


def gc_uses(source: str) -> list:
    """``(line, qualified name of the enclosing def or class, "import" or
    "read")`` for each import of ``gc`` and each read of the name ``gc`` in
    ``source`` (the name is ``""`` at module level)."""
    found = []
    for node, scope in scoped_nodes(source):
        if (isinstance(node, ast.Import) and any(alias.name == "gc" for alias in node.names)
                or isinstance(node, ast.ImportFrom) and node.module == "gc"):
            found.append((node.lineno, scope, "import"))
        elif isinstance(node, ast.Name) and node.id == "gc" and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, scope, "read"))
    return found


def _is_os(node: ast.AST, *attrs: str) -> bool:
    """Whether ``node`` is ``os.<attr>`` for one of ``attrs``."""
    return (isinstance(node, ast.Attribute) and node.attr in attrs
            and isinstance(node.value, ast.Name) and node.value.id == "os")


def environ_writes(source: str) -> list:
    """``(line, qualified name of the enclosing def or class)`` for each
    write to ``os.environ`` in ``source``: an item stored or deleted, the
    name rebound, or a method that changes it called.  A call of
    ``os.putenv`` or ``os.unsetenv`` counts too, and so does importing
    ``environ``, ``putenv`` or ``unsetenv`` from ``os``, which would hide
    later writes from this check."""
    found = []
    for node, scope in scoped_nodes(source):
        if isinstance(node, ast.Subscript):
            write = _is_os(node.value, "environ") and not isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Attribute):
            write = _is_os(node, "environ") and not isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.Call):
            func = node.func
            write = (_is_os(func, "putenv", "unsetenv")
                     or isinstance(func, ast.Attribute) and func.attr in ENVIRON_MUTATORS
                     and _is_os(func.value, "environ"))
        elif isinstance(node, ast.ImportFrom):
            write = node.module == "os" and any(
                alias.name in ("environ", "putenv", "unsetenv") for alias in node.names)
        else:
            write = False
        if write:
            found.append((node.lineno, scope))
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


def test_the_check_finds_environ_writes():
    source = (
        "import os\n"
        "os.environ['A'] = '1'\n"
        "def f():\n"
        "    del os.environ['A']\n"
        "    os.environ.setdefault('A', '1')\n"
        "class C:\n"
        "    def g(self):\n"
        "        os.environ.update(A='1')\n"
        "        os.environ.pop('A', None)\n"
        "        os.putenv('A', '1')\n"
        "value = os.environ.get('A', os.environ['B'])\n"
        "chosen = 'A' in os.environ or os.getenv('A')\n"
        "env = dict(os.environ, A='1')\n"
        "from os import environ\n"
        "os.environ |= {'A': '1'}\n"
    )
    assert environ_writes(source) == [(2, ""), (4, "f"), (5, "f"), (8, "C.g"),
                                      (9, "C.g"), (10, "C.g"), (14, ""), (15, "")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_process_entry_touches_the_collector(path):
    uses = [(line, scope, what) for line, scope, what in gc_uses(path.read_text())
            if path.name != "cli.py" or (scope, what) not in ALLOWED]
    assert uses == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_the_process_entry_writes_the_environment(path):
    writes = [(line, scope) for line, scope in environ_writes(path.read_text())
              if (path.name, scope) != ENVIRON_ALLOWED]
    assert writes == []


def test_the_process_entry_still_calls_the_collector():
    # an exemption that no longer applies is taken out of ALLOWED
    assert ALLOWED <= {(scope, what)
                       for _, scope, what in gc_uses((SRC / "cli.py").read_text())}


def test_the_process_entry_still_writes_the_environment():
    # an exemption that no longer applies is taken out of ENVIRON_ALLOWED
    name, scope = ENVIRON_ALLOWED
    assert scope in {scope for _, scope in environ_writes((SRC / name).read_text())}
