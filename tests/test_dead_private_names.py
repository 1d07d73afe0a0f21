"""Every private module-level name under ``src/groupfair`` is read inside
the package.

A private name (one leading underscore, not a dunder) bound at a module's
top level by ``def``, ``class`` or an assignment counts as read when some
module of the package loads it as a name, reads it as an attribute, or
imports it.  One that only tests read is dead code the package keeps for
them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "groupfair"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module) -> dict:
    """``{name: line}`` for the private names ``tree`` binds at top level."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [leaf.id for target in bound for leaf in ast.walk(target)
                       if isinstance(leaf, ast.Name)]
        else:
            continue
        found.update((name, node.lineno) for name in targets if _is_private(name))
    return found


def names_read(tree: ast.Module) -> set:
    """Names ``tree`` loads, reads as attributes, or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def dead_private_names(sources: dict) -> list:
    """``(module, line, name)`` for each private name that ``sources``
    (module name -> source text) define but none of them reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(names_read, trees.values()))
    return sorted(
        (module, line, name)
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    )


def test_the_check_finds_dead_private_names():
    sources = {
        "a": (
            "_used = 1\n_dead = 2\n_x, (_y, z) = 1, (2, 3)\n"
            "def _helper(): return _used\nclass _Gone: pass\n"
            "__dunder__ = 0\n_annotated: int = 4\n"
        ),
        "b": "from a import _helper\nimport a\na._x\n_helper()\n",
    }
    assert dead_private_names(sources) == [
        ("a", 2, "_dead"), ("a", 3, "_y"), ("a", 5, "_Gone"), ("a", 7, "_annotated"),
    ]


def test_package_reads_every_private_name():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert dead_private_names(sources) == []
