"""Every upper-case module-level name under ``src/groupfair`` lives where
it is read.

An upper-case name bound at a module's top level by an assignment counts
as at home when that module reads it (see ``names_read``) or lists it in
its ``__all__``.  One that only other modules read belongs in one of them.
"""

import ast

from test_dead_private_names import SRC, names_read


def upper_case_bindings(tree: ast.Module) -> dict:
    """``{name: line}`` for the upper-case names ``tree`` assigns at top
    level."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            bound = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.update((leaf.id, node.lineno) for target in bound
                         for leaf in ast.walk(target)
                         if isinstance(leaf, ast.Name) and leaf.id.isupper())
    return found


def exported(tree: ast.Module) -> set:
    """The names in ``tree``'s top-level ``__all__``, where it is a list
    of strings."""
    return {
        elt.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.List)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def homeless_constants(sources: dict) -> list:
    """``(module, line, name)`` for each upper-case name that a module of
    ``sources`` (module name -> source text) binds but neither reads nor
    exports."""
    found = []
    for module, text in sources.items():
        tree = ast.parse(text)
        at_home = names_read(tree) | exported(tree)
        found += [(module, line, name)
                  for name, line in upper_case_bindings(tree).items()
                  if name not in at_home]
    return sorted(found)


def test_the_check_finds_constants_read_elsewhere():
    sources = {
        "a": (
            "__all__ = ['SHARED']\nSHARED = 1\nLOCAL = 2\nAWAY = 3\n"
            "_PRIVATE, (OTHER, lower) = 4, (5, 6)\nCapWords = 7\n"
            "def f(): return LOCAL\n"
        ),
        "b": "from a import AWAY, OTHER, _PRIVATE\nAWAY + OTHER + _PRIVATE\n",
    }
    assert homeless_constants(sources) == [
        ("a", 4, "AWAY"), ("a", 5, "OTHER"), ("a", 5, "_PRIVATE"),
    ]


def test_package_constants_live_where_read():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert homeless_constants(sources) == []
