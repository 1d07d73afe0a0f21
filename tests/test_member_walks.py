"""No module under ``src/groupfair`` walks a group's members to read their
valuations.

:attr:`groupfair.model.Instance.runs` folds each group's consecutive members
that share one valuation object into ``(valuation, count)`` pairs, and every
reader of a group's valuations reads those.  Each module is parsed with
:mod:`ast`: a ``for`` statement or a comprehension that reads an attribute
named ``valuation`` anywhere inside it fails, and so does
``attrgetter("valuation")``, the same walk spelled with ``map``.  Only
``Instance.__init__``, which makes the fold, may walk the members.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groupfair"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {("model.py", "Instance.__init__")}
LOOPS = (ast.For, ast.AsyncFor, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def _reads_valuation(node: ast.AST) -> bool:
    return any(isinstance(sub, ast.Attribute) and sub.attr == "valuation"
               for sub in ast.walk(node))


def _valuation_getter(node: ast.AST) -> bool:
    """Whether ``node`` is a call ``attrgetter(..., "valuation", ...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
    return name == "attrgetter" and any(
        isinstance(arg, ast.Constant) and arg.value == "valuation" for arg in node.args)


def member_walks(source: str) -> list:
    """``(line, qualified name of the enclosing def or class)`` for each loop
    or comprehension that reads ``.valuation`` and each valuation getter in
    ``source`` (``""`` at module level)."""
    found = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, LOOPS) and _reads_valuation(node) or _valuation_getter(node):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_check_finds_member_walks():
    source = (
        "def f(inst, agent):\n"
        "    ok = agent.valuation.m\n"
        "    for a in inst.groups[0]:\n"
        "        v = a.valuation\n"
        "    return [a.valuation.m for a in inst.agents()], (v for v, _ in inst.runs[0])\n"
        "class C:\n"
        "    def g(self, grp):\n"
        "        return {a.index: a.valuation for a in grp}\n"
        "get = operator.attrgetter('valuation')\n"
        "other = attrgetter('group')\n"
    )
    assert member_walks(source) == [(3, "f"), (5, "f"), (8, "C.g"), (9, "")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_reads_valuations_per_run(path):
    walks = [(line, scope) for line, scope in member_walks(path.read_text())
             if (path.name, scope) not in ALLOWED]
    assert walks == []


def test_the_exempt_functions_still_walk_members():
    # an exemption that no longer applies is taken out of ALLOWED
    used = {(path.name, scope) for path in MODULES
            for _, scope in member_walks(path.read_text())}
    assert ALLOWED <= used
