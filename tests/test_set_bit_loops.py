"""No module under ``src/groupfair`` lists a mask's set bits by hand.

:func:`groupfair.model._set_bits` is the one reader of a mask's goods.
Each module is parsed with :mod:`ast`, and a lowest-bit expression, ``x & -x``
(the lowest set bit) or ``x & (x - 1)`` and ``x &= x - 1`` (dropping it),
fails wherever it stands, except in two functions that use the lowest bit
without listing a mask: ``fairness._mms_cached`` anchors each part of its
partition search at the lowest good, and ``TabularValuation.__init__``'s
monotonicity check runs slower through the reader.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "groupfair"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {("fairness.py", "_mms_cached"), ("model.py", "TabularValuation.__init__")}


def _same(a: ast.AST, b: ast.AST) -> bool:
    return ast.dump(a) == ast.dump(b)


def _lowest_bit(node: ast.AST) -> bool:
    """Whether ``node`` is ``x & -x``, ``x & (x - 1)`` or ``x &= x - 1``
    (either operand order for ``&``)."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd):
        pairs = [(node.target, node.value)]
    elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitAnd):
        pairs = [(node.left, node.right), (node.right, node.left)]
    else:
        return False
    for x, other in pairs:
        x = ast.Name(x.id, ast.Load()) if isinstance(x, ast.Name) else x
        if isinstance(other, ast.UnaryOp) and isinstance(other.op, ast.USub):
            if _same(other.operand, x):
                return True
        if (isinstance(other, ast.BinOp) and isinstance(other.op, ast.Sub)
                and _same(other.left, x) and _same(other.right, ast.Constant(1))):
            return True
    return False


def lowest_bit_uses(source: str) -> list:
    """``(line, qualified name of the enclosing def or class)`` for each
    lowest-bit expression in ``source`` (``""`` at module level)."""
    found = []

    def visit(node: ast.AST, scope: str):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if _lowest_bit(node):
            found.append((node.lineno, scope))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_the_check_finds_lowest_bit_loops():
    source = (
        "def f(mask):\n"
        "    low = mask & -mask\n"
        "    rest = -mask & mask\n"
        "    rest &= rest - 1\n"
        "    return (rest - 1) & rest, mask & -other, mask & (mask - 2)\n"
        "class C:\n"
        "    def g(self, x):\n"
        "        return self.x & (self.x - 1)\n"
        "y = x & -x\n"
    )
    assert lowest_bit_uses(source) == [(2, "f"), (3, "f"), (4, "f"), (5, "f"),
                                       (8, "C.g"), (9, "")]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_lists_no_mask_by_hand(path):
    uses = [(line, scope) for line, scope in lowest_bit_uses(path.read_text())
            if (path.name, scope) not in ALLOWED]
    assert uses == []


def test_the_exempt_functions_still_use_the_lowest_bit():
    # an exemption that no longer applies is taken out of ALLOWED
    used = {(path.name, scope) for path in MODULES
            for _, scope in lowest_bit_uses(path.read_text())}
    assert ALLOWED <= used
