"""Every defaulted parameter of a private module-level function under
``src/groupfair`` is passed by some call inside the package.

A private function (one leading underscore, not a dunder) defined by
``def`` at a module's top level is only called from the package, so a
defaulted parameter that no call there passes, by position or by name,
always takes its default: it is a knob with one value in use, and the
default belongs in the body.  A call through ``*args`` or ``**kwargs``
counts as passing every parameter it could reach.
"""

import ast

from test_dead_private_names import SRC, _is_private


def defaulted_parameters(tree: ast.Module) -> dict:
    """``{name: (line, positional, defaulted)}`` for the private functions
    ``tree`` defines at top level that have a defaulted parameter:
    ``positional`` lists every parameter a call may pass by position, and
    ``defaulted`` the names of those with a default."""
    found = {}
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not _is_private(node.name):
            continue
        args = node.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        defaulted = positional[len(positional) - len(args.defaults):]
        defaulted += [a.arg for a, default in zip(args.kwonlyargs, args.kw_defaults)
                      if default is not None]
        if defaulted:
            found[node.name] = (node.lineno, positional, defaulted)
    return found


def passed_parameters(trees, name: str, positional: list, defaulted: list) -> set:
    """The parameters of the function ``name`` that some call in ``trees``
    passes, calling it by that name or as an attribute of that name."""
    passed = set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if getattr(node.func, "id", getattr(node.func, "attr", None)) != name:
                continue
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed.update(positional)
            passed.update(positional[:len(node.args)])
            for keyword in node.keywords:
                # a **kwargs may hold any parameter
                passed.update(defaulted if keyword.arg is None else [keyword.arg])
    return passed


def one_value_knobs(sources: dict) -> list:
    """``(module, line, function, parameter)`` for each defaulted parameter
    of a private function of ``sources`` (module name -> source text) that
    no call in them passes."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    return sorted(
        (module, line, name, parameter)
        for module, tree in trees.items()
        for name, (line, positional, defaulted) in defaulted_parameters(tree).items()
        for parameter in set(defaulted).difference(
            passed_parameters(trees.values(), name, positional, defaulted))
    )


def test_the_check_finds_one_value_knobs():
    sources = {
        "a": (
            "def _knob(x, y=1, *, z=2): pass\n"
            "def _used(x, y=1, *, z=2): pass\n"
            "def _spread(x, y=1): pass\n"
            "def _named(x=0, **rest): pass\n"
            "def public(x=1): pass\n"
            "def __dunder__(x=1): pass\n"
            "_knob(0)\n_spread(*[0, 1])\n"
        ),
        "b": "import a\na._used(0, 3)\na._used(0, z=4)\na._named(**{})\n",
    }
    assert one_value_knobs(sources) == [("a", 1, "_knob", "y"), ("a", 1, "_knob", "z")]


def test_package_passes_every_private_default():
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert one_value_knobs(sources) == []
