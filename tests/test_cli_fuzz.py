"""Fuzz test of the CLI's ``main(argv)`` over mutated instance and
allocation documents and argument values.

Whatever it is given, a call ends with exit code 0, 2 (bad input) or 3
(a cap exceeded), writes no traceback, and finishes within
:data:`CALL_BOUND_S`.  Extreme values are ones a cap or a check refuses
before any work: ``--cap`` stays small, so a sweep never runs long, and
``--workers`` never asks for more than a few threads.
"""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from groupfair.cli import main

#: Longest one call may take (the slowest calls here take well under 1 s).
CALL_BOUND_S = 10.0

INSTANCES = [
    {
        "goods": ["v", "w", "x", "y", "z"],
        "groups": [
            [{"type": "binary", "desired": ["v", "x"], "count": 2},
             {"type": "binary", "desired": ["w", "x", "y", "z"], "count": 3}],
            [{"type": "binary", "desired": ["w", "z"]},
             {"type": "binary", "desired": ["v", "z"], "count": 2}],
        ],
    },
    {
        "goods": ["a", "b", "c", "d"],
        "groups": [
            [{"type": "additive", "values": [1, "1/2", 0.25, 3]}],
            [{"type": "additive", "values": [2, 2, 1, 0], "count": 2}],
            [{"type": "binary", "desired": ["a", "d"]}],
        ],
        "order": ["d", "c", "b", "a"],
    },
    {
        "goods": ["a", "b"],
        "groups": [
            [{"type": "tabular", "values": {"": 0, "a": 1, "b": 1, "a,b": 2}}],
            [{"type": "binary", "desired": ["a"]}],
        ],
    },
]
ALLOCATIONS = [
    {"bundles": [["v", "x"], ["w", "y", "z"]]},
    {"bundles": [["a"], ["b", "c"], ["d"]]},
    {"bundles": [["a", "b"], []]},
]

SMALL_INT = st.integers(-2, 6)
#: values past every cap or check
HUGE_INT = st.sampled_from([99_999, 2_000_000, 2**63, 10**20])
#: an argument past Python's int-to-str limit
DIGITS = st.just("9" * 5000)
JSON_LEAF = (
    st.none() | st.booleans() | SMALL_INT | HUGE_INT
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from(["", "a", "v", "w,x", "1/2", "-1", "1e999999", "0/0", "9" * 5000])
    | st.text(max_size=4)
)
JSON = st.recursive(
    JSON_LEAF,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(
        ["goods", "groups", "type", "desired", "values", "count", "order",
         "bundles", "", "a"]), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, (*path, key))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, (*path, index))


def _edit(node, path, value, delete=False):
    """A copy of ``node`` with the node at ``path`` replaced, or deleted."""
    head, rest = path[0], path[1:]
    copy = dict(node) if isinstance(node, dict) else list(node)
    if rest:
        copy[head] = _edit(node[head], rest, value, delete)
    elif delete:
        del copy[head]
    else:
        copy[head] = value
    return copy


@st.composite
def documents(draw, doc):
    """JSON text of ``doc`` after a few random edits, often none."""
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(JSON)
        else:
            doc = _edit(doc, path, draw(JSON), delete=draw(st.booleans()))
    text = json.dumps(doc)
    if draw(st.integers(0, 9)) == 0:  # sometimes not JSON at all
        text = text[: draw(st.integers(0, len(text)))]
    return text


NUMBER = SMALL_INT | HUGE_INT | DIGITS
ARG_TEXT = st.sampled_from(["", "x", "-1", "1/2", "2/1", "0.5", "nan"]) | st.text(
    max_size=6
)
CRITERIA = st.sampled_from([
    "ef-1", "ef-0", "prop-1", "mms", "1-out-of-2-mms", "1-out-of-3-mms",
    "fraction-mms:1/2", "fraction-mms:3/2", "1-of-best-1", "1-of-best-2",
    "positive-mms", "ef-1,mms", "ef-1,mms,prop-1", "1-of-best-2,1-of-best-3",
    "ef-99999999999999999999", "1-out-of-100000-mms", "fraction-mms:x", "ef",
])
CRITERION = st.one_of(CRITERIA, CRITERIA, ARG_TEXT)
SPEC_NAME = st.sampled_from(
    ["three-good-cycle", "all-subsets", "circle", "additive-third", "efc-limit",
     "cycle"]
)
SPEC_PARAM = st.sampled_from(["k", "r", "s", "m", "c", "l", "x"])


@st.composite
def specs(draw):
    name = draw(SPEC_NAME)
    # 99,999 is left out: three-good-cycle:k=99999 is a valid 300,000-member
    # instance whose 15 MB of JSON take seconds to write
    values = st.integers(0, 5) | st.sampled_from([2_000_000, 2**63, 10**20]) | DIGITS
    params = draw(st.dictionaries(SPEC_PARAM, values, max_size=4))
    if not params:
        return name
    return name + ":" + ",".join(f"{key}={value}" for key, value in params.items())


def _option(name, values):
    """``[name, value]`` or nothing."""
    return st.one_of(st.just([]), values.map(lambda value: [name, str(value)]))


@st.composite
def argvs(draw):
    """An argv and the files it names (placeholders ``@instance`` and
    ``@allocation``)."""
    command = draw(st.sampled_from(["run", "check", "brute", "table", "gen", "bogus"]))
    pair = draw(st.integers(0, len(INSTANCES) - 1))
    files = {"@instance": draw(documents(INSTANCES[pair])),
             "@allocation": draw(documents(ALLOCATIONS[pair]))}
    argv = [command]
    if command == "run":
        argv += ["--protocol", draw(st.sampled_from(
            ["rwav2", "rwav2-enhanced", "cwav2", "local-search", "line2",
             "linek", "rwavk", "best-k", "rwav3"]))]
        argv += ["--instance", "@instance"]
        argv += draw(_option("--criterion", CRITERION))
        argv += draw(_option("--first-group", st.integers(0, 3)))
        argv += draw(_option("--seed", NUMBER))
        argv += draw(st.sampled_from([[], ["--trace"]]))
        argv += draw(st.sampled_from([[], ["--binarize"]]))
    elif command == "check":
        argv += ["--instance", "@instance", "--allocation", "@allocation"]
        argv += ["--criterion", draw(CRITERION)]
    elif command == "brute":
        source = st.sampled_from([["--instance", "@instance"], ["--spec", draw(specs())]])
        argv += draw(source)
        argv += ["--criterion", draw(CRITERION)]
        argv += draw(_option("--h", ARG_TEXT))
        argv += ["--cap", str(draw(st.integers(-1, 1 << 12)))]
        argv += draw(_option("--workers", st.integers(-1, 3)))
    elif command == "table":
        argv += ["--which", draw(st.sampled_from(["B", "w", "C", "Bk", "maxh", "D"]))]
        argv += draw(_option("--rmax", st.integers(-1, 40) | st.sampled_from([300, 301])
                             | HUGE_INT))
        argv += draw(_option("--smax", st.integers(-1, 12) | HUGE_INT))
        argv += draw(_option("--k", NUMBER))
    elif command == "gen":
        argv += ["--spec", draw(specs() | ARG_TEXT)]
    return argv, files


@settings(max_examples=150, deadline=None)
@given(argvs())
@example((["gen", "--spec", "efc-limit:c=0,l=99999"], {}))
@example((["gen", "--spec", "all-subsets:r=2000000,s=1,k=2,m=2000000"], {}))
@example((["brute", "--spec", "efc-limit:c=0,l=99999", "--criterion", "ef-1"], {}))
@example((["table", "--which", "Bk", "--rmax", "300", "--k", str(10**20)], {}))
@example((["gen", "--spec", "circle:k=" + "9" * 5000], {}))
@example((["run", "--protocol", "line2", "--instance", "@instance"], {
    # json.dumps cannot write an integer past the digit limit: splice one in
    "@instance": json.dumps(INSTANCES[1]).replace("[1, ", "[" + "9" * 5000 + ", "),
}))
def test_main_exits_cleanly_on_any_input(case):
    argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths[name] = Path(tmp, name[1:] + ".json")
            paths[name].write_text(text)
        argv = [str(paths.get(arg, arg)) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        elapsed = time.perf_counter() - start
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert "set_int_max_str_digits" not in err.getvalue(), argv
    assert elapsed < CALL_BOUND_S, (argv, elapsed)
    if code != 0:
        assert err.getvalue(), argv
