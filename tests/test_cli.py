"""Command-line interface tests.

Most tests drive :func:`groupfair.cli.main` in-process and capture stdout;
a couple run the command end to end in a subprocess to pin down the exact
bytes of the audit trace.  The console-script test needs no install: it
builds the ``groupfair`` script from this checkout's ``[project.scripts]``
entry in ``pyproject.toml``, puts it first on ``PATH`` with this checkout's
``src`` first on ``PYTHONPATH``, and runs it by name.
"""

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from groupfair import budgets, cli, protocols
from groupfair.budgets import B_closed, C, KGroupWeights
from groupfair.cli import MAX_TABLE_CELLS, MAX_TABLE_RMAX, main
from groupfair.fairness import PROPc, democratic_report, per_group_criteria
from groupfair.model import (
    MAX_MEMBERS,
    binarize_instance,
    parse_allocation,
    parse_instance,
    rational_doc,
    serialize_instance,
)
from groupfair.oracles import exists_h
from groupfair.protocols import MAX_WANTED_GOODS

from table_reference import EagerBudgetTable

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).resolve().parents[1]

B1_DOC = """{
  "goods": ["v", "w", "x", "y", "z"],
  "groups": [
    [
      {"type": "binary", "desired": ["v", "x"], "count": 2},
      {"type": "binary", "desired": ["v", "x", "y"]},
      {"type": "binary", "desired": ["w", "x", "y", "z"], "count": 5},
      {"type": "binary", "desired": ["w", "z"], "count": 3}
    ],
    [
      {"type": "binary", "desired": ["w", "x", "y", "z"], "count": 2},
      {"type": "binary", "desired": ["v", "z"], "count": 3}
    ]
  ]
}"""

B1_ARGS = ["--criterion", "1-out-of-2-mms,1-of-best-2"]


@pytest.fixture
def b1_path(tmp_path):
    path = tmp_path / "b1.json"
    path.write_text(B1_DOC)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# run


def test_run_trace_matches_golden(b1_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "rwav2", "--instance", b1_path,
        *B1_ARGS, "--trace",
    )
    assert code == 0
    assert out == (DATA / "b1_trace.txt").read_text()


# one run per trace kind: (golden, protocol, instance, extra arguments)
TRACE_KINDS = [
    ("line2", "line2", "inst_line.json", ()),  # LineTrace, with an order
    ("linek", "linek", "inst_linek.json", ()),
    ("local_search", "local-search", "inst_identical.json", ()),  # SearchTrace
    ("rwav2_enhanced", "rwav2-enhanced", "inst_shortcut.json", ()),  # EnhancedSplit
    ("best_k", "best-k", "inst_bestk.json", ()),  # BestKTrace around rwav2 turns
    ("cwav2", "cwav2", "inst_shortcut.json",
     ("--criterion", "1-of-best-2,ef-1", "--seed", "7")),
    # rwavk weighs each member's c lowest desired goods; one member wants 3
    ("rwavk", "rwavk", "inst_identical.json", ("--criterion", "1-of-best-2")),
]


@pytest.mark.parametrize("golden, protocol, instance, extra", TRACE_KINDS,
                         ids=[kind[0] for kind in TRACE_KINDS])
def test_run_trace_of_each_kind_matches_golden(golden, protocol, instance, extra,
                                               capsys):
    code, out, _ = run_cli(capsys, "run", "--protocol", protocol, "--instance",
                           str(DATA / instance), *extra, "--trace")
    assert code == 0
    assert out == (DATA / f"trace_{golden}.txt").read_text()


def test_run_builds_turn_records_only_for_trace(b1_path, capsys, monkeypatch):
    # the picking loop logs its picks and makes TurnRecords only when the
    # trace is read, which run does for --trace alone
    made = []
    init = protocols.TurnRecord.__init__
    monkeypatch.setattr(protocols.TurnRecord, "__init__",
                        lambda self, *args: made.append(args[0]) or init(self, *args))
    argv = ("run", "--protocol", "rwav2", "--instance", b1_path, *B1_ARGS)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(out)["protocol"] == "rwav2"
    assert made == []
    code, out, _ = run_cli(capsys, *argv, "--trace")
    assert code == 0 and out == (DATA / "b1_trace.txt").read_text()
    assert made == [1, 2, 3, 4, 5]


def test_run_machine_doc_matches_golden(b1_path, capsys):
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "rwav2", "--instance", b1_path,
        *B1_ARGS, "--first-group", "2",
    )
    assert code == 0
    assert out == (DATA / "b1_run2.json").read_text()
    doc = json.loads(out)
    assert list(doc) == [
        "protocol", "criteria", "first_group", "allocation",
        "happy", "h", "verdicts", "guarantees",
    ]
    assert doc["allocation"]["bundles"] == [["w", "x"], ["v", "y", "z"]]
    assert doc["happy"] == [[11, 11], [5, 5]]
    assert doc["guarantees"] == ["3/8", "3/4"]


def test_run_trace_with_out_writes_both(b1_path, tmp_path, capsys):
    out_path = tmp_path / "doc.json"
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "rwav2", "--instance", b1_path,
        *B1_ARGS, "--trace", "--out", str(out_path),
    )
    assert code == 0
    assert out.startswith("Turn #1:")
    doc = json.loads(out_path.read_text())
    assert doc["happy"] == [[11, 11], [5, 5]]


def test_run_cwav2_requires_and_uses_seed(b1_path, capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "cwav2", "--instance", b1_path,
        "--criterion", "1-out-of-2-mms",
    )
    assert code == 2 and "--seed" in err
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "cwav2", "--instance", b1_path,
        "--criterion", "1-out-of-2-mms", "--seed", "11",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 11
    assert doc["guarantees"] == [0, 0]
    assert "expected_guarantees" in doc


def test_run_fixed_criterion_protocols_reject_criterion(tmp_path, capsys):
    inst = tmp_path / "pair.json"
    inst.write_text(
        '{"goods": ["a", "b"], "groups": [[{"type": "additive", "values":'
        ' [2, 1]}], [{"type": "additive", "values": [1, 2]}]]}'
    )
    code, _, err = run_cli(
        capsys, "run", "--protocol", "line2", "--instance", str(inst),
        "--criterion", "ef-1",
    )
    assert code == 2 and "drop --criterion" in err
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "line2", "--instance", str(inst)
    )
    assert code == 0
    assert json.loads(out)["criteria"] == ["ef-1", "ef-1"]


def test_run_flag_scoping(b1_path, capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "linek", "--instance", b1_path,
        "--first-group", "2",
    )
    assert code == 2 and "rwav2 only" in err
    code, _, err = run_cli(
        capsys, "run", "--protocol", "rwav2", "--instance", b1_path,
        *B1_ARGS, "--seed", "4",
    )
    assert code == 2 and "cwav2 only" in err
    code, _, err = run_cli(
        capsys, "run", "--protocol", "rwav2-enhanced", "--instance", b1_path,
        "--criterion", "ef-1",
    )
    assert code == 2 and "1-of-best-c" in err
    code, _, err = run_cli(
        capsys, "run", "--protocol", "rwavk", "--instance", b1_path,
    )
    assert code == 2 and "rwavk needs --criterion" in err


def test_run_binarize(tmp_path, capsys):
    inst = tmp_path / "add.json"
    inst.write_text(
        '{"goods": ["a", "b", "c"], "groups": ['
        '[{"type": "additive", "values": [5, 3, 1]}],'
        '[{"type": "additive", "values": [1, 3, 5]}]]}'
    )
    code, out, _ = run_cli(
        capsys, "run", "--protocol", "rwav2", "--instance", str(inst),
        "--criterion", "1-of-best-2", "--binarize",
    )
    assert code == 0
    assert json.loads(out)["h"] == 1
    code, _, err = run_cli(
        capsys, "run", "--protocol", "rwav2", "--instance", str(inst),
        "--criterion", "ef-1", "--binarize",
    )
    assert code == 2 and "--binarize" in err
    code, _, err = run_cli(
        capsys, "run", "--protocol", "line2", "--instance", str(inst),
        "--binarize",
    )
    assert code == 2


ADDITIVE3 = (
    '{"goods": ["a", "b", "c", "d"], "groups": ['
    '[{"type": "additive", "values": [4, 3, 2, 1]}],'
    ' [{"type": "additive", "values": [1, 2, 3, 4]}],'
    ' [{"type": "additive", "values": [2, 4, 1, 3]}]]}'
)
IDENTICAL = (
    '{"goods": ["a", "b", "c", "d"], "groups": ['
    '[{"type": "additive", "values": [4, 3, 2, 1]},'
    ' {"type": "additive", "values": [1, 2, 3, 4]}],'
    ' [{"type": "additive", "values": [4, 3, 2, 1]},'
    ' {"type": "additive", "values": [1, 2, 3, 4]}]]}'
)


@pytest.mark.parametrize("protocol, instance, criterion, c", [
    ("rwav2-enhanced", IDENTICAL, None, 2),
    ("rwav2-enhanced", IDENTICAL, "1-of-best-3", 3),
    ("rwavk", ADDITIVE3, "1-of-best-3", 3),
    ("local-search", IDENTICAL, None, 2),
])
def test_run_binarize_takes_c_from_the_protocol(protocol, instance, criterion, c,
                                                tmp_path, capsys):
    source, binary = tmp_path / "source.json", tmp_path / "binary.json"
    source.write_text(instance)
    binary.write_text(serialize_instance(
        binarize_instance(parse_instance(instance), c)))
    argv = ["run", "--protocol", protocol]
    if criterion:
        argv += ["--criterion", criterion]
    plain = run_cli(capsys, *argv, "--instance", str(binary))
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--instance", str(source), "--binarize") == plain


def test_run_rwav2_needs_a_criterion(b1_path, capsys):
    assert run_cli(capsys, "run", "--protocol", "rwav2", "--instance", b1_path) == (
        2, "", "error: rwav2 needs --criterion\n")


def test_run_rwavk_warning_is_one_line(tmp_path):
    inst = tmp_path / "three.json"
    inst.write_text(
        '{"goods": ["a", "b", "c", "d"], "groups": ['
        '[{"type": "binary", "desired": ["a", "b"]}],'
        ' [{"type": "binary", "desired": ["c", "d"]}],'
        ' [{"type": "binary", "desired": ["b", "d"]}]]}'
    )
    result = subprocess.run(
        [sys.executable, "-m", "groupfair.cli", "run", "--protocol", "rwavk",
         "--instance", str(inst), "--criterion", "1-of-best-2"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0
    assert result.stderr == ("warning: rwavk with c=2 < k=3: guarantees"
                             " degenerate to 0 for later groups\n")
    assert json.loads(result.stdout)["protocol"] == "rwavk"


def test_run_bad_inputs(b1_path, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run", "--protocol", "rwav2", "--instance", b1_path,
        "--criterion", "ef1",
    )
    assert code == 2 and "did you mean" in err
    missing = str(tmp_path / "nope.json")
    code, _, err = run_cli(
        capsys, "run", "--protocol", "rwav2", "--instance", missing,
        *B1_ARGS,
    )
    assert code == 2
    # argparse errors also map to exit 2
    code, _, _ = run_cli(capsys, "run", "--protocol", "rwav2")
    assert code == 2
    code, _, _ = run_cli(
        capsys, "run", "--protocol", "mystery", "--instance", b1_path
    )
    assert code == 2


@pytest.mark.parametrize("command, option", [
    ("run", "--first-group"), ("run", "--seed"), ("brute", "--cap"),
    ("brute", "--workers"), ("table", "--rmax"), ("table", "--smax"),
    ("table", "--k"),
])
def test_int_options_quote_a_prefix_of_an_oversized_value(command, option, capsys):
    # every int option: an ordinary bad value is quoted whole, as argparse
    # words it, and one past CPython's digit limit only by a prefix
    required = {"run": ["--protocol", "cwav2", "--instance", "i.json"],
                "brute": ["--criterion", "ef-1", "--spec", "circle:k=3"],
                "table": ["--which", "B"]}[command]
    code, _, err = run_cli(capsys, command, *required, option, "1x")
    assert code == 2
    assert err.endswith(f"error: argument {option}: invalid int value: '1x'\n")
    code, _, err = run_cli(capsys, command, *required, option, "1" * 5000)
    assert code == 2
    assert err.endswith(
        f"error: argument {option}: invalid int value: '{'1' * 40}'...\n"
    )


# ---------------------------------------------------------------------------
# check


def test_check_reports_verdicts(b1_path, tmp_path, capsys):
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"bundles": [["w", "x", "y"], ["v", "z"]]}')
    code, out, _ = run_cli(
        capsys, "check", "--instance", b1_path, "--allocation", str(alloc),
        "--criterion", "1-out-of-2-mms,1-of-best-2",
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["criteria", "allocation", "happy", "h", "verdicts"]
    assert doc["happy"] == [[11, 11], [5, 5]]
    assert doc["h"] == 1

    alloc.write_text('{"bundles": [["w", "x", "y"], ["v"]]}')
    code, _, err = run_cli(
        capsys, "check", "--instance", b1_path, "--allocation", str(alloc),
        "--criterion", "mms",
    )
    assert code == 2 and "unassigned" in err


def test_member_count_cap_exits_3(tmp_path, capsys):
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps({"goods": ["v", "w"], "groups": [
        [{"type": "binary", "desired": ["v"], "count": MAX_MEMBERS + 1}],
        [{"type": "magic"}],  # stops a parser without the cap early
    ]}))
    code, out, err = run_cli(capsys, "run", "--protocol", "line2",
                             "--instance", str(path))
    assert code == 3 and out == ""
    assert f"more than {MAX_MEMBERS} members" in err


def test_rwav2_enhanced_c_cap_exits_3(b1_path, capsys):
    def run(c):
        return run_cli(capsys, "run", "--protocol", "rwav2-enhanced",
                       "--instance", b1_path, "--criterion", f"1-of-best-{c}")

    top = MAX_WANTED_GOODS
    code, out, err = run(top)
    assert (code, err) == (0, "")
    bound = rational_doc(Fraction(2**top - 1, 2**top + 1))
    assert json.loads(out)["guarantees"] == [bound, bound]
    # refused before 2**c is built, also where printing it would fail
    for c in (top + 1, 100_000, 10**10):
        message = f"error: rwav2_enhanced: c = {c} is above the cap of {top}\n"
        assert run(c) == (3, "", message)


def test_rwavk_group_cap_exits_3(tmp_path, capsys):
    # 65 one-member groups wanting nothing: best-k falls back to rwavk
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"goods": ["a"], "groups": [
        [{"type": "binary", "desired": []}]] * (protocols.MAX_RWAVK_GROUPS + 1)}))
    message = "error: rwavk: 65 groups, above the cap of 64\n"
    for argv in (["rwavk", "--criterion", "1-of-best-1"], ["best-k"]):
        assert run_cli(capsys, "run", "--protocol", *argv,
                       "--instance", str(path)) == (3, "", message)


@pytest.mark.parametrize("protocol", ["rwav2", "cwav2"])
def test_wanted_goods_cap_exits_3(protocol, tmp_path, capsys):
    goods = [f"g{i}" for i in range(MAX_WANTED_GOODS + 1)]

    def path_wanting(wanted: int) -> str:
        path = tmp_path / f"wants{wanted}.json"
        path.write_text(json.dumps({"goods": goods, "groups": [
            [{"type": "binary", "desired": goods[:wanted]}],
            [{"type": "binary", "desired": goods[-wanted:]}],
        ]}))
        return str(path)

    seed = ["--seed", "1"] if protocol == "cwav2" else []
    # a member wanting MAX_WANTED_GOODS goods runs, at the exact bound
    code, out, err = run_cli(
        capsys, "run", "--protocol", protocol, "--criterion", "1-out-of-2-mms",
        "--instance", path_wanting(MAX_WANTED_GOODS), *seed,
    )
    assert (code, err) == (0, "")
    doc, r, s = json.loads(out), MAX_WANTED_GOODS, MAX_WANTED_GOODS // 2
    if protocol == "rwav2":
        assert doc["guarantees"] == [rational_doc(B_closed(r, s)),
                                     rational_doc(B_closed(r - 1, s))]
    else:
        assert doc["expected_guarantees"] == [rational_doc(C(r, s))] * 2
    # one good more exits 3 before a turn is played
    over = path_wanting(MAX_WANTED_GOODS + 1)
    code, out, err = run_cli(
        capsys, "run", "--protocol", protocol, "--criterion", "1-out-of-2-mms",
        "--instance", over, *seed,
    )
    assert (code, out) == (3, "")
    assert err == (f"error: {protocol}: a member wants {MAX_WANTED_GOODS + 1}"
                   f" goods, above the cap of {MAX_WANTED_GOODS}\n")
    # rwavk prices with shifts, not binomial sums, and has no such cap
    code, _, err = run_cli(capsys, "run", "--protocol", "rwavk", "--instance",
                           over, "--criterion", "1-of-best-600")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("protocol", ["rwav2", "cwav2"])
def test_wanted_goods_cap_refuses_before_any_sum(protocol, tmp_path, monkeypatch,
                                                 capsys):
    # group 1 has a member under the cap, then one wanting 520 goods;
    # group 2 one wanting 600.  The run is refused while its starting
    # states are priced, before any turn, and it names the first member
    # priced over the cap
    cap, top = MAX_WANTED_GOODS, 600
    goods = [f"g{i}" for i in range(top)]
    path = tmp_path / "two-over.json"
    path.write_text(json.dumps({"goods": goods, "groups": [
        [{"type": "binary", "desired": goods[:2]},
         {"type": "binary", "desired": goods[:cap + 8]}],
        [{"type": "binary", "desired": goods}],
    ]}))
    below = budgets._below

    def small_sums_only(r, s, k):
        assert r <= cap, f"a binomial sum over {r} goods started"
        return below(r, s, k)

    monkeypatch.setattr(budgets, "_below", small_sums_only)
    seed = ["--seed", "1"] if protocol == "cwav2" else []
    assert run_cli(
        capsys, "run", "--protocol", protocol, "--criterion", "1-out-of-2-mms",
        "--instance", str(path), *seed,
    ) == (3, "", f"error: {protocol}: a member wants {cap + 8} goods,"
                 f" above the cap of {cap}\n")


@pytest.mark.parametrize("doc", [
    {"goods": [1, "a"],  # refused before any tabular key is read
     "groups": [[{"type": "tabular", "values": {"xy": 0}}]]},
    {"goods": ["a", "b"],  # an int order entry is not a good
     "groups": [[{"type": "binary", "desired": ["a"]}]], "order": ["a", 1]},
])
def test_non_string_goods_exit_2(doc, tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", "--protocol", "line2",
                             "--instance", str(path))
    message = ("'order' must be a permutation of the goods" if "order" in doc
               else "bad good label 1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


_ONES = [1] * 5000  # its repr is 15,000 characters
_LONG = "x" * 6000  # a valid label, and a bundle key naming it
_BIN = {"type": "binary", "desired": ["a"]}


def _doc(*entries, goods=("a", "b")):
    return {"goods": list(goods), "groups": [list(entries), [_BIN]]}


@pytest.mark.parametrize("instance, allocation", [
    (_doc({"type": "additive", "values": [_ONES, 1]}), None),
    (_doc({"type": "additive", "values": {_LONG: 1}}), None),
    (_doc(_ONES), None),
    (_doc({**_BIN, "count": _ONES}), None),
    (_doc({"type": "binary", "desired": [_ONES]}), None),
    (_doc({"type": "binary", "desired": [_LONG]}), None),
    (_doc({"type": _ONES}), None),
    (_doc(_BIN, goods=("a", _LONG + ",")), None),
    (_doc({"type": "tabular", "values": {_LONG: 0}}), None),
    (_doc({"type": "tabular", "values": {f"{_LONG},{_LONG}": 0}}, goods=("a", _LONG)),
     None),
    (_doc({"type": "tabular", "values": {f"a,{_LONG}": 1, f"{_LONG},a": 1}},
          goods=("a", _LONG)), None),
    (_doc(_BIN), {"bundles": [["a"], [_ONES]]}),
    (_doc(_BIN, goods=("a", _LONG)), {"bundles": [[_LONG], [_LONG]]}),
    (_doc(_BIN, goods=("a", _LONG)), {"bundles": [["a"], []]}),
], ids=["rational", "additive-label", "entry", "count", "desired", "desired-label",
        "type", "good", "key", "key-repeat", "key-twice", "allocation-label",
        "assigned-twice", "unassigned"])
def test_document_values_are_quoted_by_a_prefix(instance, allocation, tmp_path, capsys):
    # an oversized document value is quoted by a prefix, as a CLI argument is
    inst, alloc = tmp_path / "inst.json", tmp_path / "alloc.json"
    inst.write_text(json.dumps(instance))
    alloc.write_text(json.dumps(allocation or {"bundles": [["a"], ["b"]]}))
    code, out, err = run_cli(capsys, "check", "--instance", str(inst),
                             "--allocation", str(alloc), "--criterion", "ef-1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) < 200


def test_deeply_nested_json_exits_2(b1_path, tmp_path, capsys):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (
        ("run", "--protocol", "rwav2", "--instance", str(nested), *B1_ARGS),
        ("check", "--instance", b1_path, "--allocation", str(nested),
         "--criterion", "mms"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and "nested too deeply" in err
        assert "Traceback" not in err


def test_huge_decimal_exponent_exits_2(tmp_path, capsys):
    inst = tmp_path / "exp.json"
    inst.write_text(json.dumps({
        "goods": ["a", "b"],
        "groups": [[{"type": "additive", "values": ["1e1001", 1]}],
                   [{"type": "binary", "desired": ["a"]}]],
    }))
    code, _, err = run_cli(
        capsys, "run", "--protocol", "line2", "--instance", str(inst)
    )
    assert code == 2 and "exponent" in err


# ---------------------------------------------------------------------------
# brute


def test_brute_spec_equals_brute_instance(tmp_path, capsys):
    code, gen_out, _ = run_cli(capsys, "gen", "--spec", "three-good-cycle")
    assert code == 0
    inst_path = tmp_path / "cycle.json"
    inst_path.write_text(gen_out)

    code, by_spec, _ = run_cli(
        capsys, "brute", "--spec", "three-good-cycle",
        "--criterion", "positive-mms",
    )
    assert code == 0
    code, by_file, _ = run_cli(
        capsys, "brute", "--instance", str(inst_path),
        "--criterion", "positive-mms",
    )
    assert code == 0
    spec_doc = json.loads(by_spec)
    file_doc = json.loads(by_file)
    assert spec_doc["spec"] == "three-good-cycle:k=2"
    assert spec_doc["best_h"] == file_doc["best_h"] == "2/3"
    assert spec_doc["witness"] == file_doc["witness"]
    assert spec_doc["allocations_examined"] == 8


def test_brute_decision_mode(capsys):
    code, out, _ = run_cli(
        capsys, "brute", "--spec", "three-good-cycle",
        "--criterion", "positive-mms", "--h", "2/3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["found"] is True
    assert doc["h"] == "2/3"
    assert doc["witness"] is not None

    code, out, _ = run_cli(
        capsys, "brute", "--spec", "three-good-cycle",
        "--criterion", "positive-mms", "--h", "0.7",
    )
    doc = json.loads(out)
    assert doc["found"] is False and doc["witness"] is None
    assert doc["allocations_examined"] == 8


def test_brute_cap_exit(capsys):
    code, _, err = run_cli(
        capsys, "brute", "--spec", "three-good-cycle",
        "--criterion", "positive-mms", "--cap", "7",
    )
    assert code == 3 and "cap" in err.lower()


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_brute_workers_below_one_exit_2(workers, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("rejected --workers must not start a sweep")

    monkeypatch.setattr(cli.oracles, "max_h", no_sweep)
    monkeypatch.setattr(cli.oracles, "exists_h", no_sweep)
    for extra in ((), ("--h", "1/2")):
        code, out, err = run_cli(
            capsys, "brute", "--spec", "three-good-cycle",
            "--criterion", "positive-mms", "--workers", workers, *extra,
        )
        assert code == 2 and out == "" and "--workers must be at least 1" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_brute_cap_below_one_exit_2(cap, b1_path, monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("rejected --cap must not start a sweep")

    monkeypatch.setattr(cli.oracles, "max_h", no_sweep)
    monkeypatch.setattr(cli.oracles, "exists_h", no_sweep)
    for source in (("--spec", "three-good-cycle"), ("--instance", b1_path)):
        for extra in ((), ("--h", "1/2")):
            code, out, err = run_cli(
                capsys, "brute", *source, "--criterion", "positive-mms",
                "--cap", cap, *extra,
            )
            assert (code, out, err) == (2, "", "error: --cap must be at least 1\n")


def test_brute_ef_c_far_above_m(tmp_path, capsys):
    # deleting more goods than exist changes nothing: ef-1000000000 on
    # three goods is ef-3, and its sweep takes three removal rounds
    path = tmp_path / "additive3.json"
    path.write_text(json.dumps({"goods": ["a", "b", "c"], "groups": [
        [{"type": "additive", "values": [5, 3, 1]}],
        [{"type": "additive", "values": [1, 3, 5]}],
    ]}))
    docs = []
    for c in (3, 10**9):
        code, out, err = run_cli(capsys, "brute", "--instance", str(path),
                                 "--criterion", f"ef-{c}")
        assert (code, err) == (0, "")
        docs.append(json.loads(out))
    assert docs[0]["best_h"] == docs[1]["best_h"]
    assert docs[0]["witness"] == docs[1]["witness"]


def test_brute_workers_above_cap_exit_2_without_threads(monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("rejected --workers must not start a sweep")

    threads = threading.active_count()
    monkeypatch.setattr(cli.oracles, "max_h", no_sweep)
    code, out, err = run_cli(
        capsys, "brute", "--spec", "three-good-cycle",
        "--criterion", "positive-mms", "--workers", str(cli.MAX_WORKERS + 1),
    )
    assert code == 2 and out == ""
    assert f"--workers must be at most {cli.MAX_WORKERS}" in err
    assert threading.active_count() == threads


def test_brute_workers_at_cap_runs(capsys):
    # three-good-cycle is one block, so no pool starts
    code, out, _ = run_cli(
        capsys, "brute", "--spec", "three-good-cycle",
        "--criterion", "positive-mms", "--workers", str(cli.MAX_WORKERS),
    )
    assert code == 0 and json.loads(out)["best_h"] == "2/3"


def test_brute_four_prime_group_sizes(tmp_path, capsys):
    # four prime group sizes: lcm(sizes) ~ 1.8e19 > 2^63 - 1, which an
    # oracle scoring happy_g * lcm / n_g in int64 cannot hold; per-group
    # counts need no common denominator
    sizes = (65537, 65539, 65543, 65551)
    doc = {
        "goods": ["a", "b"],
        "groups": [
            [{"type": "binary", "desired": ["a"], "count": n}] for n in sizes
        ],
    }
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "brute", "--instance", str(path), "--criterion", "prop-1",
    )
    assert code == 0 and err == ""
    result = json.loads(out)
    assert result["allocations_examined"] == 16
    inst = parse_instance(path.read_text())
    witness = parse_allocation(json.dumps(result["witness"]), inst)
    crits = per_group_criteria(PROPc(1), inst.k)
    best_h = Fraction(result["best_h"])
    assert democratic_report(inst, witness, crits).h == best_h
    assert exists_h(inst, PROPc(1), best_h).witness == witness


def test_brute_spec_checks_the_space_before_generating(monkeypatch, capsys):
    def no_generate(spec):
        raise AssertionError("an over-cap spec must not be generated")

    monkeypatch.setattr(cli.oracles, "generate", no_generate)
    code, out, err = run_cli(
        capsys, "brute", "--spec", "three-good-cycle:k=99999",
        "--criterion", "ef-1", "--cap", "8",
    )
    assert code == 3 and out == ""
    assert "allocation space 99999^3 exceeds cap 8" in err


def test_brute_space_past_the_digit_limit_exits_3(tmp_path, capsys):
    # 3^10000 has 4,772 decimal digits, past the 4,300 that int -> str
    # allows: the cap refuses it without building or printing the power
    doc = {
        "goods": [f"g{i}" for i in range(10_000)],
        "groups": [[{"type": "binary", "desired": ["g0"]}]] * 3,
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(
        capsys, "brute", "--instance", str(path), "--criterion", "ef-1",
    )
    assert code == 3 and out == ""
    assert err == "error: allocation space 3^10000 exceeds cap 16777216\n"


def test_brute_bad_spec(capsys):
    code, _, err = run_cli(
        capsys, "brute", "--spec", "circl:k=2", "--criterion", "mms"
    )
    assert code == 2 and "did you mean" in err


# ---------------------------------------------------------------------------
# table


def test_table_w_grid(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "w", "--rmax", "5", "--smax", "3"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "r\\s  0      1      2      3"
    assert lines[7] == "4    0      0.063  0.250  0"
    assert lines[8] == "5    0      0.031  0.156  0.313"


def test_table_b_prints_values_and_weights(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "B", "--rmax", "4", "--smax", "2"
    )
    assert code == 0
    assert "B(r,s)" in out and "w(r,s)" in out
    assert "2    1      0.750  0" in out  # B(2,1) = 3/4
    assert "4    0      0.063  0.250" in out  # w(4,1), w(4,2)


def test_table_kgroup(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "Bk", "--k", "3", "--rmax", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "r    B(r,1)   w(r,1)"
    assert lines[4] == "1    0.293    0.293"
    assert lines[6] == "3    0.646    0.146"


def test_table_kgroup_never_prints_a_float_bare(capsys):
    # B_2(r,1) = 1 - 2**-r stays below 1, though its float is 1.0 from r = 54
    code, out, _ = run_cli(
        capsys, "table", "--which", "Bk", "--k", "2", "--rmax", "56"
    )
    assert code == 0
    assert out.splitlines()[3] == "0    0        0"
    assert out.splitlines()[56:] == [f"{r}   1.000    0.000" for r in range(53, 57)]


def test_table_kgroup_rounds_exact_cells_from_the_exact_value(capsys):
    # B_k(4(k-1), 1) = 15/16 rounds half-up to 0.938, though for these k
    # its float 1 - L**-r falls just below 0.9375
    ks = (8, 10, 11, 17, 20, 23, 30, 32, 33, 36, 38, 40, 41, 43, 45, 48, 51,
          56, 57, 62, 64, 72, 74)
    for k in ks:
        code, out, _ = run_cli(
            capsys, "table", "--which", "Bk", "--k", str(k), "--rmax", "300"
        )
        assert code == 0
        kw = KGroupWeights(k)
        got = [line.split()[1] for line in out.splitlines()[3:]]
        want = ["0"] + [cli._fmt_cell(kw.B(r, 1)) for r in range(1, 301)]
        assert want[4 * (k - 1)] == "0.937"
        want[4 * (k - 1)] = "0.938"
        assert got == want, k


def test_table_maxh(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "maxh", "--rmax", "4", "--smax", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[3] == "0    1      0      0"
    assert lines[7] == "4    1      0.938  0.688"


def test_table_validation(capsys):
    code, _, _ = run_cli(capsys, "table", "--which", "Q")
    assert code == 2
    code, _, err = run_cli(capsys, "table", "--which", "B", "--k", "1")
    assert code == 2 and "--k" in err


def test_table_negative_rmax(capsys):
    assert run_cli(capsys, "table", "--which", "maxh", "--rmax", "-1") == (
        2, "", "error: --rmax and --smax must be nonnegative\n")


def refuse_budget_reads(monkeypatch, why: str):
    def refuse(r, s):
        raise AssertionError(f"budget value ({r}, {s}) read {why}")

    for name in ("B", "w", "C"):
        monkeypatch.setattr(cli, name, refuse)


def test_table_builds_budget_table_only_for_its_grids(monkeypatch, capsys):
    refuse_budget_reads(monkeypatch, "for a grid that prints none")
    code, out, _ = run_cli(capsys, "table", "--which", "Bk", "--rmax", "100")
    assert code == 0 and len(out.splitlines()) == 104
    code, out, _ = run_cli(
        capsys, "table", "--which", "maxh", "--rmax", "100", "--k", "3"
    )
    assert code == 0 and len(out.splitlines()) == 104


def test_table_size_caps(monkeypatch, capsys):
    refuse_budget_reads(monkeypatch, "for a capped table")
    for which, rmax in (("B", MAX_TABLE_CELLS), ("maxh", MAX_TABLE_CELLS),
                        ("C", 10**9)):
        code, out, err = run_cli(capsys, "table", "--which", which,
                                 "--rmax", str(rmax), "--smax", "0")
        assert code == 3 and out == ""
        assert f"cap of {MAX_TABLE_CELLS}" in err
    for which in ("Bk", "maxh"):
        code, out, err = run_cli(capsys, "table", "--which", which,
                                 "--rmax", str(MAX_TABLE_RMAX + 1), "--smax", "1")
        assert code == 3 and out == ""
        assert f"cap of {MAX_TABLE_RMAX}" in err


def test_table_matches_eager_build(monkeypatch, capsys):
    argv = ("table", "--which", "B", "--rmax", "90", "--smax", "40")
    code, lazy, _ = run_cli(capsys, *argv)
    assert code == 0
    eager = EagerBudgetTable(90)
    monkeypatch.setattr(cli, "B", eager.B)
    monkeypatch.setattr(cli, "w", eager.w)
    assert run_cli(capsys, *argv)[:2] == (0, lazy)


def test_table_builds_only_the_printed_columns(monkeypatch, capsys):
    read = set()

    def recording(exact):
        def cell(r, s):
            read.add(s)
            return exact(r, s)

        return cell

    monkeypatch.setattr(cli, "B", recording(cli.B))
    monkeypatch.setattr(cli, "w", recording(cli.w))
    code, out, _ = run_cli(
        capsys, "table", "--which", "B", "--rmax", "1200", "--smax", "3"
    )
    assert code == 0
    # sha256 of this table as printed by the eager build it replaced
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fa65326349421d00226c2d87e96559964f48e99fedee3e0bd504295ec66046d1"
    )
    assert read == {0, 1, 2, 3}


def test_table_beyond_default_cap(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--which", "B", "--rmax", "70", "--smax", "1"
    )
    assert code == 0
    assert out.splitlines()[73] == "70   1      1.000"


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_parsable_instance(tmp_path, capsys):
    out_path = tmp_path / "inst.json"
    code, out, _ = run_cli(
        capsys, "gen", "--spec", "all-subsets:r=2,s=1,k=2,m=2",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    doc = json.loads(out_path.read_text())
    assert len(doc["goods"]) == 4
    assert sum(e.get("count", 1) for e in doc["groups"][0]) == 6


@pytest.mark.parametrize("command", [
    ["gen", "--spec", "circle:k=2"],
    ["table", "--which", "B", "--rmax", "3", "--smax", "2"],
    ["check", "--instance", "{inst}", "--allocation", "{alloc}",
     "--criterion", "ef-1"],
    ["brute", "--spec", "three-good-cycle", "--criterion", "ef-1"],
    ["run", "--protocol", "rwav2", "--instance", "{inst}", *B1_ARGS, "--trace"],
], ids=lambda command: command[0])
def test_unwritable_out_exits_2(command, b1_path, tmp_path, capsys):
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"bundles": [["w", "x", "y"], ["v", "z"]]}')
    out_path = tmp_path / "missing" / "out.json"
    argv = [arg.format(inst=b1_path, alloc=alloc) for arg in command]
    code, out, err = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {out_path}: ")


def test_gen_member_cap(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--spec", "all-subsets:r=12,s=6,k=2,m=12"
    )
    assert code == 3 and "members" in err


@pytest.mark.parametrize(
    "spec, message",
    [
        # C(399996, 199998) has 120,000 digits: printing it raised; the
        # goods cap, checked first, refuses the family without it
        pytest.param("efc-limit:c=0,l=99999", "399996 goods, which exceeds",
                     id="efc-limit:c=0,l=99999"),
        # computing C(4000000, 2000000) took minutes
        pytest.param("all-subsets:r=2000000,s=1,k=2,m=2000000",
                     "4000000 goods, which exceeds",
                     id="all-subsets:r=2000000,s=1,k=2,m=2000000"),
        pytest.param("three-good-cycle:k=100000000000000000000",
                     f"more than {MAX_MEMBERS} members",
                     id="three-good-cycle:k=100000000000000000000"),
    ],
)
def test_gen_member_cap_needs_no_big_binomial(spec, message, capsys):
    code, out, err = run_cli(capsys, "gen", "--spec", spec)
    assert code == 3 and out == ""
    assert message in err


@pytest.mark.parametrize(
    "spec, message",
    [
        # one member per group desiring 2,000,000 goods
        ("all-subsets:r=2000000,s=1,k=2,m=1000000", "2000000 goods"),
        ("all-subsets:r=61,s=1,k=16,m=4", "40664064 desired entries"),
    ],
)
def test_gen_all_subsets_size_caps(spec, message, capsys):
    code, out, err = run_cli(capsys, "gen", "--spec", spec)
    assert code == 3 and out == "" and message in err


def test_gen_circle_cap(capsys):
    # k groups of 2k - 1 members wanting k goods each: 79 is the last k
    # within MAX_MEMBERS desired entries
    code, out, err = run_cli(capsys, "gen", "--spec", "circle:k=80")
    assert code == 3 and out == ""
    assert f"exceeds the cap of {MAX_MEMBERS}" in err


# ---------------------------------------------------------------------------
# console script


@pytest.fixture
def groupfair_script(tmp_path, monkeypatch):
    """Put this checkout's ``groupfair`` console script first on ``PATH``.

    The script is the standard wrapper an installer writes for the
    ``groupfair`` entry of ``[project.scripts]``; a missing entry, or one
    naming a callable that does not exist, makes the test fail.
    """
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    entry = EntryPoint("groupfair", scripts["groupfair"], "console_scripts")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / entry.name
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {entry.module} import {entry.attr}\n"
        f"sys.exit({entry.attr}())\n"
    )
    script.chmod(0o755)
    for var, first in (("PATH", bin_dir), ("PYTHONPATH", ROOT / "src")):
        rest = os.environ.get(var)
        monkeypatch.setenv(
            var, os.pathsep.join([str(first), rest]) if rest else str(first)
        )


@pytest.mark.usefixtures("groupfair_script")
def test_script_entry_point(b1_path):
    result = subprocess.run(
        ["groupfair", "run", "--protocol", "rwav2", "--instance", b1_path,
         *B1_ARGS, "--trace"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert result.stdout == (DATA / "b1_trace.txt").read_text()
    assert result.stderr == ""


def test_script_byte_determinism(b1_path):
    cmd = [
        sys.executable, "-m", "groupfair.cli", "run", "--protocol",
        "best-k", "--instance", b1_path,
    ]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# ---------------------------------------------------------------------------
# start-up


NO_NUMPY = """
import sys
from groupfair import cli
from groupfair.cli import main

path, alloc = sys.argv[1:]
for argv in (
    ["run", "--protocol", "rwav2", "--instance", path, "--criterion", "ef-1"],
    ["run", "--protocol", "cwav2", "--instance", path, "--criterion", "ef-1",
     "--seed", "1"],
    ["check", "--instance", path, "--allocation", alloc, "--criterion", "mms"],
    ["gen", "--spec", "all-subsets:r=2,s=1,k=2,m=2"],
    ["table", "--which", "w", "--rmax", "5", "--smax", "3"],
):
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules if name.split(".")[0] == "numpy"))
"""


def test_only_brute_loads_numpy(b1_path, tmp_path):
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"bundles": [["w", "x", "y"], ["v", "z"]]}')
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY, b1_path, str(alloc)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


COLD_PATH = """
import sys
from groupfair import budgets
from groupfair.cli import main

path, alloc = sys.argv[1:]
for argv in (
    ["--help"],
    ["check", "--instance", path, "--allocation", alloc, "--criterion", "ef-1"],
    ["gen", "--spec", "all-subsets:r=2,s=1,k=2,m=2"],
):
    assert main(argv) == 0, argv
print("concurrent.futures" in sys.modules, budgets._below.cache_info().currsize)
"""


def test_cold_path_builds_no_table_and_no_thread_pool(b1_path, tmp_path):
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"bundles": [["w", "x", "y"], ["v", "z"]]}')
    result = subprocess.run(
        [sys.executable, "-c", COLD_PATH, b1_path, str(alloc)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    # no budget value was read
    assert result.stdout.splitlines()[-1] == "False 0"


def _imported_modules(*args) -> set:
    """The modules a fresh ``python -X importtime ARGS`` imports."""
    result = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    return {
        line.rpartition("|")[2].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize(
    "args", [("-m", "groupfair.cli", "--help"), ("-c", "import groupfair.cli")],
    ids=["help", "import"],
)
def test_startup_skips_dataclasses_and_inspect(args):
    imported = _imported_modules(*args)
    assert "groupfair.budgets" in imported  # the listing is complete
    assert not imported & {"dataclasses", "inspect"}


COMMAND_MODULES = """
import contextlib, io, json, sys
from types import ModuleType
from groupfair.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
names = ("model", "fairness", "protocols", "oracles")
unloaded = [n for n in names if type(sys.modules["groupfair." + n]) is not ModuleType]
print(json.dumps({"code": code, "unloaded": unloaded, "numpy": "numpy" in sys.modules}))
"""


#: per command, what it loads beyond ``errors`` and ``budgets``, in
#: README's start-up table's order
COMMAND_LOADS = {
    "--help": [],
    "table": [],
    "check": ["model", "fairness"],
    "run": ["model", "fairness", "protocols"],
    "gen": ["model", "oracles"],
    "brute": ["model", "fairness", "oracles", "numpy"],
}


@pytest.mark.parametrize(
    "command",
    [
        ["--help"],
        ["table", "--which", "maxh"],
        ["check", "--instance", "B1", "--allocation", "ALLOC", "--criterion", "ef-1"],
        ["run", "--protocol", "rwav2", "--instance", "B1", *B1_ARGS, "--trace"],
        ["gen", "--spec", "efc-limit:c=1,l=2"],
        ["brute", "--instance", "B1", "--criterion", "ef-1"],
        # four blocks of 2^16 allocations: the pool runs after every load
        ["brute", "--spec", "all-subsets:r=2,s=1,k=2,m=9", "--criterion",
         "1-out-of-2-mms", "--workers", "2"],
    ],
    ids=["help", "table", "check", "run", "gen", "brute", "brute-workers"],
)
def test_each_command_loads_only_its_modules(command, b1_path, tmp_path):
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"bundles": [["w", "x", "y"], ["v", "z"]]}')
    argv = [{"B1": b1_path, "ALLOC": str(alloc)}.get(a, a) for a in command]
    result = subprocess.run(
        [sys.executable, "-c", COMMAND_MODULES, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    doc = json.loads(result.stdout)
    loads = COMMAND_LOADS[argv[0]]
    assert doc == {
        "code": 0,
        "unloaded": [n for n in ("model", "fairness", "protocols", "oracles")
                     if n not in loads],
        "numpy": "numpy" in loads,
    }


def test_readme_startup_table_matches_the_loader_test():
    readme = (ROOT / "README.md").read_text()
    table = readme.split("| command | also loads |\n|---|---|\n")[1].split("\n\n")[0]
    listed = {}
    for row in table.splitlines():
        commands, loads = row.strip("| ").split(" | ")
        for command in re.findall(r"`(.*?)`", commands):
            listed[command] = [] if loads == "nothing" else re.findall(r"[\w.]+", loads)
    assert listed == COMMAND_LOADS


@pytest.mark.parametrize("command", ["", "run", "check", "brute", "table", "gen"])
def test_help_matches_golden(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    code, out, err = run_cli(capsys, *filter(None, [command]), "--help")
    assert (code, err) == (0, "")
    assert out == (DATA / f"help_{command or 'groupfair'}.txt").read_text()


def test_package_generates_no_code():
    # the builtins exec/eval/compile, not a method such as re.compile
    call = re.compile(r"(?<![\w.])(exec|eval|compile)\(")
    for path in sorted((ROOT / "src" / "groupfair").glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            assert not call.search(line), f"{path.name}:{number}: {line.strip()}"
