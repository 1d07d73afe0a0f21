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
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from groupfair import cli
from groupfair.budgets import BudgetTable
from groupfair.cli import MAX_TABLE_CELLS, MAX_TABLE_RMAX, main
from groupfair.model import MAX_MEMBERS

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


@pytest.mark.parametrize("doc", [
    {"goods": [1, "a"],  # the concatenated-key fallback asks each good's length
     "groups": [[{"type": "tabular", "values": {"xy": 0}}]]},
    {"goods": ["a", "b"],  # sorting a mixed order compares str with int
     "groups": [[{"type": "binary", "desired": ["a"]}]], "order": ["a", 1]},
])
def test_non_string_goods_exit_2(doc, tmp_path, capsys):
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "run", "--protocol", "line2",
                             "--instance", str(path))
    assert (code, out, err) == (2, "", "error: bad good label 1\n")


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


def test_table_builds_budget_table_only_for_its_grids(monkeypatch, capsys):
    def refuse(rmax):
        raise AssertionError(f"BudgetTable({rmax}) built but never read")

    monkeypatch.setattr(cli, "BudgetTable", refuse)
    code, out, _ = run_cli(capsys, "table", "--which", "Bk", "--rmax", "100")
    assert code == 0 and len(out.splitlines()) == 104
    code, out, _ = run_cli(
        capsys, "table", "--which", "maxh", "--rmax", "100", "--k", "3"
    )
    assert code == 0 and len(out.splitlines()) == 104


def test_table_size_caps(monkeypatch, capsys):
    def refuse(rmax):
        raise AssertionError(f"BudgetTable({rmax}) built for a capped table")

    monkeypatch.setattr(cli, "BudgetTable", refuse)
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
    monkeypatch.setattr(cli, "BudgetTable", EagerBudgetTable)
    assert run_cli(capsys, *argv)[:2] == (0, lazy)


def test_table_builds_only_the_printed_columns(monkeypatch, capsys):
    built = []

    class Recording(BudgetTable):
        def __init__(self, r_max):
            super().__init__(r_max)
            built.append(self)

    monkeypatch.setattr(cli, "BudgetTable", Recording)
    code, out, _ = run_cli(
        capsys, "table", "--which", "B", "--rmax", "1200", "--smax", "3"
    )
    assert code == 0
    # sha256 of this table as printed by the eager build it replaced
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fa65326349421d00226c2d87e96559964f48e99fedee3e0bd504295ec66046d1"
    )
    assert [table.columns for table in built] == [4]


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


def test_gen_member_cap(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--spec", "all-subsets:r=12,s=6,k=2,m=12"
    )
    assert code == 3 and "members" in err


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
print("concurrent.futures" in sys.modules, budgets.DEFAULT_TABLE.columns)
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
    # the column s = 0 of all ones is there from the start
    assert result.stdout.splitlines()[-1] == "False 1"
