"""The package namespace: ``import groupfair`` runs no submodule, and each
public name resolves, on first access, to the same object its module
defines."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import groupfair

ROOT = Path(__file__).resolve().parents[1]

#: Every name ``groupfair/__init__.py`` imported eagerly, by module.
EAGER_EXPORTS = {
    "budgets": ["B", "B_closed", "BudgetTable", "C", "KGroupWeights", "maxh",
                "maxh_finite", "w", "w_C"],
    "errors": ["CapExceededError", "FormatError"],
    "fairness": ["EFc", "FairnessReport", "FractionMMS", "MMS", "OneOfBestC",
                 "OneOutOfCMMS", "PositiveMMS", "PROPc", "SFunction", "check",
                 "democratic_report", "mms_share", "parse_criteria",
                 "parse_criterion", "s_threshold"],
    "model": ["AdditiveValuation", "Agent", "Allocation", "BinaryValuation",
              "Bundle", "Instance", "TabularValuation", "binarize_instance",
              "bundles_of", "parse_allocation", "parse_instance",
              "serialize_allocation", "serialize_instance"],
    "oracles": ["ExistsResult", "OracleResult", "exists_h", "generate", "max_h",
                "parse_spec", "verify_negative"],
    "protocols": ["RunResult", "best_k_protocol", "cwav2",
                  "identical_local_search", "line2", "linek", "rwav2",
                  "rwav2_enhanced", "rwavk"],
}
NAMES = [(module, name) for module, names in EAGER_EXPORTS.items() for name in names]


@pytest.mark.parametrize("module, name", NAMES, ids=[n for _, n in NAMES])
def test_each_export_is_its_module_object(module, name):
    assert getattr(groupfair, name) is getattr(
        importlib.import_module(f"groupfair.{module}"), name
    )


@pytest.mark.parametrize("module", EAGER_EXPORTS)
def test_submodules_are_attributes(module):
    assert getattr(groupfair, module) is importlib.import_module(f"groupfair.{module}")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from groupfair import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(name for _, name in NAMES)
    assert all(namespace[name] is getattr(groupfair, name) for _, name in NAMES)


def test_dir_lists_exports_and_submodules():
    listed = dir(groupfair)
    assert listed == sorted(listed)
    assert {name for _, name in NAMES} | set(EAGER_EXPORTS) <= set(listed)
    assert "__version__" in listed


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        groupfair.nope
    assert not hasattr(groupfair, "Dyadic")  # deleted, not aliased
    with pytest.raises(ImportError):
        exec("from groupfair import nope", {})


def test_import_runs_no_submodule():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, groupfair; print(groupfair.__version__,"
         " sorted(m for m in sys.modules if m.startswith('groupfair')))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split(" ", 1) == ["0.1.0", "['groupfair']\n"]


def test_exports_resolve_through_the_cli_lazy_modules():
    # importing the CLI registers model, fairness, protocols and oracles unloaded
    script = """
import groupfair, groupfair.cli, sys
from types import ModuleType
assert type(sys.modules["groupfair.model"]) is not ModuleType
assert type(sys.modules["groupfair.protocols"]) is not ModuleType
parse = groupfair.parse_instance
assert type(sys.modules["groupfair.model"]) is ModuleType
assert parse is groupfair.model.parse_instance is groupfair.cli.model.parse_instance
rwav2 = groupfair.rwav2
assert type(sys.modules["groupfair.protocols"]) is ModuleType
assert rwav2 is groupfair.protocols.rwav2 is groupfair.cli.protocols.rwav2
assert groupfair.max_h is sys.modules["groupfair.oracles"].max_h
"""
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert result.returncode == 0, result.stderr
