"""groupfair: democratically fair allocation of indivisible goods to groups.

A group is treated fairly when a large enough share of its members
individually consider the allocation fair.  The package provides:

* exact budget/weight tables driving the picking protocols (:mod:`budgets`),
* the instance / allocation data model with a JSON format (:mod:`model`),
* fairness criteria and per-member checkers (:mod:`fairness`),
* the allocation protocols with full audit traces (:mod:`protocols`),
* brute-force oracles and adversarial instance generators (:mod:`oracles`),
* a command line front end (:mod:`cli`).

Importing the package runs none of these modules.  Each public name below
is imported from its module on first access (PEP 562), so a caller pays
only for the modules it uses.
"""

#: Each public name, by the module that defines it.
_EXPORTS = {
    "budgets": (
        "B", "B_closed", "BudgetTable", "C", "KGroupWeights", "maxh",
        "maxh_finite", "w", "w_C",
    ),
    "errors": ("CapExceededError", "FormatError"),
    "fairness": (
        "EFc", "FairnessReport", "FractionMMS", "MMS", "OneOfBestC",
        "OneOutOfCMMS", "PositiveMMS", "PROPc", "SFunction", "check",
        "democratic_report", "mms_share", "parse_criteria", "parse_criterion",
        "s_threshold",
    ),
    "model": (
        "AdditiveValuation", "Agent", "Allocation", "BinaryValuation",
        "Bundle", "Instance", "TabularValuation", "binarize_instance",
        "bundles_of", "parse_allocation", "parse_instance",
        "serialize_allocation", "serialize_instance",
    ),
    "oracles": (
        "ExistsResult", "OracleResult", "exists_h", "generate", "max_h",
        "parse_spec", "verify_negative",
    ),
    "protocols": (
        "RunResult", "best_k_protocol", "cwav2", "identical_local_search",
        "line2", "linek", "rwav2", "rwav2_enhanced", "rwavk",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    import importlib

    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
