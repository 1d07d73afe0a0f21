"""groupfair: democratically fair allocation of indivisible goods to groups.

A group is treated fairly when a large enough share of its members
individually consider the allocation fair.  The package provides:

* exact budget/weight tables driving the picking protocols (:mod:`budgets`),
* the instance / allocation data model with a JSON format (:mod:`model`),
* fairness criteria and per-member checkers (:mod:`fairness`),
* the allocation protocols with full audit traces (:mod:`protocols`),
* brute-force oracles and adversarial instance generators (:mod:`oracles`),
* a command line front end (:mod:`cli`).
"""

from .budgets import (
    B,
    B_closed,
    BudgetTable,
    C,
    KGroupWeights,
    maxh,
    maxh_finite,
    w,
    w_C,
)
from .errors import CapExceededError, FormatError
from .fairness import (
    EFc,
    FairnessReport,
    FractionMMS,
    MMS,
    OneOfBestC,
    OneOutOfCMMS,
    PositiveMMS,
    PROPc,
    SFunction,
    check,
    democratic_report,
    mms_share,
    parse_criteria,
    parse_criterion,
    s_threshold,
)
from .model import (
    AdditiveValuation,
    Agent,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    TabularValuation,
    binarize_instance,
    bundles_of,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
)
from .oracles import (
    ExistsResult,
    OracleResult,
    exists_h,
    generate,
    max_h,
    parse_spec,
    verify_negative,
)
from .protocols import (
    RunResult,
    best_k_protocol,
    cwav2,
    identical_local_search,
    line2,
    linek,
    rwav2,
    rwav2_enhanced,
    rwavk,
)

__version__ = "0.1.0"
