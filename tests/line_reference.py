"""Loop-by-loop reference for the line protocols.

These are the two block-claiming loops :func:`groupfair.protocols.line2`
and :func:`groupfair.protocols.linek` ran before they shared one loop:
``line2`` polls both groups with an EF1 predicate against the complement,
``linek`` polls the active groups with a PROP-(k-1) predicate.  The
property test in ``test_protocols.py`` requires the shared loop to agree
with them on every output field, trace records included.
"""

from __future__ import annotations

from fractions import Fraction

from groupfair.fairness import EFc, PROPc, democratic_report, efc_holds, propc_holds
from groupfair.model import Allocation, Bundle, Instance
from groupfair.protocols import (
    LineTrace,
    PrefixRecord,
    ProtocolInvariantError,
    RunResult,
)


def reference_line2(inst: Instance) -> RunResult:
    """Cut-and-choose along the good order: half of each group gets EF1.

    A left block grows one good at a time (in the instance's ``order``).
    After every step each agent is asked whether the left block versus its
    complement would be EF1 for them; as soon as half of some group says
    yes (group 1 wins ties), that group takes the left block and the other
    group takes the rest.
    """
    if inst.k != 2:
        raise ValueError("line2 needs exactly two groups")
    criterion = EFc(1)
    order = list(inst.order)
    left: list = []
    records = []
    while True:
        left_bundle = Bundle.from_indices(left, inst.m)
        right_bundle = left_bundle.complement()
        right = [g for g in order if g not in left]
        counts = []
        claimed = None
        for g, grp in enumerate(inst.groups):
            yes = sum(
                1
                for agent in grp
                if efc_holds(agent.valuation, left_bundle, (right_bundle,), 1)
            )
            counts.append((g, yes, len(grp)))
            if 2 * yes >= len(grp):
                claimed = g
                break
        records.append(
            PrefixRecord(tuple(left), tuple(right), tuple(counts), claimed)
        )
        if claimed is not None:
            other = 1 - claimed
            bundles = [None, None]
            bundles[claimed] = left_bundle
            bundles[other] = right_bundle
            alloc = Allocation.from_bundles(bundles)
            report = democratic_report(inst, alloc, (criterion, criterion))
            bound = Fraction(1, 2)
            return RunResult(
                protocol="line2",
                allocation=alloc,
                report=report,
                guarantees=(bound, bound),
                criteria=(criterion, criterion),
                trace=LineTrace("line2", "EF1", tuple(records), other),
            )
        if not right:
            raise ProtocolInvariantError("line2 exhausted goods without a claim")
        left.append(right[0])


def reference_linek(inst: Instance) -> RunResult:
    """Left-to-right block claiming: 1/k of each group gets PROP(k-1).

    The block grows along the good order; an active group claims it as soon
    as 1/k of its members find the block PROP(k-1) (benchmarked against all
    goods and the original k, lowest group index wins ties).  A claiming
    group leaves with the block, the block restarts empty, and the last
    active group takes whatever remains.
    """
    k = inst.k
    if k < 2:
        raise ValueError("linek needs at least two groups")
    criterion = PROPc(k - 1)
    remaining = list(inst.order)
    active = list(range(k))
    bundles = [None] * k
    left: list = []
    records = []
    while len(active) > 1:
        left_bundle = Bundle.from_indices(left, inst.m)
        right = [g for g in remaining if g not in left]
        counts = []
        claimed = None
        for g in active:
            grp = inst.groups[g]
            yes = sum(
                1
                for agent in grp
                if propc_holds(agent.valuation, left_bundle, k, k - 1)
            )
            counts.append((g, yes, len(grp)))
            if k * yes >= len(grp):
                claimed = g
                break
        records.append(
            PrefixRecord(tuple(left), tuple(right), tuple(counts), claimed)
        )
        if claimed is not None:
            bundles[claimed] = left_bundle
            active.remove(claimed)
            remaining = right
            left = []
            continue
        if not right:
            raise ProtocolInvariantError("linek exhausted goods without a claim")
        left.append(right[0])
    last = active[0]
    bundles[last] = Bundle.from_indices(remaining, inst.m)
    alloc = Allocation.from_bundles(bundles)
    report = democratic_report(inst, alloc, criterion)
    bound = Fraction(1, k)
    return RunResult(
        protocol="linek",
        allocation=alloc,
        report=report,
        guarantees=(bound,) * k,
        criteria=(criterion,) * k,
        trace=LineTrace("linek", f"PROP-{k - 1}", tuple(records), last),
    )
