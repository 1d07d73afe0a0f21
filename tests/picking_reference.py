"""Loop-by-loop reference for the two-group picking protocols.

These are the straightforward ``Dyadic`` implementations of ``rwav2`` and
``cwav2``: every turn re-sums the acting group's member weights for every
remaining good, and the payment ledger is kept in ``Dyadic`` numbers.  The
property tests in ``test_picking_engine.py`` require the integer-ledger
engine in :mod:`groupfair.protocols` to agree with them on every output
field, trace records included.
"""

from __future__ import annotations

import random
from fractions import Fraction

from groupfair import budgets
from groupfair.budgets import Dyadic
from groupfair.fairness import SFunction, democratic_report, per_group_criteria
from groupfair.model import Allocation, Instance
from groupfair.protocols import (
    ProtocolInvariantError,
    ProtocolTrace,
    RunResult,
    TurnRecord,
    _desired_masks,
    _require_binary,
)


def reference_rwav2(inst: Instance, criterion, first_group: int = 0, table=None) -> RunResult:
    """Round-robin with weighted approval voting for two binary groups.

    Groups alternate turns starting with ``first_group``.  On its turn a
    group weighs every member at ``w(r, s)`` -- ``r`` desired goods still
    available, ``s`` still needed -- and takes the remaining good with the
    largest total weight (ties to the lowest good index).  ``criterion``
    (one, or a pair for per-group targets) fixes each member's initial need
    via its binary threshold ``s(r)``.

    Claimed bounds: the group playing first is happy for at least
    ``min_j B(r_j, s(r_j))`` of its members, the other for at least
    ``min_j B(r_j - 1, s(r_j))``.
    """
    if inst.k != 2:
        raise ValueError("rwav2 needs exactly two groups")
    _require_binary(inst, "rwav2")
    if first_group not in (0, 1):
        raise ValueError("first_group must be 0 or 1")
    crits = per_group_criteria(criterion, 2)
    sfuncs = tuple(SFunction(c, 2) for c in crits)
    tbl = table if table is not None else budgets.DEFAULT_TABLE

    desired = _desired_masks(inst)
    r = [[mask.bit_count() for mask in grp] for grp in desired]
    r0 = [list(grp) for grp in r]
    s = [[sfuncs[g](rj) for rj in grp] for g, grp in enumerate(r)]
    s0 = [list(grp) for grp in s]
    bal = [[-tbl.B(r[g][j], s[g][j]) for j in range(len(grp))]
           for g, grp in enumerate(desired)]
    group_bal = [
        sum((tbl.B(r[g][j], s[g][j]) for j in range(len(grp))), Dyadic(0))
        for g, grp in enumerate(desired)
    ]

    remaining = list(range(inst.m))
    assignment = [None] * inst.m
    turns = []
    for turn in range(1, inst.m + 1):
        g = first_group if turn % 2 == 1 else 1 - first_group
        member_states = tuple(
            (r[g][j], s[g][j], tbl.w(r[g][j], s[g][j]))
            for j in range(len(desired[g]))
        )
        good_weights = []
        for good in remaining:
            bit = 1 << good
            total = Dyadic(0)
            for j, mask in enumerate(desired[g]):
                if mask & bit:
                    total = total + member_states[j][2]
            good_weights.append((good, total))
        pick, best = good_weights[0]
        for good, weight in good_weights[1:]:
            if weight > best:
                pick, best = good, weight
        bit = 1 << pick
        for gg in range(2):
            for j, mask in enumerate(desired[gg]):
                if not mask & bit:
                    continue
                rj, sj = r[gg][j], s[gg][j]
                if gg == g:
                    pay = max(tbl.w(rj, sj), tbl.w(rj - 1, sj - 1))
                    bal[gg][j] = bal[gg][j] - pay
                    group_bal[gg] = group_bal[gg] + pay
                    s[gg][j] = max(0, sj - 1)
                else:
                    refund = tbl.w(rj, sj)
                    bal[gg][j] = bal[gg][j] + refund
                    group_bal[gg] = group_bal[gg] - refund
                r[gg][j] = rj - 1
                if bal[gg][j] != -tbl.B(r[gg][j], s[gg][j]):
                    raise ProtocolInvariantError(
                        f"agent {gg + 1}.{j + 1} balance {bal[gg][j]} != "
                        f"-B({r[gg][j]}, {s[gg][j]}) after turn {turn}"
                    )
        assignment[pick] = g
        turns.append(
            TurnRecord(
                turn=turn,
                group=g,
                remaining=tuple(remaining),
                member_states=member_states,
                good_weights=tuple(good_weights),
                pick=pick,
                group_balances=tuple(group_bal),
                agent_balances=tuple(tuple(grp) for grp in bal),
            )
        )
        remaining.remove(pick)

    happy = [sum(1 for sj in grp if sj == 0) for grp in s]
    for g in range(2):
        if group_bal[g] != happy[g]:
            raise ProtocolInvariantError(
                f"group {g + 1} final balance {group_bal[g]} != happy {happy[g]}"
            )
    alloc = Allocation(tuple(assignment), 2)
    report = democratic_report(inst, alloc, crits)
    guarantees = []
    for g in range(2):
        if g == first_group:
            bound = min(
                tbl.B(r0[g][j], s0[g][j]).as_fraction()
                for j in range(len(desired[g]))
            )
        else:
            bound = min(
                tbl.B(r0[g][j] - 1, s0[g][j]).as_fraction()
                for j in range(len(desired[g]))
            )
        guarantees.append(bound)
    return RunResult(
        protocol="rwav2",
        allocation=alloc,
        report=report,
        guarantees=tuple(guarantees),
        criteria=crits,
        trace=ProtocolTrace("rwav2", tuple(turns)),
    )


def reference_cwav2(inst: Instance, criterion, seed: int) -> RunResult:
    """Coin-flip weighted approval voting for two binary groups.

    Like :func:`rwav2`, but each turn a seeded fair coin chooses the acting
    group and the weights come from the averaged budget ``C(r, s)``.  The
    run is deterministic given the seed.  Per-run guarantees are 0 (a
    losing coin sequence can starve a group); in expectation each group's
    happy fraction is at least ``min_j C(r_j, s(r_j))``, reported via
    ``expected_guarantees``.
    """
    if inst.k != 2:
        raise ValueError("cwav2 needs exactly two groups")
    _require_binary(inst, "cwav2")
    crits = per_group_criteria(criterion, 2)
    sfuncs = tuple(SFunction(c, 2) for c in crits)
    tbl = budgets.DEFAULT_TABLE
    rng = random.Random(seed)

    desired = _desired_masks(inst)
    r = [[mask.bit_count() for mask in grp] for grp in desired]
    r0 = [list(grp) for grp in r]
    s = [[sfuncs[g](rj) for rj in grp] for g, grp in enumerate(r)]
    s0 = [list(grp) for grp in s]
    bal = [[-tbl.C(r[g][j], s[g][j]) for j in range(len(grp))]
           for g, grp in enumerate(desired)]
    group_bal = [
        sum((tbl.C(r[g][j], s[g][j]) for j in range(len(grp))), Dyadic(0))
        for g, grp in enumerate(desired)
    ]

    remaining = list(range(inst.m))
    assignment = [None] * inst.m
    turns = []
    for turn in range(1, inst.m + 1):
        g = rng.randrange(2)
        member_states = tuple(
            (r[g][j], s[g][j], tbl.w_C(r[g][j], s[g][j]))
            for j in range(len(desired[g]))
        )
        good_weights = []
        for good in remaining:
            bit = 1 << good
            total = Dyadic(0)
            for j, mask in enumerate(desired[g]):
                if mask & bit:
                    total = total + member_states[j][2]
            good_weights.append((good, total))
        pick, best = good_weights[0]
        for good, weight in good_weights[1:]:
            if weight > best:
                pick, best = good, weight
        bit = 1 << pick
        for gg in range(2):
            for j, mask in enumerate(desired[gg]):
                if not mask & bit:
                    continue
                rj, sj = r[gg][j], s[gg][j]
                delta = tbl.w_C(rj, sj)
                if gg == g:
                    bal[gg][j] = bal[gg][j] - delta
                    group_bal[gg] = group_bal[gg] + delta
                    s[gg][j] = max(0, sj - 1)
                else:
                    bal[gg][j] = bal[gg][j] + delta
                    group_bal[gg] = group_bal[gg] - delta
                r[gg][j] = rj - 1
                if bal[gg][j] != -tbl.C(r[gg][j], s[gg][j]):
                    raise ProtocolInvariantError(
                        f"agent {gg + 1}.{j + 1} balance {bal[gg][j]} != "
                        f"-C({r[gg][j]}, {s[gg][j]}) after turn {turn}"
                    )
        assignment[pick] = g
        turns.append(
            TurnRecord(
                turn=turn,
                group=g,
                remaining=tuple(remaining),
                member_states=member_states,
                good_weights=tuple(good_weights),
                pick=pick,
                group_balances=tuple(group_bal),
                agent_balances=tuple(tuple(grp) for grp in bal),
            )
        )
        remaining.remove(pick)

    happy = [sum(1 for sj in grp if sj == 0) for grp in s]
    for g in range(2):
        if group_bal[g] != happy[g]:
            raise ProtocolInvariantError(
                f"group {g + 1} final balance {group_bal[g]} != happy {happy[g]}"
            )
    alloc = Allocation(tuple(assignment), 2)
    report = democratic_report(inst, alloc, crits)
    expected = tuple(
        min(
            tbl.C(r0[g][j], s0[g][j]).as_fraction()
            for j in range(len(desired[g]))
        )
        for g in range(2)
    )
    return RunResult(
        protocol="cwav2",
        allocation=alloc,
        report=report,
        guarantees=(Fraction(0), Fraction(0)),
        criteria=crits,
        trace=ProtocolTrace("cwav2", tuple(turns)),
        expected_guarantees=expected,
    )
