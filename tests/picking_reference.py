"""Loop-by-loop reference for the picking protocols.

These are the straightforward implementations of ``rwav2``, ``cwav2`` and
``rwavk``: every turn re-sums the acting group's member weights for every
remaining good.  The two-group ledger is kept in ``Fraction`` numbers; the
``k``-group one in exact vectors over ``Q(L)``, ``L = 2**(1/(k-1))``,
ordered by interval bounds on ``L`` refined until the sign is certain.
The property tests in ``test_picking_engine.py`` require the integer-ledger
engine in :mod:`groupfair.protocols` to agree with them on every output
field, trace records included.
"""

from __future__ import annotations

import functools
import random
import warnings
from fractions import Fraction

from groupfair import budgets
from groupfair.budgets import KGroupWeights
from groupfair.fairness import (
    OneOfBestC,
    SFunction,
    democratic_report,
    per_group_criteria,
)
from groupfair.model import Allocation, Instance
from groupfair.protocols import (
    ProtocolInvariantError,
    ProtocolTrace,
    RunResult,
    TurnRecord,
    _desired_masks,
)


def _require_binary(inst: Instance, protocol: str):
    if not inst.is_binary():
        raise ValueError(
            f"{protocol} works on binary agents only; binarize explicitly first"
        )


def reference_rwav2(inst: Instance, criterion, first_group: int = 0) -> RunResult:
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
    tbl = budgets.DEFAULT_TABLE

    desired = _desired_masks(inst)
    r = [[mask.bit_count() for mask in grp] for grp in desired]
    r0 = [list(grp) for grp in r]
    s = [[sfuncs[g](rj) for rj in grp] for g, grp in enumerate(r)]
    s0 = [list(grp) for grp in s]
    bal = [[-tbl.B(r[g][j], s[g][j]) for j in range(len(grp))]
           for g, grp in enumerate(desired)]
    group_bal = [
        sum((tbl.B(r[g][j], s[g][j]) for j in range(len(grp))), Fraction(0))
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
            total = Fraction(0)
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
                tbl.B(r0[g][j], s0[g][j])
                for j in range(len(desired[g]))
            )
        else:
            bound = min(
                tbl.B(r0[g][j] - 1, s0[g][j])
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
        sum((tbl.C(r[g][j], s[g][j]) for j in range(len(grp))), Fraction(0))
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
            total = Fraction(0)
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
            tbl.C(r0[g][j], s0[g][j])
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


# ---------------------------------------------------------------------------
# k-group RWAV in exact arithmetic
#
# A number of Q(L), L = 2**(1/d), is a tuple of d Fractions: the
# coefficients of 1, L, ..., L**(d-1).


def _l_power(j: int, d: int) -> tuple:
    """``L**-j`` as a coefficient vector: ``-j = d*q + t`` gives ``2**q * L**t``."""
    q, t = divmod(-j, d)
    return tuple(Fraction(2) ** q if i == t else Fraction(0) for i in range(d))


def _add(x: tuple, y: tuple) -> tuple:
    return tuple(a + b for a, b in zip(x, y))


def _neg(x: tuple) -> tuple:
    return tuple(-a for a in x)


def _floor_root(n: int, d: int) -> int:
    """``floor(n ** (1/d))``, by bisection."""
    lo, hi = 0, 1 << (n.bit_length() // d + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**d <= n else (lo, mid)
    return lo


@functools.lru_cache(maxsize=None)
def _power_bounds(t: int, d: int, bits: int) -> tuple:
    """Fractions ``below <= L**t <= above``, ``bits`` bits apart (equal at t=0)."""
    below = Fraction(_floor_root(1 << (t + d * bits), d), 1 << bits)
    return below, below if t == 0 else below + Fraction(1, 1 << bits)


def _bounds(x: tuple, bits: int) -> tuple:
    """Fractions ``lo <= x <= hi`` from ``L**t`` known to ``bits`` bits."""
    lo = hi = Fraction(0)
    for t, a in enumerate(x):
        below, above = _power_bounds(t, len(x), bits)
        lo += a * (below if a >= 0 else above)
        hi += a * (above if a >= 0 else below)
    return lo, hi


def _sign(x: tuple) -> int:
    """The exact sign of ``x``: ``X**d - 2`` is irreducible, so a nonzero
    vector is a nonzero number and some precision separates it from 0."""
    if not any(x):
        return 0
    bits = 32
    while True:
        lo, hi = _bounds(x, bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        bits *= 2


def _to_float(x: tuple) -> float:
    """The correctly rounded float of ``x``: rounding is monotone, so once
    both bounds round alike the exact value rounds to the same float."""
    bits = 64
    while True:
        lo, hi = _bounds(x, bits)
        if float(lo) == float(hi):
            return float(lo)
        bits *= 2


def reference_rwavk(inst: Instance, c: int) -> RunResult:
    """Round-robin weighted approval voting for ``k`` binary groups, with
    every member weight, good weight and balance an exact vector over
    ``Q(L)`` and the trace's floats rounded once from the exact values."""
    k = inst.k
    if k < 2:
        raise ValueError("rwavk needs at least two groups")
    _require_binary(inst, "rwavk")
    if c < k:
        warnings.warn(
            f"rwavk with c={c} < k={k}: guarantees degenerate to 0 for later groups",
            stacklevel=2,
        )
    kw = KGroupWeights(k)
    criterion = OneOfBestC(c)
    d = k - 1
    zero = (Fraction(0),) * d
    one = _l_power(0, d)

    def B(r: int, s: int) -> tuple:
        return _add(one, _neg(_l_power(r, d))) if s == 1 else one

    def w(r: int, s: int) -> tuple:
        if s == 1 and r >= 1:
            return _add(_l_power(r - 1, d), _neg(_l_power(r, d)))
        return zero

    def truncate(mask: int) -> int:
        out = 0
        for i in range(inst.m):
            if mask >> i & 1 and out.bit_count() < c:
                out |= 1 << i
        return out

    desired = [[truncate(mask) for mask in grp] for grp in _desired_masks(inst)]
    r = [[mask.bit_count() for mask in grp] for grp in desired]
    s = [[1 if rj >= c else 0 for rj in grp] for grp in r]
    bal = [[_neg(B(r[g][j], s[g][j])) for j in range(len(grp))]
           for g, grp in enumerate(desired)]
    group_bal = [zero] * k
    for g, grp in enumerate(desired):
        for j in range(len(grp)):
            group_bal[g] = _add(group_bal[g], B(r[g][j], s[g][j]))

    remaining = list(range(inst.m))
    assignment = [None] * inst.m
    turns = []
    for turn in range(1, inst.m + 1):
        g = (turn - 1) % k
        member_w = [w(r[g][j], s[g][j]) for j in range(len(desired[g]))]
        good_weights = []
        for good in remaining:
            total = zero
            for j, mask in enumerate(desired[g]):
                if mask >> good & 1:
                    total = _add(total, member_w[j])
            good_weights.append((good, total))
        pick, best = good_weights[0]
        for good, weight in good_weights[1:]:
            if _sign(_add(weight, _neg(best))) > 0:
                pick, best = good, weight
        member_states = tuple(
            (r[g][j], s[g][j], _to_float(member_w[j]))
            for j in range(len(desired[g]))
        )
        for gg in range(k):
            for j, mask in enumerate(desired[gg]):
                if not mask >> pick & 1:
                    continue
                rj, sj = r[gg][j], s[gg][j]
                if gg == g:
                    pay = _add(one, _neg(B(rj, sj)))
                    bal[gg][j] = _add(bal[gg][j], _neg(pay))
                    group_bal[gg] = _add(group_bal[gg], pay)
                    s[gg][j] = 0
                else:
                    refund = w(rj, sj)
                    bal[gg][j] = _add(bal[gg][j], refund)
                    group_bal[gg] = _add(group_bal[gg], _neg(refund))
                r[gg][j] = rj - 1
                if bal[gg][j] != _neg(B(r[gg][j], s[gg][j])):
                    raise ProtocolInvariantError(
                        f"agent {gg + 1}.{j + 1} balance {_to_float(bal[gg][j])} "
                        f"!= -B_k({r[gg][j]}, {s[gg][j]}) after turn {turn}"
                    )
        assignment[pick] = g
        turns.append(
            TurnRecord(
                turn=turn,
                group=g,
                remaining=tuple(remaining),
                member_states=member_states,
                good_weights=tuple((i, _to_float(x)) for i, x in good_weights),
                pick=pick,
                group_balances=tuple(map(_to_float, group_bal)),
                agent_balances=tuple(tuple(map(_to_float, grp)) for grp in bal),
            )
        )
        remaining.remove(pick)

    for g in range(k):
        happy = sum(1 for sj in s[g] if sj == 0)
        if group_bal[g] != tuple(happy * a for a in one):
            raise ProtocolInvariantError(
                f"group {g + 1} final balance {_to_float(group_bal[g])} != happy {happy}"
            )
    alloc = Allocation(tuple(assignment), k)
    return RunResult(
        protocol="rwavk",
        allocation=alloc,
        report=democratic_report(inst, alloc, criterion),
        guarantees=tuple(max(0.0, kw.B(c - g, 1)) for g in range(k)),
        criteria=(criterion,) * k,
        trace=ProtocolTrace("rwavk", tuple(turns)),
    )
