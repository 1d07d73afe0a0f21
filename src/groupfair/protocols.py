"""Allocation protocols with full audit traces and exact balance ledgers.

Every protocol returns a :class:`RunResult` bundling the allocation, a
democratic fairness report, the per-group lower bounds the protocol claims,
and (where meaningful) a trace detailed enough to replay the run by hand.

The picking protocols (:func:`rwav2`, :func:`rwavk`, :func:`cwav2`) maintain
the proof's fictitious payment ledger at runtime: each member starts by
paying its budget ``B(r, s)`` into the group account, pays again when its
group takes a good it wants, and is refunded when the opponent does.  The
ledger invariants (member balance always exactly ``-B(r, s)``; final group
account equal to the number of happy members) are re-checked on every turn
and raised as errors if violated, so a successful run certifies itself.

The two-group protocols share one loop, :func:`_weighted_approval`, which
keeps that ledger in plain ints: every budget, weight and payment is scaled
by ``2**R``, where ``R`` is the largest ``r`` in the run.  This is exact,
because ``B(r, s) * 2**r`` and ``C(r, s) * 2**r`` are integers (see
:func:`~groupfair.budgets.B_closed`) and ``r`` only falls during a run, so
the checks are int comparisons.  Each ``(r, s)`` is priced once per run,
and each group's per-good weight totals are updated incrementally: when a
pick changes a member's state, the member's weight change is added to the
remaining goods it wants.  The ``Dyadic`` values in the trace come from
that per-state memo, or are built from the ledger ints, so they equal the
ones the plain ``Dyadic`` arithmetic would give.  :func:`rwavk` keeps its
own float loop.
"""

from __future__ import annotations

import itertools
import operator
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from . import budgets
from .budgets import Dyadic, KGroupWeights
from .fairness import (
    EFc,
    FairnessReport,
    OneOfBestC,
    PROPc,
    SFunction,
    democratic_report,
    efc_holds,
    per_group_criteria,
    propc_holds,
)
from .model import (
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    binarize_instance,
    bundles_of,
)

__all__ = [
    "TurnRecord",
    "ProtocolTrace",
    "PrefixRecord",
    "LineTrace",
    "MoveRecord",
    "SearchTrace",
    "EnhancedSplit",
    "UnanimousStep",
    "BestKTrace",
    "RunResult",
    "rwav2",
    "rwav2_enhanced",
    "identical_local_search",
    "line2",
    "linek",
    "rwavk",
    "best_k_protocol",
    "cwav2",
]


# ---------------------------------------------------------------------------
# result and trace types


@dataclass(frozen=True)
class TurnRecord:
    """One picking turn, recorded before/after the pick.

    ``member_states`` holds (r, s, weight) for the acting group's members at
    decision time; ``good_weights`` the total weight of every remaining good
    (instance order); balances are post-turn.
    """

    turn: int
    group: int
    remaining: tuple
    member_states: tuple
    good_weights: tuple
    pick: int
    group_balances: tuple
    agent_balances: tuple


@dataclass(frozen=True)
class ProtocolTrace:
    """Turn-by-turn trace of a picking protocol run."""

    kind: str
    turns: tuple


@dataclass(frozen=True)
class PrefixRecord:
    """One evaluation step of a line protocol.

    ``counts`` lists (group, yes, size) for the groups polled at this
    prefix, in polling order, stopping at the claiming group (if any).
    """

    left: tuple
    right: tuple
    counts: tuple
    claimed_by: object = None


@dataclass(frozen=True)
class LineTrace:
    """Prefix-growth trace of line2/linek."""

    kind: str
    criterion_label: str
    records: tuple
    remainder_group: int


@dataclass(frozen=True)
class MoveRecord:
    good: int
    from_group: int
    to_group: int


@dataclass(frozen=True)
class SearchTrace:
    """Move list of the identical-groups local search."""

    kind: str
    moves: tuple


@dataclass(frozen=True)
class EnhancedSplit:
    """Record of the enhanced-RWAV shortcut: a near-unanimous good was
    handed to its group, everything else to the other group."""

    group: int
    good: int
    desiring: int
    counted: int


@dataclass(frozen=True)
class UnanimousStep:
    """One recursion step of the best-k protocol: group got its common good."""

    group: int
    good: int
    desiring: int
    size: int


@dataclass(frozen=True)
class BestKTrace:
    steps: tuple
    base: object  # RunResult of the final 2-group (or k-group RWAV) stage
    base_goods: tuple
    base_groups: tuple
    base_instance: object = None


@dataclass(frozen=True)
class RunResult:
    """Outcome of one protocol run.

    ``guarantees[i]`` is the happy-fraction lower bound the protocol claims
    for group ``i`` on this instance; ``report.fractions[i]`` must reach it
    whenever the protocol's preconditions held.  ``expected_guarantees`` is
    set only by the randomized protocol, whose per-run guarantee is 0 but
    whose expectation is bounded.
    """

    protocol: str
    allocation: Allocation
    report: FairnessReport
    guarantees: tuple
    criteria: tuple
    trace: object = None
    expected_guarantees: tuple = None

    @property
    def guarantee(self):
        return min(self.guarantees)


class ProtocolInvariantError(RuntimeError):
    """A runtime ledger/termination invariant failed (protocol bug)."""


def _require_binary(inst: Instance, protocol: str):
    if not inst.is_binary():
        raise ValueError(
            f"{protocol} works on binary agents only; binarize explicitly first"
        )


def _desired_masks(inst: Instance):
    return [
        [agent.valuation.desired.mask for agent in grp] for grp in inst.groups
    ]


# ---------------------------------------------------------------------------
# two-group RWAV


class _Price(NamedTuple):
    """What a member in state ``(r, s)`` is worth in one run: ledger values
    as ints scaled by ``2**R``, and the ``Dyadic`` values its trace shows."""

    budget: int
    weight: int
    pay: int
    balance: Dyadic  # -budget, the member's balance in the trace
    state: tuple  # (r, s, weight), the member's entry in the trace


_BALANCE = operator.attrgetter("balance")
_STATE = operator.attrgetter("state")


def _weighted_approval(inst: Instance, crits, kind: str, next_group, budget,
                       weight, pay):
    """The two-group weighted-approval picking loop behind :func:`rwav2` and
    :func:`cwav2`.

    ``next_group()`` is called once per turn and names the acting group.
    ``budget(r, s)`` and ``weight(r, s)`` give a member's budget and weight
    (the table's ``B``/``w`` or ``C``/``w_C``), and ``pay(r, s)`` what a
    member pays when its own group takes a good it wants; the other group's
    members are refunded their weight.  Returns the allocation, the trace
    and each group's starting ``(r, s)`` pairs.
    """
    sfuncs = tuple(SFunction(c, 2) for c in crits)
    desired = _desired_masks(inst)
    start = [[(mask.bit_count(), sfuncs[g](mask.bit_count())) for mask in grp]
             for g, grp in enumerate(desired)]
    R = max((rj for grp in start for rj, _ in grp), default=0)

    def scaled(value: Dyadic) -> int:
        if value.e > R:
            raise ProtocolInvariantError(
                f"{kind}: {value} is not a multiple of 2^-{R}"
            )
        return value.n << (R - value.e)

    prices = {}

    def price(rj: int, sj: int) -> _Price:
        key = (rj, sj)
        if key not in prices:
            b, wt = budget(rj, sj), weight(rj, sj)
            prices[key] = _Price(scaled(b), scaled(wt), scaled(pay(rj, sj)),
                                 -b, (rj, sj, wt))
        return prices[key]

    dyadics = {}

    def dyadic(value: int) -> Dyadic:
        """The trace's ``Dyadic`` for a ledger int."""
        if value not in dyadics:
            dyadics[value] = Dyadic(value, R)
        return dyadics[value]

    m = inst.m
    state = [[price(rj, sj) for rj, sj in grp] for grp in start]
    bal = [[-p.budget for p in grp] for grp in state]
    group_bal = [sum(p.budget for p in grp) for grp in state]
    # each member's desired goods still on the table; per group, the
    # members wanting each good and each good's total member weight
    goods_of = [[[i for i in range(m) if mask >> i & 1] for mask in grp]
                for grp in desired]
    wanted_by = [[[] for _ in range(m)] for _ in range(2)]
    good_weight = [[0] * m for _ in range(2)]
    for g in range(2):
        for j, goods in enumerate(goods_of[g]):
            for i in goods:
                wanted_by[g][i].append(j)
                good_weight[g][i] += state[g][j].weight

    remaining = list(range(m))
    assignment = [None] * m
    turns = []
    for turn in range(1, m + 1):
        g = next_group()
        weights = good_weight[g]
        member_states = tuple(map(_STATE, state[g]))
        good_weights = tuple((i, dyadic(weights[i])) for i in remaining)
        pick = max(remaining, key=weights.__getitem__)
        for gg in range(2):
            for j in wanted_by[gg][pick]:
                old = state[gg][j]
                rj, sj, _ = old.state
                if gg == g:
                    bal[gg][j] -= old.pay
                    group_bal[gg] += old.pay
                    sj = max(0, sj - 1)
                else:
                    bal[gg][j] += old.weight
                    group_bal[gg] -= old.weight
                new = state[gg][j] = price(rj - 1, sj)
                if bal[gg][j] != -new.budget:
                    raise ProtocolInvariantError(
                        f"agent {gg + 1}.{j + 1} balance {dyadic(bal[gg][j])} != "
                        f"-{budget.__name__}({rj - 1}, {sj}) after turn {turn}"
                    )
                goods = goods_of[gg][j]
                goods.remove(pick)
                delta = new.weight - old.weight
                if delta:
                    gw = good_weight[gg]
                    for i in goods:
                        gw[i] += delta
        assignment[pick] = g
        turns.append(
            TurnRecord(
                turn=turn,
                group=g,
                remaining=tuple(remaining),
                member_states=member_states,
                good_weights=good_weights,
                pick=pick,
                group_balances=tuple(map(dyadic, group_bal)),
                agent_balances=tuple(tuple(map(_BALANCE, grp)) for grp in state),
            )
        )
        remaining.remove(pick)

    for g in range(2):
        happy = sum(1 for p in state[g] if p.state[1] == 0)
        if group_bal[g] != happy << R:
            raise ProtocolInvariantError(
                f"group {g + 1} final balance {dyadic(group_bal[g])} != happy {happy}"
            )
    return Allocation(tuple(assignment), 2), ProtocolTrace(kind, tuple(turns)), start


def rwav2(inst: Instance, criterion, first_group: int = 0, table=None) -> RunResult:
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
    tbl = table if table is not None else budgets.DEFAULT_TABLE
    order = itertools.cycle((first_group, 1 - first_group))
    alloc, trace, start = _weighted_approval(
        inst, crits, "rwav2", order.__next__, tbl.B, tbl.w,
        lambda r, s: max(tbl.w(r, s), tbl.w(r - 1, s - 1)),
    )
    guarantees = tuple(
        min(tbl.B(r if g == first_group else r - 1, s) for r, s in start[g])
        .as_fraction()
        for g in range(2)
    )
    return RunResult(
        protocol="rwav2",
        allocation=alloc,
        report=democratic_report(inst, alloc, crits),
        guarantees=guarantees,
        criteria=crits,
        trace=trace,
    )


def rwav2_enhanced(inst: Instance, c: int = 2) -> RunResult:
    """RWAV with the near-unanimous-good shortcut; 1-of-best-``c`` target.

    Members wanting fewer than ``c`` goods are trivially satisfied and are
    ignored when testing the shortcut.  If at least ``(2^c - 1)/(2^c + 1)``
    of a group's counted members want one common good, that good alone goes
    to the group and the rest to the other group; otherwise plain
    :func:`rwav2` runs.  Either way every group is guaranteed the
    ``(2^c - 1)/(2^c + 1)`` happy fraction.
    """
    if inst.k != 2:
        raise ValueError("rwav2_enhanced needs exactly two groups")
    _require_binary(inst, "rwav2_enhanced")
    if c < 2:
        raise ValueError("rwav2_enhanced needs c >= 2")
    threshold = Fraction(2**c - 1, 2**c + 1)
    criterion = OneOfBestC(c)
    desired = _desired_masks(inst)
    for g in range(2):
        counted = [mask for mask in desired[g] if mask.bit_count() >= c]
        if not counted:
            continue
        for good in range(inst.m):
            bit = 1 << good
            desiring = sum(1 for mask in counted if mask & bit)
            if desiring * threshold.denominator >= threshold.numerator * len(counted):
                assignment = [1 - g] * inst.m
                assignment[good] = g
                alloc = Allocation(tuple(assignment), 2)
                report = democratic_report(inst, alloc, (criterion, criterion))
                return RunResult(
                    protocol="rwav2-enhanced",
                    allocation=alloc,
                    report=report,
                    guarantees=(threshold, threshold),
                    criteria=(criterion, criterion),
                    trace=EnhancedSplit(g, good, desiring, len(counted)),
                )
    inner = rwav2(inst, criterion, first_group=0)
    return RunResult(
        protocol="rwav2-enhanced",
        allocation=inner.allocation,
        report=inner.report,
        guarantees=(threshold, threshold),
        criteria=inner.criteria,
        trace=inner.trace,
    )


# ---------------------------------------------------------------------------
# identical-groups local search


def identical_local_search(inst: Instance) -> RunResult:
    """Local search for two identical binary groups; 2/3 of each group ends
    up with one of its two favourite goods.

    Each member is reduced to its two lowest-index desired goods (members
    wanting fewer than two are exempt).  Starting from "group 2 holds
    everything", goods are scanned in index order and moved to the other
    side whenever that strictly increases the number of members holding at
    least one reduced good; the scan restarts after every move and provably
    stops within ``(n_1 + n_2) / 2`` moves.
    """
    if inst.k != 2:
        raise ValueError("identical_local_search needs exactly two groups")
    _require_binary(inst, "identical_local_search")
    full_masks = _desired_masks(inst)
    if sorted(full_masks[0]) != sorted(full_masks[1]):
        raise ValueError("groups are not identical (desired-set multisets differ)")

    def reduce(mask: int):
        if mask.bit_count() < 2:
            return None
        low = mask & -mask
        second = (mask ^ low) & -(mask ^ low)
        return low | second

    pairs = [[reduce(mask) for mask in grp] for grp in full_masks]
    own = [0, (1 << inst.m) - 1]  # current bundle masks

    def util(g: int, j: int) -> int:
        return (pairs[g][j] & own[g]).bit_count()

    def wanting_with_util(g: int, good: int, u: int) -> int:
        bit = 1 << good
        return sum(
            1
            for j, pair in enumerate(pairs[g])
            if pair is not None and pair & bit and util(g, j) == u
        )

    n_counted = sum(1 for grp in pairs for pair in grp if pair is not None)
    max_moves = n_counted // 2 if n_counted else 0
    moves = []
    while True:
        moved = False
        for good in range(inst.m):
            bit = 1 << good
            if own[0] & bit:
                if wanting_with_util(1, good, 0) > wanting_with_util(0, good, 1):
                    own[0] &= ~bit
                    own[1] |= bit
                    moves.append(MoveRecord(good, 0, 1))
                    moved = True
                    break
            else:
                if wanting_with_util(0, good, 0) > wanting_with_util(1, good, 1):
                    own[1] &= ~bit
                    own[0] |= bit
                    moves.append(MoveRecord(good, 1, 0))
                    moved = True
                    break
        if not moved:
            break
        if len(moves) > max_moves:
            raise ProtocolInvariantError(
                f"local search exceeded {max_moves} moves"
            )

    alloc = Allocation.from_bundles(
        [Bundle(own[0], inst.m), Bundle(own[1], inst.m)]
    )
    criterion = OneOfBestC(2)
    report = democratic_report(inst, alloc, (criterion, criterion))
    bound = Fraction(2, 3)
    return RunResult(
        protocol="local-search",
        allocation=alloc,
        report=report,
        guarantees=(bound, bound),
        criteria=(criterion, criterion),
        trace=SearchTrace("local-search", tuple(moves)),
    )


# ---------------------------------------------------------------------------
# line protocols


def line2(inst: Instance) -> RunResult:
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


def linek(inst: Instance) -> RunResult:
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


# ---------------------------------------------------------------------------
# k-group RWAV


def rwavk(inst: Instance, c: int) -> RunResult:
    """Round-robin weighted approval voting for ``k`` binary groups.

    Every agent is truncated to its ``c`` lowest-index desired goods and
    needs one of them (members wanting fewer than ``c`` are satisfied from
    the start).  Groups pick cyclically; member weights are the geometric
    family ``w_k(r, 1)``.  Group ``i`` (1-based) is guaranteed a happy
    fraction of ``B_k(c - i + 1, 1)``.
    """
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

    def truncate(mask: int) -> int:
        out = 0
        taken = 0
        while mask and taken < c:
            low = mask & -mask
            out |= low
            mask ^= low
            taken += 1
        return out

    desired = [[truncate(mask) for mask in grp] for grp in _desired_masks(inst)]
    r = [[mask.bit_count() for mask in grp] for grp in desired]
    s = [[1 if rj >= c else 0 for rj in grp] for grp in r]
    bal = [[-kw.B(r[g][j], s[g][j]) for j in range(len(grp))]
           for g, grp in enumerate(desired)]
    group_bal = [
        sum(kw.B(r[g][j], s[g][j]) for j in range(len(grp)))
        for g, grp in enumerate(desired)
    ]

    remaining = list(range(inst.m))
    assignment = [None] * inst.m
    turns = []
    for turn in range(1, inst.m + 1):
        g = (turn - 1) % k
        member_states = tuple(
            (r[g][j], s[g][j], kw.w(r[g][j], 1) if s[g][j] == 1 else 0.0)
            for j in range(len(desired[g]))
        )
        good_weights = []
        for good in remaining:
            bit = 1 << good
            total = 0.0
            for j, mask in enumerate(desired[g]):
                if mask & bit:
                    total += member_states[j][2]
            good_weights.append((good, total))
        pick, best = good_weights[0]
        for good, weight in good_weights[1:]:
            if weight > best:
                pick, best = good, weight
        bit = 1 << pick
        for gg in range(k):
            for j, mask in enumerate(desired[gg]):
                if not mask & bit:
                    continue
                rj, sj = r[gg][j], s[gg][j]
                if gg == g:
                    pay = 1.0 - kw.B(rj, sj)
                    bal[gg][j] -= pay
                    group_bal[gg] += pay
                    s[gg][j] = 0
                else:
                    refund = kw.w(rj, 1) if sj == 1 else 0.0
                    bal[gg][j] += refund
                    group_bal[gg] -= refund
                r[gg][j] = rj - 1
                if abs(bal[gg][j] + kw.B(r[gg][j], s[gg][j])) > 1e-9:
                    raise ProtocolInvariantError(
                        f"agent {gg + 1}.{j + 1} balance {bal[gg][j]} != "
                        f"-B_k({r[gg][j]}, {s[gg][j]}) after turn {turn}"
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
    for g in range(k):
        if abs(group_bal[g] - happy[g]) > 1e-9:
            raise ProtocolInvariantError(
                f"group {g + 1} final balance {group_bal[g]} != happy {happy[g]}"
            )
    alloc = Allocation(tuple(assignment), k)
    report = democratic_report(inst, alloc, criterion)
    guarantees = tuple(max(0.0, kw.B(c - g, 1)) for g in range(k))
    return RunResult(
        protocol="rwavk",
        allocation=alloc,
        report=report,
        guarantees=guarantees,
        criteria=(criterion,) * k,
        trace=ProtocolTrace("rwavk", tuple(turns)),
    )


# ---------------------------------------------------------------------------
# best-k recursive protocol


def best_k_protocol(inst: Instance) -> RunResult:
    """1/3-democratic 1-of-best-k allocation for ``k`` groups.

    Valuations are binarized over each agent's ``k`` best goods once, up
    front.  While three or more groups remain: if some group has a third of
    its members wanting one common remaining good (groups, then goods, in
    index order), that good goes to the group, which leaves the recursion.
    With two groups left, :func:`rwav2_enhanced` splits the remaining goods;
    if no near-unanimous good exists at three-plus groups, :func:`rwavk`
    does.  Every group is guaranteed a third of its members happy.
    """
    k = inst.k
    if k < 2:
        raise ValueError("best_k_protocol needs at least two groups")
    binary = binarize_instance(inst, k)
    masks = _desired_masks(binary)
    criterion = OneOfBestC(k)

    active = list(range(k))
    remaining_mask = (1 << inst.m) - 1
    assignment = [None] * inst.m
    steps = []
    base = None
    base_goods: tuple = ()
    base_groups: tuple = ()
    while True:
        if len(active) >= 3 and remaining_mask:
            found = None
            for g in active:
                grp = [mask & remaining_mask for mask in masks[g]]
                n = len(grp)
                for good in range(inst.m):
                    bit = 1 << good
                    if not remaining_mask & bit:
                        continue
                    desiring = sum(1 for mask in grp if mask & bit)
                    if 3 * desiring >= n:
                        found = (g, good, desiring, n)
                        break
                if found:
                    break
            if found:
                g, good, desiring, n = found
                assignment[good] = g
                remaining_mask &= ~(1 << good)
                active.remove(g)
                steps.append(UnanimousStep(g, good, desiring, n))
                continue
        break

    goods_left = [i for i in range(inst.m) if remaining_mask >> i & 1]
    sub = None
    if goods_left:
        sub_goods = [inst.goods[i] for i in goods_left]
        local = {orig: i for i, orig in enumerate(goods_left)}
        sub_groups = []
        for g in active:
            members = []
            for mask in masks[g]:
                keep = mask & remaining_mask
                bits = [local[i] for i in goods_left if keep >> i & 1]
                members.append(
                    BinaryValuation(Bundle.from_indices(bits, len(goods_left)))
                )
            sub_groups.append(members)
        sub = Instance.from_valuations(sub_goods, sub_groups)
        if len(active) == 2:
            base = rwav2_enhanced(sub, c=2)
        else:
            base = rwavk(sub, c=len(active))
        for local_good, owner in enumerate(base.allocation.assignment):
            assignment[goods_left[local_good]] = active[owner]
        base_goods = tuple(goods_left)
        base_groups = tuple(active)
    else:
        # all goods were handed out as unanimous picks; idle groups get nothing
        pass

    for i, owner in enumerate(assignment):
        if owner is None:
            assignment[i] = active[0] if active else 0
    alloc = Allocation(tuple(assignment), k)
    report = democratic_report(inst, alloc, criterion)
    bound = Fraction(1, 3)
    return RunResult(
        protocol="best-k",
        allocation=alloc,
        report=report,
        guarantees=(bound,) * k,
        criteria=(criterion,) * k,
        trace=BestKTrace(tuple(steps), base, base_goods, base_groups, sub),
    )


# ---------------------------------------------------------------------------
# randomized CWAV


def cwav2(inst: Instance, criterion, seed: int) -> RunResult:
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
    tbl = budgets.DEFAULT_TABLE
    rng = random.Random(seed)
    alloc, trace, start = _weighted_approval(
        inst, crits, "cwav2", lambda: rng.randrange(2), tbl.C, tbl.w_C, tbl.w_C
    )
    return RunResult(
        protocol="cwav2",
        allocation=alloc,
        report=democratic_report(inst, alloc, crits),
        guarantees=(Fraction(0), Fraction(0)),
        criteria=crits,
        trace=trace,
        expected_guarantees=tuple(
            min(tbl.C(r, s) for r, s in start[g]).as_fraction() for g in range(2)
        ),
    )
