"""Allocation protocols with full audit traces and exact balance ledgers.

Every protocol returns a :class:`RunResult` bundling the allocation, a
democratic fairness report, the per-group lower bounds the protocol claims,
and (where meaningful) a trace detailed enough to replay the run by hand.

The picking protocols (:func:`rwav2`, :func:`rwavk`, :func:`cwav2`) maintain
the proof's fictitious payment ledger at runtime: each member starts by
paying its budget ``B(r, s)`` into the group account, pays again when its
group takes a good it wants, and is refunded when the opponent does.  A
failed ledger invariant raises an error: a member's balance, its priced
state, is always exactly ``-B(r, s)`` (each move between states is checked
when a run of members first makes it, which covers every member on every
turn), and a group's final account is its number of happy members.  Every
protocol then checks that each group's happy fraction reaches the
guarantee it claims, so a successful run certifies itself.

The three share one loop, :func:`_weighted_approval`, whose ledger is plain
ints.  Let ``L = 2**(1/d)``, ``d = 1`` for the two-group tables and ``k - 1``
for the ``k``-group weights, and ``P = ceil(R/d)`` for the largest ``r`` in
the run, ``R``.  A price ``x`` is kept as ``K(2**P * x)``, where ``K(sum a_t
L**t) = sum a_t floor(L**t * 2**Q)`` over ``Z[L]``, ``L**d = 2``.  ``K`` is
linear, so sums and ledger checks are int operations.  A nonzero ``z`` in
``Z[L]`` with ``|z|_1 <= H`` has ``|z| >= (2H)**-(d-1)`` (its norm is a
nonzero integer and each conjugate is below ``2H``) and ``K`` is off by
less than ``H``, so ``Q >= d * ceil(log2(2H))`` keeps every equality and
order of good weights: ties go to the lowest good index exactly.  ``Q`` is
64 bits more, so a trace float ``K / 2**(P+Q)`` is the correctly rounded
exact value unless that lies within a relative ``2**-64`` of a point halfway
between two floats.  For ``d = 1``, ``Q = 0``: the two-group budgets scaled
by ``2**R``, integers by :func:`~groupfair.budgets.B_closed`, with
``Fraction`` trace values.

The loop walks each group's :attr:`~groupfair.model.Instance.runs`, whose
members share every state.  Each ``(r, s)`` is priced once, scaled by each
run's count, and keeps its two transitions (successor, weight change) for
when the run's own group takes a good it wants and when another does.  The
run states are the loop's only ledger: a turn sums each remaining good's
weight over the acting group's runs that want it, and a group's account is
its runs' balances summed, read off the final states and, in the trace,
off the replayed ones.  :class:`ProtocolTrace` replays the picks along the
kept transitions on first read: a picking run whose trace is never read
makes no :class:`TurnRecord`.

:func:`_render_trace` prints a run's trace records as the stable plain text
of ``run --trace``, one layout per trace kind; an ``rwavk`` run shows each
member's goods as its loop weighed them, the ``c`` lowest-index ones.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import warnings
from fractions import Fraction

from . import budgets
from .budgets import KGroupWeights
from .errors import CapExceededError
from .fairness import (
    EFc,
    FairnessReport,
    OneOfBestC,
    PROPc,
    SFunction,
    _holds,
    democratic_report,
    per_group_criteria,
)
from .model import (
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    Record,
    TabularValuation,
    _desired_tally,
    _set_bits,
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

#: Most goods one member may want in ``rwav2`` and ``cwav2`` (and so in
#: ``rwav2-enhanced`` and ``best-k``, which call ``rwav2``) while it needs
#: some of them: such a member's every price is a binomial sum of that
#: size, kept as a ledger int of about that many bits.  ``rwav2-enhanced``
#: also refuses a ``c`` above it, before building ``2**c``.
MAX_WANTED_GOODS = 512

#: Most groups ``rwavk`` (and so ``best-k``, which falls back to it) runs:
#: its exact ledger takes ``k - 1`` integer ``(k - 1)``-th roots, whose
#: cost grows about as ``k**5``: about a second at this cap, minutes at 150.
MAX_RWAVK_GROUPS = 64


# ---------------------------------------------------------------------------
# result and trace types


class TurnRecord(Record):
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


class ProtocolTrace(Record):
    """Turn-by-turn trace of a picking protocol run.  The picking loop
    leaves ``turns`` unset and ``_build()`` makes it on first read."""

    kind: str
    turns: tuple

    def __getattr__(self, name):  # reached only while ``turns`` is unset
        if name != "turns":
            raise AttributeError(name)
        object.__setattr__(self, "turns", self.__dict__.pop("_build")())
        return self.turns

    def __reduce__(self):  # pickles and copies the turns, not ``_build``
        return ProtocolTrace, (self.kind, self.turns)


class PrefixRecord(Record):
    """One evaluation step of a line protocol.

    ``counts`` lists (group, yes, size) for the groups polled at this
    prefix, in polling order, stopping at the claiming group (if any).
    """

    left: tuple
    right: tuple
    counts: tuple
    claimed_by: object = None


class LineTrace(Record):
    """Prefix-growth trace of line2/linek."""

    kind: str
    criterion_label: str
    records: tuple
    remainder_group: int


class MoveRecord(Record):
    good: int
    from_group: int
    to_group: int


class SearchTrace(Record):
    """Move list of the identical-groups local search."""

    kind: str
    moves: tuple


class EnhancedSplit(Record):
    """Record of the enhanced-RWAV shortcut: a near-unanimous good was
    handed to its group, everything else to the other group."""

    group: int
    good: int
    desiring: int
    counted: int


class UnanimousStep(Record):
    """One recursion step of the best-k protocol: group got its common good."""

    group: int
    good: int
    desiring: int
    size: int


class BestKTrace(Record):
    steps: tuple
    base: object  # RunResult of the final 2-group (or k-group RWAV) stage
    base_goods: tuple
    base_groups: tuple
    base_instance: object = None


class RunResult(Record):
    """Outcome of one protocol run.

    ``guarantees[i]`` is the happy-fraction lower bound the protocol claims
    for group ``i`` on this instance; ``report.fractions[i]`` reaches it,
    which every run checks before it returns.  ``expected_guarantees`` is
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
    """A runtime ledger, termination or guarantee invariant failed
    (protocol bug).

    A failed ledger check says where: ``agent`` (the ``group.member``
    label), ``turn``, and the ``expected`` and ``actual`` balance as exact
    ``Fraction``s.  A missed guarantee gives the claim as ``expected`` and
    the group's happy fraction as ``actual``.  Each is None where it does
    not apply.
    """

    def __init__(self, message: str, *, agent=None, turn=None, expected=None,
                 actual=None):
        super().__init__(message)
        self.agent, self.turn = agent, turn
        self.expected, self.actual = expected, actual


def _require(inst: Instance, protocol: str, two: bool, binary: bool):
    """Refuse ``inst`` unless it has exactly two groups (``two``) or at
    least two, and, if ``binary``, only binary members."""
    if inst.k != 2 if two else inst.k < 2:
        which = "exactly" if two else "at least"
        raise ValueError(f"{protocol} needs {which} two groups")
    if binary and not inst.is_binary():
        raise ValueError(
            f"{protocol} works on binary agents only; binarize explicitly first"
        )


def _result(protocol: str, inst: Instance, alloc: Allocation, criteria,
            guarantees, trace, expected=None, meets=None) -> RunResult:
    """``alloc`` as a :class:`RunResult`, with its democratic report under
    the per-group ``criteria``, checked by :func:`_checked`."""
    return _checked(RunResult(protocol, alloc, democratic_report(inst, alloc, criteria),
                              guarantees, criteria, trace, expected), meets)


def _checked(result: RunResult, meets=None) -> RunResult:
    """``result``, once each group's happy fraction is seen to reach its
    guarantee: ``meets(fraction, g)`` for group ``g``, by default
    ``fraction >= guarantees[g]``.  The first group that misses raises
    :class:`ProtocolInvariantError`."""
    for g, (frac, claim) in enumerate(zip(result.report.fractions, result.guarantees)):
        if not (meets(frac, g) if meets else frac >= claim):
            raise ProtocolInvariantError(
                f"{result.protocol}: group {g + 1} happy fraction {frac} is below"
                f" its guarantee {claim}", expected=claim, actual=frac,
            )
    return result


def _reaches_bk(frac: Fraction, r: int, d: int) -> bool:
    """Whether ``frac = p/q`` reaches ``1 - 2**(-r/d)`` exactly: it does
    when ``r <= 0`` or ``q**d >= (q - p)**d * 2**r``."""
    p, q = frac.numerator, frac.denominator
    return r <= 0 or q**d >= (q - p) ** d << r


def _near_unanimous(runs, candidates: int, share: Fraction):
    """``(good, desiring)``: the lowest-index good of the mask ``candidates``
    that at least ``share`` of the members of ``runs``, ``(mask, count)``
    pairs, want, and how many want it; or None."""
    counts = [0] * candidates.bit_length()
    for mask, count in runs:
        for good in _set_bits(mask & candidates):
            counts[good] += count
    p, q, n = share.numerator, share.denominator, sum(count for _, count in runs)
    return next(((good, desiring) for good, desiring in enumerate(counts)
                 if desiring and desiring * q >= p * n), None)


# ---------------------------------------------------------------------------
# the weighted-approval picking loop


class _State:
    """A run's state ``(r, s)`` priced for one picking run: the balance the
    ledger must show (``neg_budget``), ``weight`` and ``pay`` as ledger ints
    for its ``count`` members, one member's trace ``balance`` and ``entry``
    ``(r, s, weight)``, and ``step``: per side (0 when its own group takes a
    wanted good, 1 when another does) ``(successor, weight change)``, once
    known and checked."""

    def __init__(self, r, s, count, budget, weight, pay, traced):
        self.r, self.s, self.count = r, s, count
        self.weight, self.pay, self.neg_budget = weight * count, pay * count, -budget * count
        self.balance, self.entry = traced(-budget), (r, s, traced(weight))
        self.step = [None, None]


_BALANCE = operator.attrgetter("balance")
_ENTRY = operator.attrgetter("entry")


def _root_floor(n: int, d: int) -> int:
    """``floor(n ** (1/d))`` for ``n >= 1``, by Newton's method on ints from
    a float estimate read off the top 64 bits of ``n``."""

    def step(x):
        return ((d - 1) * x + n // x ** (d - 1)) // d

    shift = max(n.bit_length() - 64, 0)
    e, f = divmod((math.log2(n >> shift) + shift) / d, 1)  # the root is ~2**(e+f)
    # one step from any x >= 1 lands at or above the root: its numerator is
    # an integer above d * root - 1
    x = step(int(2 ** (f + 52)) << int(e) >> 52)
    while (y := step(x)) < x:
        x = y
    return x


def _table_price(kind: str, budget, weight, pay):
    """A two-group table's values as ledger ints: ``n / 2**e`` is
    ``n * lpow(e)``, since ``L = 2``.  A state wanting more than
    :data:`MAX_WANTED_GOODS` goods and needing some is refused before any sum."""

    def price(r: int, s: int, lpow):
        if r > MAX_WANTED_GOODS and 0 < s <= r:
            raise CapExceededError(f"{kind}: a member wants {r} goods,"
                                   f" above the cap of {MAX_WANTED_GOODS}")
        return tuple(
            v.numerator * lpow(v.denominator.bit_length() - 1)
            for v in (budget(r, s), weight(r, s), pay(r, s))
        )

    return price


def _kgroup_price(r: int, s: int, lpow):
    """The ``k``-group family as ledger ints: ``B_k(r, 1) = 1 - L^-r``,
    ``w_k(r, 1) = L^-(r-1) - L^-r`` and the pay ``1 - B_k(r, 1) = L^-r``;
    a member needing nothing has budget 1, weight 0 and pay 0."""
    if s == 0:
        return lpow(0), 0, 0
    return lpow(0) - lpow(r), (lpow(r - 1) - lpow(r) if r else 0), lpow(r)


def _weighted_approval(inst: Instance, crits, kind: str, next_group, price,
                       budget_name: str, d: int = 1, number=Fraction):
    """The weighted-approval picking loop behind :func:`rwav2`,
    :func:`cwav2` and :func:`rwavk`.

    ``next_group()`` is called once per turn and names the acting group.
    ``price(r, s, lpow)`` gives a member's budget, weight and pay in state
    ``(r, s)`` as ledger ints, where ``lpow(j)`` is the ledger int of
    ``L**-j`` and ``L = 2**(1/d)``.  A member pays its pay when its own
    group takes a good it wants and is refunded its weight when another
    group does; a run of members moves as one, at ``count`` times these.
    The run states are the only ledger: a good's weight is summed when a
    group picks, and a group's account is its runs' balances summed.
    ``number(n, unit)`` turns a ledger int ``n`` into the trace's number
    ``n / unit``, where ``unit`` is the ledger int of 1.  A ``price`` that
    refuses a starting state refuses the run before turn 1.  Returns the
    allocation, the trace and each group's starting ``(r, s)`` per run.
    """
    k = inst.k
    sfuncs = [functools.cache(SFunction(c, k)) for c in crits]
    counts = [[n for _, n in runs] for runs in inst.runs]
    start = [[(r, sfunc(r)) for r in (v.desired.mask.bit_count() for v, _ in runs)]
             for sfunc, runs in zip(sfuncs, inst.runs)]
    R = max((rj for grp in start for rj, _ in grp), default=0)
    P = -(-R // d)
    # every k-group weight has |2**P * w|_1 <= 2**(P+1) and a good weight
    # sums at most n of them, so H bounds |z|_1 for two goods' difference
    H = sum(r * n for grp, ns in zip(start, counts) for (r, _), n in zip(grp, ns)) << (P + 2)
    Q = d * (H.bit_length() + 1) + 64 if d > 1 else 0
    shift = P + Q
    roots = [_root_floor(1 << (t + d * Q), d) for t in range(d)]

    def lpow(j: int) -> int:
        if j > d * P:
            raise ProtocolInvariantError(
                f"{kind}: L^-{j} is finer than the ledger unit L^-{d * P}"
            )
        q, t = divmod(d * P - j, d)
        return roots[t] << q

    # each (r, s) is priced once, then scaled by each member count that
    # reaches it, and each ledger int turned into the trace's number once
    traced = functools.cache(lambda value: number(value, 1 << shift))
    priced = functools.cache(lambda r, s: price(r, s, lpow))
    state_price = functools.cache(lambda r, s, n: _State(r, s, n, *priced(r, s), traced))

    def advance(old: _State, side: int, g: int, run: int, turn: int):
        """Price, check and keep the move ``g``'s run ``run`` first makes."""
        n = old.count
        new = state_price(old.r - 1, old.s if side else max(0, old.s - 1), n)
        move = old.weight if side else -old.pay
        if (balance := old.neg_budget + move) != new.neg_budget:
            agent = inst.groups[g][sum(counts[g][:run])].label  # the first to move
            raise ProtocolInvariantError(
                f"agent {agent} balance {traced(balance // n)} != "
                f"-{budget_name}({new.r}, {new.s}) after turn {turn}",
                agent=agent, turn=turn,
                expected=Fraction(new.neg_budget // n, 1 << shift),
                actual=Fraction(balance // n, 1 << shift),
            )
        old.step[side] = step = (new, new.weight - old.weight)
        return step

    m = inst.m
    state = [[state_price(rj, sj, n) for (rj, sj), n in zip(grp, ns)]
             for grp, ns in zip(start, counts)]
    run_weight = [[p.weight for p in grp] for grp in state]
    wanted_by = [[[] for _ in range(k)] for _ in range(m)]  # per good and group
    for g, runs in enumerate(inst.runs):
        for j, (v, _) in enumerate(runs):
            for i in _set_bits(v.desired.mask):
                wanted_by[i][g].append(j)

    def account(grp) -> int:  # a group's account: its members' balances
        return -sum(p.neg_budget for p in grp)

    remaining = list(range(m))
    assignment = [None] * m
    opening = tuple(map(tuple, state))  # each run's state before turn 1
    log = []  # per turn: group, pick, each remaining good's weight
    for turn in range(1, m + 1):
        g = next_group()
        weight = run_weight[g].__getitem__
        weights = [sum(map(weight, wanted_by[i][g])) for i in remaining]
        pick = remaining.pop(weights.index(max(weights)))  # ties to the lowest
        for gg, runs in enumerate(wanted_by[pick]):
            side = gg != g
            st, rw = state[gg], run_weight[gg]
            for j in runs:
                old = st[j]
                st[j], delta = old.step[side] or advance(old, side, gg, j, turn)
                rw[j] += delta
        assignment[pick] = g
        log.append((g, pick, weights))

    for g, grp in enumerate(state):
        happy, balance = sum(p.count for p in grp if p.s == 0), account(grp)
        if balance != happy << shift:
            raise ProtocolInvariantError(
                f"group {g + 1} final balance {traced(balance)} != happy {happy}",
                expected=Fraction(happy), actual=Fraction(balance, 1 << shift),
            )

    def turns() -> tuple:  # replays the picks along the kept transitions
        left, records, states = list(range(m)), [], list(map(list, opening))

        def members(g, field):  # a run's field once per member
            return tuple(itertools.chain.from_iterable(
                map(itertools.repeat, map(field, states[g]), counts[g])))

        for turn, (g, pick, weights) in enumerate(log, 1):
            entries = members(g, _ENTRY)
            for gg, runs in enumerate(wanted_by[pick]):
                for j in runs:
                    states[gg][j] = states[gg][j].step[gg != g][0]
            records.append(TurnRecord(
                turn, g, tuple(left), entries, tuple(zip(left, map(traced, weights))),
                pick, tuple(traced(account(grp)) for grp in states),
                tuple(members(gg, _BALANCE) for gg in range(k)),
            ))
            left.remove(pick)
        return tuple(records)

    trace = ProtocolTrace.__new__(ProtocolTrace)
    object.__setattr__(trace, "kind", kind)
    object.__setattr__(trace, "_build", turns)
    return Allocation(tuple(assignment), k), trace, start


# ---------------------------------------------------------------------------
# two-group RWAV


def rwav2(inst: Instance, criterion, first_group: int = 0) -> RunResult:
    """Round-robin with weighted approval voting for two binary groups.

    Groups alternate turns starting with ``first_group``.  On its turn a
    group weighs every member at ``w(r, s)`` -- ``r`` desired goods still
    available, ``s`` still needed -- and takes the remaining good with the
    largest total weight (ties to the lowest good index).  ``criterion``
    (one, or a pair for per-group targets) fixes each member's initial need
    via its binary threshold ``s(r)``.

    Claimed bounds: the group playing first is happy for at least
    ``min_j B(r_j, s(r_j))`` of its members, the other for at least
    ``min_j B(r_j - 1, s(r_j))``.  A member wanting more than
    :data:`MAX_WANTED_GOODS` goods and needing some of them raises
    :class:`~groupfair.errors.CapExceededError` before the first turn.
    """
    kind = "rwav2"
    _require(inst, kind, two=True, binary=True)
    if first_group not in (0, 1):
        raise ValueError("first_group must be 0 or 1")
    crits = per_group_criteria(criterion, 2)
    tbl = budgets.DEFAULT_TABLE
    order = itertools.cycle((first_group, 1 - first_group))
    alloc, trace, start = _weighted_approval(
        inst, crits, kind, order.__next__,
        _table_price(kind, tbl.B, tbl.w,
                     lambda r, s: max(tbl.w(r, s), tbl.w(r - 1, s - 1))), "B",
    )
    guarantees = tuple(
        min(tbl.B(r if g == first_group else r - 1, s)
            for r, s in dict.fromkeys(start[g]))
        for g in range(2)
    )
    return _result(kind, inst, alloc, crits, guarantees, trace)


def rwav2_enhanced(inst: Instance, c: int = 2) -> RunResult:
    """RWAV with the near-unanimous-good shortcut; 1-of-best-``c`` target.

    Members wanting fewer than ``c`` goods are trivially satisfied and are
    ignored when testing the shortcut.  If at least ``(2^c - 1)/(2^c + 1)``
    of a group's counted members want one common good, that good alone goes
    to the group and the rest to the other group; otherwise plain
    :func:`rwav2` runs.  Either way every group is guaranteed the
    ``(2^c - 1)/(2^c + 1)`` happy fraction.  A ``c`` above
    :data:`MAX_WANTED_GOODS` raises :class:`~groupfair.errors.CapExceededError`.
    """
    _require(inst, "rwav2_enhanced", two=True, binary=True)
    if c < 2:
        raise ValueError("rwav2_enhanced needs c >= 2")
    if c > MAX_WANTED_GOODS:
        raise CapExceededError(
            f"rwav2_enhanced: c = {c} is above the cap of {MAX_WANTED_GOODS}"
        )
    threshold = Fraction(2**c - 1, 2**c + 1)
    criterion = OneOfBestC(c)
    for g, runs in enumerate(inst.runs):
        counted = [(v.desired.mask, n) for v, n in runs if len(v.desired) >= c]
        found = _near_unanimous(counted, (1 << inst.m) - 1, threshold)
        if found:
            good, desiring = found
            assignment = [1 - g] * inst.m
            assignment[good] = g
            return _result("rwav2-enhanced", inst, Allocation(tuple(assignment), 2),
                           (criterion, criterion), (threshold, threshold),
                           EnhancedSplit(g, good, desiring, sum(n for _, n in counted)))
    inner = rwav2(inst, criterion, first_group=0)
    # the inner run's report is this run's: the same allocation and criteria
    return _checked(RunResult("rwav2-enhanced", inner.allocation, inner.report,
                              (threshold, threshold), inner.criteria, inner.trace))


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
    _require(inst, "identical_local_search", two=True, binary=True)
    if _desired_tally(inst.runs[0]) != _desired_tally(inst.runs[1]):
        raise ValueError("groups are not identical (desired-set multisets differ)")
    # each two-good set, with its members; the exempt want fewer goods
    pairs = [[(pair, n) for pair, n in _desired_tally(runs).items()
              if pair.bit_count() == 2] for runs in binarize_instance(inst, 2).runs]
    own = [0, (1 << inst.m) - 1]  # current bundle masks

    def wanting_with_util(g: int, good: int, u: int) -> int:
        return sum(n for pair, n in pairs[g]
                   if pair >> good & 1 and (pair & own[g]).bit_count() == u)

    max_moves = sum(n for grp in pairs for _, n in grp) // 2
    moves = []
    while True:
        for good in range(inst.m):
            bit = 1 << good
            held = 0 if own[0] & bit else 1  # the group holding the good
            if wanting_with_util(1 - held, good, 0) > wanting_with_util(held, good, 1):
                own[held] &= ~bit
                own[1 - held] |= bit
                moves.append(MoveRecord(good, held, 1 - held))
                break
        else:
            break
        if len(moves) > max_moves:
            raise ProtocolInvariantError(f"local search exceeded {max_moves} moves")

    alloc = Allocation.from_bundles([Bundle(own[0], inst.m), Bundle(own[1], inst.m)])
    return _result("local-search", inst, alloc, (OneOfBestC(2),) * 2,
                   (Fraction(2, 3),) * 2, SearchTrace("local-search", tuple(moves)))


# ---------------------------------------------------------------------------
# line protocols


def _line(inst: Instance, kind: str, criterion, label: str) -> RunResult:
    """The block-claiming loop behind :func:`line2` and :func:`linek`.

    A left block grows one good at a time along the instance's ``order``
    over the goods still unclaimed.  After every step the active groups are
    polled in index order: a member says yes when ``check``'s rule for
    ``criterion`` holds with its group holding the block and every other
    group the unclaimed goods outside it, and the first group where
    ``k * yes >= size`` claims the block and leaves.
    The block then restarts empty, and the last active group takes what
    remains.
    """
    k, m = inst.k, inst.m
    remaining = list(inst.order)  # the unclaimed goods, in order
    rest = (1 << m) - 1  # and their mask
    cut = block = 0  # the block is remaining[:cut], with mask block
    active = list(range(k))
    bundles = [None] * k
    records = []
    while len(active) > 1:
        left, right = Bundle(block, m), Bundle(rest ^ block, m)
        counts = []
        claimed = None
        for g in active:
            size = len(inst.groups[g])
            split = [left if h == g else right for h in range(k)]
            yes = sum(n for v, n in inst.runs[g] if _holds(v, g, split, criterion))
            counts.append((g, yes, size))
            if k * yes >= size:
                claimed = g
                break
        records.append(PrefixRecord(tuple(remaining[:cut]), tuple(remaining[cut:]),
                                    tuple(counts), claimed))
        if claimed is not None:
            bundles[claimed] = left
            active.remove(claimed)
            del remaining[:cut]
            rest ^= block
            cut = block = 0
        elif cut == len(remaining):
            raise ProtocolInvariantError(f"{kind} exhausted goods without a claim")
        else:
            block |= 1 << remaining[cut]
            cut += 1
    last = active[0]
    bundles[last] = Bundle(rest, m)
    return _result(kind, inst, Allocation.from_bundles(bundles), (criterion,) * k,
                   (Fraction(1, k),) * k, LineTrace(kind, label, tuple(records), last))


def line2(inst: Instance) -> RunResult:
    """Cut-and-choose along the good order: half of each group gets EF1.

    A left block grows one good at a time (in the instance's ``order``).
    After every step each agent is asked whether the left block versus its
    complement would be EF1 for them; as soon as half of some group says
    yes (group 1 wins ties), that group takes the left block and the other
    group takes the rest.
    """
    _require(inst, "line2", two=True, binary=False)
    return _line(inst, "line2", EFc(1), "EF1")


def linek(inst: Instance) -> RunResult:
    """Left-to-right block claiming: 1/k of each group gets PROP(k-1).

    The block grows along the good order; an active group claims it as soon
    as 1/k of its members find the block PROP(k-1) (benchmarked against all
    goods and the original k, lowest group index wins ties).  A claiming
    group leaves with the block, the block restarts empty, and the last
    active group takes whatever remains.

    Members must be additive or binary: the guarantee needs each member's
    PROP(k-1) verdict to turn only from no to yes as the block grows,
    which a tabular valuation need not do.
    """
    _require(inst, "linek", two=False, binary=False)
    if any(isinstance(v, TabularValuation) for runs in inst.runs for v, _ in runs):
        raise ValueError("linek works on additive and binary agents only")
    k = inst.k
    return _line(inst, "linek", PROPc(k - 1), f"PROP-{k - 1}")


# ---------------------------------------------------------------------------
# k-group RWAV


def rwavk(inst: Instance, c: int) -> RunResult:
    """Round-robin weighted approval voting for ``k`` binary groups.

    Every agent is truncated to its ``c`` lowest-index desired goods and
    needs one of them (members wanting fewer than ``c`` are satisfied from
    the start).  Groups pick cyclically; member weights are the geometric
    family ``w_k(r, 1)``, kept exactly (ties to the lowest good index).
    Group ``i`` (1-based) is guaranteed a happy fraction of
    ``B_k(c - i + 1, 1)``.  More than :data:`MAX_RWAVK_GROUPS` groups raise
    :class:`~groupfair.errors.CapExceededError`.
    """
    _require(inst, "rwavk", two=False, binary=True)
    k = inst.k
    if k > MAX_RWAVK_GROUPS:
        raise CapExceededError(f"rwavk: {k} groups, above the cap of {MAX_RWAVK_GROUPS}")
    criterion = OneOfBestC(c)  # refuses c < 1 before the warning below
    if c < k:
        warnings.warn(
            f"rwavk with c={c} < k={k}: guarantees degenerate to 0 for later groups",
            stacklevel=2,
        )
    kw = KGroupWeights(k)
    alloc, trace, _ = _weighted_approval(
        binarize_instance(inst, c), (criterion,) * k, "rwavk",
        itertools.cycle(range(k)).__next__, _kgroup_price, "B_k", d=k - 1,
        number=operator.truediv,
    )
    # each guarantee is a float: the check compares with B_k exactly
    return _result("rwavk", inst, alloc, (criterion,) * k,
                   tuple(kw.B(c - g, 1) for g in range(k)), trace,
                   meets=lambda frac, g: _reaches_bk(frac, c - g, k - 1))


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
    _require(inst, "best_k_protocol", two=False, binary=False)
    k = inst.k
    binary = binarize_instance(inst, k)
    masks = [[(v.desired.mask, n) for v, n in runs] for runs in binary.runs]
    criterion, third = OneOfBestC(k), Fraction(1, 3)

    active = list(range(k))
    remaining_mask = (1 << inst.m) - 1
    assignment = [None] * inst.m
    steps = []
    base = None
    while len(active) >= 3:
        # the first group, then good, that a third of the group wants
        step = next((UnanimousStep(g, *hit, len(inst.groups[g])) for g in active
                     if (hit := _near_unanimous(masks[g], remaining_mask, third))),
                    None)
        if step is None:
            break
        assignment[step.good] = step.group
        remaining_mask &= ~(1 << step.good)
        active.remove(step.group)
        steps.append(step)

    goods_left = _set_bits(remaining_mask)
    sub = None
    if goods_left:
        sub = binary  # what the rebuild gives while no good has been taken
        if steps or binary.order != tuple(range(inst.m)):
            bit = {i: 1 << j for j, i in enumerate(goods_left)}

            def left(mask):  # a run's members over the goods left, renumbered in order
                goods = _set_bits(mask & remaining_mask)
                return BinaryValuation(Bundle(sum(map(bit.__getitem__, goods)), len(bit)))

            sub = Instance.from_valuations(inst.labels(goods_left), [
                [v for mask, n in masks[g] for v in [left(mask)] * n] for g in active])
        if len(active) == 2:
            base = rwav2_enhanced(sub, c=2)
        else:
            base = rwavk(sub, c=len(active))
        for local_good, owner in enumerate(base.allocation.assignment):
            assignment[goods_left[local_good]] = active[owner]

    return _result("best-k", inst, Allocation(tuple(assignment), k), (criterion,) * k,
                   (third,) * k,
                   BestKTrace(tuple(steps), base, tuple(goods_left),
                              tuple(active) if goods_left else (), sub))


# ---------------------------------------------------------------------------
# randomized CWAV


def cwav2(inst: Instance, criterion, seed: int) -> RunResult:
    """Coin-flip weighted approval voting for two binary groups.

    Like :func:`rwav2`, but each turn a seeded fair coin chooses the acting
    group and the weights come from the averaged budget ``C(r, s)``.  The
    run is deterministic given the seed.  Per-run guarantees are 0 (a
    losing coin sequence can starve a group); in expectation each group's
    happy fraction is at least ``min_j C(r_j, s(r_j))``, reported via
    ``expected_guarantees``.  Members are capped as in :func:`rwav2`.
    """
    kind = "cwav2"
    _require(inst, kind, two=True, binary=True)
    crits = per_group_criteria(criterion, 2)
    tbl = budgets.DEFAULT_TABLE
    rng = random.Random(seed)
    alloc, trace, start = _weighted_approval(
        inst, crits, kind, lambda: rng.randrange(2),
        _table_price(kind, tbl.C, tbl.w_C, tbl.w_C), "C",
    )
    expected = tuple(min(tbl.C(r, s) for r, s in dict.fromkeys(start[g]))
                     for g in range(2))
    return _result(kind, inst, alloc, crits, (Fraction(0),) * 2, trace, expected)


# ---------------------------------------------------------------------------
# trace text


def _fmt_weight(x) -> str:
    x = float(x)
    return "0" if x == 0 else str(x)


def _bundle_text(inst: Instance, bundle) -> str:
    labels = inst.labels(bundle)
    if not labels:
        return "set()"
    return "{" + ", ".join(repr(lab) for lab in labels) + "}"


def _render_turns(trace, inst: Instance, out: list):
    labels_of = functools.cache(lambda live: ",".join(inst.labels(_set_bits(live))))
    for rec in trace.turns:
        out.append(
            f"Turn #{rec.turn}: Group {rec.group + 1}'s turn to pick a good"
            f" from {inst.labels(rec.remaining)}:"
        )
        out.append("Calculating member weights:")
        out.append(
            "".ljust(12) + "Desired set".ljust(12) + "r".ljust(3)
            + "s".ljust(3) + "weight".ljust(9)
        )
        live = Bundle.from_indices(rec.remaining, inst.m).mask
        rows, first = [], 0  # a run's members share every state: read its first
        for v, n in inst.runs[rec.group]:
            r, s, w = rec.member_states[first]
            first += n
            rows.append(((labels_of(v.desired.mask & live), r, s, _fmt_weight(w)), n))
        for (labels, r, s, w), equal in itertools.groupby(rows, operator.itemgetter(0)):
            count = sum(n for _, n in equal)
            label = f"{count} member" + ("s" if count != 1 else "")
            out.append(
                label.ljust(12) + labels.ljust(12) + str(r).ljust(3)
                + str(s).ljust(3) + w.ljust(9)
            )
        out.append("Calculating remaining good weights:")
        out.append("".ljust(6) + "Weight".ljust(9))
        for good, w in rec.good_weights:
            out.append(inst.goods[good].ljust(6) + _fmt_weight(w).ljust(9))
        out.append(f"Group {rec.group + 1} picks {inst.goods[rec.pick]}")
        out.append("")


def _render_final(result, inst: Instance, out: list, order=None):
    out.append("Final allocation:")
    bundles = bundles_of(result.allocation)
    report = result.report
    for g in order if order is not None else range(inst.k):
        out.append(
            f" *  Group {g + 1}: allocated bundle = "
            f"{_bundle_text(inst, bundles[g])}, happy members = "
            f"{report.happy[g]}/{report.sizes[g]}"
        )


def _render_line(trace, inst: Instance, out: list):
    for rec in trace.records:
        out.append(f"Current partition:  {inst.labels(rec.left)} |"
                   f" {inst.labels(rec.right)}:")
        for g, yes, size in rec.counts:
            out.append(
                f"   Group {g + 1}: {yes}/{size} members think the left"
                f" bundle is {trace.criterion_label}"
            )
        if rec.claimed_by is not None:
            out.append(f"   Group {rec.claimed_by + 1} gets the left bundle")
    out.append(
        f"   Group {trace.remainder_group + 1} gets the remaining bundle"
    )
    out.append("")


def _render_trace(result, inst: Instance) -> str:
    """The plain-text audit trail of a run, as ``run --trace`` prints it."""
    out: list = []
    trace = result.trace
    order = None
    if isinstance(trace, ProtocolTrace):
        if trace.kind == "rwavk":  # its loop weighed each member's c lowest goods
            inst = binarize_instance(inst, result.criteria[0].c)
        _render_turns(trace, inst, out)
        if inst.k == 2 and trace.turns:
            first = trace.turns[0].group
            order = [first, 1 - first]
    elif isinstance(trace, LineTrace):
        _render_line(trace, inst, out)
    elif isinstance(trace, SearchTrace):
        for i, mv in enumerate(trace.moves, 1):
            out.append(
                f"Move #{i}: good {inst.goods[mv.good]} moves from Group"
                f" {mv.from_group + 1} to Group {mv.to_group + 1}"
            )
        out.append("")
    elif isinstance(trace, EnhancedSplit):
        out.append(
            f"Group {trace.group + 1} takes its commonly-desired good"
            f" {inst.goods[trace.good]}"
            f" ({trace.desiring}/{trace.counted} counted members want it)"
        )
        out.append(f"All remaining goods go to Group {2 - trace.group}")
        out.append("")
    elif isinstance(trace, BestKTrace):
        for i, step in enumerate(trace.steps, 1):
            out.append(
                f"Step #{i}: Group {step.group + 1} takes good"
                f" {inst.goods[step.good]} ({step.desiring}/{step.size}"
                f" members want it)"
            )
        if trace.base is not None:
            groups = ", ".join(str(g + 1) for g in trace.base_groups)
            out.append(
                f"Remaining groups {groups} split the remaining goods"
                f" {inst.labels(trace.base_goods)} with {trace.base.protocol}"
            )
            renum = ", ".join(
                f"sub-group {i + 1} = group {g + 1}"
                for i, g in enumerate(trace.base_groups)
            )
            out.append(f"(sub-run groups renumbered: {renum})")
            out.append("")
            sub = _render_trace(trace.base, trace.base_instance)
            out.append(sub.rstrip("\n"))
        out.append("")
    _render_final(result, inst, out, order)
    return "\n".join(out) + "\n"
