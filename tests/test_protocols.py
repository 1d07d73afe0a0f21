"""Allocation-protocol tests.

The picking and line protocols are pinned to hand-worked runs on two fixed
instances (see conftest fixtures); random instances then exercise the
built-in balance invariants and the guarantee bounds.
"""

import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from groupfair import protocols
from groupfair.budgets import C, KGroupWeights
from groupfair.errors import CapExceededError
from groupfair.fairness import (
    MMS,
    EFc,
    FairnessReport,
    FractionMMS,
    OneOfBestC,
    OneOutOfCMMS,
    PROPc,
    democratic_report,
    efc_holds,
    propc_holds,
)
from groupfair.model import (
    AdditiveValuation,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    TabularValuation,
    bundles_of,
)
from groupfair.protocols import (
    BestKTrace,
    EnhancedSplit,
    LineTrace,
    MoveRecord,
    ProtocolInvariantError,
    ProtocolTrace,
    RunResult,
    SearchTrace,
    UnanimousStep,
    _reaches_bk,
    _render_trace,
    best_k_protocol,
    cwav2,
    identical_local_search,
    line2,
    linek,
    rwav2,
    rwav2_enhanced,
    rwavk,
)

from conftest import (
    GOODS5, addval, binval, criteria, meets_bk, random_binary_instance,
)
from line_reference import reference_line2, reference_linek

MIXED_CRITERIA = (OneOutOfCMMS(2), OneOfBestC(2))


def _labels(inst, result):
    return tuple(
        set(inst.labels(b)) for b in bundles_of(result.allocation)
    )


# ---------------------------------------------------------------------------
# rwav2 golden runs


def test_rwav2_first_group_one_of_two(mixed_two_group):
    inst = mixed_two_group
    result = rwav2(inst, MIXED_CRITERIA, first_group=0)

    picks = [t.pick for t in result.trace.turns]
    assert [inst.goods[p] for p in picks] == ["w", "z", "x", "v", "y"]
    assert _labels(inst, result) == ({"w", "x", "y"}, {"v", "z"})
    assert result.report.happy == (11, 5)
    assert result.report.sizes == (11, 5)
    assert result.guarantees == (Fraction(5, 8), Fraction(1, 2))
    assert result.guarantee == Fraction(1, 2)

    first = result.trace.turns[0]
    assert first.group == 0
    states = first.member_states
    assert states[0] == states[1] == (2, 1, Fraction(1, 2**2))
    assert states[2] == (3, 1, Fraction(1, 2**3))
    assert states[3:8] == ((4, 2, Fraction(1, 2**2)),) * 5
    assert states[8:] == ((2, 1, Fraction(1, 2**2)),) * 3
    totals = {inst.goods[g]: w for g, w in first.good_weights}
    assert totals == {
        "v": Fraction(5, 8),
        "w": 2,
        "x": Fraction(15, 8),
        "y": Fraction(11, 8),
        "z": 2,
    }
    # w and z tie at 2; the lower index wins
    assert inst.goods[first.pick] == "w"
    assert result.trace.turns[-1].group_balances == (11, 5)


def test_rwav2_other_group_first(mixed_two_group):
    inst = mixed_two_group
    result = rwav2(inst, MIXED_CRITERIA, first_group=1)

    picks = [t.pick for t in result.trace.turns]
    assert [inst.goods[p] for p in picks] == ["z", "w", "v", "x", "y"]
    assert _labels(inst, result) == ({"w", "x"}, {"v", "y", "z"})
    assert result.report.happy == (11, 5)
    assert result.guarantees == (Fraction(3, 8), Fraction(3, 4))

    first = result.trace.turns[0]
    assert first.group == 1
    assert first.member_states == (
        (4, 1, Fraction(1, 2**4)),
        (4, 1, Fraction(1, 2**4)),
        (2, 1, Fraction(1, 2**2)),
        (2, 1, Fraction(1, 2**2)),
        (2, 1, Fraction(1, 2**2)),
    )
    totals = {inst.goods[g]: w for g, w in first.good_weights}
    assert totals == {
        "v": Fraction(3, 4),
        "w": Fraction(1, 8),
        "x": Fraction(1, 8),
        "y": Fraction(1, 8),
        "z": Fraction(7, 8),
    }


def test_rwav2_validation(mixed_two_group):
    inst = mixed_two_group
    with pytest.raises(ValueError):
        rwav2(inst, MIXED_CRITERIA, first_group=2)
    # every member needs one good: a maximin share of 1 or 2, halved and rounded up
    half = rwav2(inst, FractionMMS(Fraction(1, 2)))
    assert half.guarantees == (Fraction(3, 4), Fraction(1, 2))
    three = Instance.from_valuations(
        ("a",), ((binval("a", "a"),),) * 3
    )
    with pytest.raises(ValueError):
        rwav2(three, MIXED_CRITERIA)
    additive = Instance.from_valuations(
        ("a", "b"),
        ((binval("a", "ab"),), (addval((1, 2)),)),
    )
    with pytest.raises(ValueError):
        rwav2(additive, OneOfBestC(2))


@st.composite
def _two_binary_groups(draw):
    """Two groups of 1-7 binary members over 1-9 goods."""
    m = draw(st.integers(1, 9))
    member = st.integers(0, (1 << m) - 1).map(lambda mask: BinaryValuation(Bundle(mask, m)))
    groups = [draw(st.lists(member, min_size=1, max_size=7)) for _ in range(2)]
    return Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)


@settings(max_examples=150, deadline=None)
@given(_two_binary_groups(), criteria(), criteria(), st.integers(0, 99))
def test_two_group_picking_runs_under_every_criterion_check_accepts(
    inst, first, second, seed
):
    try:  # check refuses 1-out-of-1-mms with two groups
        democratic_report(inst, Allocation((0,) * inst.m, 2), (first, second))
    except ValueError:
        reject()
    # each run checks its own ledger and guarantee, and raises on a miss
    for crits in ((first, second), first):
        assert rwav2(inst, crits).report.sizes == inst.sizes
        assert cwav2(inst, crits, seed=seed).report.sizes == inst.sizes


# ---------------------------------------------------------------------------
# enhanced rwav2


def test_enhanced_shortcut():
    # every counted member of group 1 wants "a": it is taken outright
    inst = Instance.from_valuations(
        ("a", "b", "c"),
        (
            [binval("ab", "abc")] * 3,
            [binval("ac", "abc")] * 3,
        ),
    )
    result = rwav2_enhanced(inst)
    assert isinstance(result.trace, EnhancedSplit)
    assert result.trace == EnhancedSplit(group=0, good=0, desiring=3, counted=3)
    assert _labels(inst, result) == ({"a"}, {"b", "c"})
    assert result.report.happy == (3, 3)
    assert result.guarantees == (Fraction(3, 5), Fraction(3, 5))


def test_enhanced_shortcut_fires_on_mixed_instance(mixed_two_group):
    # 8 of group 1's 11 counted members want w, clearing the 3/5 threshold
    inst = mixed_two_group
    result = rwav2_enhanced(inst)
    assert result.trace == EnhancedSplit(group=0, good=1, desiring=8, counted=11)
    assert _labels(inst, result) == ({"w"}, {"v", "x", "y", "z"})


def test_enhanced_falls_back_to_rwav2():
    # no good is shared by 3/5 of either group's counted members
    inst = Instance.from_valuations(
        ("a", "b", "c", "d"),
        (
            (binval("ab", "abcd"), binval("cd", "abcd")),
            (binval("ac", "abcd"), binval("bd", "abcd")),
        ),
    )
    result = rwav2_enhanced(inst)
    assert result.protocol == "rwav2-enhanced"
    assert isinstance(result.trace, ProtocolTrace)
    plain = rwav2(inst, OneOfBestC(2), first_group=0)
    assert result.allocation == plain.allocation
    assert result.guarantees == (Fraction(3, 5), Fraction(3, 5))
    with pytest.raises(ValueError):
        rwav2_enhanced(inst, c=1)


def test_enhanced_ignores_small_members():
    # the singleton member does not count toward the shortcut threshold
    inst = Instance.from_valuations(
        ("a", "b", "c"),
        (
            [binval("a", "abc")] + [binval("bc", "abc")] * 2,
            [binval("abc", "abc")] * 2,
        ),
    )
    result = rwav2_enhanced(inst)
    assert isinstance(result.trace, EnhancedSplit)
    assert result.trace.group == 0
    assert inst.goods[result.trace.good] == "b"
    assert result.trace.counted == 2


# ---------------------------------------------------------------------------
# identical-groups local search


def test_local_search_moves_contested_good():
    # both groups: 3x{v,w}, 3x{v,x}, 2x{v,y}, 2x{v,z}
    grp = (
        [binval("vw", GOODS5)] * 3
        + [binval("vx", GOODS5)] * 3
        + [binval("vy", GOODS5)] * 2
        + [binval("vz", GOODS5)] * 2
    )
    inst = Instance.from_valuations(GOODS5, (grp, list(grp)))
    result = identical_local_search(inst)
    assert result.trace.moves == (MoveRecord(good=0, from_group=1, to_group=0),)
    assert _labels(inst, result) == ({"v"}, {"w", "x", "y", "z"})
    assert result.report.happy == (10, 10)
    assert result.guarantees == (Fraction(2, 3), Fraction(2, 3))


def test_local_search_requires_identical_groups():
    inst = Instance.from_valuations(
        ("a", "b"),
        ((binval("a", "ab"),), (binval("b", "ab"),)),
    )
    with pytest.raises(ValueError, match="identical"):
        identical_local_search(inst)


def test_local_search_exempts_singleton_members():
    grp = [binval("a", "ab"), binval("ab", "ab")]
    inst = Instance.from_valuations(("a", "b"), (grp, list(grp)))
    result = identical_local_search(inst)
    # only the two-good members count; nobody strictly improves by moving
    assert result.report.sizes == (2, 2)
    assert len(result.trace.moves) <= 1


def test_local_search_guarantee_random():
    rng = random.Random(20251)
    for _ in range(80):
        m = rng.randint(2, 7)
        goods = tuple(f"g{i}" for i in range(m))
        grp = [
            binval(rng.sample(goods, rng.randint(1, m)), goods)
            for _ in range(rng.randint(1, 6))
        ]
        inst = Instance.from_valuations(goods, (grp, list(grp)))
        result = identical_local_search(inst)
        n = sum(result.report.sizes)
        assert len(result.trace.moves) <= n // 2
        assert result.report.h >= Fraction(2, 3)


# ---------------------------------------------------------------------------
# line protocols


def _pair(inst, a, b, order=None):
    groups = [[ag.valuation for ag in inst.groups[g]] for g in (a, b)]
    return Instance.from_valuations(inst.goods, groups, order)


def _counts(result):
    return [rec.counts for rec in result.trace.records]


def test_line2_first_pair(additive_three_groups):
    inst = _pair(additive_three_groups, 0, 1)
    result = line2(inst)
    assert _counts(result) == [
        ((0, 0, 9), (1, 0, 6)),
        ((0, 2, 9), (1, 0, 6)),
        ((0, 2, 9), (1, 1, 6)),
        ((0, 2, 9), (1, 1, 6)),
        ((0, 9, 9),),
    ]
    assert result.trace.records[-1].claimed_by == 0
    assert result.trace.records[-1].left == (0, 1, 2, 3)
    assert _labels(inst, result) == ({"u", "v", "w", "x"}, {"y", "z"})
    assert result.report.happy == (9, 5)
    assert result.guarantees == (Fraction(1, 2), Fraction(1, 2))
    assert result.trace.criterion_label == "EF1"
    assert result.trace.remainder_group == 1


def test_line2_second_pair(additive_three_groups):
    inst = _pair(additive_three_groups, 0, 2)
    result = line2(inst)
    assert _counts(result) == [
        ((0, 0, 9), (1, 0, 12)),
        ((0, 2, 9), (1, 0, 12)),
        ((0, 2, 9), (1, 3, 12)),
        ((0, 2, 9), (1, 3, 12)),
        ((0, 9, 9),),
    ]
    assert _labels(inst, result) == ({"u", "v", "w", "x"}, {"y", "z"})
    assert result.report.happy == (9, 9)


def test_line2_reversed_order(additive_three_groups):
    inst = _pair(
        additive_three_groups, 1, 2, order=tuple(reversed(range(6)))
    )
    result = line2(inst)
    assert _counts(result) == [
        ((0, 0, 6), (1, 0, 12)),
        ((0, 0, 6), (1, 0, 12)),
        ((0, 5, 6),),
    ]
    assert result.trace.records[-1].claimed_by == 0
    assert _labels(inst, result) == ({"y", "z"}, {"u", "v", "w", "x"})
    assert result.report.happy == (5, 12)


def test_line2_validation(additive_three_groups):
    with pytest.raises(ValueError):
        line2(additive_three_groups)


def test_linek_three_groups(additive_three_groups):
    inst = additive_three_groups
    result = linek(inst)
    assert _counts(result) == [
        ((0, 0, 9), (1, 0, 6), (2, 0, 12)),
        ((0, 2, 9), (1, 1, 6), (2, 3, 12)),
        ((0, 2, 9), (1, 6, 6)),
        ((0, 0, 9), (2, 0, 12)),
        ((0, 2, 9), (2, 3, 12)),
        ((0, 9, 9),),
    ]
    assert [rec.claimed_by for rec in result.trace.records] == [
        None, None, 1, None, None, 0,
    ]
    assert _labels(inst, result) == ({"w", "x"}, {"u", "v"}, {"y", "z"})
    assert result.report.happy == (9, 6, 9)
    assert result.report.sizes == (9, 6, 12)
    assert result.guarantees == (Fraction(1, 3),) * 3
    assert result.trace.criterion_label == "PROP-2"
    assert result.trace.remainder_group == 2


def test_linek_on_two_groups_matches_prop1(additive_three_groups):
    inst = _pair(additive_three_groups, 0, 1)
    result = linek(inst)
    assert result.trace.criterion_label == "PROP-1"
    assert result.report.h >= Fraction(1, 2)


@st.composite
def _valuations(draw, m, kinds=("additive", "binary", "tabular")):
    # tabular members only up to 5 goods
    kind = draw(st.sampled_from([x for x in kinds if x != "tabular" or m <= 5]))
    if kind == "binary":
        return BinaryValuation(Bundle(draw(st.integers(0, (1 << m) - 1)), m))
    if kind == "additive":
        return AdditiveValuation(tuple(
            Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
            for _ in range(m)
        ))
    # monotone: a bundle is worth its best one-smaller subset plus a gain
    table = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        table[mask] = max(
            table[mask & ~(1 << i)] for i in range(m) if mask >> i & 1
        ) + Fraction(draw(st.integers(0, 4)), draw(st.integers(1, 2)))
    return TabularValuation(tuple(table), m)


@st.composite
def line_instances(draw, k):
    # up to 5 goods any member may be tabular; past that (long blocks,
    # several claims) members are binary or additive
    m = draw(st.one_of(st.integers(1, 5), st.integers(6, 40)))
    groups = [
        [draw(_valuations(m)) for _ in range(draw(st.integers(1, 4)))]
        for _ in range(k)
    ]
    order = draw(st.permutations(range(m)))
    return Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups, order)


def _line_outcome(protocol, inst):
    """Every output field of a line-protocol run, or its error."""
    try:
        result = protocol(inst)
    except ProtocolInvariantError as exc:
        return type(exc), str(exc)
    trace = result.trace
    fields = [
        result.protocol, result.allocation, result.report, result.guarantees,
        result.criteria, result.expected_guarantees, type(trace), trace.kind,
        trace.criterion_label, trace.remainder_group,
        *(tuple(getattr(rec, f) for f in rec._fields) for rec in trace.records),
    ]
    return fields, repr(fields)


@settings(max_examples=120, deadline=None)
@given(st.integers(2, 4).flatmap(line_instances))
def test_line_protocols_match_reference_loops(inst):
    if inst.k == 2:
        assert _line_outcome(line2, inst) == _line_outcome(reference_line2, inst)
    if any(isinstance(a.valuation, TabularValuation) for a in inst.agents()):
        with pytest.raises(ValueError, match="additive and binary agents only"):
            linek(inst)
    else:
        assert _line_outcome(linek, inst) == _line_outcome(reference_linek, inst)


def test_linek_refuses_tabular_members():
    # with these two members the claimed 1/2 of PROP-1 was missed: group 2
    # ended with no happy member
    goods = ("x", "y", "z")

    def tabular(*values):  # by mask: {}, x, y, xy, z, xz, yz, xyz
        return TabularValuation(tuple(Fraction(v) for v in values), 3)

    inst = Instance.from_valuations(goods, [
        [tabular(0, 0, 3, 3, 2, 2, 3, 3)], [tabular(0, 0, 0, 2, 0, 2, 1, 2)],
    ])
    with pytest.raises(ValueError) as info:
        linek(inst)
    assert str(info.value) == "linek works on additive and binary agents only"
    assert line2(inst).report.h >= Fraction(1, 2)


@st.composite
def _line_runs(draw):
    """``line2`` on binary, additive or tabular members, or ``linek`` on
    binary or additive ones, over 1-7 goods in a random order."""
    m = draw(st.integers(1, 7))
    protocol = draw(st.sampled_from([line2, linek]))
    k = 2 if protocol is line2 else draw(st.integers(2, 4))
    kinds = ("additive", "binary") + (("tabular",) if protocol is line2 else ())
    groups = [[draw(_valuations(m, kinds)) for _ in range(draw(st.integers(1, 4)))]
              for _ in range(k)]
    order = draw(st.permutations(range(m)))
    goods = tuple(f"g{i}" for i in range(m))
    return protocol, Instance.from_valuations(goods, groups, order)


@settings(max_examples=150, deadline=None)
@given(_line_runs())
def test_line_verdicts_turn_only_from_no_to_yes(run):
    # the 1/k guarantee needs it: a block that once had a member's yes keeps it
    protocol, inst = run
    k, m = inst.k, inst.m
    if protocol is line2:
        def holds(v, left, right):
            return efc_holds(v, left, (right,), 1)
    else:
        def holds(v, left, right):
            return propc_holds(v, left, k, k - 1)
    said_yes = set()  # the members that said yes earlier in this block
    for rec in protocol(inst).trace.records:
        left, right = Bundle.from_indices(rec.left, m), Bundle.from_indices(rec.right, m)
        for agent in inst.agents():
            member = agent.group, agent.index
            if holds(agent.valuation, left, right):
                said_yes.add(member)
            else:
                assert member not in said_yes, (member, rec.left)
        if rec.claimed_by is not None:
            said_yes = set()


def test_a_tabular_prop1_verdict_turns_back_to_no():
    # why linek refuses tabular members: along the order (0, 2, 1) this
    # member's PROP-1 verdict reads yes, no, yes, yes
    v = TabularValuation(tuple(map(Fraction, (0, 0, 0, 1, 0, 2, 0, 4))), 3)
    blocks = [(), (0,), (0, 2), (0, 2, 1)]
    assert [propc_holds(v, Bundle.from_indices(block, 3), 2, 1)
            for block in blocks] == [True, False, True, True]


def test_line_that_no_group_claims_raises(mixed_two_group, monkeypatch):
    # a verdict that never holds leaves the block unclaimed to the last good
    monkeypatch.setattr(protocols, "_holds", lambda *_: False)
    with pytest.raises(ProtocolInvariantError,
                       match="^line2 exhausted goods without a claim$"):
        line2(mixed_two_group)


# ---------------------------------------------------------------------------
# guarantee audit: every protocol meets the guarantees it reports

BINARY = ("binary",)
ANY = ("additive", "binary", "tabular")
PICKING_CRITERIA = st.sampled_from([
    EFc(1), PROPc(1), MMS(), OneOfBestC(1), OneOfBestC(2), OneOutOfCMMS(2),
])


def _audit_instance(data, kinds, k, identical=False):
    # members all of one accepted kind, or mixed
    kinds = data.draw(st.sampled_from([kinds, *((x,) for x in kinds)]))
    m = data.draw(st.integers(1, 5))
    groups = [
        [data.draw(_valuations(m, kinds)) for _ in range(data.draw(st.integers(1, 4)))]
        for _ in range(k)
    ]
    if identical:
        groups[1] = data.draw(st.permutations(groups[0]))
    return Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)


def _line_instance(data, kinds, k_max):
    # half the draws take the shape on which linek, given tabular members,
    # missed its claim: two groups of one tabular member each over 3 to 5
    # goods (about one such draw in eight misses it)
    if data.draw(st.booleans()):
        m = data.draw(st.integers(3, 5))
        groups = [[data.draw(_valuations(m, ("tabular",)))] for _ in range(2)]
        return Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)
    return _audit_instance(data, kinds, data.draw(st.integers(2, k_max)))


def _rwavk(data):
    k = data.draw(st.integers(2, 4))
    return rwavk(_audit_instance(data, BINARY, k), data.draw(st.integers(k, k + 2)))


# each protocol run on small random instances of every kind it accepts
AUDIT = {
    "rwav2": lambda data: rwav2(
        _audit_instance(data, BINARY, 2),
        data.draw(PICKING_CRITERIA | st.tuples(PICKING_CRITERIA, PICKING_CRITERIA)),
        first_group=data.draw(st.integers(0, 1)),
    ),
    "rwav2_enhanced": lambda data: rwav2_enhanced(
        _audit_instance(data, BINARY, 2), c=data.draw(st.integers(2, 4))),
    "cwav2": lambda data: cwav2(
        _audit_instance(data, BINARY, 2), data.draw(PICKING_CRITERIA),
        seed=data.draw(st.integers(0, 99))),
    "identical_local_search": lambda data: identical_local_search(
        _audit_instance(data, BINARY, 2, identical=True)),
    "line2": lambda data: line2(_line_instance(data, ANY, 2)),
    "linek": lambda data: linek(_line_instance(data, ("additive", "binary"), 4)),
    "rwavk": _rwavk,
    "best_k_protocol": lambda data: best_k_protocol(
        _audit_instance(data, ANY, data.draw(st.integers(2, 4)))),
}


@pytest.mark.parametrize("name", AUDIT)
def test_guarantee_audit(name):
    # linek refuses its tabular half: twice the examples audit as many
    # instances it accepts as the others do
    @settings(max_examples=120 if name == "linek" else 60, deadline=None)
    @given(data=st.data())
    def audit(data):
        try:
            result = AUDIT[name](data)
        except ValueError as exc:
            assert (name, str(exc)) == ("linek", "linek works on additive and binary agents only")
            return
        fractions = result.report.fractions
        if name == "rwavk":  # its guarantees are floats: check B_k(c - g, 1) exactly
            c, k = result.criteria[0].c, len(fractions)
            assert all(meets_bk(f, c - g, k) for g, f in enumerate(fractions))
        else:
            assert all(map(operator.ge, fractions, result.guarantees))

    audit()


def test_a_run_below_its_guarantee_raises(mixed_two_group, monkeypatch):
    inst = mixed_two_group

    def report(*args):  # with no member of the last group happy
        verdicts = democratic_report(*args).verdicts
        return FairnessReport(verdicts[:-1] + ((False,) * len(verdicts[-1]),))

    monkeypatch.setattr(protocols, "democratic_report", report)
    for name, run, claim in (
        ("rwav2", lambda: rwav2(inst, MIXED_CRITERIA), Fraction(1, 2)),
        ("line2", lambda: line2(inst), Fraction(1, 2)),
        ("rwavk", lambda: rwavk(inst, c=2), 0.5),
    ):
        with pytest.raises(ProtocolInvariantError) as info:
            run()
        exc = info.value
        assert str(exc) == f"{name}: group 2 happy fraction 0 is below its guarantee {claim}"
        assert (exc.agent, exc.turn, exc.expected, exc.actual) == (None, None, claim, 0)
    # cwav2 claims 0 per run
    assert cwav2(inst, MIXED_CRITERIA, seed=3).report.happy[1] == 0


def test_rwav2_enhanced_fallback_checks_its_own_guarantee(monkeypatch):
    # No good is wanted by 3/5 of a group, so rwav2 runs.  One of group 2's
    # two members happy meets rwav2's claim of B(1, 1) = 1/2, not the 3/5
    # that rwav2-enhanced claims.
    inst = Instance.from_valuations(
        "abcd", ([binval("ab", "abcd"), binval("cd", "abcd")],) * 2)
    monkeypatch.setattr(protocols, "democratic_report",
                        lambda *_: FairnessReport(((True, True), (True, False))))
    with pytest.raises(ProtocolInvariantError) as info:
        rwav2_enhanced(inst, c=2)
    assert str(info.value) == (
        "rwav2-enhanced: group 2 happy fraction 1/2 is below its guarantee 3/5")
    assert (info.value.expected, info.value.actual) == (Fraction(3, 5), Fraction(1, 2))


def test_exact_bk_comparison_matches_meets_bk():
    # fractions on both sides of 1 - 2**(-r/d), for every small r and k
    for k in range(2, 6):
        for r in range(-1, 9):
            bound = 1 - 2 ** (-r / (k - 1))  # places the grid only
            for q in range(1, 60):
                near = int(bound * q)
                for p in range(max(0, near - 1), min(q, near + 2) + 1):
                    frac = Fraction(p, q)
                    assert _reaches_bk(frac, r, k - 1) == meets_bk(frac, r, k)
    # B_3(1, 1) as a float lies above the exact bound, and this fraction
    # lies between them: it meets the guarantee, though not its float
    frac = Fraction("0.2928932188134525")
    assert _reaches_bk(frac, 1, 2) and meets_bk(frac, 1, 3)
    assert frac < KGroupWeights(3).B(1, 1)
    assert not _reaches_bk(frac - Fraction(1, 10**16), 1, 2)


# ---------------------------------------------------------------------------
# k-group RWAV


def test_rwavk_three_identical_groups():
    inst = Instance.from_valuations(
        ("a", "b", "c"),
        ([binval("abc", "abc")], [binval("abc", "abc")], [binval("abc", "abc")]),
    )
    result = rwavk(inst, c=3)
    assert _labels(inst, result) == ({"a"}, {"b"}, {"c"})
    assert result.report.happy == (1, 1, 1)
    kw = KGroupWeights(3)
    assert result.guarantees == (kw.B(3, 1), kw.B(2, 1), kw.B(1, 1))
    assert result.criteria == (OneOfBestC(3),) * 3


def test_rwavk_truncates_to_lowest_indices():
    inst = Instance.from_valuations(
        ("a", "b", "c", "d"),
        ((binval("abcd", "abcd"),), (binval("d", "abcd"),)),
    )
    result = rwavk(inst, c=2)
    # the four-good member plays as if it wanted only {a, b}
    assert result.trace.turns[0].member_states[0][:2] == (2, 1)
    assert result.report.happy == (1, 1)


@pytest.mark.filterwarnings("error")
def test_rwavk_warns_when_c_below_k():
    inst = Instance.from_valuations(
        ("a", "b"),
        ([binval("ab", "ab")], [binval("ab", "ab")], [binval("ab", "ab")]),
    )
    with pytest.warns(UserWarning, match="c=2 < k=3"):
        result = rwavk(inst, c=2)
    assert result.guarantees[2] == 0
    # a c below 1 is refused before any warning
    with pytest.raises(ValueError, match="^1-of-best-c needs c >= 1$"):
        rwavk(inst, c=0)


def test_rwavk_respects_guarantees_random():
    rng = random.Random(987)
    for _ in range(60):
        k = rng.randint(2, 4)
        inst = random_binary_instance(rng, k, m_max=6, n_max=4)
        c = rng.randint(k, k + 2)
        result = rwavk(inst, c)
        kw = KGroupWeights(k)
        for g in range(k):
            assert result.guarantees[g] == max(0.0, kw.B(c - g, 1))
            assert meets_bk(result.report.fractions[g], c - g, k)


def test_rwavk_exact_tie_goes_to_lowest_index():
    # After groups 1 and 2 take b and d, group 3 weighs a and c alike:
    # each is wanted by three members at w_3(2, 1) and one at w_3(1, 1),
    # only in a different member order.  Summed in floats, a came out one
    # unit in the last place below the exact value and c one above, so c
    # was taken.
    goods = ("a", "b", "c", "d", "e", "f")
    inst = Instance.from_valuations(
        goods,
        (
            [binval("bd", goods), binval("bcdf", goods)],
            [binval("bde", goods), binval("bde", goods), binval("ef", goods)],
            [binval("abcef", goods), binval("abde", goods),
             binval("abcd", goods), binval("acd", goods), binval("bcd", goods)],
        ),
    )
    result = rwavk(inst, c=3)
    turn = result.trace.turns[2]
    assert (turn.group, turn.remaining) == (2, (0, 2, 4, 5))
    weights = dict(turn.good_weights)
    assert weights[0] == weights[2] == max(weights.values())
    assert turn.pick == 0
    assert _labels(inst, result) == ({"b", "c"}, {"d", "e"}, {"a", "f"})


def _wanting_nothing(k):
    # k one-member groups over one good: no group has a near-unanimous good
    return Instance.from_valuations(("a",), [[binval("", "a")]] * k)


def test_rwavk_refuses_more_groups_than_its_cap():
    # its exact roots cost about k**5 in the group count k
    inst = _wanting_nothing(protocols.MAX_RWAVK_GROUPS + 1)
    for run in (lambda: rwavk(inst, c=1), lambda: best_k_protocol(inst)):
        with pytest.raises(CapExceededError,
                           match="^rwavk: 65 groups, above the cap of 64$"):
            run()


def test_rwavk_runs_up_to_its_cap(monkeypatch):
    monkeypatch.setattr(protocols, "MAX_RWAVK_GROUPS", 3)
    assert rwavk(_wanting_nothing(3), c=3).report.happy == (1, 1, 1)
    with pytest.raises(CapExceededError, match="^rwavk: 4 groups, above the cap of 3$"):
        rwavk(_wanting_nothing(4), c=4)


def test_rwavk_guarantees_hold_exactly():
    # h >= 1 - 2**(-(c-g)/(k-1)) is (1 - h)**(k-1) <= 2**-(c-g), in Fractions
    rng = random.Random(4242)
    for _ in range(200):
        k = rng.randint(2, 5)
        inst = random_binary_instance(rng, k, m_max=7, n_max=5)
        c = rng.randint(k, k + 2)
        result = rwavk(inst, c)
        for g, h in enumerate(result.report.fractions):
            assert (1 - h) ** (k - 1) <= Fraction(2) ** (g - c)


# ---------------------------------------------------------------------------
# best-of-k protocol


def test_best_k_unanimous_then_pair():
    inst = Instance.from_valuations(
        ("a", "b", "c", "d"),
        (
            [binval("a", "abcd")] * 2,
            [binval("bc", "abcd")] * 2,
            [binval("cd", "abcd")] * 2,
        ),
    )
    result = best_k_protocol(inst)
    assert result.protocol == "best-k"
    assert isinstance(result.trace, BestKTrace)
    assert result.trace.steps == (
        UnanimousStep(group=0, good=0, desiring=2, size=2),
    )
    assert result.trace.base_groups == (1, 2)
    assert _labels(inst, result) == ({"a"}, {"b"}, {"c", "d"})
    assert result.report.happy == (2, 2, 2)
    assert result.guarantees == (Fraction(1, 3),) * 3
    assert result.criteria == (OneOfBestC(3),) * 3


def test_best_k_two_groups_is_enhanced():
    inst = Instance.from_valuations(
        ("a", "b", "c"),
        ([binval("ab", "abc")] * 3, [binval("ac", "abc")] * 3),
    )
    result = best_k_protocol(inst)
    assert result.trace.steps == ()
    assert result.trace.base.protocol == "rwav2-enhanced"
    assert _labels(inst, result) == ({"a"}, {"b", "c"})


def test_best_k_rwavk_stage():
    # 3 groups of 4; no good reaches a third of any group
    goods = tuple(f"g{i}" for i in range(12))
    groups = [
        [binval((f"g{4 * g + j}",), goods) for j in range(4)]
        for g in range(3)
    ]
    inst = Instance.from_valuations(goods, groups)
    result = best_k_protocol(inst)
    assert result.trace.steps == ()
    assert result.trace.base.protocol == "rwavk"
    assert result.report.h >= Fraction(1, 3)


def test_best_k_trace_when_the_steps_take_every_good():
    inst = Instance.from_valuations(
        ("a",), ([binval("a", "a")] * 2, [binval("a", "a")], [binval("a", "a")])
    )
    result = best_k_protocol(inst)
    assert result.trace.base is None and result.trace.base_goods == ()
    assert _render_trace(result, inst) == (
        "Step #1: Group 1 takes good a (2/2 members want it)\n"
        "\n"
        "Final allocation:\n"
        " *  Group 1: allocated bundle = {'a'}, happy members = 2/2\n"
        " *  Group 2: allocated bundle = set(), happy members = 1/1\n"
        " *  Group 3: allocated bundle = set(), happy members = 1/1\n"
    )


def test_best_k_guarantee_random():
    rng = random.Random(5151)
    for _ in range(60):
        k = rng.randint(2, 4)
        inst = random_binary_instance(rng, k, m_max=6, n_max=4)
        result = best_k_protocol(inst)
        assert result.report.h >= Fraction(1, 3)
        # the reported verdicts really are 1-of-best-k on the original
        again = democratic_report(inst, result.allocation, OneOfBestC(k))
        assert again.verdicts == result.report.verdicts


# ---------------------------------------------------------------------------
# coin-flip rwav


def _all_three_instance():
    return Instance.from_valuations(
        ("a", "b", "c"),
        ([binval("abc", "abc")] * 2, [binval("abc", "abc")] * 2),
    )


def test_cwav2_replay_is_deterministic():
    inst = _all_three_instance()
    first = cwav2(inst, EFc(0), seed=99)
    second = cwav2(inst, EFc(0), seed=99)
    assert first.allocation == second.allocation
    assert [t.pick for t in first.trace.turns] == [
        t.pick for t in second.trace.turns
    ]
    assert first.report.happy == second.report.happy


def test_cwav2_expected_guarantees():
    inst = _all_three_instance()
    result = cwav2(inst, EFc(0), seed=3)
    # every member wants 3 and needs 2, so the stake is C(3, 2) each
    assert result.expected_guarantees == (Fraction(1, 2), Fraction(1, 2))
    assert result.guarantees == (0, 0)
    assert result.protocol == "cwav2"


def test_cwav2_seeds_cover_both_orders():
    inst = _all_three_instance()
    firsts = {cwav2(inst, EFc(0), seed=s).trace.turns[0].group for s in range(12)}
    assert firsts == {0, 1}


def test_cwav2_mean_happiness_near_stake():
    # whoever wins two of the three coin flips is fully happy, the other
    # group not at all; per-group happiness should average the 1/2 stake
    inst = _all_three_instance()
    total = Fraction(0)
    runs = 400
    for seed in range(runs):
        result = cwav2(inst, EFc(0), seed=seed)
        total += sum(result.report.fractions, Fraction(0)) / 2
    mean = total / runs
    assert abs(mean - Fraction(1, 2)) < Fraction(1, 10)


# ---------------------------------------------------------------------------
# trace text


@st.composite
def _one_letter_instances(draw, k):
    # at most six one-letter goods, so a desired-set label fits its column
    m = draw(st.integers(1, 6))
    groups = [
        [BinaryValuation(Bundle(mask, m))
         for mask in draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4))]
        for _ in range(k)
    ]
    return Instance.from_valuations(tuple("abcdef"[:m]), groups)


# each picking protocol: its group counts, and its call on a drawn instance
PICKING_RUNS = {
    "rwav2": (st.just(2), lambda data, inst: rwav2(
        inst, data.draw(PICKING_CRITERIA), first_group=data.draw(st.integers(0, 1)))),
    "cwav2": (st.just(2), lambda data, inst: cwav2(
        inst, data.draw(PICKING_CRITERIA), seed=data.draw(st.integers(0, 99)))),
    "rwavk": (st.integers(2, 4), lambda data, inst: rwavk(
        inst, data.draw(st.integers(1, inst.k + 1)))),
}


@pytest.mark.filterwarnings("ignore:rwavk with c=")
@pytest.mark.parametrize("name", PICKING_RUNS)
def test_trace_member_rows_list_r_goods(name):
    # a member row shows the desired goods that the loop still weighs, and
    # r counts them
    groups, run = PICKING_RUNS[name]

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def check(data):
        inst = data.draw(_one_letter_instances(data.draw(groups)))
        for row in _render_trace(run(data, inst), inst).splitlines():
            if re.match(r"\d+ members? ", row):
                labels, r = row[12:24].strip(), int(row[24:27])
                assert len(labels.split(",") if labels else ()) == r, row

    check()


# ---------------------------------------------------------------------------
# random characterization


def test_rwav2_random_runs_meet_guarantees():
    rng = random.Random(424242)
    criteria = [
        EFc(1),
        OneOutOfCMMS(2),
        OneOutOfCMMS(3),
        OneOfBestC(2),
        OneOfBestC(3),
    ]
    for _ in range(150):
        inst = random_binary_instance(rng, 2)
        criterion = rng.choice(criteria)
        first = rng.randrange(2)
        result = rwav2(inst, criterion, first_group=first)
        for g in range(2):
            assert result.report.fractions[g] >= result.guarantees[g]
        assert isinstance(result, RunResult)
        assert isinstance(result.trace, ProtocolTrace)
        assert len(result.trace.turns) == inst.m


# ---------------------------------------------------------------------------
# refused instances

# each protocol, how it is called, whether it needs exactly two groups (or
# at least two), and whether it needs binary members
REFUSING = [
    ("rwav2", lambda inst: rwav2(inst, OneOfBestC(2)), True, True),
    ("rwav2_enhanced", rwav2_enhanced, True, True),
    ("identical_local_search", identical_local_search, True, True),
    ("line2", line2, True, False),
    ("cwav2", lambda inst: cwav2(inst, OneOfBestC(2), seed=1), True, True),
    ("linek", linek, False, False),
    ("rwavk", lambda inst: rwavk(inst, 2), False, True),
    ("best_k_protocol", best_k_protocol, False, False),
]


@pytest.mark.parametrize("name, run, two, binary", REFUSING,
                         ids=[case[0] for case in REFUSING])
def test_refusal_texts(name, run, two, binary):
    def additive(k):
        return Instance.from_valuations(
            GOODS5, [[addval((1, 2, 3, 4, 5))] for _ in range(k)])

    # a wrong group count is named first, also when members are not binary
    wrong = additive(3) if two else additive(1)
    which = "exactly" if two else "at least"
    with pytest.raises(ValueError) as info:
        run(wrong)
    assert str(info.value) == f"{name} needs {which} two groups"
    if binary:
        with pytest.raises(ValueError) as info:
            run(additive(2))
        assert str(info.value) == (
            f"{name} works on binary agents only; binarize explicitly first")
    else:
        assert run(additive(2)).allocation.k == 2
