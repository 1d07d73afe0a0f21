"""End-to-end acceptance checklist: eleven scenarios, one test each.

Covers the frozen worked examples for the picking and line protocols, the
exact budget-table identities and properties, randomized invariant sweeps,
the guarantee bound of every protocol, exhaustive impossibility bounds,
criterion implications with their tightness witnesses, EF2 existence by
search, and the randomized protocol's expectation.  Every test enforces
its own wall-clock budget, so ``pytest tests/test_acceptance.py -v``
reads as one pass/fail line per criterion.
"""

import math
import pathlib
import random
import statistics
import time
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

from groupfair.budgets import (
    B_closed,
    BudgetTable,
    DEFAULT_TABLE,
    maxh_finite,
)
from groupfair.budgets import B as budget_B
from groupfair.budgets import w as budget_w
from groupfair.cli import _render_trace
from groupfair.fairness import (
    EFc,
    FractionMMS,
    MMS,
    OneOfBestC,
    OneOutOfCMMS,
    PROPc,
    PositiveMMS,
    check,
    mms_share,
    s_threshold,
)
from groupfair.model import (
    AdditiveValuation,
    Agent,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    TabularValuation,
    bundles_of,
)
from groupfair.oracles import (
    AdditiveThird,
    AllSubsets,
    Circle,
    ThreeGoodCycle,
    exists_h,
    generate,
    max_h,
    negative_bound,
    verify_negative,
)
from groupfair.protocols import (
    best_k_protocol,
    cwav2,
    identical_local_search,
    line2,
    linek,
    rwav2,
    rwav2_enhanced,
    rwavk,
)

from conftest import meets_bk, random_binary_instance

DATA = pathlib.Path(__file__).parent / "data"


def _random_additive_instance(rng, k, m_max=8, n_max=6, vmax=9):
    m = rng.randint(2, m_max)
    goods = tuple(f"g{i}" for i in range(m))
    groups = [
        [
            AdditiveValuation(
                tuple(Fraction(rng.randint(0, vmax)) for _ in range(m))
            )
            for _ in range(rng.randint(1, n_max))
        ]
        for _ in range(k)
    ]
    return Instance.from_valuations(goods, groups)


# ---------------------------------------------------------------------------
# 1. the two-group picking protocol reproduces both frozen sample runs


def test_01_rwav2_reproduces_both_sample_runs(mixed_two_group):
    start = time.perf_counter()
    inst = mixed_two_group
    criteria = (OneOutOfCMMS(2), OneOfBestC(2))

    first = rwav2(inst, criteria, first_group=0)
    assert [inst.goods[t.pick] for t in first.trace.turns] == list("wzxvy")
    opening = first.trace.turns[0]
    assert opening.member_states == (
        ((2, 1, Fraction(1, 2**2)),) * 2
        + ((3, 1, Fraction(1, 2**3)),)
        + ((4, 2, Fraction(1, 2**2)),) * 5
        + ((2, 1, Fraction(1, 2**2)),) * 3
    )
    assert {inst.goods[g]: t for g, t in opening.good_weights} == {
        "v": Fraction(5, 8),
        "w": 2,
        "x": Fraction(15, 8),
        "y": Fraction(11, 8),
        "z": 2,
    }
    assert first.report.happy == (11, 5)
    assert first.report.sizes == (11, 5)
    # bit-exact check of every printed weight in the run
    assert _render_trace(first, inst) == (DATA / "b1_trace.txt").read_text()

    second = rwav2(inst, criteria, first_group=1)
    assert [inst.goods[t.pick] for t in second.trace.turns] == list("zwvxy")
    opening = second.trace.turns[0]
    assert opening.member_states == (
        ((4, 1, Fraction(1, 2**4)),) * 2 + ((2, 1, Fraction(1, 2**2)),) * 3
    )
    assert {inst.goods[g]: t for g, t in opening.good_weights} == {
        "v": Fraction(3, 4),
        "w": Fraction(1, 8),
        "x": Fraction(1, 8),
        "y": Fraction(1, 8),
        "z": Fraction(7, 8),
    }
    assert second.report.happy == (11, 5)
    assert second.report.sizes == (11, 5)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 2. the line protocols reproduce their frozen sample runs


def _line_pair(inst, a, b, order=None):
    groups = [[ag.valuation for ag in inst.groups[g]] for g in (a, b)]
    return Instance.from_valuations(inst.goods, groups, order)


def test_02_line_protocols_reproduce_sample_runs(additive_three_groups):
    start = time.perf_counter()
    base = additive_three_groups

    one_two = line2(_line_pair(base, 0, 1))
    assert [rec.counts for rec in one_two.trace.records] == [
        ((0, 0, 9), (1, 0, 6)),
        ((0, 2, 9), (1, 0, 6)),
        ((0, 2, 9), (1, 1, 6)),
        ((0, 2, 9), (1, 1, 6)),
        ((0, 9, 9),),
    ]
    assert one_two.report.happy == (9, 5)
    assert one_two.report.sizes == (9, 6)

    one_three = line2(_line_pair(base, 0, 2))
    assert [rec.counts for rec in one_three.trace.records] == [
        ((0, 0, 9), (1, 0, 12)),
        ((0, 2, 9), (1, 0, 12)),
        ((0, 2, 9), (1, 3, 12)),
        ((0, 2, 9), (1, 3, 12)),
        ((0, 9, 9),),
    ]
    assert one_three.report.happy == (9, 9)
    assert one_three.report.sizes == (9, 12)

    two_three = line2(
        _line_pair(base, 1, 2, order=tuple(reversed(range(6))))
    )
    assert [rec.counts for rec in two_three.trace.records] == [
        ((0, 0, 6), (1, 0, 12)),
        ((0, 0, 6), (1, 0, 12)),
        ((0, 5, 6),),
    ]
    assert two_three.report.happy == (5, 12)
    assert two_three.report.sizes == (6, 12)

    three_way = linek(base)
    assert [rec.counts for rec in three_way.trace.records] == [
        ((0, 0, 9), (1, 0, 6), (2, 0, 12)),
        ((0, 2, 9), (1, 1, 6), (2, 3, 12)),
        ((0, 2, 9), (1, 6, 6)),
        ((0, 0, 9), (2, 0, 12)),
        ((0, 2, 9), (2, 3, 12)),
        ((0, 9, 9),),
    ]
    bundles = tuple(
        set(base.labels(b)) for b in bundles_of(three_way.allocation)
    )
    assert bundles == ({"w", "x"}, {"u", "v"}, {"y", "z"})
    assert three_way.report.happy == (9, 6, 9)
    assert three_way.report.sizes == (9, 6, 12)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 3. budget recurrence == closed form; frozen three-decimal weight grid

# w(r, s) to three decimals, rows r = 0..10; short rows stop where the
# frozen grid does.
_W_GRID = (
    ("0", "0", "0"),
    ("0", ".500", "0"),
    ("0", ".250", "0", "0"),
    ("0", ".125", ".375", "0"),
    ("0", ".063", ".250", "0", "0"),
    ("0", ".031", ".156", ".313", "0"),
    ("0", ".016", ".094", ".234", "0", "0"),
    ("0", ".008", ".055", ".164", ".273", "0"),
    ("0", ".004", ".031", ".109", ".219", "0", "0"),
    ("0", ".002", ".018", ".070", ".164", ".246", "0"),
    ("0", ".001", ".010", ".044", ".117", ".205", "0"),
)


def _three_decimals(value) -> Decimal:
    frac = Fraction(value)
    return (Decimal(frac.numerator) / Decimal(frac.denominator)).quantize(
        Decimal("0.001"), rounding=ROUND_HALF_UP
    )


def test_03_budget_recurrence_matches_closed_form():
    start = time.perf_counter()
    table = BudgetTable()
    for r in range(31):
        for s in range(r + 1):
            assert table.B(r, s) == B_closed(r, s)
    assert budget_w(1, 1) == Fraction(1, 2)
    assert budget_w(3, 2) == Fraction(3, 8)
    assert budget_B(2, 1) == Fraction(3, 4)
    assert budget_B(4, 2) == Fraction(5, 8)
    for r, row in enumerate(_W_GRID):
        for s, cell in enumerate(row):
            assert _three_decimals(budget_w(r, s)) == Decimal(cell).quantize(
                Decimal("0.001")
            ), f"w({r}, {s}) printed wrong"
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# 4. budget-table property suite, exact arithmetic throughout


def test_04_budget_table_property_suite():
    start = time.perf_counter()
    table = BudgetTable()
    for s in range(31):
        for r in range(30):
            assert table.B(r + 1, s) >= table.B(r, s)
        for r in range(31):
            assert table.B(r, s + 1) <= table.B(r, s)
    for s in range(1, 31):
        for r in range(min(30, 2 * s - 2) + 1):
            assert table.B(r, s) == 0
    for s in range(31):
        for r in range(max(1, 2 * s - 1), 31):
            averaged = (table.B(r - 1, s) + table.B(r - 1, s - 1)) / 2
            assert table.B(r, s) == averaged
    for c in range(3, 9):
        floor_bound = 1 - Fraction(1, 2 ** (c - 1))
        for s in range(1, 13):
            assert table.B(c * s - 1, s) >= floor_bound
            # binomial tail bound behind the c >= 3 guarantee
            lead = sum(math.comb(c * s - 1, i) for i in range(s))
            trail = sum(math.comb(c * s - 1, i) for i in range(s - 1))
            assert lead + trail <= 2 ** (c * s - c)
    for s in range(1, 13):
        # sharper c = 3 inequality: comb(3s-1, s-1) * 3s/(s+2) <= 2^(3s-3)
        assert math.comb(3 * s - 1, s - 1) * 3 * s <= (s + 2) * 2 ** (
            3 * s - 3
        )
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 5. ledger invariants hold on every turn of 1,000 random runs

_THRESHOLD_CRITERIA = (
    EFc(0),
    EFc(1),
    EFc(2),
    PROPc(1),
    PROPc(2),
    MMS(),
    OneOutOfCMMS(2),
    OneOutOfCMMS(3),
    OneOutOfCMMS(4),
    OneOfBestC(1),
    OneOfBestC(2),
    OneOfBestC(3),
    PositiveMMS(),
)


def test_05_balance_invariants_on_random_runs():
    start = time.perf_counter()
    rng = random.Random(0x5A11CE)
    table = DEFAULT_TABLE
    for _ in range(1000):
        inst = random_binary_instance(rng, 2, m_max=12, n_max=8)
        crits = (rng.choice(_THRESHOLD_CRITERIA), rng.choice(_THRESHOLD_CRITERIA))
        result = rwav2(inst, crits, first_group=rng.randrange(2))

        # replay the run from the pick sequence alone and check that the
        # recorded balances equal -B(remaining desired, still needed)
        live = [
            [agent.valuation.desired.mask for agent in grp]
            for grp in inst.groups
        ]
        need = [
            [
                s_threshold(crits[g], mask.bit_count(), 2)
                for mask in live[g]
            ]
            for g in range(2)
        ]
        initial = [
            sum(
                (
                    table.B(mask.bit_count(), need[g][j])
                    for j, mask in enumerate(live[g])
                ),
                Fraction(0),
            )
            for g in range(2)
        ]
        balances = [[initial[0]], [initial[1]]]
        for turn in result.trace.turns:
            bit = 1 << turn.pick
            for g in range(2):
                for j, mask in enumerate(live[g]):
                    if mask & bit:
                        live[g][j] = mask ^ bit
                        if g == turn.group:
                            need[g][j] = max(0, need[g][j] - 1)
                    assert turn.agent_balances[g][j] == -table.B(
                        live[g][j].bit_count(), need[g][j]
                    )
                balances[g].append(turn.group_balances[g])

        # a group's balance never drops across one of its own turn pairs
        last = len(result.trace.turns)
        for i, turn in enumerate(result.trace.turns, start=1):
            g = turn.group
            assert balances[g][min(i + 1, last)] >= balances[g][i - 1]
        for g in range(2):
            assert balances[g][-1] == result.report.happy[g]
            assert result.report.fractions[g] >= result.guarantees[g]
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 6. every protocol meets its guarantee on 1,000 random instances


def test_06_protocol_guarantees_on_random_runs():
    start = time.perf_counter()
    rng = random.Random(0xB0B)

    for _ in range(1000):
        inst = random_binary_instance(rng, 2)
        c = rng.choice((1, 2, 3))
        lead = rng.randrange(2)
        fractions = rwav2(inst, OneOfBestC(c), first_group=lead).report.fractions
        assert min(fractions) >= 1 - Fraction(1, 2 ** (c - 1))
        assert fractions[lead] >= 1 - Fraction(1, 2**c)

    for _ in range(1000):
        c = rng.choice((2, 3))
        fractions = rwav2_enhanced(
            random_binary_instance(rng, 2), c=c
        ).report.fractions
        assert min(fractions) >= Fraction(2**c - 1, 2**c + 1)

    for _ in range(1000):
        inst = random_binary_instance(rng, 2)
        c = rng.choice((3, 4))
        result = rwav2(inst, OneOutOfCMMS(c), first_group=rng.randrange(2))
        assert result.report.h >= 1 - Fraction(1, 2 ** (c - 1))

    for _ in range(1000):
        m = rng.randint(2, 8)
        n = rng.randint(1, 6)
        masks = [rng.randrange(1, 1 << m) for _ in range(n)]
        mirrored = masks[:]
        rng.shuffle(mirrored)
        inst = Instance.from_valuations(
            tuple(f"g{i}" for i in range(m)),
            [
                [BinaryValuation(Bundle(mask, m)) for mask in masks],
                [BinaryValuation(Bundle(mask, m)) for mask in mirrored],
            ],
        )
        result = identical_local_search(inst)
        assert len(result.trace.moves) <= (n + n) // 2
        assert result.report.h >= Fraction(2, 3)

    for _ in range(1000):
        k = rng.choice((2, 3, 4))
        result = linek(_random_additive_instance(rng, k))
        assert result.report.h >= Fraction(1, k)

    for _ in range(1000):
        k = rng.choice((2, 3, 4))
        c = rng.randint(k, k + 2)
        inst = random_binary_instance(rng, k)
        result = rwavk(inst, c)
        for g in range(k):
            assert meets_bk(result.report.fractions[g], c - g, k)

    for _ in range(1000):
        k = rng.choice((2, 3, 4))
        result = best_k_protocol(random_binary_instance(rng, k))
        assert result.report.h >= Fraction(1, 3)

    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 7. exhaustive search confirms every impossibility bound exactly


def test_07_impossibility_bounds_are_exact():
    start = time.perf_counter()

    cycle = ThreeGoodCycle()
    assert negative_bound(cycle) == Fraction(2, 3)
    assert max_h(generate(cycle), PositiveMMS()).best_h == Fraction(2, 3)
    assert verify_negative(cycle, PositiveMMS(), Fraction(2, 3))

    third = AdditiveThird()
    assert negative_bound(third) == Fraction(1, 3)
    assert max_h(
        generate(third), FractionMMS(Fraction(51, 100))
    ).best_h == Fraction(1, 3)
    assert verify_negative(third, FractionMMS(Fraction(51, 100)), Fraction(1, 3))

    for k in (2, 3):
        circle = Circle(k)
        bound = Fraction(k, 2 * k - 1)
        assert negative_bound(circle) == bound
        assert max_h(generate(circle), PositiveMMS()).best_h == bound
        assert verify_negative(circle, PositiveMMS(), bound)

    # (4, 2, 2, 10): 2^20 allocations, 4,845 members per group
    for r, s, k, m in ((2, 1, 2, 2), (2, 1, 2, 3), (3, 1, 2, 3), (4, 2, 2, 4),
                       (4, 2, 2, 10)):
        spec = AllSubsets(r, s, k, m)
        result = max_h(generate(spec), OneOutOfCMMS(r // s))
        assert result.best_h == maxh_finite(r, s, k, m)
        assert result.best_h == negative_bound(spec)
    assert maxh_finite(4, 2, 2, 4) == Fraction(53, 70)
    assert maxh_finite(4, 2, 2, 10) == Fraction(229, 323)
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 8. groups of at most three are fully happy under the c=3 bound


def test_08_small_groups_are_unanimously_happy():
    start = time.perf_counter()
    rng = random.Random(0xFACADE)
    for _ in range(500):
        inst = random_binary_instance(rng, 2, m_max=10, n_max=3)
        result = rwav2(inst, OneOutOfCMMS(3), first_group=rng.randrange(2))
        # the 3/4 bound rounds up to n_i for every n_i <= 3
        assert result.report.happy == result.report.sizes
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 9. criterion implications on 10,000 random triples, plus the witnesses
#    showing the thresholds cannot be improved


def _fraction_mms_tight_witness(k: int):
    """EF1 allocation worth exactly 1/k of the maximin share: one group
    holds one unit good, every other group one unit good plus one k-good."""
    m = 2 * k - 1
    value = AdditiveValuation(
        tuple(Fraction(1) if i < k else Fraction(k) for i in range(m))
    )
    assignment = [0] * m
    for i in range(2, k + 1):
        assignment[i - 1] = i - 1
        assignment[k + i - 2] = i - 1
    agent = Agent(0, 0, value)
    alloc = Allocation(tuple(assignment), k)

    assert check(agent, alloc, EFc(1))
    assert check(agent, alloc, PROPc(k - 1))
    assert mms_share(value, k) == k
    assert check(agent, alloc, FractionMMS(Fraction(1, k)))
    assert not check(
        agent, alloc, FractionMMS(Fraction(1, k) + Fraction(1, 1000))
    )


def _share_count_tight_witness(k: int):
    """EF1 allocation that fails 1-out-of-(2k-2) MMS but meets 2k-1: one
    group holds a (k-1)-good, the rest one k-good plus k-1 unit goods."""
    values = (k - 1,) + (k,) * (k - 1) + (1,) * ((k - 1) ** 2)
    value = AdditiveValuation(tuple(Fraction(v) for v in values))
    m = len(values)
    assignment = [0] * m
    for g in range(1, k):
        assignment[g] = g
        for j in range(k - 1):
            assignment[k + (g - 1) * (k - 1) + j] = g
    agent = Agent(0, 0, value)
    alloc = Allocation(tuple(assignment), k)

    assert check(agent, alloc, EFc(1))
    own = value.value(bundles_of(alloc)[0])
    assert own == k - 1
    if m <= 12:
        assert not check(agent, alloc, OneOutOfCMMS(2 * k - 2))
        assert check(agent, alloc, OneOutOfCMMS(2 * k - 1))
    else:
        # 13 goods at k=4: query the shares above the default cap directly
        assert own < mms_share(value, 2 * k - 2, cap=m)
        assert own >= mms_share(value, 2 * k - 1, cap=m)
    assert mms_share(value, 2 * k - 2, cap=m) == k
    assert mms_share(value, 2 * k - 1, cap=m) == k - 1


def test_09_criterion_implications_and_tightness():
    start = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    triples = 0
    for _ in range(500):
        k = rng.choice((2, 3, 4))
        m = rng.randint(2, 6)
        binary = rng.random() < 0.5
        if binary:
            valuation = BinaryValuation(Bundle(rng.randrange(1, 1 << m), m))
        else:
            valuation = AdditiveValuation(
                tuple(Fraction(rng.randint(0, 8)) for _ in range(m))
            )
        for _ in range(20):
            alloc = Allocation(tuple(rng.randrange(k) for _ in range(m)), k)
            agent = Agent(rng.randrange(k), 0, valuation)
            ef_one = check(agent, alloc, EFc(1))
            prop_rest = check(agent, alloc, PROPc(k - 1))
            if ef_one:
                assert prop_rest
            if prop_rest:
                assert check(agent, alloc, FractionMMS(Fraction(1, k)))
                assert check(agent, alloc, OneOutOfCMMS(2 * k - 1))
            if binary:
                assert prop_rest == check(agent, alloc, MMS())
            if k == 2:
                assert ef_one == prop_rest
            triples += 1
    assert triples == 10000

    for k in (2, 3, 4):
        _fraction_mms_tight_witness(k)
        _share_count_tight_witness(k)
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 10. a 1/3-democratic EF2 allocation always exists for three groups


def _monotone_table(rng, m: int) -> TabularValuation:
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        best = 0
        rest = mask
        while rest:
            low = rest & -rest
            best = max(best, table[mask ^ low])
            rest ^= low
        table[mask] = best + rng.randint(0, 4)
    return TabularValuation(tuple(table), m)


def test_10_ef2_search_succeeds_for_three_groups():
    start = time.perf_counter()
    rng = random.Random(0xE52)
    for _ in range(200):
        m = rng.randint(2, 6)
        goods = tuple(f"g{i}" for i in range(m))
        groups = [
            [_monotone_table(rng, m) for _ in range(rng.randint(1, 4))]
            for _ in range(3)
        ]
        inst = Instance.from_valuations(goods, groups)
        assert exists_h(inst, EFc(2), Fraction(1, 3)).found
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 11. coin-flip protocol: deterministic replay, and its expectation bound


def test_11_coinflip_replay_and_expectation():
    start = time.perf_counter()
    shared = BinaryValuation(Bundle(0b111, 3))
    inst = Instance.from_valuations(
        ("a", "b", "c"), ([shared, shared], [shared, shared])
    )
    criterion = EFc(0)
    assert s_threshold(criterion, 3, 2) == 2  # every agent starts at (3, 2)

    replay = cwav2(inst, criterion, seed=1234)
    assert replay == cwav2(inst, criterion, seed=1234)
    assert replay.expected_guarantees == (Fraction(1, 2), Fraction(1, 2))

    samples = []
    for seed in range(10000):
        fractions = cwav2(inst, criterion, seed=seed).report.fractions
        samples.append(float(fractions[0] + fractions[1]) / 2)
    mean = statistics.fmean(samples)
    stderr = statistics.stdev(samples) / math.sqrt(len(samples))
    target = DEFAULT_TABLE.C(3, 2)
    assert target == Fraction(1, 2)
    assert mean >= float(target) - 3 * stderr
    assert time.perf_counter() - start < 30.0
