"""Brute-force oracle and generator tests.

The sweeping oracle (vectorized and generic paths alike) is validated
against a direct enumeration of every allocation through
:func:`democratic_report`, and the generated adversarial families against
their advertised impossibility bounds.
"""

import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from groupfair.budgets import maxh_finite
from groupfair.cli import main
from groupfair.errors import CapExceededError, FormatError
from groupfair.fairness import (
    EFc,
    FractionMMS,
    MMS,
    OneOfBestC,
    OneOutOfCMMS,
    PROPc,
    PositiveMMS,
    _binary_threshold,
    check,
    democratic_report,
)
from groupfair.model import (
    Agent,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    TabularValuation,
    serialize_instance,
)
from groupfair import oracles
from groupfair.oracles import (
    AdditiveThird,
    AllSubsets,
    Circle,
    DEFAULT_CAP,
    EFcLimit,
    ThreeGoodCycle,
    check_space,
    exists_h,
    generate,
    max_h,
    negative_bound,
    parse_spec,
    spec_name,
    verify_negative,
)

from conftest import addval, binval, random_binary_instance
from oracle_reference import (
    decode,
    reference_drop_table,
    reference_exists_h,
    reference_max_h,
    reference_prop_benchmark_table,
)


# ---------------------------------------------------------------------------
# reference enumeration


def _reference_max_h(inst, criterion):
    """Independent sweep: try every assignment vector in product order."""
    best = None
    best_assign = None
    for assign in itertools.product(range(inst.k), repeat=inst.m):
        h = democratic_report(inst, Allocation(assign, inst.k), criterion).h
        if best is None or h > best:
            best, best_assign = h, assign
    return best, best_assign


def _random_mixed_instance(rng):
    m = rng.randint(2, 4)
    goods = tuple(f"g{i}" for i in range(m))
    groups = []
    for _ in range(rng.randint(2, 3)):
        members = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                members.append(
                    BinaryValuation(Bundle(rng.randrange(1 << m), m))
                )
            elif kind == 1:
                members.append(addval([rng.randint(0, 4) for _ in range(m)]))
            else:
                base = [rng.randint(0, 3) for _ in range(m)]
                table = [
                    sum(base[i] for i in range(m) if mask >> i & 1)
                    for mask in range(1 << m)
                ]
                members.append(TabularValuation(tuple(table), m))
        groups.append(members)
    return Instance.from_valuations(goods, groups)


def _criterion_for(rng, inst):
    k = inst.k
    choices = [
        EFc(rng.randint(0, 2)),
        PROPc(rng.randint(0, 2)),
        MMS(),
        OneOutOfCMMS(k + rng.randint(0, 1)),
        FractionMMS(Fraction(1, 2)),
        OneOfBestC(rng.randint(1, 3)),
        PositiveMMS(),
    ]
    return rng.choice(choices)


def test_max_h_matches_reference_enumeration():
    rng = random.Random(1312)
    for trial in range(40):
        inst = (
            random_binary_instance(rng, rng.randint(2, 3), m_max=4, n_max=3)
            if trial % 2
            else _random_mixed_instance(rng)
        )
        criterion = _criterion_for(rng, inst)
        expected_h, expected_assign = _reference_max_h(inst, criterion)
        result = max_h(inst, criterion)
        assert result.best_h == expected_h, (trial, criterion)
        assert result.witness.assignment == expected_assign
        assert result.allocations_examined == inst.k**inst.m


def test_max_h_per_group_criteria():
    rng = random.Random(77)
    inst = random_binary_instance(rng, 2, m_max=4, n_max=3)
    crits = (EFc(1), OneOfBestC(2))
    expected_h, expected_assign = _reference_max_h(inst, crits)
    result = max_h(inst, crits)
    assert result.best_h == expected_h
    assert result.witness.assignment == expected_assign


def test_max_h_worker_invariance():
    inst = generate(AllSubsets(r=2, s=1, k=2, m=3))
    for criterion in (OneOutOfCMMS(2), EFc(0)):
        solo = max_h(inst, criterion, workers=1)
        multi = max_h(inst, criterion, workers=3)
        assert solo == multi


def test_max_h_cap():
    inst = generate(ThreeGoodCycle(2))
    with pytest.raises(CapExceededError):
        max_h(inst, PositiveMMS(), cap=7)


def test_sweeps_refuse_groups_of_2_pow_20_members():
    # the sweeps check group sizes before reading any member, so a stand-in
    # with only the shape will do; 2^20 real members take seconds to build
    stand_in = SimpleNamespace(k=2, m=1, sizes=(1, 1 << 20))
    for sweep in (max_h, lambda inst, crit: exists_h(inst, crit, 1)):
        with pytest.raises(CapExceededError, match=r"2\^20 members, got 1048576"):
            sweep(stand_in, EFc(1))


@given(st.integers(1, (1 << 20) - 1) | st.integers((1 << 20) - 99, (1 << 20) - 1),
       st.data())
def test_max_h_keys_order_fractions_exactly(n, data):
    def key(j, n):  # max_h's key for j happy members of a group of n
        return (j << 42) // n

    a, b = Fraction(data.draw(st.integers(0, n - 1)), n).as_integer_ratio()
    # c / d, the next fraction up with a denominator below 2^20: the
    # nearest pair the keys must tell apart (c * b - a * d = 1)
    most = (1 << 20) - 1
    d = -pow(a, -1, b) % b if b > 1 else most
    d += (most - d) // b * b
    c = (1 + a * d) // b
    assert Fraction(c, d) - Fraction(a, b) == Fraction(1, b * d)
    assert key(a, b) < key(c, d)
    t = most // b  # the same fraction over a larger group keys the same
    assert key(a * t, b * t) == key(a, b)


@st.composite
def _sweep_cases(draw):
    """An instance with k in {2, 3}, m <= 4 and binary, additive
    (fractional values) or tabular (unit-demand) members -- or binary
    members only, so that EF-c with k = 3 scores binary agents by table --
    and one criterion or one per group."""
    k = draw(st.integers(2, 3))
    m = draw(st.integers(1, 4))
    kinds = ("binary",) if draw(st.booleans()) else ("binary", "additive", "tabular")
    groups = []
    for _ in range(k):
        members = []
        for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
            if kind == "binary":
                desired = draw(st.integers(0, (1 << m) - 1))
                members.append(BinaryValuation(Bundle(desired, m)))
                continue
            values = draw(st.lists(
                st.fractions(0, 3, max_denominator=4), min_size=m, max_size=m
            ))
            if kind == "additive":
                members.append(addval(values))
            else:
                table = [
                    max((values[i] for i in range(m) if mask >> i & 1), default=0)
                    for mask in range(1 << m)
                ]
                members.append(TabularValuation(tuple(table), m))
        groups.append(members)
    inst = Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)
    criteria = st.sampled_from([
        EFc(0), EFc(1), EFc(2), PROPc(0), PROPc(1), PROPc(2), MMS(),
        OneOutOfCMMS(k), OneOutOfCMMS(k + 1), FractionMMS(Fraction(1, 2)),
        FractionMMS(Fraction(2, 3)), OneOfBestC(1), OneOfBestC(2),
        OneOfBestC(3), PositiveMMS(),
    ])
    criterion = draw(st.one_of(criteria, st.tuples(*[criteria] * k)))
    return inst, criterion, draw(st.fractions(0, 1, max_denominator=6))


@settings(max_examples=200, deadline=None)
@given(_sweep_cases())
@example((generate(Circle(3)), EFc(1), Fraction(2, 5)))
@example((generate(Circle(3)), (EFc(1), MMS(), OneOfBestC(2)), Fraction(3, 5)))
def test_sweeps_match_reference_enumeration(case):
    inst, criterion, h = case
    total = inst.k**inst.m
    expected_h, expected_assign = _reference_max_h(inst, criterion)
    result = max_h(inst, criterion)
    assert result.best_h == expected_h
    assert result.witness.assignment == expected_assign
    assert result.allocations_examined == total

    assigns = list(itertools.product(range(inst.k), repeat=inst.m))
    first = next(
        (pos for pos, assign in enumerate(assigns)
         if democratic_report(inst, Allocation(assign, inst.k), criterion).h >= h),
        None,
    )
    hit = exists_h(inst, criterion, h)
    assert hit.found == (first is not None)
    assert hit.allocations_examined == (total if first is None else first + 1)
    if first is not None:
        assert hit.witness.assignment == assigns[first]


# ---------------------------------------------------------------------------
# binary rule against the per-index reference


def _threshold_criteria(k):
    """Criteria with an own-count threshold for binary members at ``k``."""
    out = [
        PROPc(0), PROPc(1), PROPc(2), MMS(), OneOutOfCMMS(k),
        OneOutOfCMMS(k + 1), FractionMMS(Fraction(1, 2)),
        FractionMMS(Fraction(2, 3)), OneOfBestC(1), OneOfBestC(3),
        PositiveMMS(),
    ]
    return out + [EFc(0), EFc(1), EFc(2)] if k == 2 else out


@st.composite
def _binary_sweep_cases(draw):
    """A binary instance with k = 2..4, m <= 10 and up to a dozen distinct
    desired sets per group, each with a multiplicity, some of them sharing
    a low half (the goods of the low digits) with another set and differing
    in the high half; one criterion per group; a ``_CHUNK`` of 1, 7 or 64
    and a space of at most 32 chunks, so small instances span many row
    blocks, some narrower than one row; a ``_PIECE`` of 1, 3 or the
    default, and a ``_TABLE_BUDGET`` of 0 (every block builds its column
    tables) or the default."""
    chunk = draw(st.sampled_from([1, 7, 64]))
    piece = draw(st.sampled_from([1, 3, oracles._PIECE]))
    budget = draw(st.sampled_from([0, oracles._TABLE_BUDGET]))
    k = draw(st.integers(2, 4))
    m_max = max(m for m in range(1, 11) if k**m <= min(32 * chunk, 1024))
    m = draw(st.integers(1, m_max))
    low = ((1 << m // 2) - 1) << (m - m // 2)
    groups = []
    for _ in range(k):
        entries = draw(st.lists(
            st.tuples(st.integers(0, (1 << m) - 1), st.integers(1, 5)),
            min_size=1, max_size=12,
        ))
        # same low half, another high half
        twins = draw(st.lists(
            st.tuples(st.sampled_from(entries), st.integers(0, (1 << m) - 1)),
            max_size=4,
        ))
        entries += [((mask & low) | (high & ~low), count)
                    for (mask, count), high in twins]
        groups.append([
            BinaryValuation(Bundle(mask, m))
            for mask, count in entries for _ in range(count)
        ])
    inst = Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)
    criteria = tuple(draw(st.sampled_from(_threshold_criteria(k))) for _ in range(k))
    targets = draw(st.lists(st.fractions(0, 1, max_denominator=12), max_size=3))
    constants = {"_CHUNK": chunk, "_PIECE": piece, "_TABLE_BUDGET": budget}
    return inst, criteria, constants, draw(st.sampled_from([1, 2])), targets


def _assert_sweeps_match_reference(inst, criteria, workers, targets):
    best_h, witness, examined = reference_max_h(inst, criteria)
    result = max_h(inst, criteria, workers=workers)
    assert (result.best_h, result.witness.assignment,
            result.allocations_examined) == (best_h, witness, examined)
    above = min(best_h + Fraction(1, 60), Fraction(1))
    for h in (*targets, best_h, above):
        hit = exists_h(inst, criteria, h)
        found, witness, examined = reference_exists_h(inst, criteria, h)
        assert (hit.found, hit.witness and hit.witness.assignment,
                hit.allocations_examined) == (found, witness, examined), h


@settings(max_examples=200, deadline=None)
@given(_binary_sweep_cases())
def test_binary_rule_matches_per_index_reference(case):
    inst, criteria, constants, workers, targets = case
    table_rule = mock.Mock(side_effect=AssertionError("the table rule ran"))
    with mock.patch.multiple(oracles, **constants, _table_rule=table_rule):
        _assert_sweeps_match_reference(inst, criteria, workers, targets)


@st.composite
def _propc_sweep_cases(draw):
    """An instance with k = 2 or 3 over up to 8 goods whose members are
    additive, with fractional values, or tabular, random monotone tables
    drawn as steps over the best one-good-smaller subset; one PROP-c
    criterion per group."""
    k = draw(st.integers(2, 3))
    m = draw(st.integers(1, 8))
    values = st.fractions(0, 3, max_denominator=4)
    groups = []
    for _ in range(k):
        members = []
        for kind in draw(st.lists(st.sampled_from(("additive", "tabular")),
                                  min_size=1, max_size=3)):
            if kind == "additive":
                members.append(addval(draw(st.lists(values, min_size=m, max_size=m))))
                continue
            rng = draw(st.randoms(use_true_random=False))
            table = [Fraction(0)] * (1 << m)
            for mask in range(1, 1 << m):
                below = max(table[mask & ~(1 << i)] for i in range(m) if mask >> i & 1)
                table[mask] = below + Fraction(rng.randint(0, 3), rng.choice((1, 2, 3)))
            members.append(TabularValuation(tuple(table), m))
        groups.append(members)
    inst = Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)
    criteria = tuple(draw(st.sampled_from([PROPc(0), PROPc(1), PROPc(2)]))
                     for _ in range(k))
    targets = draw(st.lists(st.fractions(0, 1, max_denominator=12), max_size=3))
    return inst, criteria, draw(st.sampled_from([1, 2])), targets


@settings(max_examples=50, deadline=None)
@given(_propc_sweep_cases())
def test_table_rule_propc_matches_per_index_reference(case):
    inst, criteria, workers, targets = case
    _assert_sweeps_match_reference(inst, criteria, workers, targets)


def test_binary_rule_memory_is_bounded_by_its_constants():
    # Every subset of the 8 low goods, each with two high halves: 1,024
    # slots per group, against pieces of 4 slots and a column-table budget
    # far below the more than 2 x 1,024 x 256 entries of whole tables.  A
    # block's arrays hold _CHUNK entries and a piece's _PIECE, a few of each
    # at a time; nothing else may grow with the members, nor with the
    # groups: 128 one-member groups over 2 goods hold one block's counts
    # for two groups at a time, not for all 128.
    max_h(generate(ThreeGoodCycle()), OneOutOfCMMS(2))  # first-call imports
    m, chunk, piece = 16, 1 << 12, 1 << 10
    masks = [half << 8 | high for half in range(256) for high in (0b11, 0b1010100)]
    goods = tuple(f"g{i}" for i in range(m))
    bound = 8 * (16 * chunk + 64 * piece)
    cases = []
    for copies in (1, 8):
        members = [BinaryValuation(Bundle(mask, m)) for mask in masks] * copies
        cases.append((Instance.from_valuations(goods, [members, members]),
                      OneOutOfCMMS(2)))
    many = [[BinaryValuation(Bundle(1 + g % 3, 2))] for g in range(128)]
    cases.append((Instance.from_valuations(("a", "b"), many), PositiveMMS()))
    results = []
    for inst, criterion in cases:
        with mock.patch.multiple(
            oracles, _CHUNK=chunk, _PIECE=piece, _TABLE_BUDGET=1 << 12
        ):
            tracemalloc.start()
            try:
                results.append(max_h(inst, criterion))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < bound, (inst.k, inst.sizes[0], peak, bound)
    assert results[0] == results[1]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 7).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.integers(-5, 5), min_size=1 << m, max_size=1 << m),
    st.integers(0, 4),
)))
def test_drop_table_matches_loop_reference(case):
    m, values, c = case
    fast = oracles._drop_table(np.array(values, dtype=np.int64), m, c)
    assert fast.tolist() == reference_drop_table(values, m, c)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 6).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.integers(0, (1 << m) - 1), min_size=1 << m, max_size=1 << m),
    st.integers(0, m + 1),
)))
def test_prop_benchmark_table_matches_loop_reference(case):
    m, rank, c = case
    fast = oracles._prop_benchmark_table(np.array(rank, dtype=np.int64), m, c)
    assert fast.tolist() == reference_prop_benchmark_table(rank, m, c)


def test_drop_table_stops_after_m_rounds():
    # a round past the m-th removes nothing, so a huge c costs m rounds
    rng = random.Random(5)
    for m in range(5):
        rank = np.array([rng.randrange(8) for _ in range(1 << m)], dtype=np.int64)
        assert (oracles._drop_table(rank, m, 10**9).tolist()
                == oracles._drop_table(rank, m, m).tolist())


def test_binary_rule_blocks_narrower_than_one_row():
    # 2^10 allocations in rows of 2^5 columns: _CHUNK = 7 cuts every row
    # into pieces of 7, 7, 7, 7 and 4 columns
    with mock.patch.object(oracles, "_CHUNK", 7):
        blocks = oracles._blocks(1 << 10, 32)
    assert all(rows.stop == rows.start + 1 for _, rows, _ in blocks)
    assert [rows.start for _, rows, _ in blocks[:6]] == [0] * 5 + [1]
    bounds = [(lo, lo + cols.stop - cols.start) for lo, _, cols in blocks]
    assert bounds[:6] == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 32), (32, 39)]
    assert [lo for lo, _ in bounds[1:]] == [hi for _, hi in bounds[:-1]]
    assert bounds[-1][1] == 1 << 10


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_index_split_gives_the_allocation_and_counts_it_scores(data):
    # at(idx) reads the allocation from the row and column masks the sweep
    # scores; the reference decodes it digit by digit, and the report
    # counts each group's happy members on it again
    k = data.draw(st.integers(2, 3))
    m = data.draw(st.integers(1, 10 if k == 2 else 6))  # k^m <= 2^10
    # binary members under threshold criteria take the binary rule, and
    # an additive member the table rule
    binary = data.draw(st.booleans())
    kinds = ("binary",) if binary else ("additive", "binary")
    values = st.lists(st.integers(0, 4), min_size=m, max_size=m)
    groups = [
        [BinaryValuation(Bundle(data.draw(st.integers(0, (1 << m) - 1)), m))
         if data.draw(st.sampled_from(kinds)) == "binary"
         else addval(data.draw(values))
         for _ in range(data.draw(st.integers(1, 3)))]
        for _ in range(k)
    ]
    if not binary:
        groups[0][0] = addval(data.draw(values))
    inst = Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)
    criterion = data.draw(st.sampled_from(_threshold_criteria(k) if binary else [
        EFc(0), EFc(1), PROPc(1), MMS(), OneOfBestC(2), PositiveMMS(),
    ]))
    _, _, at = oracles._chunk_counter(inst, criterion, oracles.DEFAULT_CAP)
    for idx in range(k**m):
        alloc, happy = at(idx)
        assert alloc.assignment == decode(idx, k, m)
        assert happy == list(democratic_report(inst, alloc, criterion).happy)


# ---------------------------------------------------------------------------
# binary own-count thresholds


def _split_verdict(criterion, r, x, k):
    m = r + 2
    agent = Agent(0, 0, BinaryValuation(Bundle.from_indices(range(r), m)))
    assignment = [0 if i < x else 1 + i % (k - 1) for i in range(r)]
    assignment += [0, 1]
    return check(agent, Allocation(tuple(assignment), k), criterion)


def test_binary_threshold_characterizes_check():
    criteria = [
        PROPc(0),
        PROPc(1),
        PROPc(3),
        MMS(),
        FractionMMS(Fraction(1, 2)),
        FractionMMS(Fraction(2, 3)),
        OneOfBestC(2),
        PositiveMMS(),
    ]
    for k in (2, 3, 4):
        for criterion in criteria + [OneOutOfCMMS(k), OneOutOfCMMS(k + 2)]:
            for r in range(0, 9):
                t = _binary_threshold(criterion, r, k)
                for x in range(r + 1):
                    assert _split_verdict(criterion, r, x, k) == (x >= t), (
                        criterion,
                        k,
                        r,
                        x,
                    )


def test_binary_threshold_efc():
    for r in range(0, 9):
        for c in range(0, 3):
            assert _binary_threshold(EFc(c), r, 2) == max(0, (r - c + 1) // 2)
    assert _binary_threshold(EFc(1), 4, 3) is None  # not an own-count property
    with pytest.raises(ValueError):
        _binary_threshold(OneOutOfCMMS(2), 4, 3)


# ---------------------------------------------------------------------------
# exists_h


def test_exists_h_boundary():
    inst = generate(ThreeGoodCycle(2))
    hit = exists_h(inst, PositiveMMS(), Fraction(2, 3))
    assert hit
    assert hit.found and hit.witness is not None
    assert democratic_report(inst, hit.witness, PositiveMMS()).h >= Fraction(2, 3)
    assert hit.allocations_examined <= 8

    miss = exists_h(inst, PositiveMMS(), Fraction(2, 3) + Fraction(1, 100))
    assert not miss
    assert miss.witness is None
    assert miss.allocations_examined == 8


def test_exists_h_short_circuits():
    # everyone is happy with anything, so the very first allocation wins
    inst = Instance.from_valuations(
        ("a", "b", "c"), ((binval("", "abc"),), (binval("", "abc"),))
    )
    result = exists_h(inst, PositiveMMS(), Fraction(1))
    assert result.found
    assert result.allocations_examined == 1
    assert result.witness.assignment == (0, 0, 0)


def test_exists_h_validation():
    inst = generate(ThreeGoodCycle(2))
    with pytest.raises(ValueError):
        exists_h(inst, PositiveMMS(), Fraction(3, 2))


def test_exists_h_matches_max_h():
    rng = random.Random(909)
    for _ in range(10):
        inst = random_binary_instance(rng, 2, m_max=4, n_max=3)
        best = max_h(inst, OneOutOfCMMS(2)).best_h
        assert exists_h(inst, OneOutOfCMMS(2), best).found
        if best < 1:
            above = best + Fraction(1, 1000)
            assert not exists_h(inst, OneOutOfCMMS(2), above).found


# ---------------------------------------------------------------------------
# generator specs


SPEC_EXAMPLES = [
    ThreeGoodCycle(2),
    ThreeGoodCycle(3),
    AllSubsets(r=2, s=1, k=2, m=3),
    Circle(3),
    AdditiveThird(),
    EFcLimit(c=2, l=2),
]


def test_spec_names_round_trip():
    for spec in SPEC_EXAMPLES:
        assert parse_spec(spec_name(spec)) == spec
    assert parse_spec("three-good-cycle") == ThreeGoodCycle(2)
    assert parse_spec(" circle : k=4 ") == Circle(4)


def test_parse_spec_errors():
    with pytest.raises(FormatError, match="did you mean 'three-good-cycle'"):
        parse_spec("three-good-cycl")
    with pytest.raises(FormatError, match="needs parameters"):
        parse_spec("all-subsets:r=2,s=1")
    with pytest.raises(FormatError):
        parse_spec("circle:k=two")
    with pytest.raises(FormatError):
        parse_spec("circle:q=3")
    with pytest.raises(FormatError):  # r < s fails the family's validation
        parse_spec("all-subsets:r=1,s=2,k=2,m=3")
    with pytest.raises(FormatError, match="parameter 'k' given twice"):
        parse_spec("circle:k=2,k=3")
    # past CPython's int conversion limit: the package's message, no digits
    with pytest.raises(FormatError, match=r"^number has more than \d+ digits$"):
        parse_spec("circle:k=" + "9" * 5000)
    # an oversized name or parameter is quoted by a prefix
    with pytest.raises(FormatError, match=r"^unknown generator 'c{40}'\.\.\.$"):
        parse_spec("c" * 5000)
    with pytest.raises(FormatError, match=r"^bad parameter 'k={39}'\.\.\. for circle "):
        parse_spec("circle:k" + "=" * 5000)
    with pytest.raises(FormatError, match=r"^bad parameter 'q=3' for circle \(expected"):
        parse_spec("circle:q=3")


@pytest.mark.parametrize("text", dict.fromkeys([
    "three-good-cycle:k=3", "all-subsets:r=2,s=1,k=2,m=3", "circle:k=3",
    "additive-third", "efc-limit:c=1,l=2", *map(spec_name, SPEC_EXAMPLES),
]))
def test_check_space_matches_the_generated_instance(text):
    spec = parse_spec(text)
    inst = generate(spec)
    space = inst.k**inst.m
    message = f"^allocation space {inst.k}\\^{inst.m} exceeds cap {space - 1}$"
    with pytest.raises(CapExceededError, match=message):
        check_space(spec, space - 1)
    assert check_space(spec, space) is None


def test_check_space_refuses_a_space_past_4096_bits():
    # 2^4400: the space cap speaks before generate's 64-goods cap
    message = f"^allocation space 2\\^4400 exceeds cap {DEFAULT_CAP}$"
    with pytest.raises(CapExceededError, match=message):
        check_space(parse_spec("efc-limit:c=1,l=1100"), DEFAULT_CAP)


def test_space_builds_no_power_past_the_cap_bits():
    class Base(int):
        def __pow__(self, m):
            raise AssertionError("k**m was built")

    # m * (bits(k) - 1) = 100 > bits(8): refused before k**m is built
    with pytest.raises(CapExceededError, match=r"^allocation space 3\^100 exceeds cap 8$"):
        oracles._space(Base(3), 100, 8)
    # at m * (bits(k) - 1) = bits(cap) the power is built and compared
    assert oracles._space(2, 24, 1 << 24) == 1 << 24
    with pytest.raises(CapExceededError, match=r"^allocation space 2\^25 exceeds"):
        oracles._space(2, 25, (1 << 25) - 1)


def test_spec_examples_cover_every_family():
    assert {type(spec) for spec in SPEC_EXAMPLES} == set(oracles._SPECS.values())


@pytest.mark.parametrize("text, message", [
    ("three-good-cycle:k=1", "three-good-cycle needs k >= 2"),
    ("all-subsets:r=2,s=1,k=1,m=3", "all-subsets needs k >= 2 and m >= 1"),
    ("all-subsets:r=1,s=1,k=2,m=0", "all-subsets needs k >= 2 and m >= 1"),
    ("all-subsets:r=7,s=1,k=2,m=3", "all-subsets needs r <= k*m goods"),
    ("circle:k=1", "circle needs k >= 2"),
    ("efc-limit:c=0,l=0", "efc-limit needs c >= 0 and l >= 1"),
    ("efc-limit:c=4,l=1", "efc-limit needs l - floor(c/2) >= 1"),
])
def test_family_parameter_errors(text, message, capsys):
    # parse_spec re-raises the spec record's ValueError with its message
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_spec(text)
    assert main(["gen", "--spec", text]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_every_spec_function_refuses_a_non_spec():
    for call in (spec_name, generate, negative_bound, lambda x: check_space(x, 8)):
        with pytest.raises(TypeError, match="^unknown generator spec 'circle'$"):
            call("circle")


def test_table_rule_caps_goods_at_16(capsys, tmp_path):
    goods = [f"g{i}" for i in range(17)]
    inst = Instance.from_valuations(goods, [[addval([1] * 17)]] * 2)
    message = "generic oracle path supports at most 16 goods, got 17"
    with pytest.raises(CapExceededError, match=f"^{message}$"):
        max_h(inst, EFc(1))
    path = tmp_path / "wide.json"
    path.write_text(serialize_instance(inst))
    assert main(["brute", "--instance", str(path), "--criterion", "ef-1"]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_generated_shapes():
    cycle = generate(ThreeGoodCycle(2))
    assert cycle.m == 3 and cycle.sizes == (3, 3)
    assert [sorted(a.valuation.desired) for a in cycle.groups[0]] == [
        [1, 2],
        [0, 2],
        [0, 1],
    ]

    subsets = generate(AllSubsets(r=2, s=1, k=2, m=3))
    assert subsets.m == 6
    assert subsets.sizes == (15, 15)  # comb(6, 2) members per group

    circle = generate(Circle(3))
    assert circle.m == 5 and circle.sizes == (5, 5, 5)
    assert sorted(circle.groups[0][4].valuation.desired) == [0, 1, 4]

    third = generate(AdditiveThird())
    assert third.k == 2 and third.sizes == (3, 3)
    assert third.groups[1][2].valuation.values == (1, 1, 2)

    limit = generate(EFcLimit(c=2, l=2))
    assert limit.m == 8 and limit.sizes == (70, 70)


def test_generate_member_cap():
    with pytest.raises(CapExceededError):
        generate(AllSubsets(r=12, s=6, k=2, m=12))


# ---------------------------------------------------------------------------
# impossibility bounds


def test_three_good_cycle_bound():
    spec = ThreeGoodCycle(2)
    assert negative_bound(spec) == Fraction(2, 3)
    result = max_h(generate(spec), PositiveMMS())
    assert result.best_h == Fraction(2, 3)
    assert verify_negative(spec, PositiveMMS(), Fraction(2, 3))
    assert not verify_negative(spec, PositiveMMS(), Fraction(1, 2))


def test_additive_third_bound():
    spec = AdditiveThird()
    assert negative_bound(spec) == Fraction(1, 3)
    criterion = FractionMMS(Fraction(51, 100))
    assert max_h(generate(spec), criterion).best_h == Fraction(1, 3)
    assert verify_negative(spec, criterion, Fraction(1, 3))


def test_circle_bounds():
    for k in (2, 3):
        spec = Circle(k)
        bound = Fraction(k, 2 * k - 1)
        assert negative_bound(spec) == bound
        assert max_h(generate(spec), PositiveMMS()).best_h == bound


def test_all_subsets_bound_is_tight():
    for r, s, k, m in [(2, 1, 2, 2), (3, 1, 2, 3)]:
        spec = AllSubsets(r=r, s=s, k=k, m=m)
        criterion = OneOutOfCMMS(r // s)
        result = max_h(generate(spec), criterion)
        assert result.best_h == maxh_finite(r, s, k, m)
        assert negative_bound(spec) == result.best_h
