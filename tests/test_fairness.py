"""Fairness-criterion tests.

The binary-agent thresholds are validated against :func:`check` on
explicitly constructed splits and against the closed forms of
``threshold_reference.py``, and the maximin-share computation against a
brute-force partition enumeration.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupfair.errors import CapExceededError, FormatError
from groupfair.fairness import (
    EFc,
    FairnessReport,
    FractionMMS,
    MMS,
    OneOfBestC,
    OneOutOfCMMS,
    PROPc,
    PositiveMMS,
    SFunction,
    _own_bar,
    check,
    democratic_report,
    efc_holds,
    is_efc,
    is_propc,
    mms_share,
    parse_criteria,
    parse_criterion,
    propc_holds,
    _binary_threshold,
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
    allocation_doc,
    serialize_allocation,
)

from conftest import addval, binval, criteria
from threshold_reference import binary_threshold


# ---------------------------------------------------------------------------
# names


ALL_CRITERIA = [
    EFc(0),
    EFc(1),
    PROPc(2),
    MMS(),
    OneOutOfCMMS(3),
    FractionMMS(Fraction(1, 2)),
    OneOfBestC(2),
    PositiveMMS(),
]


def test_names_round_trip():
    for crit in ALL_CRITERIA:
        assert parse_criterion(crit.name) == crit
    assert parse_criterion("EF-1") == EFc(1)
    assert parse_criterion(" mms ") == MMS()
    assert parse_criterion("fraction-mms:0.5") == FractionMMS(Fraction(1, 2))


def test_parse_criterion_errors():
    with pytest.raises(FormatError, match="did you mean"):
        parse_criterion("ef1")
    with pytest.raises(FormatError):
        parse_criterion("fraction-mms:3/2")
    with pytest.raises(FormatError):
        parse_criterion("fraction-mms:zero")
    with pytest.raises(FormatError):
        parse_criterion("1-out-of-0-mms")
    with pytest.raises(FormatError, match=r": number has more than \d+ digits$"):
        parse_criterion("ef-" + "9" * 5000)


def test_parse_criterion_quotes_a_prefix_of_an_oversized_name():
    with pytest.raises(FormatError, match=r"^unknown criterion 'ef1'; expected"):
        parse_criterion("ef1")
    with pytest.raises(FormatError) as exc:
        parse_criterion("ef-" + "9" * 5000)
    assert str(exc.value).startswith(f"bad criterion 'ef-{'9' * 37}'...: number")
    with pytest.raises(FormatError) as exc:
        parse_criterion("ef" + "9" * 5000)
    assert str(exc.value).startswith(f"unknown criterion 'ef{'9' * 38}'...; expected")
    # a field's own parser quotes its text the same way
    with pytest.raises(FormatError, match=r"^bad criterion 'fraction-mms:x{27}'\.\.\.: "
                                          r"not a rational: 'x{40}'\.\.\.$"):
        parse_criterion("fraction-mms:" + "x" * 5000)


def test_parse_criteria():
    assert parse_criteria("ef-1", 3) == (EFc(1),) * 3
    assert parse_criteria("ef-1,mms,prop-2", 3) == (EFc(1), MMS(), PROPc(2))
    with pytest.raises(FormatError):
        parse_criteria("ef-1,mms", 3)


def test_criterion_validation():
    with pytest.raises(ValueError):
        EFc(-1)
    with pytest.raises(ValueError):
        OneOutOfCMMS(0)
    with pytest.raises(ValueError):
        FractionMMS(Fraction(1))
    with pytest.raises(ValueError):
        OneOfBestC(0)


# ---------------------------------------------------------------------------
# maximin shares


def _mms_reference(valuation, c):
    """Brute force: enumerate every assignment of goods to c parts."""
    m = valuation.m
    value = [valuation.value(Bundle(mask, m)) for mask in range(1 << m)]
    best = None
    for assign in itertools.product(range(c), repeat=m):
        parts = [0] * c
        for i, part in enumerate(assign):
            parts[part] |= 1 << i
        worst = min(value[mask] for mask in parts)
        if best is None or worst > best:
            best = worst
    return best


def test_mms_examples():
    assert mms_share(addval((2, 1, 1)), 2) == 2
    assert mms_share(addval((2, 1, 1)), 3) == 1
    assert mms_share(addval((2, 1, 1)), 4) == 0
    assert mms_share(binval("abcdefg", "abcdefg"), 3) == 2
    assert mms_share(addval((5, 3)), 1) == 8
    # restriction to a subset of goods
    sub = Bundle.from_indices([0, 1, 2], 4)
    assert mms_share(addval((2, 1, 1, 100)), 2, goods=sub) == 2


def test_mms_cap_and_validation():
    with pytest.raises(CapExceededError):
        mms_share(addval((1,) * 13), 2)
    assert mms_share(addval((1,) * 13), 2, cap=13) == 6
    # the binary shortcut never enumerates partitions, so no cap applies
    goods = "abcdefghijklmno"
    assert mms_share(binval(goods, goods), 4) == 3
    with pytest.raises(ValueError):
        mms_share(addval((1, 2)), 0)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=0, max_value=6, max_denominator=3),
        min_size=1,
        max_size=7,
    ),
    st.integers(2, 4),
)
def test_mms_matches_brute_force_additive(values, c):
    v = addval(values)
    assert mms_share(v, c) == _mms_reference(v, c)


def test_mms_matches_brute_force_tabular():
    # budget-capped unit values: v(S) = min(|S|, 2)
    table = tuple(min(bin(mask).count("1"), 2) for mask in range(16))
    v = TabularValuation(table, 4)
    for c in (2, 3, 4):
        assert mms_share(v, c) == _mms_reference(v, c)
    # six goods, weights capped at 9: the partition search's rounds below
    # the last read only masks that leave out the lowest goods
    weights = (3, 1, 4, 1, 5, 2)
    table = tuple(
        min(sum(w for i, w in enumerate(weights) if mask >> i & 1), 9)
        for mask in range(1 << 6)
    )
    v = TabularValuation(table, 6)
    for c in (2, 3, 4):
        assert mms_share(v, c) == _mms_reference(v, c)


@given(st.lists(st.integers(0, 8), min_size=1, max_size=5))
def test_mms_weakly_decreasing_in_parts(values):
    v = addval(values)
    shares = [mms_share(v, c) for c in range(1, 5)]
    assert all(a >= b for a, b in zip(shares, shares[1:]))


# ---------------------------------------------------------------------------
# check() on hand-worked splits


def _one_agent(values):
    return Agent(0, 0, addval(values))


def test_efc_and_propc():
    agent = _one_agent((3, 1, 1))
    split = Allocation((1, 0, 1), 2)  # own {b}, other {a, c}
    assert not is_efc(agent, split, 0)
    assert is_efc(agent, split, 1)
    assert not is_propc(agent, split, 0)
    assert is_propc(agent, split, 1)
    assert check(agent, split, EFc(1))
    assert not check(agent, split, EFc(0))


def test_mms_criteria():
    agent = _one_agent((2, 1, 1))
    whole_small = Allocation((1, 0, 0), 2)  # own {b, c} worth 2 = mms
    assert check(agent, whole_small, MMS())
    single = Allocation((1, 0, 1), 2)  # own {b} worth 1
    assert not check(agent, single, MMS())
    assert check(agent, single, FractionMMS(Fraction(1, 2)))
    assert not check(agent, single, FractionMMS(Fraction(3, 4)))
    assert check(agent, single, OneOutOfCMMS(3))
    with pytest.raises(ValueError):
        check(agent, single, OneOutOfCMMS(1))  # c < k


def test_one_of_best_c():
    agent = _one_agent((3, 1, 1))
    single = Allocation((1, 0, 1), 2)  # own {b} worth 1
    assert not check(agent, single, OneOfBestC(1))
    assert check(agent, single, OneOfBestC(2))
    assert check(agent, single, OneOfBestC(7))  # beyond m: trivial


def test_positive_mms():
    nothing = Allocation((1, 1, 1), 2)
    assert check(_one_agent((1, 0, 0)), nothing, PositiveMMS())  # mms is 0
    assert not check(_one_agent((1, 1, 0)), nothing, PositiveMMS())
    assert check(_one_agent((1, 1, 0)), Allocation((0, 1, 1), 2), PositiveMMS())


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=5),
    st.data(),
)
def test_relaxation_monotone_in_c(values, data):
    agent = _one_agent(values)
    assign = tuple(
        data.draw(st.integers(0, 1)) for _ in values
    )
    alloc = Allocation(assign, 2)
    for c in range(0, 4):
        assert not is_efc(agent, alloc, c) or is_efc(agent, alloc, c + 1)
        assert not is_propc(agent, alloc, c) or is_propc(agent, alloc, c + 1)


# ---------------------------------------------------------------------------
# binary thresholds


def _split_verdict(criterion, r, x, k):
    """check() on a split where the agent's group holds exactly ``x`` of its
    ``r`` desired goods (plus one undesired pad on each side)."""
    m = r + 2
    agent = Agent(0, 0, BinaryValuation(Bundle.from_indices(range(r), m)))
    assignment = [0 if i < x else 1 + i % (k - 1) for i in range(r)]
    assignment += [0, 1]  # pads
    return check(agent, Allocation(tuple(assignment), k), criterion)


TWO_GROUP_CRITERIA = [
    EFc(0),
    EFc(1),
    EFc(2),
    PROPc(0),
    PROPc(1),
    PROPc(2),
    MMS(),
    OneOutOfCMMS(2),
    OneOutOfCMMS(3),
    OneOfBestC(1),
    OneOfBestC(2),
    OneOfBestC(4),
    PositiveMMS(),
]


@pytest.mark.parametrize("criterion", TWO_GROUP_CRITERIA, ids=lambda c: c.name)
def test_threshold_characterizes_check_two_groups(criterion):
    for r in range(0, 9):
        s = s_threshold(criterion, r, 2)
        assert 0 <= s <= max(r, 0)
        for x in range(r + 1):
            assert _split_verdict(criterion, r, x, 2) == (x >= s), (r, x)


@pytest.mark.parametrize(
    "criterion",
    [OneOutOfCMMS(3), OneOutOfCMMS(4), OneOfBestC(2), PositiveMMS()],
    ids=lambda c: c.name,
)
def test_threshold_characterizes_check_three_groups(criterion):
    for r in range(0, 9):
        s = s_threshold(criterion, r, 3)
        for x in range(r + 1):
            assert _split_verdict(criterion, r, x, 3) == (x >= s), (r, x)


def test_threshold_spot_values():
    assert s_threshold(EFc(1), 7) == 3
    assert s_threshold(OneOutOfCMMS(3), 9) == 3
    assert s_threshold(OneOfBestC(5), 4) == 0
    assert s_threshold(MMS(), 5) == 2
    assert s_threshold(PROPc(2), 5) == 2
    assert s_threshold(PositiveMMS(), 1) == 0


def test_threshold_validation():
    assert s_threshold(FractionMMS(Fraction(1, 2)), 4) == 1
    with pytest.raises(ValueError, match=r"^ef-1 has a threshold only for k=2$"):
        s_threshold(EFc(1), 4, k=3)
    assert s_threshold(MMS(), 4, k=3) == 1
    with pytest.raises(ValueError):
        s_threshold(EFc(1), -1)


def test_s_function():
    s = SFunction(EFc(1))
    assert [s(r) for r in range(6)] == [0, 0, 1, 1, 2, 2]
    half = SFunction(FractionMMS(Fraction(1, 2)))
    assert [half(r) for r in range(6)] == [0, 0, 1, 1, 1, 1]
    with pytest.raises(ValueError):
        SFunction(EFc(1), k=3)
    with pytest.raises(ValueError, match=r"1-out-of-1-mms needs c >= k \(k=2\)"):
        SFunction(OneOutOfCMMS(1))


def _outcome(function, *args):
    """``function(*args)``, or the message of the ``ValueError`` it raises."""
    try:
        return function(*args)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(criteria(), st.integers(0, 12), st.integers(2, 4))
def test_s_threshold_is_the_binary_threshold(criterion, r, k):
    # one rule: s_threshold answers wherever the threshold exists, and
    # raises where it does not (EF-c with three or more groups)
    threshold = _outcome(_binary_threshold, criterion, r, k)
    if threshold is None:
        threshold = f"{criterion.name} has a threshold only for k=2"
    assert _outcome(s_threshold, criterion, r, k) == threshold


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.builds(EFc, st.integers(0, 8)), st.builds(PROPc, st.integers(0, 8)),
                 criteria()),
       st.integers(0, 64), st.integers(2, 5))
def test_binary_threshold_is_its_closed_form(criterion, r, k):
    # the package reads each threshold off check's rule; the closed forms
    # that rule solves to are written only in the reference, and
    # s_threshold is held to _binary_threshold above
    assert _outcome(_binary_threshold, criterion, r, k) == (
        _outcome(binary_threshold, criterion, r, k))


# ---------------------------------------------------------------------------
# reports


def test_democratic_report():
    inst = Instance.from_valuations(
        ("a", "b", "c"),
        ((addval((3, 1, 1)),), (addval((1, 1, 3)), addval((1, 3, 1)))),
    )
    alloc = Allocation((0, 1, 0), 2)
    report = democratic_report(inst, alloc, EFc(0))
    assert report.verdicts == ((True,), (False, True))
    assert report.sizes == (1, 2)
    assert report.happy == (1, 1)
    assert report.fractions == (Fraction(1), Fraction(1, 2))
    assert report.h == Fraction(1, 2)
    assert report.to_doc() == {
        "happy": [[1, 1], [1, 2]],
        "h": "1/2",
        "verdicts": [[True], [False, True]],
    }
    # per-group criteria lift the unhappy agent
    report = democratic_report(inst, alloc, [EFc(0), EFc(1)])
    assert report.h == 1


def test_report_validation():
    with pytest.raises(ValueError):
        democratic_report(
            Instance.from_valuations(("a",), ((binval("a", "a"),),)),
            Allocation((0,), 1),
            [EFc(0), EFc(0)],
        )
    assert FairnessReport(((1, 0),)).verdicts == ((True, False),)


# ---------------------------------------------------------------------------
# argument errors


def test_negative_c_is_refused():
    v, own = binval("a", "ab"), Bundle(1, 2)
    with pytest.raises(ValueError, match="^PROPc needs c >= 0$"):
        PROPc(-1)
    with pytest.raises(ValueError, match="^EFc needs c >= 0$"):
        efc_holds(v, own, [Bundle(2, 2)], -1)
    with pytest.raises(ValueError, match="^PROPc needs c >= 0$"):
        propc_holds(v, own, 2, -1)


def test_s_threshold_needs_two_groups():
    with pytest.raises(ValueError, match="^k must be >= 2$"):
        s_threshold(OneOfBestC(1), 3, k=1)


def test_own_bar_refuses_a_criterion_that_is_not_own_value():
    with pytest.raises(TypeError, match=r"^unknown criterion EFc\(c=1\)$"):
        _own_bar(binval("a", "ab"), EFc(1), 2)


@pytest.mark.parametrize("alloc, shape", [
    (Allocation((0, 0, 0), 1), "3 goods to 1 groups"),
    (Allocation((0, 1, 2), 3), "3 goods to 3 groups"),
    (Allocation((0, 1), 2), "2 goods to 2 groups"),
])
def test_an_allocation_that_does_not_fit_is_refused(alloc, shape):
    # 2 groups over 3 goods: each allocation names its own shape and the
    # instance's, where it raised IndexError or was scored against the
    # wrong bundles
    inst = Instance.from_valuations("abc", [[binval("ab", "abc")]] * 2)
    message = f"^allocation of {shape} does not fit 3 goods and 2 groups$"
    for call in (democratic_report, lambda i, a, c: allocation_doc(a, i),
                 lambda i, a, c: serialize_allocation(a, i)):
        with pytest.raises(ValueError, match=message):
            call(inst, alloc, EFc(1))
    # one agent needs a bundle for its group and a valuation over the
    # allocation's goods; it cannot know the instance's group count
    for agent in inst.agents():
        if alloc.k > agent.group and alloc.m == 3:
            assert check(agent, alloc, EFc(1)) is True
        else:
            message = (f"^allocation of {shape} does not fit 3 goods and at"
                       f" least {agent.group + 1} groups$")
            with pytest.raises(ValueError, match=message):
                check(agent, alloc, EFc(1))

