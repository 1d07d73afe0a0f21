"""The integer-ledger picking engine against the plain reference loops.

``rwav2``, ``cwav2`` and ``rwavk`` run on one engine that keeps the payment
ledger in scaled ints.  These tests hold it to the loops in
``picking_reference.py`` (``Fraction`` for two groups, exact ``Q(L)``
vectors for ``k`` groups): same allocation, guarantees, report and trace,
field by field and type by type, the same ``CapExceededError`` under a
small budget table, and a ledger check that still fires.
"""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupfair import budgets
from groupfair.budgets import BudgetTable
from groupfair.errors import CapExceededError
from groupfair.fairness import (
    MMS,
    EFc,
    OneOfBestC,
    OneOutOfCMMS,
    PositiveMMS,
    PROPc,
)
from groupfair import protocols
from groupfair.model import BinaryValuation, Bundle, Instance, binarize_instance
from groupfair.protocols import ProtocolInvariantError, cwav2, rwav2, rwavk

from picking_reference import reference_cwav2, reference_rwav2, reference_rwavk

CRITERIA = (
    EFc(0), EFc(1), EFc(2), PROPc(1), MMS(), OneOutOfCMMS(2),
    OneOutOfCMMS(3), OneOfBestC(1), OneOfBestC(2), OneOfBestC(3),
    PositiveMMS(),
)


@st.composite
def binary_instances(draw, k=2, m_max=7, n_max=5):
    m = draw(st.integers(1, m_max))
    groups = [
        [
            BinaryValuation(Bundle(mask, m))
            for mask in draw(
                st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=n_max)
            )
        ]
        for _ in range(k)
    ]
    return Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)


criteria = st.one_of(
    st.sampled_from(CRITERIA),
    st.tuples(st.sampled_from(CRITERIA), st.sampled_from(CRITERIA)),
)


def assert_same_run(new, ref):
    assert new.protocol == ref.protocol
    assert new.allocation == ref.allocation
    assert new.report == ref.report
    assert new.criteria == ref.criteria
    assert new.guarantees == ref.guarantees
    assert new.expected_guarantees == ref.expected_guarantees
    assert new.trace.kind == ref.trace.kind
    assert len(new.trace.turns) == len(ref.trace.turns)
    for got, want in zip(new.trace.turns, ref.trace.turns):
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            # repr also tells a Fraction from an int or a float of equal value
            assert (a, repr(a)) == (b, repr(b)), f"turn {want.turn} {f.name}"


def outcome(protocol, *args, **kwargs):
    """The run, or the type and text of the error it raised."""
    try:
        return protocol(*args, **kwargs)
    except (CapExceededError, ProtocolInvariantError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(binary_instances(), criteria, st.sampled_from((0, 1)))
def test_rwav2_matches_reference_loop(inst, criterion, first_group):
    assert_same_run(
        rwav2(inst, criterion, first_group=first_group),
        reference_rwav2(inst, criterion, first_group=first_group),
    )


@settings(max_examples=150, deadline=None)
@given(binary_instances(), criteria, st.integers(0, 2**32))
def test_cwav2_matches_reference_loop(inst, criterion, seed):
    assert_same_run(cwav2(inst, criterion, seed), reference_cwav2(inst, criterion, seed))


@settings(max_examples=60, deadline=None)
@given(binary_instances(), criteria, st.sampled_from((0, 1)), st.integers(0, 99))
def test_small_table_behaves_like_reference(inst, criterion, first_group, seed):
    table = BudgetTable(r_max=2)
    new = outcome(rwav2, inst, criterion, first_group=first_group, table=table)
    ref = outcome(reference_rwav2, inst, criterion, first_group=first_group,
                  table=table)
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert_same_run(new, ref)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(budgets, "DEFAULT_TABLE", table)
        new = outcome(cwav2, inst, criterion, seed)
        ref = outcome(reference_cwav2, inst, criterion, seed)
    if isinstance(ref, tuple):
        assert new == ref
    else:
        assert_same_run(new, ref)


def test_cap_exceeded_on_both(mixed_two_group, monkeypatch):
    table = BudgetTable(r_max=3)
    message = r"^budget table capped at r_max=3, got \(r=4, s=1\)$"
    with pytest.raises(CapExceededError, match=message):
        rwav2(mixed_two_group, OneOfBestC(2), table=table)
    monkeypatch.setattr(budgets, "DEFAULT_TABLE", table)
    with pytest.raises(CapExceededError, match=message):
        cwav2(mixed_two_group, OneOfBestC(2), seed=3)


class OffByOneUnit(BudgetTable):
    """``w(2, 1)`` and ``w_C(2, 1)`` are 1/16 too large, one unit of the
    sample run's ledger."""

    def w(self, r, s):
        value = super().w(r, s)
        return value + Fraction(1, 2**4) if (r, s) == (2, 1) else value

    def w_C(self, r, s):
        value = super().w_C(r, s)
        return value + Fraction(1, 2**4) if (r, s) == (2, 1) else value


def test_ledger_check_catches_a_wrong_weight(mixed_two_group):
    # Agent 1.9 wants {w, z}; group 1 takes w on turn 1 and the member pays
    # the inflated w(2, 1) = 5/16 instead of 1/4.
    message = r"^agent 1\.9 balance -17/16 != -B\(1, 0\) after turn 1$"
    with pytest.raises(ProtocolInvariantError, match=message):
        rwav2(mixed_two_group, OneOfBestC(2), table=OffByOneUnit())
    with pytest.raises(ProtocolInvariantError, match=message):
        reference_rwav2(mixed_two_group, OneOfBestC(2), table=OffByOneUnit())



def test_cwav2_ledger_check_catches_a_wrong_weight(mixed_two_group, monkeypatch):
    # seed 3's coin also gives turn 1 to group 1, which takes w
    monkeypatch.setattr(budgets, "DEFAULT_TABLE", OffByOneUnit())
    new = outcome(cwav2, mixed_two_group, OneOfBestC(2), 3)
    assert new == (
        ProtocolInvariantError,
        "agent 1.9 balance -17/16 != -C(1, 0) after turn 1",
    )
    assert new == outcome(reference_cwav2, mixed_two_group, OneOfBestC(2), 3)


# ---------------------------------------------------------------------------
# k-group RWAV on the same engine, against the exact reference

rwavk_runs = st.integers(2, 5).flatmap(
    lambda k: st.tuples(binary_instances(k=k, n_max=4), st.integers(1, k + 2))
)


@pytest.mark.filterwarnings("ignore:rwavk with c=")
@settings(max_examples=150, deadline=None)
@given(rwavk_runs)
def test_rwavk_matches_exact_reference(run):
    inst, c = run
    assert_same_run(rwavk(inst, c), reference_rwavk(inst, c))


def off_by_one(field, state):
    """``_kgroup_price`` with one ledger int of ``state`` one unit too large;
    ``field`` is 0 (budget), 1 (weight) or 2 (pay)."""
    exact = protocols._kgroup_price

    def price(r, s, lpow):
        values = list(exact(r, s, lpow))
        if state in ((r, s), None) and values[field]:
            values[field] += 1
        return tuple(values)

    return price


@pytest.mark.filterwarnings("ignore:rwavk with c=")
@pytest.mark.parametrize("k", [2, 3, 4, 5])
@pytest.mark.parametrize(
    "field, state, agent, after",
    [
        (0, (1, 1), "2.1", "(1, 1)"),  # 2.1's budget after its refund
        (1, (2, 1), "2.1", "(1, 1)"),  # 2.1's refund
        (2, (2, 1), "1.1", "(1, 0)"),  # 1.1's payment
    ],
    ids=["budget", "weight", "pay"],
)
def test_rwavk_ledger_check_catches_a_wrong_price(k, field, state, agent, after,
                                                  monkeypatch):
    # Groups 1 and 2 have one member each wanting {a, b}; group 1 takes a
    # on turn 1, so member 1.1 pays and member 2.1 is refunded.
    groups = [[BinaryValuation(Bundle(0b11, 2))] for _ in range(2)]
    groups += [[BinaryValuation(Bundle(0b10, 2))] for _ in range(k - 2)]
    inst = Instance.from_valuations(("a", "b"), groups)
    monkeypatch.setattr(protocols, "_kgroup_price", off_by_one(field, state))
    message = (rf"^agent {re.escape(agent)} balance \S+ != "
               rf"-B_k{re.escape(after)} after turn 1$")
    with pytest.raises(ProtocolInvariantError, match=message):
        rwavk(inst, c=2)


@pytest.mark.filterwarnings("ignore:rwavk with c=")
@settings(max_examples=60, deadline=None)
@given(rwavk_runs)
def test_rwavk_ledger_check_fires_at_the_first_wrong_payment(run):
    # With every nonzero pay one unit too large, the run must stop at the
    # first member that pays one: the lowest-index member of the acting
    # group that still needs a good and wants the pick.
    inst, c = run
    ref = reference_rwavk(inst, c)
    masks = protocols._desired_masks(binarize_instance(inst, c))
    first = next(
        (
            (t.turn, t.group, j, r)
            for t in ref.trace.turns
            for j, (r, s, _) in enumerate(t.member_states)
            if s == 1 and masks[t.group][j] >> t.pick & 1
        ),
        None,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocols, "_kgroup_price", off_by_one(2, None))
        new = outcome(rwavk, inst, c)
    if first is None:
        assert_same_run(new, ref)
    else:
        turn, g, j, r = first
        assert new[0] is ProtocolInvariantError
        assert new[1].startswith(f"agent {g + 1}.{j + 1} balance ")
        assert new[1].endswith(f" != -B_k({r - 1}, 0) after turn {turn}")

