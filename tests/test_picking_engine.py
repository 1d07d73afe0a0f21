"""The integer-ledger picking engine against the plain ``Dyadic`` loop.

``rwav2`` and ``cwav2`` run on one engine that keeps the payment ledger in
scaled ints.  These tests hold it to the loop it replaced (kept in
``picking_reference.py``): same allocation, guarantees, report and trace,
field by field and type by type, the same ``CapExceededError`` under a
small budget table, and a ledger check that still fires.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from groupfair import budgets
from groupfair.budgets import BudgetTable, Dyadic
from groupfair.errors import CapExceededError
from groupfair.fairness import (
    MMS,
    EFc,
    OneOfBestC,
    OneOutOfCMMS,
    PositiveMMS,
    PROPc,
)
from groupfair.model import BinaryValuation, Bundle, Instance
from groupfair.protocols import ProtocolInvariantError, cwav2, rwav2

from picking_reference import reference_cwav2, reference_rwav2

CRITERIA = (
    EFc(0), EFc(1), EFc(2), PROPc(1), MMS(), OneOutOfCMMS(2),
    OneOutOfCMMS(3), OneOfBestC(1), OneOfBestC(2), OneOfBestC(3),
    PositiveMMS(),
)


@st.composite
def binary_instances(draw, m_max=7, n_max=5):
    m = draw(st.integers(1, m_max))
    groups = [
        [
            BinaryValuation(Bundle(mask, m))
            for mask in draw(
                st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=n_max)
            )
        ]
        for _ in range(2)
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
            # repr also tells a Dyadic from an int or a Fraction of equal value
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
        return value + Dyadic(1, 4) if (r, s) == (2, 1) else value

    def w_C(self, r, s):
        value = super().w_C(r, s)
        return value + Dyadic(1, 4) if (r, s) == (2, 1) else value


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
