"""The integer-ledger picking engine against the plain reference loops.

``rwav2``, ``cwav2`` and ``rwavk`` run on one engine that keeps the payment
ledger in scaled ints.  These tests hold it to the loops in
``picking_reference.py`` (``Fraction`` for two groups, exact ``Q(L)``
vectors for ``k`` groups): same allocation, guarantees, report and trace,
field by field and type by type, also where members want more goods than
an older budget table answered for, the same ``CapExceededError`` above
``MAX_WANTED_GOODS``, and ledger checks that still fire: per member, on the
final group balance and on the ledger unit.
"""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupfair import budgets
from groupfair.budgets import B_closed, BudgetTable, C
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
from groupfair.model import (
    BinaryValuation,
    Bundle,
    Instance,
    binarize_instance,
)
from groupfair.protocols import (
    MAX_WANTED_GOODS,
    ProtocolInvariantError,
    cwav2,
    rwav2,
    rwav2_enhanced,
    rwavk,
)

from picking_reference import (
    _floor_root,
    reference_cwav2,
    reference_rwav2,
    reference_rwavk,
)

CRITERIA = (
    EFc(0), EFc(1), EFc(2), PROPc(1), MMS(), OneOutOfCMMS(2),
    OneOutOfCMMS(3), OneOfBestC(1), OneOfBestC(2), OneOfBestC(3),
    PositiveMMS(),
)


@st.composite
def _roots(draw):
    """``(n, d)`` with ``d <= 63`` and ``n`` of up to about 10^4 bits: any
    int, a power of two as the ledger's roots read, or next to a ``d``-th
    power."""
    d = draw(st.integers(1, 63))
    shape = draw(st.sampled_from(("any", "two", "power")))
    if shape == "any":
        return draw(st.integers(1, 1 << 10_000)), d
    if shape == "two":
        return 1 << draw(st.integers(0, 10_000)), d
    x = draw(st.integers(1, 1 << 10_000 // d))
    return max(x**d + draw(st.integers(-1, 1)), 1), d


@settings(max_examples=200, deadline=None)
@given(_roots())
def test_root_floor_matches_bisection(case):
    n, d = case
    assert protocols._root_floor(n, d) == _floor_root(n, d)


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
        for name in want._fields:
            a, b = getattr(got, name), getattr(want, name)
            # repr also tells a Fraction from an int or a float of equal value
            assert (a, repr(a)) == (b, repr(b)), f"turn {want.turn} {name}"


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


@st.composite
def wide_instances(draw):
    """Two groups over 65 to 130 goods, each member wanting 65 to 128."""
    m = draw(st.integers(65, 130))
    rng = draw(st.randoms(use_true_random=False))
    groups = [
        [
            BinaryValuation(Bundle.from_indices(
                rng.sample(range(m), draw(st.integers(65, min(m, 128)))), m))
            for _ in range(draw(st.integers(1, 3)))
        ]
        for _ in range(2)
    ]
    return Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)


@settings(max_examples=8, deadline=None)
@given(wide_instances(), criteria, st.sampled_from((0, 1)), st.integers(0, 99))
def test_past_the_old_cap_matches_reference(inst, criterion, first_group, seed):
    # an older budget table stopped at members wanting 64 goods
    assert_same_run(
        rwav2(inst, criterion, first_group=first_group),
        reference_rwav2(inst, criterion, first_group=first_group),
    )
    assert_same_run(cwav2(inst, criterion, seed),
                    reference_cwav2(inst, criterion, seed))


def wanting(wanted: int, extra: int = 0) -> Instance:
    """Two groups whose first members want ``wanted`` goods and whose
    second members want ``extra`` goods of their own."""
    m = wanted + extra
    goods = (range(wanted), range(wanted, m))
    groups = [[BinaryValuation(Bundle.from_indices(goods[j], m)) for j in range(2)]
              for _ in range(2)]
    return Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)


def test_cap_exceeded_on_both():
    # at the cap the guarantees are the closed form's values, exactly
    inst, crit = wanting(MAX_WANTED_GOODS, 2), OneOutOfCMMS(2)
    r, s = MAX_WANTED_GOODS, MAX_WANTED_GOODS // 2
    assert rwav2(inst, crit).guarantees == (B_closed(r, s), B_closed(r - 1, s))
    assert cwav2(inst, crit, seed=3).expected_guarantees == (C(r, s),) * 2
    # one good more is refused before the first turn, also inside
    # rwav2-enhanced, whose shortcut no good triggers here
    inst = wanting(MAX_WANTED_GOODS + 1, 2)
    message = (f" a member wants {MAX_WANTED_GOODS + 1} goods,"
               f" above the cap of {MAX_WANTED_GOODS}$")
    for name, run in (("rwav2", lambda: rwav2(inst, crit)),
                      ("cwav2", lambda: cwav2(inst, crit, seed=3)),
                      ("rwav2", lambda: rwav2_enhanced(inst))):
        with pytest.raises(CapExceededError, match=f"^{name}:{message}"):
            run()
    # members needing none of their goods are priced by base cases alone
    crit = EFc(MAX_WANTED_GOODS + 1)
    assert rwav2(inst, crit).guarantees == (1, 1)
    assert cwav2(inst, crit, seed=3).expected_guarantees == (1, 1)


def test_rwav2_enhanced_caps_c():
    # up to the cap the guarantee is (2^c - 1)/(2^c + 1) exactly, through
    # the shortcut (first instance) and through rwav2 (second)
    c = MAX_WANTED_GOODS
    for inst in (wanting(c, 2), wanting(2, 2)):
        result = rwav2_enhanced(inst, c=c)
        assert result.guarantees == (Fraction(2**c - 1, 2**c + 1),) * 2
        # one more is refused before 2**c is built
        with pytest.raises(CapExceededError) as info:
            rwav2_enhanced(inst, c=c + 1)
        assert str(info.value) == f"rwav2_enhanced: c = {c + 1} is above the cap of {c}"


class OffByOneUnit(BudgetTable):
    """``w(2, 1)`` and ``w_C(2, 1)`` are 1/16 too large, one unit of the
    sample run's ledger."""

    def w(self, r, s):
        value = super().w(r, s)
        return value + Fraction(1, 2**4) if (r, s) == (2, 1) else value

    def w_C(self, r, s):
        value = super().w_C(r, s)
        return value + Fraction(1, 2**4) if (r, s) == (2, 1) else value


def test_ledger_check_catches_a_wrong_weight(mixed_two_group, monkeypatch):
    # Agent 1.9 wants {w, z}; group 1 takes w on turn 1 and the member pays
    # the inflated w(2, 1) = 5/16 instead of 1/4.
    monkeypatch.setattr(budgets, "DEFAULT_TABLE", OffByOneUnit())
    message = r"^agent 1\.9 balance -17/16 != -B\(1, 0\) after turn 1$"
    with pytest.raises(ProtocolInvariantError, match=message) as info:
        rwav2(mixed_two_group, OneOfBestC(2))
    exc = info.value
    assert (exc.agent, exc.turn, exc.expected, exc.actual) == (
        "1.9", 1, Fraction(-1), Fraction(-17, 16))
    with pytest.raises(ProtocolInvariantError, match=message):
        reference_rwav2(mixed_two_group, OneOfBestC(2))



def test_cwav2_ledger_check_catches_a_wrong_weight(mixed_two_group, monkeypatch):
    # seed 3's coin also gives turn 1 to group 1, which takes w
    monkeypatch.setattr(budgets, "DEFAULT_TABLE", OffByOneUnit())
    new = outcome(cwav2, mixed_two_group, OneOfBestC(2), 3)
    assert new == (
        ProtocolInvariantError,
        "agent 1.9 balance -17/16 != -C(1, 0) after turn 1",
    )
    assert new == outcome(reference_cwav2, mixed_two_group, OneOfBestC(2), 3)


class MovedValue(BudgetTable):
    """The default table with one value, ``name`` at ``state``, moved by
    ``by``."""

    def __init__(self, name, state, by):
        self.name, self.state, self.by = name, state, by

    def moved(self, name, r, s, value):
        return value + self.by if (name, (r, s)) == (self.name, self.state) else value

    def B(self, r, s):
        return self.moved("B", r, s, super().B(r, s))

    def w(self, r, s):
        return self.moved("w", r, s, super().w(r, s))

    def C(self, r, s):
        return self.moved("C", r, s, super().C(r, s))

    def w_C(self, r, s):
        return self.moved("w_C", r, s, super().w_C(r, s))


BALANCE_ERROR = re.compile(
    r"^agent (?P<agent>\S+) balance (?P<balance>\S+) != "
    r"-(?P<name>\w+)\((?P<r>\d+), (?P<s>\d+)\) after turn (?P<turn>\d+)$")


@pytest.mark.parametrize(
    "run, reference, names, arg",
    [(rwav2, reference_rwav2, ("B", "w"), st.sampled_from((0, 1))),
     (cwav2, reference_cwav2, ("C", "w_C"), st.integers(0, 2**32))],
    ids=["rwav2", "cwav2"],
)
@settings(max_examples=150, deadline=None)
@given(inst=binary_instances(), criterion=criteria, data=st.data())
def test_a_moved_table_value_fails_where_the_reference_does(run, reference, names,
                                                            arg, inst, criterion, data):
    # The engine checks each member move once, when a member first makes
    # it; the reference checks every member's balance on every turn.  One
    # budget or weight moved by whole ledger units must stop both at the
    # same member and turn, or neither.
    R = max(mask.bit_count() for grp in protocols._desired_masks(inst) for mask in grp)
    table = MovedValue(
        data.draw(st.sampled_from(names)),
        (data.draw(st.integers(0, R)), data.draw(st.integers(0, R + 1))),
        Fraction(data.draw(st.sampled_from((-3, -2, -1, 1, 2, 3))), 2**R),
    )
    arg = data.draw(arg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(budgets, "DEFAULT_TABLE", table)
        try:
            new = run(inst, criterion, arg)
        except ProtocolInvariantError as exc:
            new = exc
        # a moved budget can also lift a claimed guarantee above the happy
        # fraction, which the run checks before it returns
        ref = outcome(lambda *args: protocols._checked(reference(*args)),
                      inst, criterion, arg)
        if isinstance(ref, tuple):
            assert (type(new), str(new)) == ref
            if found := BALANCE_ERROR.match(ref[1]):
                budget = getattr(table, found["name"])(int(found["r"]), int(found["s"]))
                assert (new.agent, new.turn, new.expected, str(new.actual)) == (
                    found["agent"], int(found["turn"]), -budget, found["balance"])
        else:
            assert_same_run(new, ref)


class RaisedBudget(BudgetTable):
    """``B`` and ``C`` raised by ``shift``.  A member's starting balance and
    every budget it is checked against move together, so each per-member
    check still passes."""

    def __init__(self, shift):
        self.shift = shift

    def B(self, r, s):
        return super().B(r, s) + self.shift

    def C(self, r, s):
        return super().C(r, s) + self.shift


# group 1's two members and group 2's one all want {a, b} and need one
WANT_BOTH = BinaryValuation(Bundle(0b11, 2))
BOTH_TWICE = Instance.from_valuations(("a", "b"), [[WANT_BOTH] * 2, [WANT_BOTH]])
# seed 1's coin gives group 1 a good, as rwav2's first turn does
PICKING_RUNS = [(rwav2, reference_rwav2, ()), (cwav2, reference_cwav2, (1,))]


@pytest.mark.parametrize("run, reference, args", PICKING_RUNS, ids=["rwav2", "cwav2"])
def test_final_balance_check_catches_a_raised_budget(run, reference, args,
                                                     monkeypatch):
    # both of group 1's members end happy, so its balance should be 2; each
    # holds an extra 1/2
    monkeypatch.setattr(budgets, "DEFAULT_TABLE", RaisedBudget(Fraction(1, 2)))
    with pytest.raises(ProtocolInvariantError) as info:
        run(BOTH_TWICE, OneOfBestC(1), *args)
    assert str(info.value) == "group 1 final balance 3 != happy 2"
    assert (info.value.expected, info.value.actual) == (2, 3)
    assert outcome(reference, BOTH_TWICE, OneOfBestC(1), *args) == (
        ProtocolInvariantError, str(info.value))


@pytest.mark.parametrize("run, args", [(run, args) for run, _, args in PICKING_RUNS],
                         ids=["rwav2", "cwav2"])
def test_pricing_refuses_a_value_finer_than_the_ledger_unit(run, args, monkeypatch):
    # no member wants more than 2 goods, so the ledger unit is L^-2 = 1/4
    monkeypatch.setattr(budgets, "DEFAULT_TABLE", RaisedBudget(Fraction(1, 2**9)))
    assert outcome(run, BOTH_TWICE, OneOfBestC(1), *args) == (
        ProtocolInvariantError,
        f"{run.__name__}: L^-9 is finer than the ledger unit L^-2",
    )


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
        try:
            new = rwavk(inst, c)
        except ProtocolInvariantError as exc:
            new = exc
    if first is None:
        assert_same_run(new, ref)
    else:
        turn, g, j, r = first
        assert type(new) is ProtocolInvariantError
        assert str(new).startswith(f"agent {g + 1}.{j + 1} balance ")
        assert str(new).endswith(f" != -B_k({r - 1}, 0) after turn {turn}")
        # the structured fields say the same, with exact balances: the
        # member paid one ledger unit too much on top of its budget -1
        assert (new.agent, new.turn) == (f"{g + 1}.{j + 1}", turn)
        assert new.expected == -1 and type(new.expected) is Fraction
        unit = new.expected - new.actual
        assert unit > 0 and unit.numerator == 1
        assert unit.denominator & (unit.denominator - 1) == 0  # a power of 2
        assert f" balance {float(new.actual)} != " in str(new)

