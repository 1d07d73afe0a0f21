"""Budget/weight table tests.

The recurrence-driven tables are checked against the independent closed
form (binomial sums), frozen spot values, and the printed three-decimal
grid of the reference table.  The column-on-demand memo is checked against
the eager build in ``table_reference.py``, from one thread and from four.
"""

import functools
import math
import sys
import threading
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupfair.budgets import (
    B,
    B_closed,
    BudgetTable,
    C,
    KGroupWeights,
    maxh,
    maxh_finite,
    w,
    w_C,
)
from groupfair.errors import CapExceededError
from groupfair.protocols import _table_price

from table_reference import EagerBudgetTable


# ---------------------------------------------------------------------------
# B and w


def test_b_equals_closed_form_exactly():
    for r in range(0, 31):
        for s in range(0, r + 1):
            assert B(r, s) == B_closed(r, s), (r, s)


def test_pinned_values():
    assert B(2, 1) == Fraction(3, 4)
    assert B(4, 2) == Fraction(5, 8)
    assert w(1, 1) == Fraction(1, 2)
    assert w(3, 2) == Fraction(3, 8)
    assert w(2, 1) == Fraction(1, 4)
    assert w(4, 2) == Fraction(1, 4)
    assert w(3, 1) == Fraction(1, 8)
    for c in range(1, 11):
        assert B(c, 1) == 1 - Fraction(1, 2**c)


def test_boundaries():
    assert B(0, 0) == 1
    assert B(5, 0) == 1
    assert B(7, -2) == 1
    assert B(0, 1) == 0
    assert B(2, 3) == 0


def test_zero_region():
    for s in range(1, 16):
        for r in range(0, 2 * s - 1):
            assert B(r, s) == 0, (r, s)


def test_simplified_recurrence_region():
    for s in range(1, 13):
        for r in range(max(1, 2 * s - 1), 31):
            assert B(r, s) == (B(r - 1, s) + B(r - 1, s - 1)) / 2


def test_monotonicity():
    for r in range(0, 31):
        for s in range(0, 31):
            assert B(r, s) >= B(r, s + 1)
            assert B(r + 1, s) >= B(r, s)


def test_w_is_difference():
    for r in range(1, 25):
        for s in range(0, r + 1):
            assert w(r, s) == B(r, s) - B(r - 1, s)
            assert 0 <= w(r, s) <= 1


def test_three_decimal_grid():
    # the reference grid of w at three decimals (half-up)
    expected = {
        (1, 1): "0.500", (2, 1): "0.250",
        (3, 1): "0.125", (3, 2): "0.375",
        (4, 1): "0.063", (4, 2): "0.250",
        (5, 1): "0.031", (5, 2): "0.156", (5, 3): "0.313",
        (6, 1): "0.016", (6, 2): "0.094", (6, 3): "0.234",
        (7, 1): "0.008", (7, 2): "0.055", (7, 3): "0.164", (7, 4): "0.273",
        (8, 1): "0.004", (8, 2): "0.031", (8, 3): "0.109", (8, 4): "0.219",
        (9, 1): "0.002", (9, 2): "0.018", (9, 3): "0.070", (9, 4): "0.164",
        (9, 5): "0.246",
        (10, 1): "0.001", (10, 2): "0.010", (10, 3): "0.044",
        (10, 4): "0.117", (10, 5): "0.205",
    }
    for (r, s), text in expected.items():
        f = w(r, s)
        got = str((Decimal(f.numerator) / Decimal(f.denominator)).quantize(
            Decimal("0.001"), rounding=ROUND_HALF_UP))
        assert got == text, (r, s, got, text)
    for r in range(0, 11):
        assert w(r, 0) == 0


def test_cap():
    table = BudgetTable(10)
    assert table.B(10, 5) == B(10, 5)
    with pytest.raises(CapExceededError):
        table.B(11, 3)


# ---------------------------------------------------------------------------
# column-on-demand memo against the eager build

eager_table = functools.lru_cache(maxsize=None)(EagerBudgetTable)


def lookup(table, name, r, s):
    """The repr of ``table.name(r, s)``, or the error it raises."""
    try:
        return repr(getattr(table, name)(r, s))
    except CapExceededError as exc:
        return ("CapExceededError", str(exc))


@given(
    st.integers(1, 80),
    st.lists(
        st.tuples(st.sampled_from(["B", "w", "C", "w_C"]),
                  st.integers(-3, 84), st.integers(-3, 84)),
        max_size=30,
    ),
)
def test_lazy_table_matches_eager_build(r_max, queries):
    table, eager = BudgetTable(r_max), eager_table(r_max)
    assert table.columns == 1
    for name, r, s in queries:
        assert lookup(table, name, r, s) == lookup(eager, name, r, s)
    # a lookup builds columns only up to its own s, and only when it gets
    # past the base cases and the cap
    needed = [s for _, r, s in queries if 1 <= s <= r <= r_max]
    assert table.columns == 1 + max(needed, default=0)


def test_lazy_table_threads_agree():
    r_max = 60
    table, eager = BudgetTable(r_max), eager_table(r_max)
    cells = [(name, r, s) for s in range(r_max + 1) for r in range(r_max + 1)
             for name in ("B", "w", "C", "w_C")]
    expected = [lookup(eager, *cell) for cell in cells]
    results = [None] * 4

    def read(i):
        # two readers start from the last column, two from the first
        order = cells[::-1] if i % 2 else cells
        got = {cell: lookup(table, *cell) for cell in order}
        results[i] = [got[cell] for cell in cells]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [expected] * 4
    assert table.columns == r_max + 1  # no column appended twice


# ---------------------------------------------------------------------------
# scaled ints in, Fraction out


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 3))
def test_values_are_dyadic_and_price_exactly(r_max, extra):
    table = BudgetTable(r_max)
    P = r_max + extra  # the ledger unit is 2**-P when r_max is the run's R

    def rwav2_pay(r, s):
        return max(table.w(r, s), table.w(r - 1, s - 1))

    families = ((table.B, table.w, rwav2_pay), (table.C, table.w_C, table.w_C))
    for r in range(r_max + 1):
        for s in range(r + 1):
            for name in ("B", "w", "C", "w_C"):
                value = getattr(table, name)(r, s)
                assert type(value) is Fraction, (name, r, s)
                den = value.denominator
                assert den & (den - 1) == 0 and (1 << r) % den == 0, (name, r, s)
            for family in families:
                ints = _table_price(*family)(r, s, lambda j: 1 << (P - j))
                assert list(ints) == [f(r, s) * 2**P for f in family], (r, s)


# ---------------------------------------------------------------------------
# C (averaged variant)


def test_c_pinned_and_halfway():
    assert C(2, 1) == Fraction(3, 4)
    assert C(3, 2) == Fraction(1, 2)
    for s in range(1, 12):
        assert C(2 * s - 1, s) == Fraction(1, 2)


def test_c_is_always_average():
    for r in range(1, 25):
        for s in range(1, r + 1):
            assert C(r, s) == (C(r - 1, s) + C(r - 1, s - 1)) / 2


def test_c_pick_identity():
    # taking a desired good moves a member from (r, s) to (r-1, s-1) while
    # paying w_C, keeping its balance pinned at -C
    for r in range(1, 20):
        for s in range(1, r + 1):
            assert C(r, s) + w_C(r, s) == C(r - 1, s - 1)


# ---------------------------------------------------------------------------
# maxh


def test_maxh_values():
    assert maxh(2, 1, 2) == Fraction(3, 4)
    assert maxh(3, 2, 2) == 0
    assert maxh(3, 1, 3) == Fraction(19, 27)
    assert maxh(4, 2, 2) == Fraction(11, 16)


def test_maxh_matches_coinflip_tail():
    # for two groups the bound is the binomial tail P(Bin(r, 1/2) >= s),
    # which the C recurrence computes by a completely different route
    for s in range(1, 10):
        for r in range(2 * s, 25):
            assert maxh(r, s, 2) == C(r, s)
    for s in range(1, 10):
        for r in range(s, 2 * s):
            assert maxh(r, s, 2) == 0


def test_maxh_finite_values():
    assert maxh_finite(2, 1, 2, 2) == Fraction(5, 6)
    # finite-m value approaches the asymptotic one from above
    assert maxh_finite(2, 1, 2, 50) > maxh(2, 1, 2)


def test_maxh_finite_is_hypergeometric_tail():
    r, s, k, m = 3, 1, 2, 3
    total = math.comb(k * m, r)
    good = sum(
        math.comb(m, i) * math.comb((k - 1) * m, r - i)
        for i in range(s, min(r, m) + 1)
    )
    assert maxh_finite(r, s, k, m) == Fraction(good, total)


# ---------------------------------------------------------------------------
# k-group weights


def test_kgroup_reduces_to_halving_at_two():
    kw = KGroupWeights(2)
    for r in range(0, 20):
        assert kw.B(r, 1) == pytest.approx(float(B(r, 1)))
        assert kw.w(r, 1) == pytest.approx(float(w(r, 1)))


def test_kgroup_weight_is_difference():
    for k in (2, 3, 4, 5):
        kw = KGroupWeights(k)
        for r in range(1, 30):
            assert kw.w(r, 1) == pytest.approx(
                kw.B(r, 1) - kw.B(r - 1, 1), abs=1e-12
            )


def test_kgroup_majority_at_k():
    for k in range(2, 8):
        assert KGroupWeights(k).B(k, 1) > 0.5


def test_kgroup_rejects_larger_s():
    with pytest.raises(ValueError):
        KGroupWeights(3).B(4, 2)
    with pytest.raises(ValueError):
        KGroupWeights(1)
