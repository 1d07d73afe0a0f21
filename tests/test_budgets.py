"""Budget/weight function tests.

``B``, ``w``, ``C``, ``w_C``, ``B_closed`` and ``maxh`` all read one
binomial-tail sum.  They are checked against the slow references in
``table_reference.py`` (the eager build of the recurrences, from one thread
and from four, and the direct binomial sums), frozen spot values, and the
printed three-decimal grid of the reference table.
"""

import functools
import itertools
import math
import sys
import threading
from decimal import ROUND_HALF_UP, Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupfair import budgets
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
from groupfair.protocols import _table_price

from table_reference import EagerBudgetTable, b_closed_sum, maxh_sum


# ---------------------------------------------------------------------------
# B and w


def test_b_equals_closed_form_exactly():
    # the closed form against the recurrence, built by another route
    eager = EagerBudgetTable(30)
    for r in range(0, 31):
        for s in range(0, r + 1):
            assert B(r, s) == B_closed(r, s) == eager.B(r, s), (r, s)


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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 600), st.integers(0, 601))
def test_b_closed_is_b_at_any_r(r, s):
    # neither the functions nor a table bound r; a table's argument is
    # ignored
    value = repr(B(r, s))
    assert repr(B_closed(r, s)) == repr(BudgetTable(10).B(r, s)) == value
    with pytest.raises(ValueError):
        B_closed(-1 - r, s)
    with pytest.raises(ValueError):
        B_closed(r, -1 - s)


# ---------------------------------------------------------------------------
# binomial tails against the eager build and the direct sums

eager_table = functools.lru_cache(maxsize=None)(EagerBudgetTable)


def lookup(table, name, r, s):
    """The repr of ``table.name(r, s)``."""
    return repr(getattr(table, name)(r, s))


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["B", "w", "C", "w_C"]),
                  st.integers(-3, 128), st.integers(-3, 128)),
        max_size=30,
    ),
)
def test_lazy_table_matches_eager_build(queries):
    # the module functions, past the 64 goods an older table stopped at
    eager = eager_table(128)
    for name, r, s in queries:
        assert lookup(budgets, name, r, s) == lookup(eager, name, r, s)


def test_lazy_table_threads_agree():
    r_max = 60
    eager = eager_table(r_max)
    cells = [(name, r, s) for s in range(r_max + 1) for r in range(r_max + 1)
             for name in ("B", "w", "C", "w_C")]
    expected = [lookup(eager, *cell) for cell in cells]
    results = [None] * 4

    def read(i):
        # two readers start from the last column, two from the first
        order = cells[::-1] if i % 2 else cells
        got = {cell: lookup(budgets, *cell) for cell in order}
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


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200), st.integers(0, 201), st.integers(2, 6))
def test_tails_match_the_direct_sums(r, s, k):
    closed = B_closed(r, s)
    assert (type(closed), repr(closed)) == (Fraction, repr(b_closed_sum(r, s)))
    if 1 <= s <= r:
        bound = maxh(r, s, k)
        assert (type(bound), repr(bound)) == (Fraction, repr(maxh_sum(r, s, k)))


def test_tails_far_past_the_recursion_limit():
    assert B_closed(2000, 1000) == b_closed_sum(2000, 1000)
    assert maxh(2000, 1000, 2) == maxh_sum(2000, 1000, 2)


# ---------------------------------------------------------------------------
# scaled ints in, Fraction out


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 40), st.integers(0, 3))
def test_values_are_dyadic_and_price_exactly(R, extra):
    P = R + extra  # the ledger unit is 2**-P when R is the run's largest r

    def rwav2_pay(r, s):
        return max(w(r, s), w(r - 1, s - 1))

    families = (("rwav2", B, w, rwav2_pay), ("cwav2", C, w_C, w_C))
    for r in range(R + 1):
        for s in range(r + 1):
            for name in ("B", "w", "C", "w_C"):
                value = getattr(budgets, name)(r, s)
                assert type(value) is Fraction, (name, r, s)
                den = value.denominator
                assert den & (den - 1) == 0 and (1 << r) % den == 0, (name, r, s)
            for family in families:
                ints = _table_price(*family)(r, s, lambda j: 1 << (P - j))
                assert list(ints) == [f(r, s) * 2**P for f in family[1:]], (r, s)


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
    eager = EagerBudgetTable(24)
    for s in range(1, 10):
        for r in range(2 * s, 25):
            assert maxh(r, s, 2) == eager.C(r, s)
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


def test_maxh_finite_is_the_best_split_of_the_goods():
    # maxh_finite gives each group m of the k*m goods.  Counted over every
    # split of the goods into k group sizes x (zeros allowed), the best
    # least share of r-subsets holding s or more of one group's goods is
    # that same value: no unbalanced split does better.
    cases = 0
    for k, top in ((2, 6), (3, 3), (4, 3)):
        for m in range(1, top + 1):
            n = k * m
            splits = [(*head, n - sum(head))
                      for head in itertools.product(range(n + 1), repeat=k - 1)
                      if sum(head) <= n]
            for r in range(n + 1):
                for s in range(r + 2):
                    tail = [sum(math.comb(x, i) * math.comb(n - x, r - i)
                                for i in range(s, r + 1)) for x in range(n + 1)]
                    best = max(min(tail[x] for x in split) for split in splits)
                    bound = Fraction(best, math.comb(n, r))
                    assert maxh_finite(r, s, k, m) == bound, (r, s, k, m)
                    cases += 1
    assert cases == 591


@pytest.mark.parametrize("call, value", [
    (lambda: maxh(2, 0, 2), 1),
    (lambda: maxh(1, 2, 2), 0),
    (lambda: maxh_finite(1, 2, 2, 2), 0),
], ids=["maxh-s0", "maxh-r-below-s", "finite-r-below-s"])
def test_bound_edge_values(call, value):
    assert call() == value


def test_bounds_answer_the_edges_as_the_budgets_do():
    # 1 for s <= 0 and 0 for 0 <= r < s, the answers of B and C there
    for r in range(7):
        for s in [*range(-2, 1), *range(r + 1, 9)]:
            edge = B(r, s)
            assert edge == C(r, s) == (1 if s <= 0 else 0)
            for k in (2, 3, 5):
                assert maxh(r, s, k) == edge
                assert maxh_finite(r, s, k, 3) == edge


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


# ---------------------------------------------------------------------------
# argument errors


@pytest.mark.parametrize("call, message", [
    (lambda: maxh(-1, 0, 2), "maxh needs r >= 0"),
    (lambda: maxh(2, 1, 1), "maxh needs k >= 2"),
    (lambda: maxh_finite(-1, 0, 2, 2), "maxh_finite needs r >= 0"),
    (lambda: maxh_finite(2, 1, 1, 2), "maxh_finite needs k >= 2 and m >= 1"),
    (lambda: maxh_finite(2, 1, 2, 0), "maxh_finite needs k >= 2 and m >= 1"),
    (lambda: maxh_finite(5, 1, 2, 2), "cannot draw 5 goods from 4"),
    (lambda: KGroupWeights(1), "KGroupWeights needs k >= 2"),
    (lambda: KGroupWeights(3).B(4, 2), r"k-group weights are defined for s in \{0, 1\}"),
    (lambda: KGroupWeights(3).w(4, 3), r"k-group weights are defined for s in \{0, 1\}"),
], ids=["maxh-r-negative", "maxh-k1", "finite-r-negative", "finite-k1",
        "finite-m0", "finite-draw", "kgroup-k1", "kgroup-B-s2", "kgroup-w-s3"])
def test_budget_argument_errors(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_kgroup_weights_at_s_zero():
    kw = KGroupWeights(3)
    for r in (0, 1, 5):
        assert kw.B(r, 0) == 1.0 and kw.w(r, 0) == 0.0
