"""Slow references for the budget tables and bounds.

:class:`EagerBudgetTable` is the straightforward build of the recurrences
that :func:`groupfair.budgets.B` and :func:`groupfair.budgets.C` replace
with binomial tails: the constructor fills every cell of ``B`` and ``C``
for ``-2 <= r, s <= r_max``, row by row, before the first lookup.
:func:`b_closed_sum` and :func:`maxh_sum` are the direct binomial sums
that :func:`groupfair.budgets.B_closed` and :func:`groupfair.budgets.maxh`
replace with one cached tail.  The property tests in ``test_budgets.py``
require the module to agree with them on every value and every repr.
"""

from __future__ import annotations

import math
from fractions import Fraction

from groupfair.errors import CapExceededError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class EagerBudgetTable:
    """Dense memo of ``B``, ``w``, ``C``, ``w_C``, built in full up front."""

    def __init__(self, r_max: int = 64):
        if r_max < 1:
            raise ValueError("r_max must be >= 1")
        self.r_max = r_max
        n = r_max + 3  # indices -2 .. r_max
        self._B = [[_ONE] * n for _ in range(n)]
        self._C = [[_ONE] * n for _ in range(n)]
        for r in range(-2, r_max + 1):
            for s in range(1, r_max + 1):
                if r < s:
                    self._B[r + 2][s + 2] = _ZERO
                    self._C[r + 2][s + 2] = _ZERO
                    continue
                avg = (self._B[r + 1][s + 2] + self._B[r + 1][s + 1]) / 2
                drop = self._B[r][s + 1]
                self._B[r + 2][s + 2] = min(avg, drop)
                self._C[r + 2][s + 2] = (
                    self._C[r + 1][s + 2] + self._C[r + 1][s + 1]
                ) / 2

    def _lookup(self, grid, r: int, s: int) -> Fraction:
        if s <= 0:
            return _ONE
        if r < s:
            return _ZERO
        if r > self.r_max or s > self.r_max:
            raise CapExceededError(
                f"budget table capped at r_max={self.r_max}, got (r={r}, s={s})"
            )
        return grid[r + 2][s + 2]

    def B(self, r: int, s: int) -> Fraction:
        return self._lookup(self._B, r, s)

    def w(self, r: int, s: int) -> Fraction:
        return self._lookup(self._B, r, s) - self._lookup(self._B, r - 1, s)

    def C(self, r: int, s: int) -> Fraction:
        return self._lookup(self._C, r, s)

    def w_C(self, r: int, s: int) -> Fraction:
        return self._lookup(self._C, r, s) - self._lookup(self._C, r - 1, s)


def b_closed_sum(r: int, s: int) -> Fraction:
    """``2**-r * sum(comb(r, i) for i in s..r-s+1)``, term by term."""
    total = sum(math.comb(r, i) for i in range(max(0, s), r - s + 2))
    return Fraction(total, 1 << r)


def maxh_sum(r: int, s: int, k: int) -> Fraction:
    """``k**-r * sum((k-1)**(r-i) * comb(r, i) for i in s..r)``, or 0 when
    ``r <= k*s - 1``, term by term."""
    if r <= k * s - 1:
        return Fraction(0)
    total = sum((k - 1) ** (r - i) * math.comb(r, i) for i in range(s, r + 1))
    return Fraction(total, k**r)
