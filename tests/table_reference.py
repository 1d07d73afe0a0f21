"""Eager reference for the budget tables.

This is the straightforward build :class:`groupfair.budgets.BudgetTable`
replaces: the constructor fills every cell of ``B`` and ``C`` for
``-2 <= r, s <= r_max``, row by row, before the first lookup.  The
property tests in ``test_budgets.py`` require the column-on-demand table
to agree with it on every value, every repr and every cap error.
"""

from __future__ import annotations

from groupfair.budgets import Dyadic
from groupfair.errors import CapExceededError

_ZERO = Dyadic(0)
_ONE = Dyadic(1)


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
                avg = (self._B[r + 1][s + 2] + self._B[r + 1][s + 1]).halved()
                drop = self._B[r][s + 1]
                self._B[r + 2][s + 2] = min(avg, drop)
                self._C[r + 2][s + 2] = (
                    self._C[r + 1][s + 2] + self._C[r + 1][s + 1]
                ).halved()

    def _lookup(self, grid, r: int, s: int) -> Dyadic:
        if s <= 0:
            return _ONE
        if r < s:
            return _ZERO
        if r > self.r_max or s > self.r_max:
            raise CapExceededError(
                f"budget table capped at r_max={self.r_max}, got (r={r}, s={s})"
            )
        return grid[r + 2][s + 2]

    def B(self, r: int, s: int) -> Dyadic:
        return self._lookup(self._B, r, s)

    def w(self, r: int, s: int) -> Dyadic:
        return self._lookup(self._B, r, s) - self._lookup(self._B, r - 1, s)

    def C(self, r: int, s: int) -> Dyadic:
        return self._lookup(self._C, r, s)

    def w_C(self, r: int, s: int) -> Dyadic:
        return self._lookup(self._C, r, s) - self._lookup(self._C, r - 1, s)
