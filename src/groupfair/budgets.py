"""Budget and weight tables used by the picking protocols.

The two-group protocols price goods with weights drawn from a *budget
function* ``B(r, s)``: the guaranteed probability-mass of success for a
member who still wants ``r`` of the remaining goods and needs ``s`` more of
them.  ``B`` satisfies a min-of-two-recurrences rule and always produces
dyadic rationals (denominator a power of two), so this module keeps the
arithmetic exact: the tables hold ints scaled by a power of two, and every
value leaves as a :class:`~fractions.Fraction`.

Contents:

* :class:`BudgetTable` -- memo of ``B``, ``w``, ``C`` (the coin-flip
  variant) up to a configurable ``r_max``, built column by column as
  lookups reach it.
* :func:`B`, :func:`w`, :func:`C`, :func:`B_closed` -- module-level accessors
  backed by a shared default table.
* :func:`maxh`, :func:`maxh_finite` -- exact upper bounds on the achievable
  happy fraction for agents who want ``r`` random goods and need ``s``.
* :class:`KGroupWeights` -- the real-valued weight family of the
  ``k``-group picking protocol, as floats for display.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .errors import CapExceededError

__all__ = [
    "DEFAULT_TABLE",
    "BudgetTable",
    "B",
    "B_closed",
    "w",
    "C",
    "w_C",
    "maxh",
    "maxh_finite",
    "KGroupWeights",
]


_ZERO = Fraction(0)
_ONE = Fraction(1)


class BudgetTable:
    """Memo of the budget functions ``B``, ``w``, ``C``, ``w_C``, filled by
    column on demand.

    ``B(r, s)`` is defined by::

        B(r, s) = 1                                  if s <= 0
        B(r, s) = 0                                  if 0 < s and r < s
        B(r, s) = min((B(r-1, s) + B(r-1, s-1)) / 2,
                      B(r-2, s-1))                   otherwise

    and ``w(r, s) = B(r, s) - B(r-1, s)`` is the marginal weight of one more
    wanted good.  ``C`` replaces the min with its first branch (the variant
    for the coin-flip protocol, where turn order is random) and ``w_C`` is
    its marginal.  All values are exact ``Fraction`` numbers.

    Column ``s`` of ``B`` and ``C`` reads only columns ``s`` and ``s - 1``,
    so the memo holds the columns ``0 .. s`` built so far, each over
    ``-2 <= r <= r_max``; a lookup in a later column builds the missing
    ones first.  A column holds the ints ``V(r, s) = B(r, s) * 2**(r + 2)``
    at index ``r + 2``, so column 0 is ``1 << i`` and the recurrences are
    int sums::

        V_B(r, s) = min(V_B(r-1, s) + V_B(r-1, s-1), 4 * V_B(r-2, s-1))
        V_C(r, s) = V_C(r-1, s) + V_C(r-1, s-1)

    Arguments that fall under a base-case rule are answered without a
    lookup, anything else beyond ``r_max`` raises
    :class:`~groupfair.errors.CapExceededError`.  Lookups from several
    threads are safe: a column is published whole, under a lock, once.

    >>> table = BudgetTable(8)
    >>> table.columns, str(table.B(5, 2)), table.columns
    (1, '25/32', 3)
    """

    def __init__(self, r_max: int = 64):
        if r_max < 1:
            raise ValueError("r_max must be >= 1")
        self.r_max = r_max
        ones = [1 << i for i in range(r_max + 3)]  # indices r = -2 .. r_max
        self._columns = [(ones, ones)]  # (B, C) column per s = 0, 1, ...
        self._lock = threading.Lock()

    @property
    def columns(self) -> int:
        """How many columns ``s = 0, 1, ...`` the memo has built."""
        return len(self._columns)

    def _grow(self, s: int):
        """Build and publish every missing column up to ``s``."""
        with self._lock:
            columns = self._columns
            while len(columns) <= s:
                s_new = len(columns)
                prev_b, prev_c = columns[-1]
                n = len(prev_b)
                col_b, col_c = [0] * n, [0] * n
                for i in range(s_new + 2, n):  # r = s_new .. r_max
                    col_b[i] = min(col_b[i - 1] + prev_b[i - 1], 4 * prev_b[i - 2])
                    col_c[i] = col_c[i - 1] + prev_c[i - 1]
                columns.append((col_b, col_c))

    def _lookup(self, which: int, r: int, s: int) -> Fraction:
        if s <= 0:
            return _ONE
        if r < s:
            return _ZERO
        if r > self.r_max or s > self.r_max:
            raise CapExceededError(
                f"budget table capped at r_max={self.r_max}, got (r={r}, s={s})"
            )
        if s >= len(self._columns):
            self._grow(s)
        return Fraction(self._columns[s][which][r + 2], 1 << (r + 2))

    def B(self, r: int, s: int) -> Fraction:
        """Budget value ``B(r, s)``."""
        return self._lookup(0, r, s)

    def w(self, r: int, s: int) -> Fraction:
        """Marginal weight ``w(r, s) = B(r, s) - B(r-1, s)``."""
        return self._lookup(0, r, s) - self._lookup(0, r - 1, s)

    def C(self, r: int, s: int) -> Fraction:
        """Coin-flip budget ``C(r, s)``."""
        return self._lookup(1, r, s)

    def w_C(self, r: int, s: int) -> Fraction:
        """Marginal coin-flip weight ``C(r, s) - C(r-1, s)``."""
        return self._lookup(1, r, s) - self._lookup(1, r - 1, s)


#: Shared table backing the module-level accessors (and the protocols); it
#: starts empty and builds a column the first time a lookup needs it.
DEFAULT_TABLE = BudgetTable()


def B(r: int, s: int) -> Fraction:
    """``B(r, s)`` from the shared default table (r_max=64).

    >>> str(B(2, 1)), str(B(4, 2))
    ('3/4', '5/8')
    """
    return DEFAULT_TABLE.B(r, s)


def w(r: int, s: int) -> Fraction:
    """``w(r, s) = B(r, s) - B(r-1, s)`` from the shared default table.

    >>> str(w(1, 1)), str(w(3, 2))
    ('1/2', '3/8')
    """
    return DEFAULT_TABLE.w(r, s)


def C(r: int, s: int) -> Fraction:
    """``C(r, s)`` from the shared default table.

    >>> str(C(2, 1)), str(C(3, 2))
    ('3/4', '1/2')
    """
    return DEFAULT_TABLE.C(r, s)


def w_C(r: int, s: int) -> Fraction:
    """``w_C(r, s) = C(r, s) - C(r-1, s)`` from the shared default table."""
    return DEFAULT_TABLE.w_C(r, s)


def B_closed(r: int, s: int) -> Fraction:
    """Closed form of ``B``: ``2**-r * sum(comb(r, i) for i in s..r-s+1)``.

    Agrees with the recurrence everywhere on ``0 <= s <= r`` (the sum is
    empty, hence 0, exactly on the zero region ``r <= 2s - 2``).

    >>> B_closed(3, 2) == B(3, 2)
    True
    >>> str(B_closed(5, 1))
    '31/32'
    """
    if r < 0 or s < 0:
        raise ValueError("B_closed needs r >= 0 and s >= 0")
    total = sum(math.comb(r, i) for i in range(max(0, s), r - s + 2))
    return Fraction(total, 1 << r)


def maxh(r: int, s: int, k: int = 2) -> Fraction:
    """Largest achievable happy fraction, in the limit of many agents.

    Consider groups whose members each want ``r`` goods chosen independently
    at random (from a large pool split among ``k`` groups) and are happy
    with ``s`` or more of them.  No allocation can make more than this
    fraction of every group happy::

        maxh(r, s, k) = 0                                      if r <= k*s - 1
        maxh(r, s, k) = k**-r * sum((k-1)**(r-i) * comb(r, i)
                                    for i in s..r)             otherwise

    >>> maxh(2, 1, 2)
    Fraction(3, 4)
    >>> maxh(3, 2, 2)
    Fraction(0, 1)
    >>> maxh(3, 1, 3)
    Fraction(19, 27)
    """
    if not (r >= s >= 1):
        raise ValueError("maxh needs r >= s >= 1")
    if k < 2:
        raise ValueError("maxh needs k >= 2")
    if r <= k * s - 1:
        return Fraction(0)
    total = sum((k - 1) ** (r - i) * math.comb(r, i) for i in range(s, r + 1))
    return Fraction(total, k**r)


def maxh_finite(r: int, s: int, k: int, m: int) -> Fraction:
    """Finite-pool version of :func:`maxh`.

    Each of ``k`` groups holds ``m`` of the ``k*m`` goods; a member wants a
    uniformly random ``r``-subset of all goods and is happy with ``s`` or
    more from its group's block.  This hypergeometric tail is the exact
    best-possible happy fraction for the all-subsets instance family.

    >>> maxh_finite(2, 1, 2, 2)
    Fraction(5, 6)
    """
    if not (r >= s >= 1):
        raise ValueError("maxh_finite needs r >= s >= 1")
    if k < 2 or m < 1:
        raise ValueError("maxh_finite needs k >= 2 and m >= 1")
    if r > k * m:
        raise ValueError(f"cannot draw {r} goods from {k * m}")
    total = sum(
        math.comb(m, i) * math.comb((k - 1) * m, r - i)
        for i in range(s, min(r, m) + 1)
    )
    return Fraction(total, math.comb(k * m, r))


class KGroupWeights:
    """Weight family for the ``k``-group picking protocol.

    Uses the base ``L = 2**(1/(k-1))`` and, for need ``s`` in {0, 1}::

        B(r, 0) = 1          w(r, 0) = 0
        B(r, 1) = max(0, 1 - L**-r)
        w(r, 1) = (L - 1) / L**r   for r >= 1, else 0

    Values are floats (irrational for k >= 3); ``w(r, 1)`` equals
    ``B(r, 1) - B(r-1, 1)`` up to rounding, and for k == 2 the family
    reduces to ``B(r, 1) = 1 - 2**-r``, ``w(r, 1) = 2**-r``.  These floats
    serve only ``table --which Bk`` and the guarantees
    :func:`~groupfair.protocols.rwavk` reports; its picks and ledger use
    the same family in exact integers (see :mod:`groupfair.protocols`).

    >>> kw = KGroupWeights(2)
    >>> kw.w(3, 1) == 0.125
    True
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("KGroupWeights needs k >= 2")
        self.k = k
        self.L = 2.0 ** (1.0 / (k - 1))

    def B(self, r: int, s: int) -> float:
        if s == 0:
            return 1.0
        if s == 1:
            return max(0.0, 1.0 - self.L**-r)
        raise ValueError("k-group weights are defined for s in {0, 1}")

    def w(self, r: int, s: int) -> float:
        if s == 0:
            return 0.0
        if s == 1:
            return (self.L - 1.0) / self.L**r if r >= 1 else 0.0
        raise ValueError("k-group weights are defined for s in {0, 1}")


if __name__ == "__main__":
    import doctest

    doctest.testmod()
