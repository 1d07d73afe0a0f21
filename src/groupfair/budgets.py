"""Budget and weight functions used by the picking protocols.

The two-group protocols price goods with weights drawn from a *budget
function* ``B(r, s)``: the guaranteed probability-mass of success for a
member who still wants ``r`` of the remaining goods and needs ``s`` more of
them.  ``B``, its coin-flip variant ``C`` and the impossibility bound
``maxh`` are all binomial tails, so this module reads every one of them
from one exact int sum, :func:`_below`, and every value leaves as a
:class:`~fractions.Fraction` (a dyadic one for ``B`` and ``C``: its
denominator is a power of two).  The sums are cached once per process, and
no function bounds ``r``.

Contents:

* :func:`B`, :func:`w`, :func:`C`, :func:`w_C` -- the budget functions and
  their marginal weights, for any ``r`` and ``s``; :func:`B_closed` is
  ``B`` for ``r, s >= 0`` only.
* :class:`BudgetTable` -- the same four as methods; the protocols read
  them from :data:`DEFAULT_TABLE`, a seam for swapping in other weights.
* :func:`maxh`, :func:`maxh_finite` -- exact upper bounds on the achievable
  happy fraction for agents who want ``r`` random goods and need ``s``.
* :class:`KGroupWeights` -- the real-valued weight family of the
  ``k``-group picking protocol, as floats for display.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction


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


@functools.lru_cache(maxsize=1 << 15)
def _below(r: int, s: int, k: int) -> int:
    """``sum((k-1)**(r-i) * comb(r, i) for i in range(s))`` over ``i <= r``:
    of the ``k**r`` ways to send ``r`` draws to ``k`` groups, how many send
    fewer than ``s`` to group 0.  One running term, so no recursion."""
    total, term = 0, (k - 1) ** r
    for i in range(min(s, r + 1)):
        total += term
        term = term * (r - i) // ((i + 1) * (k - 1))  # the term of i + 1
    return total


def _coin_tail(r: int, s: int, t: int) -> Fraction:
    """The chance that ``r`` fair coin flips show at least ``s`` heads and
    at least ``t`` tails."""
    if r < s + t:
        return _ZERO
    return Fraction((1 << r) - _below(r, s, 2) - _below(r, t, 2), 1 << r)


def B(r: int, s: int) -> Fraction:
    """Budget value ``B(r, s)``, defined by::

        B(r, s) = 1                                  if s <= 0
        B(r, s) = 0                                  if 0 < s and r < s
        B(r, s) = min((B(r-1, s) + B(r-1, s-1)) / 2,
                      B(r-2, s-1))                   otherwise

    The recurrence solves to a binomial tail: for ``1 <= s <= r`` it is the
    chance that ``r`` fair coin flips show at least ``s`` heads and at
    least ``s - 1`` tails.

    >>> str(B(2, 1)), str(B(4, 2))
    ('3/4', '5/8')
    """
    return _ONE if s <= 0 else _coin_tail(r, s, s - 1)


def w(r: int, s: int) -> Fraction:
    """Marginal weight of one more wanted good, ``B(r, s) - B(r-1, s)``.

    >>> str(w(1, 1)), str(w(3, 2))
    ('1/2', '3/8')
    """
    return B(r, s) - B(r - 1, s)


def C(r: int, s: int) -> Fraction:
    """Coin-flip budget ``C(r, s)``: the recurrence of :func:`B` with the
    min replaced by its first branch (the variant for the coin-flip
    protocol, where turn order is random).  For ``1 <= s <= r`` it is the
    chance that ``r`` fair coin flips show at least ``s`` heads.

    >>> str(C(2, 1)), str(C(3, 2))
    ('3/4', '1/2')
    """
    return _ONE if s <= 0 else _coin_tail(r, s, 0)


def w_C(r: int, s: int) -> Fraction:
    """Marginal coin-flip weight ``C(r, s) - C(r-1, s)``."""
    return C(r, s) - C(r - 1, s)


def B_closed(r: int, s: int) -> Fraction:
    """:func:`B` for ``r, s >= 0`` only: the closed form ``2**-r *
    sum(comb(r, i) for i in s..r-s+1)``, which is empty, hence 0, exactly
    on the zero region ``r <= 2s - 2``.

    >>> B_closed(3, 2) == B(3, 2)
    True
    >>> str(B_closed(5, 1))
    '31/32'
    """
    if r < 0 or s < 0:
        raise ValueError("B_closed needs r >= 0 and s >= 0")
    return B(r, s)


class BudgetTable:
    """:func:`B`, :func:`w`, :func:`C` and :func:`w_C` as methods.  The
    protocols read :data:`DEFAULT_TABLE`; set a subclass there to change one.

    A table holds nothing and bounds no argument; the constructor accepts
    and ignores the one bound that older callers pass.

    >>> table = BudgetTable()
    >>> str(table.B(5, 2)), str(table.C(5, 2))
    ('25/32', '13/16')
    >>> table.B(100, 1) == 1 - table.w(100, 1)
    True
    """

    def __init__(self, _r_max=None):
        pass

    B = staticmethod(B)
    w = staticmethod(w)
    C = staticmethod(C)
    w_C = staticmethod(w_C)


#: The table ``rwav2`` and ``cwav2`` read their weights from.
DEFAULT_TABLE = BudgetTable()


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
        return _ZERO
    return Fraction(k**r - _below(r, s, k), k**r)


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
