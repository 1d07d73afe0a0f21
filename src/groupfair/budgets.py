"""Budget and weight tables used by the picking protocols.

The two-group protocols price goods with weights drawn from a *budget
function* ``B(r, s)``: the guaranteed probability-mass of success for a
member who still wants ``r`` of the remaining goods and needs ``s`` more of
them.  ``B`` satisfies a min-of-two-recurrences rule and always produces
dyadic rationals (denominator a power of two), so this module keeps the
arithmetic exact with a small :class:`Dyadic` number type instead of floats.

Contents:

* :class:`Dyadic` -- exact ``n / 2**e`` rationals.
* :class:`BudgetTable` -- dense memo of ``B``, ``w``, ``C`` (the coin-flip
  variant) up to a configurable ``r_max``.
* :func:`B`, :func:`w`, :func:`C`, :func:`B_closed` -- module-level accessors
  backed by a shared default table.
* :func:`maxh`, :func:`maxh_finite` -- exact upper bounds on the achievable
  happy fraction for agents who want ``r`` random goods and need ``s``.
* :class:`KGroupWeights` -- the real-valued weight family of the
  ``k``-group picking protocol, as floats for display.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

from .errors import CapExceededError

__all__ = [
    "DEFAULT_TABLE",
    "Dyadic",
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


@total_ordering
class Dyadic:
    """An exact dyadic rational ``n / 2**e``.

    Canonical form: ``n`` is odd or zero, and ``e >= 0`` (``e == 0`` when
    ``n == 0``).  Supports addition, subtraction, multiplication, exact
    halving and comparisons -- everything the budget recurrences need.
    General division is deliberately absent.

    >>> Dyadic(6, 3)            # 6/8 normalises to 3/4
    Dyadic(3, 2)
    >>> str(Dyadic(3, 2) + Dyadic(1, 2))
    '1'
    >>> Dyadic(1, 1) * Dyadic(3, 1)
    Dyadic(3, 2)
    >>> Dyadic(5, 0) == 5
    True
    """

    __slots__ = ("n", "e")

    def __init__(self, n: int = 0, e: int = 0):
        if not isinstance(n, int) or not isinstance(e, int):
            raise TypeError("Dyadic parts must be ints")
        if e < 0:  # n / 2**e with negative e is n * 2**-e
            n <<= -e
            e = 0
        while n and n % 2 == 0 and e > 0:
            n //= 2
            e -= 1
        if n == 0:
            e = 0
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "e", e)

    def __setattr__(self, name, value):
        raise AttributeError("Dyadic is immutable")

    # -- conversions ------------------------------------------------------

    @classmethod
    def from_fraction(cls, f: Fraction) -> "Dyadic":
        """Convert an exactly-dyadic Fraction; ValueError otherwise."""
        den = f.denominator
        e = den.bit_length() - 1
        if den != 1 << e:
            raise ValueError(f"{f} is not dyadic (denominator {den})")
        return cls(f.numerator, e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.n, 1 << self.e)

    def __float__(self) -> float:
        return float(self.as_fraction())

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, Dyadic):
            return other
        if isinstance(other, int):
            return Dyadic(other, 0)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        e = max(self.e, other.e)
        return Dyadic((self.n << (e - self.e)) + (other.n << (e - other.e)), e)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Dyadic(-self.n, self.e)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Dyadic(self.n * other.n, self.e + other.e)

    __rmul__ = __mul__

    def halved(self) -> "Dyadic":
        """Exact division by two."""
        return Dyadic(self.n, self.e + 1)

    # -- comparisons ------------------------------------------------------

    def _key_against(self, other: "Dyadic"):
        # self - other has the sign of n1*2**e2 - n2*2**e1
        return (self.n << other.e) - (other.n << self.e)

    def __eq__(self, other):
        if isinstance(other, Fraction):
            return self.as_fraction() == other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.n == other.n and self.e == other.e

    def __lt__(self, other):
        if isinstance(other, Fraction):
            return self.as_fraction() < other
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._key_against(other) < 0

    def __hash__(self):
        return hash(self.as_fraction())

    def __bool__(self):
        return self.n != 0

    def __repr__(self):
        return f"Dyadic({self.n}, {self.e})"

    def __str__(self):
        return str(self.as_fraction())


_ZERO = Dyadic(0)
_ONE = Dyadic(1)


class BudgetTable:
    """Dense memo of the budget functions ``B``, ``w``, ``C``, ``w_C``.

    ``B(r, s)`` is defined by::

        B(r, s) = 1                                  if s <= 0
        B(r, s) = 0                                  if 0 < s and r < s
        B(r, s) = min((B(r-1, s) + B(r-1, s-1)) / 2,
                      B(r-2, s-1))                   otherwise

    and ``w(r, s) = B(r, s) - B(r-1, s)`` is the marginal weight of one more
    wanted good.  ``C`` replaces the min with its first branch (the variant
    for the coin-flip protocol, where turn order is random) and ``w_C`` is
    its marginal.  All values are exact :class:`Dyadic` numbers.

    The memo covers ``-2 <= r, s <= r_max`` eagerly; arguments that fall
    under a base-case rule are answered without a lookup, anything else
    beyond ``r_max`` raises :class:`~groupfair.errors.CapExceededError`.
    """

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
        """Budget value ``B(r, s)``."""
        return self._lookup(self._B, r, s)

    def w(self, r: int, s: int) -> Dyadic:
        """Marginal weight ``w(r, s) = B(r, s) - B(r-1, s)``."""
        return self._lookup(self._B, r, s) - self._lookup(self._B, r - 1, s)

    def C(self, r: int, s: int) -> Dyadic:
        """Coin-flip budget ``C(r, s)``."""
        return self._lookup(self._C, r, s)

    def w_C(self, r: int, s: int) -> Dyadic:
        """Marginal coin-flip weight ``C(r, s) - C(r-1, s)``."""
        return self._lookup(self._C, r, s) - self._lookup(self._C, r - 1, s)


#: Shared table backing the module-level accessors (and the protocols).
DEFAULT_TABLE = BudgetTable()
_DEFAULT = DEFAULT_TABLE


def B(r: int, s: int) -> Dyadic:
    """``B(r, s)`` from the shared default table (r_max=64).

    >>> str(B(2, 1)), str(B(4, 2))
    ('3/4', '5/8')
    """
    return _DEFAULT.B(r, s)


def w(r: int, s: int) -> Dyadic:
    """``w(r, s) = B(r, s) - B(r-1, s)`` from the shared default table.

    >>> str(w(1, 1)), str(w(3, 2))
    ('1/2', '3/8')
    """
    return _DEFAULT.w(r, s)


def C(r: int, s: int) -> Dyadic:
    """``C(r, s)`` from the shared default table.

    >>> str(C(2, 1)), str(C(3, 2))
    ('3/4', '1/2')
    """
    return _DEFAULT.C(r, s)


def w_C(r: int, s: int) -> Dyadic:
    """``w_C(r, s) = C(r, s) - C(r-1, s)`` from the shared default table."""
    return _DEFAULT.w_C(r, s)


def B_closed(r: int, s: int) -> Dyadic:
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
    return Dyadic(total, r)


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
