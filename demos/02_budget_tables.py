"""
Exact budget and weight functions
=================================

The picking protocols price every member with a weight w(r, s) derived
from a budget function B(r, s), both exact dyadic rationals.  This script
prints a corner of the tables and spot-checks the closed form.
"""

from fractions import Fraction

from groupfair import B, B_closed, w

# B(r, s) is the probability-like budget of a member who still sees r of
# its desired goods and needs s more of them; w is its one-turn increment.
print("B(r, s) for r = 0..6, s = 0..3")
for r in range(7):
    row = [B(r, s) for s in range(4)]
    print(f"  r={r}:  " + "  ".join(f"{x!s:>6}" for x in row))

print()
print("w(r, s) for r = 0..6, s = 0..3")
for r in range(7):
    row = [w(r, s) for s in range(4)]
    print(f"  r={r}:  " + "  ".join(f"{x!s:>6}" for x in row))

# B is defined by a min-of-two recurrence, and the module reads it from a
# closed binomial-sum form.  Rebuild the recurrence and compare.
memo = {}


def B_recurrence(r, s):
    if s <= 0:
        return Fraction(1)
    if r < s:
        return Fraction(0)
    if (r, s) not in memo:
        memo[r, s] = min((B_recurrence(r - 1, s) + B_recurrence(r - 1, s - 1)) / 2,
                         B_recurrence(r - 2, s - 1))
    return memo[r, s]


assert all(
    B_recurrence(r, s) == B_closed(r, s) == B(r, s)
    for r in range(31)
    for s in range(r + 1)
)
print()
print("recurrence == closed form for all 0 <= s <= r <= 30: OK")

# The closed form holds for every r, so no value is out of reach: rwav2
# and cwav2 price members wanting up to 512 goods each.
print("B(23, 3) =", B(23, 3), ">= 7/8:", B(23, 3) >= Fraction(7, 8))
print("B(512, 256) =", float(B(512, 256)))
