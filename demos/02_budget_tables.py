"""
Exact budget and weight tables
==============================

The picking protocols price every member with a weight w(r, s) derived
from a budget function B(r, s), both exact dyadic rationals.  This script
prints a corner of the tables and spot-checks the closed form.
"""

from fractions import Fraction

from groupfair import B, B_closed, BudgetTable, w

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

# The recurrence agrees with a closed binomial-sum form everywhere.
assert all(
    B(r, s) == B_closed(r, s)
    for r in range(31)
    for s in range(r + 1)
)
print()
print("recurrence == closed form for all 0 <= s <= r <= 30: OK")

# Larger tables are built on demand; lookups outside the table raise.
big = BudgetTable(95)
print("B(23, 3) =", big.B(23, 3), ">= 7/8:",
      big.B(23, 3) >= Fraction(7, 8))
