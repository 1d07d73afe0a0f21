"""
Impossibility bounds by exhaustive search
=========================================

Adversarial instance families witness upper bounds on the democratic
fraction h: no allocation of such an instance can make more than a
bounded share of every group happy.  The oracle enumerates all k^m
allocations to confirm each bound exactly.
"""

from fractions import Fraction

from groupfair import OneOutOfCMMS, PositiveMMS
from groupfair.budgets import maxh, maxh_finite
from groupfair.oracles import (
    AllSubsets,
    Circle,
    ThreeGoodCycle,
    generate,
    max_h,
    negative_bound,
    parse_spec,
    verify_negative,
)

# Three goods, each member disapproving a different one: some group ends
# up with at most one good, leaving a third of its members at zero value.
spec = ThreeGoodCycle()
inst = generate(spec)
result = max_h(inst, PositiveMMS())
print("three-good cycle:",
      f"best h = {result.best_h} over {result.allocations_examined} allocations")
print("  bound claimed by the family:", negative_bound(spec))
print("  confirmed:", verify_negative(spec, PositiveMMS(), Fraction(2, 3)))

# The circle family sharpens the bound to k/(2k-1) for k groups.
for k in (2, 3):
    spec = Circle(k)
    result = max_h(generate(spec), PositiveMMS())
    print(f"circle k={k}: best h = {result.best_h}"
          f" (= {negative_bound(spec)})")

# Families parse from compact text specs, as used by `groupfair gen/brute`.
spec = parse_spec("all-subsets:r=2,s=1,k=2,m=3")
result = max_h(generate(spec), PositiveMMS())
print("all-subsets r=2 s=1 k=2 m=3: best h =", result.best_h)

# All-subsets families with r=4, s=2, k=2 and m goods per group: every
# group has a member for each 4-subset of the 2m goods.  Their bounds fall
# toward the paper's limit maxh(4, 2, 2) as m grows; m=10 sweeps 2^20
# allocations.
print("all-subsets r=4 s=2 k=2, limit maxh =", maxh(4, 2, 2))
for m in (4, 6, 10):
    spec = AllSubsets(4, 2, 2, m)
    result = max_h(generate(spec), OneOutOfCMMS(2))
    print(f"  m={m}: best h = {result.best_h}"
          f" (maxh_finite = {maxh_finite(4, 2, 2, m)})")
