"""Exact ``Fraction`` reference for bundle values and the fairness criteria.

These are the straightforward definitions the integer value kernel
replaces: bundle values are ``Fraction`` sums or table lookups, the
removal helpers sort ``Fraction`` values or try every removal set, the
maximin share runs its partition search over a table scaled for the goods
at hand, and each own-value criterion is a ``(bar, strict)`` pair.  The
property tests in ``test_value_kernel.py`` require :mod:`groupfair.model`,
:mod:`groupfair.fairness` and the oracle's table compile to agree with
them.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from groupfair.fairness import (
    MMS,
    EFc,
    FairnessReport,
    FractionMMS,
    OneOfBestC,
    OneOutOfCMMS,
    PositiveMMS,
    PROPc,
    per_group_criteria,
)
from groupfair.model import (
    AdditiveValuation,
    BinaryValuation,
    Bundle,
    bundles_of,
)


def value(v, bundle: Bundle):
    """The bundle's value: an int for binary agents, else a Fraction."""
    if isinstance(v, BinaryValuation):
        return (v.desired.mask & bundle.mask).bit_count()
    if isinstance(v, AdditiveValuation):
        return sum((v.values[i] for i in bundle), Fraction(0))
    return v.table[bundle.mask]


def value_table(v, m: int) -> list:
    """Values of every subset of the full good set, indexed by bitmask."""
    return [value(v, Bundle(mask, m)) for mask in range(1 << m)]


def local_value_table(v, goods: Bundle):
    """Value table over subsets of ``goods``, relabelled to bits 0..r-1,
    scaled to integers by the lcm of the denominators involved.  Returns
    (table, scale)."""
    positions = list(goods)
    vals = [
        Fraction(value(v, Bundle.from_indices(
            (pos for bit, pos in enumerate(positions) if mask >> bit & 1), goods.m
        )))
        for mask in range(1 << len(positions))
    ]
    scale = lcm(*(x.denominator for x in vals))
    return [int(x * scale) for x in vals], scale


def _top_values(values, c: int):
    return sorted(values, reverse=True)[:c]


def min_value_after_removal(v, bundle: Bundle, c: int):
    """min over C subset of bundle, |C| <= c, of v(bundle minus C)."""
    if c >= len(bundle):
        return 0
    if isinstance(v, BinaryValuation):
        return max(0, value(v, bundle) - c)
    if isinstance(v, AdditiveValuation):
        inside = [v.values[i] for i in bundle]
        return value(v, bundle) - sum(_top_values(inside, c))
    best = None
    for combo in itertools.combinations(list(bundle), c):
        removed = sum(1 << i for i in combo)
        val = v.table[bundle.mask & ~removed]
        if best is None or val < best:
            best = val
    return best


def min_rest_after_unowned_removal(v, own: Bundle, c: int):
    """min over C disjoint from own, |C| <= c, of v(all goods minus C)."""
    full = Bundle.full(v.m)
    pool = full - own
    if isinstance(v, BinaryValuation):
        return len(v.desired) - min(c, len(v.desired & pool))
    if isinstance(v, AdditiveValuation):
        outside = [v.values[i] for i in pool]
        return value(v, full) - sum(_top_values(outside, c))
    best = None
    for combo in itertools.combinations(list(pool), min(c, len(pool))):
        removed = sum(1 << i for i in combo)
        val = v.table[full.mask & ~removed]
        if best is None or val < best:
            best = val
    return best


def efc_holds(v, own: Bundle, others, c: int) -> bool:
    own_value = value(v, own)
    return all(own_value >= min_value_after_removal(v, b, c) for b in others)


def propc_holds(v, own: Bundle, k: int, c: int) -> bool:
    return value(v, own) * k >= min_rest_after_unowned_removal(v, own, c)


def mms_share(v, c: int, goods: Bundle = None):
    """The best, over all partitions of ``goods`` into ``c`` parts, of the
    worst part's value, by a partition search over every mask."""
    if goods is None:
        goods = Bundle.full(v.m)
    if isinstance(v, BinaryValuation):
        return len(v.desired & goods) // c
    if c == 1:
        return value(v, goods)
    if c > len(goods):
        return Fraction(0)
    vals, scale = local_value_table(v, goods)
    size = len(vals)
    dp = vals
    for _ in range(2, c + 1):
        new = [0] * size
        for mask in range(1, size):
            low = mask & -mask
            rest = mask ^ low
            best = 0
            sub = rest
            while True:
                part = sub | low
                best = max(best, min(dp[mask ^ part], vals[part]))
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            new[mask] = best
        dp = new
    return Fraction(dp[size - 1], scale)


def best_c_threshold(v, c: int):
    """Value of the agent's c-th most valuable single good (0 if c > m)."""
    singles = sorted(
        (value(v, Bundle(1 << i, v.m)) for i in range(v.m)), reverse=True
    )
    return singles[c - 1] if c <= len(singles) else 0


def own_bar(v, criterion, k: int):
    """``(bar, strict)``: the agent is happy when ``v(own) >= bar``, or
    ``v(own) > bar`` when ``strict``."""
    if isinstance(criterion, MMS):
        return mms_share(v, k), False
    if isinstance(criterion, OneOutOfCMMS):
        if criterion.c < k:
            raise ValueError(f"1-out-of-{criterion.c}-mms needs c >= k (k={k})")
        return mms_share(v, criterion.c), False
    if isinstance(criterion, FractionMMS):
        return criterion.q * mms_share(v, k), False
    if isinstance(criterion, OneOfBestC):
        return best_c_threshold(v, criterion.c), False
    if isinstance(criterion, PositiveMMS):
        return 0, mms_share(v, k) > 0
    raise TypeError(f"unknown criterion {criterion!r}")


def holds(agent, bundles: tuple, criterion) -> bool:
    v = agent.valuation
    k = len(bundles)
    own = bundles[agent.group]
    if isinstance(criterion, EFc):
        others = [b for gi, b in enumerate(bundles) if gi != agent.group]
        return efc_holds(v, own, others, criterion.c)
    if isinstance(criterion, PROPc):
        return propc_holds(v, own, k, criterion.c)
    bar, strict = own_bar(v, criterion, k)
    own_value = value(v, own)
    return own_value > bar if strict else own_value >= bar


def check(agent, alloc, criterion) -> bool:
    return holds(agent, bundles_of(alloc), criterion)


def democratic_report(inst, alloc, criterion) -> FairnessReport:
    crits = per_group_criteria(criterion, inst.k)
    bundles = bundles_of(alloc)
    return FairnessReport(tuple(
        tuple(holds(agent, bundles, crits[gi]) for agent in grp)
        for gi, grp in enumerate(inst.groups)
    ))
