"""Per-index reference for the binary oracle sweep and for PROP-c, the
digit decode of an allocation index, and the loop form of the EF-c drop
table.

The first is the binary scoring rule :func:`groupfair.oracles.max_h` and
:func:`groupfair.oracles.exists_h` used before the row-block matrix
product: every allocation index is decoded on its own (``divmod`` into
its high and low base-``k`` digits) and each distinct desired set adds
its multiplicity wherever the popcount of the group's own bundle reaches
its threshold, read from the closed forms of ``threshold_reference.py``.
Members of any kind under PROP-c are scored instead from
:func:`value_reference.propc_holds` on every own bundle, with no rank
table.  The property tests in ``test_oracles.py`` require the
sweeps to agree with it on the value, the witness and the number of
allocations examined, and :func:`groupfair.oracles._drop_table` to agree
with :func:`reference_drop_table` entry by entry.  Witnesses are decoded
here digit by digit, while the oracle reads them from the masks it scores.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np

from groupfair.fairness import PROPc, per_group_criteria
from groupfair.model import Bundle
from groupfair.oracles import _digit_masks
from threshold_reference import binary_threshold
from value_reference import propc_holds


def decode(idx: int, k: int, m: int) -> tuple:
    """The assignment at allocation index ``idx``: its ``m`` base-``k``
    digits, good 0 the most significant."""
    digits = []
    for _ in range(m):
        idx, digit = divmod(idx, k)
        digits.append(digit)
    return tuple(reversed(digits))


def binary_rule(inst, crits):
    """``happy(g, masks)`` counts the members of group ``g`` whose own
    bundle holds their own-count threshold of desired goods, one entry per
    distinct desired set.  None unless every member is binary and every
    criterion has such a threshold."""
    if not inst.is_binary():
        return None
    rows = []
    for g, grp in enumerate(inst.groups):
        row = []
        for mask, count in Counter(a.valuation.desired.mask for a in grp).items():
            t = binary_threshold(crits[g], mask.bit_count(), inst.k)
            if t is None:
                return None
            row.append((np.uint64(mask), t, count))
        rows.append(row)

    def happy(g, masks):
        return sum(
            count * (np.bitwise_count(masks[g] & desired) >= t)
            for desired, t, count in rows[g]
        )

    return happy


def propc_rule(inst, crits):
    """``happy(g, masks)`` counts the members of group ``g`` that are PROP-c
    holding their own bundle, from a verdict per member and own mask.  None
    unless every criterion is PROP-c."""
    if not all(isinstance(crit, PROPc) for crit in crits):
        return None
    m, k = inst.m, inst.k
    tables = [
        np.array([
            sum(propc_holds(a.valuation, Bundle(mask, m), k, crits[g].c) for a in grp)
            for mask in range(1 << m)
        ])
        for g, grp in enumerate(inst.groups)
    ]

    def happy(g, masks):
        return tables[g][masks[g]]

    return happy


def group_masks(lo: int, hi: int, k: int, m: int):
    """Own-bundle masks of allocation indices [lo, hi): row ``g`` holds
    group ``g``'s.  Good 0 is the most significant base-``k`` digit."""
    a = m // 2
    high, low = np.divmod(np.arange(lo, hi, dtype=np.int64), k**a)
    return _digit_masks(k, 0, m - a)[:, high] | _digit_masks(k, m - a, a)[:, low]


def _scores(inst, criterion):
    """Integer scores min_g(happy_g * N / n_g) of every allocation index."""
    crits = per_group_criteria(criterion, inst.k)
    happy = binary_rule(inst, crits) or propc_rule(inst, crits)
    assert happy is not None, "the reference scores binary thresholds and PROP-c only"
    N = math.lcm(*inst.sizes)
    masks = group_masks(0, inst.k**inst.m, inst.k, inst.m)
    scores = np.min(
        [happy(g, masks) * (N // n) for g, n in enumerate(inst.sizes)], axis=0
    )
    return N, scores


def reference_max_h(inst, criterion):
    """``(best_h, witness assignment, allocations examined)``; ties go to
    the smallest index."""
    N, scores = _scores(inst, criterion)
    best = int(scores.argmax())
    return (
        Fraction(int(scores[best]), N),
        decode(best, inst.k, inst.m),
        inst.k**inst.m,
    )


def reference_exists_h(inst, criterion, h):
    """``(found, witness assignment or None, allocations examined)`` for the
    first allocation in index order whose democratic fraction reaches ``h``."""
    N, scores = _scores(inst, criterion)
    target = Fraction(h)
    needed = -((-target.numerator * N) // target.denominator)
    hits = np.flatnonzero(scores >= needed)
    if not len(hits):
        return False, None, inst.k**inst.m
    idx = int(hits[0])
    return True, decode(idx, inst.k, inst.m), idx + 1


def reference_drop_table(values, m: int, c: int):
    """``out[mask]`` = min value of ``mask`` after deleting min(c, |mask|)
    goods, one mask and one removed good at a time."""
    cur = list(values)
    for _ in range(c):
        nxt = list(cur)
        for mask in range(1, 1 << m):
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                if cur[mask ^ low] < nxt[mask]:
                    nxt[mask] = cur[mask ^ low]
        cur = nxt
    return cur
