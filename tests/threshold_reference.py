"""Closed forms of the binary-agent threshold: the least count ``t`` of its
``r`` desired goods that a binary agent's group must hold for the agent
to be happy, with ``k`` groups.

The package derives each threshold from the verdict :func:`check` gives;
these are the formulas that verdict solves to, written out by hand, so the
property tests in ``test_fairness.py`` and the oracle reference can hold
:func:`groupfair.fairness._binary_threshold` to them.

* EF-c, two groups: ``t >= (r - t) - min(c, r - t)``, the least such ``t``
  being ``ceil((r - c) / 2)``, or 0 when ``c >= r``.  With three or more
  groups happiness depends on how the others split the rest: ``None``.
* PROP-c: ``k * t >= r - min(c, r - t)``, so ``ceil((r - c) / k)``, or 0.
* The own-value criteria compare ``t`` with a share of ``r`` goods:
  ``r // k`` for the maximin share, ``r // c`` with ``c`` parts, and so on.
"""

from __future__ import annotations

from math import ceil

from groupfair.fairness import (
    MMS,
    EFc,
    FractionMMS,
    OneOfBestC,
    OneOutOfCMMS,
    PositiveMMS,
    PROPc,
)


def binary_threshold(criterion, r: int, k: int):
    """The threshold of ``criterion`` for ``r`` desired goods and ``k``
    groups, or None for EF-c with ``k != 2``; a ``1-out-of-c`` maximin
    share with ``c < k`` raises ValueError as the package does."""
    if isinstance(criterion, EFc):
        return max(0, (r - criterion.c + 1) // 2) if k == 2 else None
    if isinstance(criterion, PROPc):
        return max(0, -((criterion.c - r) // k))
    if isinstance(criterion, OneOfBestC):
        return int(criterion.c <= r)
    if isinstance(criterion, OneOutOfCMMS):
        if criterion.c < k:
            raise ValueError(f"1-out-of-{criterion.c}-mms needs c >= k (k={k})")
        return r // criterion.c
    share = r // k
    if isinstance(criterion, FractionMMS):
        return ceil(criterion.q * share)
    if isinstance(criterion, PositiveMMS):
        return min(share, 1)
    assert isinstance(criterion, MMS), criterion
    return share
