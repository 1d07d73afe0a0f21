"""Fairness criteria, per-agent checkers, and democratic-fraction reports.

An allocation is *h-democratic fair* under a criterion when, in every group,
at least a fraction ``h`` of the members individually consider it fair.
This module provides:

* the criterion vocabulary (:class:`EFc`, :class:`PROPc`, :class:`MMS`,
  :class:`OneOutOfCMMS`, :class:`FractionMMS`, :class:`OneOfBestC`,
  :class:`PositiveMMS`) with kebab-case names like ``ef-1`` and
  ``fraction-mms:1/2``;
* per-agent predicates :func:`is_efc`, :func:`is_propc`, the exact
  :func:`mms_share` computation, and the dispatching :func:`check`;
* the binary-agent threshold map :func:`s_threshold` (how many of its ``r``
  desired goods an agent needs before the criterion is satisfied) that
  drives the picking protocols;
* :func:`democratic_report`, which evaluates every agent and reports the
  per-group happy fractions and their minimum ``h``.

Every verdict compares ints in the agent's own scale (see
:mod:`groupfair.model`): EF-c and PROP-c through one removal helper, and
every other criterion against one threshold, the least own-bundle int value
that makes the agent happy.
"""

from __future__ import annotations

import heapq
import itertools
import re
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from math import ceil
from typing import Optional, Sequence, Union

from .errors import CapExceededError, FormatError, quoted
from .model import (
    AdditiveValuation,
    Agent,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    Record,
    Valuation,
    _fitted_bundles,
    _int_of_digits,
    _set_bits,
    int_table,
    parse_rational,
    rational_doc,
)

__all__ = [
    "EFc",
    "PROPc",
    "MMS",
    "OneOutOfCMMS",
    "FractionMMS",
    "OneOfBestC",
    "PositiveMMS",
    "FairnessCriterion",
    "SFunction",
    "FairnessReport",
    "parse_criterion",
    "parse_criteria",
    "per_group_criteria",
    "is_efc",
    "is_propc",
    "efc_holds",
    "propc_holds",
    "mms_share",
    "check",
    "s_threshold",
    "democratic_report",
    "MMS_GOODS_CAP",
]

#: Exhaustive maximin-share computation refuses instances with more goods.
MMS_GOODS_CAP = 12


# ---------------------------------------------------------------------------
# criteria


#: A ``<field>`` in a criterion's shape.
_PLACEHOLDER = re.compile(r"<(\w)>")


class _Shaped:
    """A criterion's kebab-case ``name``: its class's ``shape`` with each
    ``<field>`` replaced by that field's value."""

    shape = ""

    @property
    def name(self) -> str:
        return _PLACEHOLDER.sub(lambda m: str(getattr(self, m[1])), self.shape)


class _Counted(_Shaped):
    """A record counted by its one field, the int ``c``, of at least
    ``least``; ``label`` names it when a smaller ``c`` is refused."""

    least = 1

    def __init__(self, c: int):
        if c < self.least:
            raise ValueError(f"{self.label} needs c >= {self.least}")
        self._init(c)


class EFc(_Counted, Record):
    """Envy-free up to ``c`` goods: envy toward any other group vanishes
    after removing at most ``c`` goods from that group's bundle."""

    shape, label, least = "ef-<c>", "EFc", 0
    c: int


class PROPc(_Counted, Record):
    """Proportional except ``c`` goods: the agent's group gets at least
    ``1/k`` of the agent's value for all goods minus some ``c`` unowned
    goods."""

    shape, label, least = "prop-<c>", "PROPc", 0
    c: int


class MMS(_Shaped, Record):
    """The agent's bundle is worth its maximin share over ``k`` parts."""

    shape = "mms"


class OneOutOfCMMS(_Counted, Record):
    """Maximin share computed with ``c`` parts (a relaxation for c > k)."""

    shape, label = "1-out-of-<c>-mms", "1-out-of-c MMS"
    c: int


class FractionMMS(_Shaped, Record):
    """The agent's bundle is worth at least ``q`` times its maximin share."""

    shape = "fraction-mms:<q>"
    q: Fraction

    def __init__(self, q: Fraction):
        q = Fraction(q)
        if not 0 < q < 1:
            raise ValueError("fraction-mms needs q strictly between 0 and 1")
        self._init(q)


class OneOfBestC(_Counted, Record):
    """The agent's bundle is worth at least its c-th best single good."""

    shape, label = "1-of-best-<c>", "1-of-best-c"
    c: int


class PositiveMMS(_Shaped, Record):
    """Positive maximin share implies positive utility."""

    shape = "positive-mms"


_CRITERIA = (EFc, PROPc, MMS, OneOutOfCMMS, FractionMMS, OneOfBestC, PositiveMMS)
FairnessCriterion = Union[_CRITERIA]

#: How each ``<field>`` of a shape reads: its pattern and its parser.
_FIELD_SYNTAX = {"c": (r"\d+", _int_of_digits), "q": (".+", parse_rational)}
_CRITERION_PATTERNS = [
    (re.compile(_PLACEHOLDER.sub(
        lambda m: f"(?P<{m[1]}>{_FIELD_SYNTAX[m[1]][0]})", re.escape(cls.shape)
    )), cls)
    for cls in _CRITERIA
]


def parse_criterion(text: str) -> FairnessCriterion:
    """Parse a kebab-case criterion name.

    >>> parse_criterion("ef-1"), parse_criterion("1-out-of-3-mms")
    (EFc(c=1), OneOutOfCMMS(c=3))
    >>> parse_criterion("fraction-mms:1/2").q
    Fraction(1, 2)
    """
    name = text.strip().lower()
    for pattern, cls in _CRITERION_PATTERNS:
        match = pattern.fullmatch(name)
        if match:
            try:
                return cls(**{field: _FIELD_SYNTAX[field][1](value)
                              for field, value in match.groupdict().items()})
            except ValueError as exc:  # a FormatError too
                raise FormatError(f"bad criterion {quoted(text)}: {exc}") from None
    import difflib

    shapes = [cls.shape for cls in _CRITERIA]
    hints = difflib.get_close_matches(
        name, shapes + ["ef-1", "prop-2", "1-of-best-2"], n=3, cutoff=0.4
    )
    suffix = f" (did you mean: {', '.join(hints)}?)" if hints else ""
    raise FormatError(
        f"unknown criterion {quoted(text)}; expected one of {', '.join(shapes)}{suffix}"
    )


def parse_criteria(text: str, k: int) -> tuple:
    """Parse a comma-separated criterion list: one name (applies to every
    group) or exactly ``k`` names (one per group)."""
    parts = [p for p in text.split(",") if p.strip()]
    if len(parts) == 1:
        return (parse_criterion(parts[0]),) * k
    if len(parts) != k:
        raise FormatError(
            f"expected 1 or {k} comma-separated criteria, got {len(parts)}"
        )
    return tuple(parse_criterion(p) for p in parts)


def per_group_criteria(criterion, k: int) -> tuple:
    """Broadcast one criterion (or pass through a k-sequence) to k groups."""
    if isinstance(criterion, (tuple, list)):
        if len(criterion) != k:
            raise ValueError(f"need {k} per-group criteria, got {len(criterion)}")
        return tuple(criterion)
    return (criterion,) * k


# ---------------------------------------------------------------------------
# removal helper


def _min_after_removal(v: Valuation, mask: int, pool: int, c: int) -> int:
    """min over C subset of ``pool``, |C| <= c, of ``v.int_value(mask - C)``.

    Values are monotone, so removing as many goods as allowed is best."""
    if isinstance(v, BinaryValuation):
        return v.int_value(mask) - min(c, v.int_value(mask & pool))
    removable = _set_bits(mask & pool)
    take = min(c, len(removable))
    if isinstance(v, AdditiveValuation):
        values = [v.ints[i] for i in removable]
        held = sum(values) + v.int_value(mask & ~pool)
        return held - sum(heapq.nlargest(take, values))
    return min(
        v.ints[mask & ~sum(1 << i for i in combo)]
        for combo in itertools.combinations(removable, take)
    )


# ---------------------------------------------------------------------------
# predicates


def efc_holds(v: Valuation, own: Bundle, others: Sequence[Bundle], c: int) -> bool:
    """EFc for a hypothetical split: the agent holds ``own``, each entry of
    ``others`` is another group's bundle."""
    if c < 0:
        raise ValueError("EFc needs c >= 0")
    own_value = v.int_value(own.mask)
    return all(own_value >= _min_after_removal(v, b.mask, b.mask, c) for b in others)


def propc_holds(v: Valuation, own: Bundle, k: int, c: int) -> bool:
    """PROPc for a hypothetical split with ``k`` groups where the agent's
    group holds ``own`` (the benchmark is always all goods)."""
    if c < 0:
        raise ValueError("PROPc needs c >= 0")
    full = (1 << v.m) - 1
    return v.int_value(own.mask) * k >= _min_after_removal(v, full, full ^ own.mask, c)


def is_efc(agent: Agent, alloc: Allocation, c: int) -> bool:
    """Envy-freeness up to ``c`` goods of ``alloc`` for this agent."""
    return check(agent, alloc, EFc(c))


def is_propc(agent: Agent, alloc: Allocation, c: int) -> bool:
    """Proportionality except ``c`` goods of ``alloc`` for this agent."""
    return check(agent, alloc, PROPc(c))


@lru_cache(maxsize=65536)
def _mms_cached(v: Valuation, c: int, goods: Bundle, cap: int) -> int:
    """The maximin share of ``v`` over ``goods`` with ``c >= 2`` parts, in
    ``v``'s int scale."""
    pc = len(goods)
    if c > pc:
        return 0
    if pc > cap:
        raise CapExceededError(
            f"maximin share over {pc} goods exceeds the cap of {cap}"
        )
    vals = int_table(v, goods.mask)
    size = len(vals)
    # dp[mask] = best min-part value partitioning mask into p parts so far.
    # The part containing the lowest set bit is chosen first (canonical
    # anchoring), which enumerates every partition exactly once.  Round c
    # reads only the full mask, so it computes only that entry; its reads
    # leave out good 0, and by induction round p < c reads, so computes,
    # only the masks that leave out the c - p lowest goods.
    dp = vals
    for p in range(2, c + 1):
        new = [0] * size
        step = 1 << (c - p)
        for mask in range(step, size, step) if p < c else (size - 1,):
            low = mask & -mask
            rest = mask ^ low
            best = 0
            sub = rest
            while True:
                part = sub | low
                cand = dp[mask ^ part]
                pv = vals[part]
                if pv < cand:
                    cand = pv
                if cand > best:
                    best = cand
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            new[mask] = best
        dp = new
    return dp[size - 1]


def mms_share(
    valuation: Valuation, c: int, goods: Optional[Bundle] = None, cap: int = MMS_GOODS_CAP
):
    """Exact 1-out-of-``c`` maximin share of ``valuation`` over ``goods``.

    The best, over all partitions of ``goods`` into ``c`` parts, of the
    worst part's value.  Binary valuations short-circuit to ``r // c``;
    additive/tabular ones run an exact partition search over the int form
    (memoized), refusing more than ``cap`` goods.

    >>> mms_share(AdditiveValuation((2, 1, 1)), 2)
    Fraction(2, 1)
    >>> v = BinaryValuation(Bundle.full(7))
    >>> mms_share(v, 3)
    2
    """
    if c < 1:
        raise ValueError("mms_share needs c >= 1")
    if goods is None:
        goods = Bundle.full(valuation.m)
    if isinstance(valuation, BinaryValuation):
        return len(valuation.desired & goods) // c
    if c == 1:
        return valuation.value(goods)
    return Fraction(_mms_cached(valuation, c, goods, cap), valuation.scale)


def check(agent: Agent, alloc: Allocation, criterion: FairnessCriterion) -> bool:
    """Does this agent consider ``alloc`` fair under ``criterion``?"""
    bundles = _fitted_bundles(alloc, agent.valuation.m, agent.group + 1, least=True)
    return _holds(agent, bundles, criterion)


def _holds(agent: Agent, bundles: tuple, criterion: FairnessCriterion) -> bool:
    """:func:`check` against the allocation's per-group ``bundles``."""
    v = agent.valuation
    k = len(bundles)
    own = bundles[agent.group]
    if isinstance(criterion, EFc):
        others = [b for gi, b in enumerate(bundles) if gi != agent.group]
        return efc_holds(v, own, others, criterion.c)
    if isinstance(criterion, PROPc):
        return propc_holds(v, own, k, criterion.c)
    return v.int_value(own.mask) >= _own_bar(v, criterion, k)


def _own_bar(v: Valuation, criterion: FairnessCriterion, k: int) -> int:
    """The least ``v.int_value(own)`` that makes the agent happy under an
    own-value criterion with ``k`` groups.  Every criterion but EFc and
    PROPc is of this kind."""
    if isinstance(criterion, OneOfBestC):
        if isinstance(v, BinaryValuation):
            return int(criterion.c <= len(v.desired))
        singles = sorted((v.int_value(1 << i) for i in range(v.m)), reverse=True)
        return singles[criterion.c - 1] if criterion.c <= v.m else 0
    if not isinstance(criterion, (MMS, OneOutOfCMMS, FractionMMS, PositiveMMS)):
        raise TypeError(f"unknown criterion {criterion!r}")
    parts = criterion.c if isinstance(criterion, OneOutOfCMMS) else k
    if parts < k:
        raise ValueError(f"1-out-of-{parts}-mms needs c >= k (k={k})")
    share = int(mms_share(v, parts) * v.scale)
    if isinstance(criterion, FractionMMS):
        return ceil(criterion.q * share)
    if isinstance(criterion, PositiveMMS):
        # a zero share is met by any bundle, a positive one by any positive value
        return min(share, 1)
    return share


# ---------------------------------------------------------------------------
# binary-agent thresholds


@lru_cache(maxsize=4096)
def _binary_threshold(criterion: FairnessCriterion, r: int, k: int):
    """Own-count threshold t: a binary agent desiring ``r`` goods is happy
    under ``criterion`` iff it receives at least ``t`` of them.  ``t`` is the
    least count :func:`check`'s rule accepts, another group holding the rest
    (the verdict grows with it); ``None`` for EF-c with 3+ groups."""
    if isinstance(criterion, EFc) and k != 2:
        return None
    agent = Agent(0, 0, BinaryValuation(Bundle.full(r)))

    def happy(t: int) -> bool:
        masks = ((1 << t) - 1, (1 << r) - (1 << t)) + (0,) * (k - 2)
        return _holds(agent, tuple(Bundle(x, r) for x in masks), criterion)

    return bisect_left(range(r + 1), True, key=happy)


def s_threshold(criterion: FairnessCriterion, r: int, k: int = 2) -> int:
    """How many of its ``r`` desired goods a binary agent needs.

    A binary agent with ``r`` desired goods satisfies ``criterion`` exactly
    when its group holds ``s_threshold(criterion, r, k)`` of them.  Every
    criterion has such an own-count threshold for every ``k`` except EFc,
    which has one only for ``k = 2``; EFc with more groups raises.

    >>> s_threshold(EFc(1), 7)
    3
    >>> s_threshold(OneOutOfCMMS(3), 9)
    3
    >>> s_threshold(OneOfBestC(5), 4)
    0
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    if k < 2:
        raise ValueError("k must be >= 2")
    s = _binary_threshold(criterion, r, k)
    if s is None:
        raise ValueError(f"{criterion.name} has a threshold only for k=2")
    return s


class SFunction(Record):
    """The threshold map r -> s for a fixed criterion and group count."""

    criterion: FairnessCriterion
    k: int = 2

    def __init__(self, criterion: FairnessCriterion, k: int = 2):
        s_threshold(criterion, 0, k)  # validate the pairing
        self._init(criterion, k)

    def __call__(self, r: int) -> int:
        return s_threshold(self.criterion, r, self.k)


# ---------------------------------------------------------------------------
# reports


class FairnessReport(Record):
    """Per-agent verdicts plus the per-group happy fractions.

    ``h`` is the democratic fraction: the worst group's happy share.
    """

    verdicts: tuple  # one tuple of booleans per group

    def __init__(self, verdicts: tuple):
        self._init(tuple(tuple(bool(x) for x in g) for g in verdicts))

    @property
    def sizes(self) -> tuple:
        return tuple(len(g) for g in self.verdicts)

    @property
    def happy(self) -> tuple:
        return tuple(sum(g) for g in self.verdicts)

    @property
    def fractions(self) -> tuple:
        return tuple(
            Fraction(sum(g), len(g)) for g in self.verdicts
        )

    @property
    def h(self) -> Fraction:
        return min(self.fractions)

    def to_doc(self) -> dict:
        return {
            "happy": [[sum(g), len(g)] for g in self.verdicts],
            "h": rational_doc(self.h),
            "verdicts": [list(g) for g in self.verdicts],
        }


def democratic_report(inst: Instance, alloc: Allocation, criterion) -> FairnessReport:
    """Evaluate :func:`check` for every agent; ``criterion`` may be one
    criterion or a per-group sequence of ``k`` criteria."""
    crits = per_group_criteria(criterion, inst.k)
    bundles = _fitted_bundles(alloc, inst.m, inst.k)
    verdicts = tuple(
        tuple(_holds(agent, bundles, crits[gi]) for agent in grp)
        for gi, grp in enumerate(inst.groups)
    )
    return FairnessReport(verdicts)
