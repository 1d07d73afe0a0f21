"""Exhaustive ground-truth solvers and adversarial instance generators.

:func:`max_h` sweeps every one of the ``k**m`` total allocations and reports
the best achievable democratic fraction (the largest ``h`` such that some
allocation leaves at least ``h`` of every group happy), together with the
lexicographically-smallest witness.  :func:`exists_h` is its short-circuit
decision form.

Both sweep the index space in blocks with one decode, which also gives
the witness: an index is a row of its high base-``k`` digits and a column
of its low ones, each group's bundle is the OR of a row mask and a column
mask from two small tables, and a block is a run of whole rows (or part of
one row).  One of two scoring rules counts each group's happy members.
When every member is binary and its criterion is an own-count threshold,
the binary rule counts desired goods per half -- ``popcount(d & bundle)``
is a row count plus a column count -- folds a group's desired sets by
their low half, and gets a group's happy count from per-row slot counts
and a column table built once per sweep in one matrix product per piece,
run in float32 and exact because every partial sum is an integer no
larger than the group's size (see :func:`_binary_rule`).  Otherwise the
table rule gathers from per-group count tables over own-bundle masks,
compiled from each valuation's :func:`groupfair.model.int_table`.  EF-c
and PROP-c members read rank tables, both built from the ranks of the
member's values: an EF-c member's rank against the drop table of every
other group's bundle, a PROP-c member's benchmark (the least superset of
``m - c`` goods) against the ranks its own value reaches.  Counts are
exact int64 throughout.  What each criterion means comes from
:mod:`groupfair.fairness`, which the sweep functions read through the
module when they run, so a CLI ``gen`` that only generates never loads it.
numpy is imported by the sweep functions themselves, and the thread pool
by :func:`max_h` only when ``workers > 1``, so importing this module (and
running any CLI command but ``brute``) loads neither.

The generators build the small adversarial instances used to show that the
protocol guarantees cannot be improved: cycles of disapproval, all-subsets
families, circular blocks, and the additive rotation example.  Each is a
spec record that states its goods, groups, members and bound.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
import re
from collections import Counter
from fractions import Fraction

from . import fairness
from .budgets import maxh_finite
from .errors import CapExceededError, FormatError, quoted
from .model import (
    AdditiveValuation,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    MAX_MEMBERS,
    Record,
    _int_of_digits,
    int_table,
)

__all__ = [
    "OracleResult",
    "ExistsResult",
    "ThreeGoodCycle",
    "AllSubsets",
    "Circle",
    "AdditiveThird",
    "EFcLimit",
    "parse_spec",
    "spec_name",
    "generate",
    "max_h",
    "exists_h",
    "verify_negative",
    "DEFAULT_CAP",
]

#: Largest allocation space (``k**m``) the oracles sweep by default.
DEFAULT_CAP = 1 << 24
_CHUNK = 1 << 16
#: Most goods, and most desired entries (members times the goods each
#: desires), of an all-subsets instance.  Past the member cap, these bound
#: its time, memory and output: masks over many goods cost time per bit,
#: and ``efc-limit:c=1,l=5`` (20 goods, 3,695,120 entries) takes seconds.
MAX_SUBSET_GOODS = 64
MAX_SUBSET_ENTRIES = 1 << 22
_GROUP_BITS = 20  # every group the oracle scores has fewer than 2**_GROUP_BITS members
#: most entries in one piece of a binary-rule array (1 MiB of int64)
_PIECE = 1 << 17
#: most column-table entries the binary rule keeps across blocks, over all
#: groups (16 MiB of float32)
_TABLE_BUDGET = 1 << 22


class OracleResult(Record):
    """Best democratic fraction over the full allocation space.

    ``witness`` is the lexicographically smallest assignment vector (good 0
    most significant) achieving ``best_h``; its democratic report has
    ``h == best_h`` by construction.
    """

    best_h: Fraction
    witness: Allocation
    allocations_examined: int


class ExistsResult(Record):
    """Decision-form result: was an ``h``-democratic allocation found?"""

    found: bool
    witness: object  # Allocation | None
    allocations_examined: int

    def __bool__(self) -> bool:
        return self.found


# ---------------------------------------------------------------------------
# happiness compilation


def _binary_rule(inst: Instance, crits, high, low, block):
    """The binary scoring rule: ``counts(rows, cols)`` yields each group's
    happy count over a block of high-digit rows by low-digit columns from
    a per-row slot count and a column table, in one matrix product per
    piece.  None unless every member is binary and every criterion has an
    own-count threshold.  The tallest, widest ``block`` sizes the pieces.

    A member desiring ``d`` with threshold ``t`` holds ``H_d[h] + L_d[l]``
    desired goods at allocation ``(h, l)``: ``H_d[h]`` of them among the
    high goods of row ``h``, ``L_d[l]`` among the low goods of column
    ``l``.  ``L_d[l] = popcount(low(d) & col_l)`` depends on ``d`` only
    through its low half ``low(d)``, so the distinct desired sets of a
    group are folded by low half.  For each distinct low half ``e`` and
    each ``v = 1 .. |e|`` there is one slot ``(e, v)``, plus one slot of
    members happy at every column, and a group's happy count over the
    block is ``(A @ T)[h, l]`` with

    * ``A[h, (e, v)]`` the number of members with ``low(d) = e`` and
      residual ``t_d - H_d[h] = v``, summed by one ``bincount`` (members
      with a residual of at most 0 count in the always-happy slot, and
      those with one above ``|e|`` in none), and
    * ``T[(e, v), l] = [popcount(e & col_l) >= v]``, the column table,
      with a row of ones for the always-happy slot.

    So per block the work is rows times distinct sets, then rows times
    slots times columns, where there are at most ``a * 2**(a - 1)`` slots
    for ``a`` low goods whatever the member count.

    The slots are taken in pieces, runs of whole low halves of about
    ``_PIECE // max(rows, columns)`` slots, and the distinct sets of a
    piece in runs of ``_PIECE // rows``, so no array grows with the
    number of members or of distinct sets beyond ``_PIECE`` entries a
    piece.  The column tables of every piece are built once per sweep,
    before any block is scored (and before ``max_h`` starts its thread
    pool), when all of them together hold at most ``_TABLE_BUDGET``
    entries; past that budget each block builds its pieces of them for
    its own columns.

    The product runs in float32 and is cast to int64 exactly: ``A``
    holds member counts and ``T`` zeros and ones, and each member adds to
    at most one slot of a row, so every partial sum is an integer no
    larger than the group's size, below ``2**_GROUP_BITS`` (see
    :func:`_chunk_counter`), and float32 holds every such integer exactly.
    """
    if not inst.is_binary():
        return None
    import numpy as np

    k, width = inst.k, low.shape[1]
    _, rows, cols = block
    per_piece = max(1, _PIECE // max(len(high[0, rows]), len(low[0, cols])))
    low_goods = low[0, 0]  # column 0 gives group 0 every low good
    plans = []
    for g, runs in enumerate(inst.runs):
        tally = Counter()  # each distinct desired set, with its members
        for v, n in runs:
            tally[v.desired.mask] += n
        desired = np.array(list(tally), dtype=np.uint64)
        sizes = np.bitwise_count(desired).astype(np.int64)
        bars = {r: fairness._binary_threshold(crits[g], r, k)
                for r in set(sizes.tolist())}
        if None in bars.values():
            return None
        # distinct sets sorted by low half: each piece's sets are one run
        order = np.argsort(desired & low_goods, kind="stable")
        desired = desired[order]
        weights = np.array(list(tally.values()), dtype=np.float64)[order]
        thresholds = np.array([bars[r] for r in sizes[order].tolist()])
        halves, first, of = np.unique(
            desired & low_goods, return_index=True, return_inverse=True
        )
        first = np.append(first, len(desired))  # half i's sets: first[i:i+2]
        spans = np.bitwise_count(halves).astype(np.int64)
        # cut the low halves into pieces of about per_piece slots
        cuts, used = [0], 0
        for i, n in enumerate(spans.tolist()):
            if used and used + n > per_piece:
                cuts.append(i)
                used = 0
            used += n
        cuts.append(len(halves))
        # per low half: its piece's slot count and its first slot there
        total, offset = np.empty_like(spans), np.empty_like(spans)
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            n = spans[lo:hi]
            total[lo:hi] = q = int(n.sum())
            offset[lo:hi] = np.cumsum(n) - n
            # slot (e, v) for each v = 1 .. |e|, then (0, 0): a row of ones
            e = np.append(np.repeat(halves[lo:hi], n), np.uint64(0))
            v = np.append(np.arange(q) - np.repeat(offset[lo:hi], n) + 1, 0)
            pieces.append((first[lo], first[hi], q, e, v))
        # slot[start[d] + p]: the slot of set d when p of its high goods
        # are held; its piece's slot count means always, one more never
        spread = np.bitwise_count(desired & ~low_goods).astype(np.int64) + 1
        start = np.cumsum(spread) - spread
        at = np.repeat(np.arange(len(desired)), spread)
        residual = thresholds[at] - (np.arange(len(at)) - start[at])
        half = of[at]
        slot = np.where(
            residual <= 0, total[half],
            np.where(residual > spans[half], total[half] + 1,
                     offset[half] + residual - 1),
        )
        plans.append((desired, weights, start, slot, pieces))

    def column_table(e, v, col):
        return (np.bitwise_count(e[:, None] & col) >= v[:, None]).astype(np.float32)

    cells = sum(len(p[3]) for *_, pieces in plans for p in pieces) * width
    tables = None
    if cells <= _TABLE_BUDGET:
        tables = [
            [column_table(e, v, low[g]) for *_, e, v in pieces]
            for g, (*_, pieces) in enumerate(plans)
        ]

    def slot_counts(g, row, lo, hi, q):
        """Piece ``[lo, hi)`` of group ``g``'s sets over rows ``row``: one
        row of ``q + 2`` slot counts per row, by runs of sets."""
        desired, weights, start, slot = plans[g][:4]
        shift = np.arange(0, len(row) * (q + 2), q + 2)[:, None]
        step = max(1, _PIECE // len(row))
        for s in range(lo, hi, step):
            t = min(s + step, hi)
            at = slot[np.bitwise_count(row[:, None] & desired[s:t]) + start[s:t]]
            at += shift
            yield np.bincount(
                at.ravel(), np.broadcast_to(weights[s:t], at.shape).ravel(),
                len(row) * (q + 2),
            )

    def products(g, row, cols):
        """Group ``g``'s happy counts over ``row`` by ``cols``, one float32
        term per piece."""
        for j, (lo, hi, q, e, v) in enumerate(plans[g][4]):
            held = functools.reduce(operator.iadd, slot_counts(g, row, lo, hi, q))
            held = held.reshape(len(row), q + 2)[:, :-1].astype(np.float32)
            if tables is not None:
                yield held @ tables[g][j][:, cols]
            else:
                yield held @ column_table(e, v, low[g, cols])

    def counts(rows, cols):
        for g in range(len(plans)):  # the float32 sum dies before the yield
            yield functools.reduce(operator.iadd, products(g, high[g, rows], cols)
                                   ).astype(np.int64).ravel()

    return counts


def _drop_table(rank, m: int, c: int):
    """``out[mask]`` = min of ``rank`` over ``mask`` after deleting
    min(c, |mask|) goods (the envious agent's most favourable removal);
    ``rank`` is an int64 array over all ``2**m`` masks."""
    import numpy as np

    cur = rank
    for _ in range(min(c, m)):  # a round past the m-th removes nothing
        nxt = cur.copy()
        for i in range(m):
            # masks as (higher bits, bit i, lower bits): [:, 1] has bit i set
            without, view = cur.reshape(-1, 2, 1 << i)[:, 0], nxt.reshape(-1, 2, 1 << i)
            np.minimum(view[:, 1], without, out=view[:, 1])
        cur = nxt
    return cur


def _prop_benchmark_table(rank, m: int, c: int):
    """``out[own]`` = min of ``rank`` over the supersets of ``own`` with at
    least ``m - c`` goods (the whole set less up to ``c`` goods the agent
    does not own): the superset twin of :func:`_drop_table`, where masks of
    fewer goods start above every rank."""
    import numpy as np

    out = np.where(np.bitwise_count(np.arange(1 << m)) < m - c, 1 << m, rank)
    for i in range(m):
        view = out.reshape(-1, 2, 1 << i)  # [:, 0] lacks good i, [:, 1] holds it
        np.minimum(view[:, 0], view[:, 1], out=view[:, 0])
    return out


def _table_rule(inst: Instance, crits, high, low):
    """The table scoring rule: ``counts(rows, cols)`` yields each group's
    happy count over a block from lookup tables over own-bundle masks, for
    any valuation and criterion.

    Each group has one count table: for every mask, how many members whose
    verdict depends on their own bundle alone are happy holding it.  Each
    distinct EF-c or PROP-c valuation has its values ranked once, and both
    of its tables are rank tables.  An EF-c member (one entry per distinct
    valuation, with its multiplicity) keeps the ranks and their
    :func:`_drop_table`, so envy is an exact int comparison against every
    other group's bundle.  A PROP-c valuation's
    :func:`_prop_benchmark_table` goes into the count table: an own bundle
    is happy where its benchmark's rank is below the number of distinct
    values at most ``k`` times its own.
    """
    import numpy as np

    m, k = inst.m, inst.k
    if m > 16:
        raise CapExceededError(
            f"generic oracle path supports at most 16 goods, got {m}"
        )
    own, envy = [], []
    for g, runs in enumerate(inst.runs):
        crit = crits[g]
        tally = np.zeros(1 << m, dtype=np.int64)
        pairs = []
        members = Counter()  # each distinct valuation, with its members
        for v, n in runs:
            members[v] += n
        for v, count in members.items():
            values = int_table(v, (1 << m) - 1)
            if not isinstance(crit, (fairness.EFc, fairness.PROPc)):
                bar = fairness._own_bar(v, crit, k)
                tally += count * np.array([x >= bar for x in values], dtype=np.int64)
                continue
            # each drop and each benchmark is some mask's value: ranks suffice
            distinct = sorted(set(values))
            order = {x: i for i, x in enumerate(distinct)}
            rank = np.array([order[x] for x in values], dtype=np.int64)
            if isinstance(crit, fairness.EFc):
                pairs.append((count, rank, _drop_table(rank, m, crit.c)))
            else:  # k * value >= benchmark: the benchmark's rank is below cut
                cut = np.array([bisect.bisect_right(distinct, k * x) for x in distinct])
                tally += count * (_prop_benchmark_table(rank, m, crit.c) < cut[rank])
        own.append(tally)
        envy.append(pairs)

    def happy(g, masks):
        total = own[g][masks[g]]
        for count, value_rank, drop_rank in envy[g]:
            mine = value_rank[masks[g]]
            ok = np.ones(len(mine), dtype=bool)
            for h in range(k):
                if h != g:
                    ok &= mine >= drop_rank[masks[h]]
            total = total + count * ok
        return total

    def counts(rows, cols):
        masks = (high[:, rows, None] | low[:, None, cols]).reshape(k, -1)
        return (happy(g, masks) for g in range(k))

    return counts


# ---------------------------------------------------------------------------
# enumeration


def _space(k: int, m: int, cap: int) -> int:
    # past cap's bits, k**m >= 2**(m * (bits(k) - 1)) > cap: no power is built
    if m * (k.bit_length() - 1) <= cap.bit_length() and (total := k**m) <= cap:
        return total
    raise CapExceededError(f"allocation space {k}^{m} exceeds cap {cap}")


def _digit_masks(k: int, first: int, d: int):
    """Row ``g``, column ``j``: the mask of goods ``first .. first+d-1``
    whose digit in the ``d``-digit base-``k`` numeral ``j`` (most
    significant first) is ``g``."""
    import numpy as np

    j = np.arange(k**d, dtype=np.int64)
    out = np.zeros((k, k**d), dtype=np.uint64)
    for t in range(d):
        out[(j // k ** (d - 1 - t)) % k, j] |= np.uint64(1 << (first + t))
    return out


def _blocks(total: int, width: int):
    """Blocks of about ``_CHUNK`` allocations each, as ``(lo, rows, cols)``,
    the first index and the row and column slices: whole rows of ``width``
    low-digit columns, or a piece of one row when a row is wider than
    ``_CHUNK``."""
    height = total // width
    if width <= _CHUNK:
        step = _CHUNK // width
        return [(row * width, slice(row, min(row + step, height)), slice(None))
                for row in range(0, height, step)]
    return [
        (row * width + col, slice(row, row + 1), slice(col, min(col + _CHUNK, width)))
        for row in range(height)
        for col in range(0, width, _CHUNK)
    ]


def _chunk_counter(inst: Instance, criterion, cap: int):
    """``(blocks, counts, at)`` for both sweeps: ``counts(rows, cols)``
    counts each group's happy members under ``criterion`` (one, or one per
    group) over a block of :func:`_blocks` with the binary or the table
    rule, yielding one fresh int64 array per group in turn, and ``at(idx)``
    gives the allocation at index ``idx`` and each group's happy count there.

    Good 0 is the most significant base-``k`` digit.  Each index is a row
    ``h`` of its high ``m - m // 2`` digits and a column ``l`` of its low
    ``m // 2``, so group ``g``'s bundle is ``high[g, h] | low[g, l]``.
    """
    crits = fairness.per_group_criteria(criterion, inst.k)
    total = _space(inst.k, inst.m, cap)
    if max(inst.sizes) >= 1 << _GROUP_BITS:  # for max_h's keys
        raise CapExceededError(f"the oracle needs groups of fewer than 2^{_GROUP_BITS}"
                               f" members, got {max(inst.sizes)}")
    k, m = inst.k, inst.m
    a = m // 2
    width = k**a
    high, low = _digit_masks(k, 0, m - a), _digit_masks(k, m - a, a)
    blocks = _blocks(total, width)
    counts = _binary_rule(inst, crits, high, low, blocks[0]) or _table_rule(
        inst, crits, high, low
    )

    def at(idx):
        row, col = divmod(idx, width)
        happy = counts(slice(row, row + 1), slice(col, col + 1))
        bundles = [Bundle(int(b), m) for b in high[:, row] | low[:, col]]
        return Allocation.from_bundles(bundles), [int(j[0]) for j in happy]

    return blocks, counts, at


def max_h(
    inst: Instance, criterion, cap: int = DEFAULT_CAP, workers: int = 1
) -> OracleResult:
    """Best democratic fraction over all ``k**m`` allocations.

    Ties are broken toward the lexicographically smallest assignment vector
    (good 0 most significant), so the witness is reproducible and
    independent of ``workers``, the number of threads that score chunks.
    Raises :class:`CapExceededError` when the space exceeds ``cap``.

    An allocation's key is min_g floor(happy_g * 2**(2b+2) / n_g), ``b =
    _GROUP_BITS``: fractions ``j / n`` with ``n < 2**b`` differ by more than
    ``2**-2b`` or not at all, so these floors order them and keep ties.
    """
    import numpy as np

    blocks, counts, at = _chunk_counter(inst, criterion, cap)

    def key(happy, n):  # a fresh array: key it in place
        happy <<= 2 * _GROUP_BITS + 2
        happy //= n
        return happy

    def best_in(block):
        keys = functools.reduce(lambda x, y: np.minimum(x, y, out=x),
                                map(key, counts(*block[1:]), inst.sizes))
        pos = int(keys.argmax())
        return int(keys[pos]), block[0] + pos

    if workers > 1 and len(blocks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(best_in, blocks))
    else:
        results = map(best_in, blocks)
    # max keeps the first of equal keys: the smallest index
    _, best_idx = max(results, key=lambda result: result[0])
    witness, happy = at(best_idx)
    return OracleResult(
        best_h=min(Fraction(j, n) for j, n in zip(happy, inst.sizes)),
        witness=witness,
        allocations_examined=inst.k**inst.m,
    )


def exists_h(inst: Instance, criterion, h, cap: int = DEFAULT_CAP) -> ExistsResult:
    """Is some allocation ``h``-democratic fair?  Short-circuits at the
    first witness in enumeration order."""
    target = Fraction(h)
    if not 0 <= target <= 1:
        raise ValueError("h must be a rational in [0, 1]")
    blocks, counts, at = _chunk_counter(inst, criterion, cap)
    # group g needs ceil(h * n_g) happy members
    p, q = target.numerator, target.denominator
    need = [-(-p * n // q) for n in inst.sizes]
    for lo, rows, cols in blocks:
        hits = functools.reduce(lambda x, y: x & y, (
            j >= n for j, n in zip(counts(rows, cols), need)))
        if hits.any():
            idx = lo + int(hits.argmax())
            return ExistsResult(True, at(idx)[0], idx + 1)
    return ExistsResult(False, None, inst.k**inst.m)


# ---------------------------------------------------------------------------
# adversarial generators


class ThreeGoodCycle(Record):
    """Three goods; every group has three members, each disapproving one
    distinct good (so each desires the other two)."""

    k: int = 2
    name = "three-good-cycle"
    n_goods = 3
    bound = Fraction(2, 3)

    def __init__(self, k: int = 2):
        if k < 2:
            raise ValueError("three-good-cycle needs k >= 2")
        self._init(k)

    def members(self):
        if 3 * self.k > MAX_MEMBERS:
            raise CapExceededError(
                f"three-good-cycle instance would have more than {MAX_MEMBERS}"
                f" members"
            )
        return ("x", "y", "z"), [
            BinaryValuation(Bundle.from_indices([j for j in range(3) if j != i], 3))
            for i in range(3)
        ]


class AllSubsets(Record):
    """``k*m`` goods; every group has one member per ``r``-subset."""

    r: int
    s: int
    k: int
    m: int
    name = "all-subsets"

    def __init__(self, r: int, s: int, k: int, m: int):
        if not (s >= 1 and r >= s):
            raise ValueError("all-subsets needs r >= s >= 1")
        if k < 2 or m < 1:
            raise ValueError("all-subsets needs k >= 2 and m >= 1")
        if r > k * m:
            raise ValueError("all-subsets needs r <= k*m goods")
        self._init(r, s, k, m)

    @property
    def n_goods(self) -> int:
        return self.k * self.m

    @property
    def bound(self) -> Fraction:
        return maxh_finite(self.r, self.s, self.k, self.m)

    def members(self):
        n_goods = self.n_goods
        if n_goods > MAX_SUBSET_GOODS:
            raise CapExceededError(
                f"all-subsets instance would have {n_goods} goods, which"
                f" exceeds the cap of {MAX_SUBSET_GOODS}"
            )
        per_group = math.comb(n_goods, self.r)  # at most C(64, 32)
        if per_group * self.k > MAX_MEMBERS:
            raise CapExceededError(
                f"all-subsets instance would have more than {MAX_MEMBERS}"
                f" members"
            )
        entries = per_group * self.k * self.r
        if entries > MAX_SUBSET_ENTRIES:
            raise CapExceededError(
                f"all-subsets instance would have {entries} desired entries,"
                f" which exceeds the cap of {MAX_SUBSET_ENTRIES}"
            )
        return tuple(f"g{i + 1}" for i in range(n_goods)), [
            BinaryValuation(Bundle.from_indices(subset, n_goods))
            for subset in itertools.combinations(range(n_goods), self.r)
        ]


class Circle(Record):
    """``2k - 1`` goods in a circle; every group has ``2k - 1`` members,
    each desiring a distinct window of ``k`` consecutive goods."""

    k: int
    name = "circle"

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("circle needs k >= 2")
        self._init(k)

    @property
    def n_goods(self) -> int:
        return 2 * self.k - 1

    @property
    def bound(self) -> Fraction:
        return Fraction(self.k, self.n_goods)

    def members(self):
        k, n = self.k, self.n_goods
        if k * n * k > MAX_MEMBERS:
            raise CapExceededError(
                f"circle instance would have {k * n * k} desired"
                f" entries, which exceeds the cap of {MAX_MEMBERS}"
            )
        return tuple(f"g{i + 1}" for i in range(n)), [
            BinaryValuation(Bundle.from_indices([(start + j) % n for j in range(k)], n))
            for start in range(n)
        ]


class AdditiveThird(Record):
    """Two groups of three additive agents valuing (2,1,1) rotations."""

    name = "additive-third"
    n_goods = 3
    k = 2
    bound = Fraction(1, 3)

    def members(self):
        rows = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
        return ("x", "y", "z"), [
            AdditiveValuation(tuple(Fraction(v) for v in row)) for row in rows
        ]


class EFcLimit(Record):
    """All-subsets family at r = 2l sized so EF-c fails beyond the budget
    bound: s = l - floor(c/2), two groups, 2l goods per group."""

    c: int
    l: int
    name = "efc-limit"

    def __init__(self, c: int, l: int):
        if c < 0 or l < 1:
            raise ValueError("efc-limit needs c >= 0 and l >= 1")
        if l - c // 2 < 1:
            raise ValueError("efc-limit needs l - floor(c/2) >= 1")
        self._init(c, l)


#: Each generator's spec record by its name; its parameters are the
#: record's fields, and those with a default may be left out.
_SPECS = {cls.name: cls for cls in (ThreeGoodCycle, AllSubsets, Circle,
                                    AdditiveThird, EFcLimit)}


def spec_name(spec) -> str:
    """Canonical textual form, re-parsable by :func:`parse_spec`."""
    _family(spec)  # a TypeError for anything but a spec
    args = ",".join(f"{p}={getattr(spec, p)}" for p in sorted(spec._fields))
    return f"{spec.name}:{args}" if args else spec.name


def parse_spec(text: str):
    """Parse ``"name:key=int,..."`` into a generator spec.

    >>> parse_spec("all-subsets:r=2,s=1,k=2,m=3")
    AllSubsets(r=2, s=1, k=2, m=3)
    >>> parse_spec("three-good-cycle")
    ThreeGoodCycle(k=2)
    """
    name, _, args = text.strip().partition(":")
    name = name.strip()
    if name not in _SPECS:
        import difflib

        hint = difflib.get_close_matches(name, _SPECS, n=1)
        extra = f"; did you mean {hint[0]!r}?" if hint else ""
        raise FormatError(f"unknown generator {quoted(name)}{extra}")
    cls = _SPECS[name]
    kwargs = {}
    for part in filter(None, (p.strip() for p in args.split(","))):
        m = re.fullmatch(r"([a-z]+)\s*=\s*(\d+)", part)
        if not m or m.group(1) not in cls._fields:
            raise FormatError(
                f"bad parameter {quoted(part)} for {name} (expected"
                f" {sorted(cls._fields) or 'none'})"
            )
        if m.group(1) in kwargs:
            raise FormatError(f"parameter {m.group(1)!r} given twice")
        kwargs[m.group(1)] = _int_of_digits(m.group(2))
    missing = set(cls._fields) - set(cls._defaults) - set(kwargs)
    if missing:
        raise FormatError(f"{name} needs parameters {sorted(missing)}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def _family(spec):
    """The generator family ``spec`` names: ``spec`` itself, or for an
    efc-limit spec its all-subsets family.  A TypeError for a non-spec."""
    if not isinstance(spec, tuple(_SPECS.values())):
        raise TypeError(f"unknown generator spec {spec!r}")
    if isinstance(spec, EFcLimit):
        return AllSubsets(2 * spec.l, spec.l - spec.c // 2, 2, 2 * spec.l)
    return spec


def check_space(spec, cap: int) -> None:
    """Raise :class:`CapExceededError` before :func:`generate` builds an
    instance whose allocation space exceeds ``cap``."""
    family = _family(spec)
    _space(family.k, family.n_goods, cap)


def generate(spec) -> Instance:
    """Build the adversarial instance described by ``spec``."""
    family = _family(spec)
    goods, members = family.members()
    return Instance.from_valuations(goods, [members] * family.k)


def negative_bound(spec) -> Fraction:
    """The impossibility bound the generated instance witnesses."""
    return _family(spec).bound


def verify_negative(
    spec, criterion, claimed_bound, cap: int = DEFAULT_CAP, workers: int = 1
) -> bool:
    """Exhaustively confirm that no allocation of the generated instance
    beats ``claimed_bound`` under ``criterion``."""
    inst = generate(spec)
    result = max_h(inst, criterion, cap=cap, workers=workers)
    return result.best_h <= Fraction(claimed_bound)
