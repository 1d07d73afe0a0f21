"""Exhaustive ground-truth solvers and adversarial instance generators.

:func:`max_h` sweeps every one of the ``k**m`` total allocations and reports
the best achievable democratic fraction (the largest ``h`` such that some
allocation leaves at least ``h`` of every group happy), together with the
lexicographically-smallest witness.  :func:`exists_h` is its short-circuit
decision form.

Both sweep the index space in blocks with one decode: an index is a row
of its high base-``k`` digits and a column of its low ones, each group's
bundle is the OR of a row mask and a column mask from two small tables,
and a block is a run of whole rows (or part of one row).  One of two
scoring rules then counts each group's happy members over the block.
When every member is binary and its criterion is an own-count threshold,
the binary rule counts desired goods per half -- ``popcount(d & bundle)``
is a row count plus a column count -- and gets a group's happy count from
per-row and per-column tables in one matrix product, run in float64 and
exact because every partial sum is an integer no larger than the group's
size (see :func:`_binary_rule`).  Otherwise the table rule gathers from
per-group count tables over own-bundle masks, plus exact rank tables for
EF-c members, all compiled from each valuation's
:func:`groupfair.model.int_table`.  Scores are exact int64 throughout.
What each criterion means comes from :mod:`groupfair.fairness`.
numpy is imported by the sweep functions themselves, and the thread pool
by :func:`max_h` only when ``workers > 1``, so importing this module (and
running any CLI command but ``brute``) loads neither.

The generators build the small adversarial instances used to show that the
protocol guarantees cannot be improved: cycles of disapproval, all-subsets
families, circular blocks, and the additive rotation example.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from fractions import Fraction

from .budgets import maxh_finite
from .errors import CapExceededError, FormatError
from .fairness import (
    EFc,
    PROPc,
    _binary_threshold,
    _own_bar,
    per_group_criteria,
)
from .model import (
    AdditiveValuation,
    Allocation,
    BinaryValuation,
    Bundle,
    DEFAULT_CAP,
    Instance,
    MAX_MEMBERS,
    Record,
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

_CHUNK = 1 << 16
#: Most goods, and most desired entries (members times the goods each
#: desires), of an all-subsets instance.  Past the member cap, these bound
#: its time, memory and output: masks over many goods cost time per bit,
#: and ``efc-limit:c=1,l=5`` (20 goods, 3,695,120 entries) takes seconds.
MAX_SUBSET_GOODS = 64
MAX_SUBSET_ENTRIES = 1 << 22
#: most entries in one piece of a binary-rule table (1 MiB of float64)
_PIECE = 1 << 17


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


def _binary_rule(inst: Instance, crits, high, low):
    """The binary scoring rule: ``counts(rows, cols)`` gives each group's
    happy count over a block of high-digit rows by low-digit columns from
    per-half tables and one matrix product.  None unless every member is
    binary and every criterion has an own-count threshold.

    A member desiring ``d`` with threshold ``t`` holds ``H_d[h] + L_d[l]``
    desired goods at allocation ``(h, l)``: ``H_d[h]`` of them among the
    high goods of row ``h``, ``L_d[l]`` among the low goods of column
    ``l``.  So a group's happy count over the block is
    ``base[h] + (A @ B)[h, l]`` with, per distinct desired set ``d`` of
    multiplicity ``count_d``,

    * ``base[h] = sum_d count_d * [t_d - H_d[h] <= 0]``,
    * ``A[h, (d, v)] = count_d * [t_d - H_d[h] == v]`` and
    * ``B[(d, v), l] = [L_d[l] >= v]``

    for ``v = 1 .. |d & low goods|`` (``L_d`` never exceeds that).  The
    ``(d, v)`` dimension is taken in pieces of at most ``_PIECE`` entries
    per block side, so no array grows with the number of distinct sets.

    The sums run in float64 and are cast to int64 exactly: every entry is
    0, 1 or a member count, and each ``d`` adds to at most one term of a
    happy count, so every partial sum is an integer no larger than the
    group's size, below ``MAX_MEMBERS`` < 2**53.
    """
    if not inst.is_binary():
        return None
    import numpy as np

    low_goods = ((1 << inst.m // 2) - 1) << (inst.m - inst.m // 2)
    tables = []
    for g, grp in enumerate(inst.groups):
        weights = Counter(a.valuation.desired.mask for a in grp)
        thresholds = [
            _binary_threshold(crits[g], mask.bit_count(), inst.k) for mask in weights
        ]
        if None in thresholds:
            return None
        desired = np.array(list(weights), dtype=np.uint64)
        thresholds = np.array(thresholds, dtype=np.int64)
        weights = np.array(list(weights.values()), dtype=np.float64)
        # one (d, v) pair for each v = 1 .. |d & low goods|
        spans = np.bitwise_count(desired & np.uint64(low_goods)).astype(np.int64)
        of = np.repeat(np.arange(len(spans)), spans)
        v = np.arange(len(of)) - np.repeat(np.cumsum(spans) - spans, spans) + 1
        tables.append((
            (desired, thresholds, weights),
            (desired[of], thresholds[of], weights[of], v),
        ))

    def counts(rows, cols):
        out = []
        for g, ((desired, thresholds, weights), pairs) in enumerate(tables):
            row, col = high[g, rows], low[g, cols]
            piece = max(1, _PIECE // max(len(row), len(col)))
            base = np.zeros(len(row))
            for s in range(0, len(desired), piece):
                held = np.bitwise_count(row[:, None] & desired[s:s + piece])
                base += (thresholds[s:s + piece] <= held) @ weights[s:s + piece]
            happy = np.zeros((len(row), len(col)))
            for s in range(0, len(pairs[0]), piece):
                d, t, w, v = (x[s:s + piece] for x in pairs)
                a = (t - np.bitwise_count(row[:, None] & d) == v) * w
                b = np.bitwise_count(d[:, None] & col) >= v[:, None]
                happy += a @ b.astype(np.float64)
            out.append((happy + base[:, None]).astype(np.int64).ravel())
        return out

    return counts


def _drop_table(rank, m: int, c: int):
    """``out[mask]`` = min of ``rank`` over ``mask`` after deleting
    min(c, |mask|) goods (the envious agent's most favourable removal);
    ``rank`` is an int64 array over all ``2**m`` masks."""
    import numpy as np

    cur = rank
    for _ in range(c):
        nxt = cur.copy()
        for i in range(m):
            # masks as (higher bits, bit i, lower bits): [:, 1] has bit i set
            without, view = cur.reshape(-1, 2, 1 << i)[:, 0], nxt.reshape(-1, 2, 1 << i)
            np.minimum(view[:, 1], without, out=view[:, 1])
        cur = nxt
    return cur


def _prop_benchmark_table(values, m: int, c: int):
    """``out[own]`` = min value of the whole set after deleting up to ``c``
    goods the agent does not own (monotone valuations: delete exactly ``c``,
    i.e. the cheapest superset of ``own`` of size ``m - c``)."""
    keep = m - c
    out = list(values)
    # larger masks first, so each smaller one reads finished supersets
    for mask in sorted(range(1 << m), key=lambda mask: -mask.bit_count()):
        if mask.bit_count() < keep:
            out[mask] = min(out[mask | 1 << i] for i in range(m) if not mask >> i & 1)
    return out


def _table_rule(inst: Instance, crits, high, low):
    """The table scoring rule: ``counts(rows, cols)`` gives each group's
    happy count over a block from lookup tables over own-bundle masks, for
    any valuation and criterion.

    Each group has one count table: for every mask, how many members whose
    verdict depends on their own bundle alone are happy holding it.  Each
    EF-c member (one entry per distinct valuation, with its multiplicity)
    has the ranks of its values and their :func:`_drop_table`, so envy is
    an exact int comparison against every other group's bundle.
    """
    import numpy as np

    m, k = inst.m, inst.k
    if m > 16:
        raise CapExceededError(
            f"generic oracle path supports at most 16 goods, got {m}"
        )
    own, envy = [], []
    for g, grp in enumerate(inst.groups):
        crit = crits[g]
        tally = np.zeros(1 << m, dtype=np.int64)
        pairs = []
        for v, count in Counter(a.valuation for a in grp).items():
            values = int_table(v, (1 << m) - 1)
            if isinstance(crit, EFc):
                # each dropped value is the value of some mask: ranks suffice
                order = {x: i for i, x in enumerate(sorted(set(values)))}
                rank = np.array([order[x] for x in values], dtype=np.int64)
                pairs.append((count, rank, _drop_table(rank, m, crit.c)))
                continue
            if isinstance(crit, PROPc):
                bench = _prop_benchmark_table(values, m, crit.c)
                ok = [k * x >= b for x, b in zip(values, bench)]
            else:
                bar = _own_bar(v, crit, k)
                ok = [x >= bar for x in values]
            tally += count * np.array(ok, dtype=np.int64)
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
        return [happy(g, masks) for g in range(k)]

    return counts


# ---------------------------------------------------------------------------
# enumeration


def _space(k: int, m: int, cap: int) -> int:
    total = k**m
    if total > cap:
        raise CapExceededError(f"allocation space {k}^{m} = {total} exceeds cap {cap}")
    return total


def _decode(idx: int, k: int, m: int) -> Allocation:
    digits = []
    for i in range(m):
        digits.append((idx // k ** (m - 1 - i)) % k)
    return Allocation(tuple(digits), k)


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
    """Index ranges [lo, hi) of about ``_CHUNK`` allocations each: whole
    rows of ``width`` low-digit columns, or pieces of one row when a row
    is wider than ``_CHUNK``."""
    if width <= _CHUNK:
        step = _CHUNK // width * width
        return [(lo, min(lo + step, total)) for lo in range(0, total, step)]
    return [
        (lo, min(lo + _CHUNK, row + width))
        for row in range(0, total, width)
        for lo in range(row, row + width, _CHUNK)
    ]


def _chunk_scorer(inst: Instance, crits, cap: int):
    """``(N, bounds, chunk_scores)`` for both sweeps: ``chunk_scores(lo,
    hi)`` counts each group's happy members over allocation indices
    [lo, hi) with the binary or the table rule, and returns the integer
    scores min_g(happy_g * N / n_g), N = lcm(sizes), in index order.

    Good 0 is the most significant base-``k`` digit.  Each index is a row
    ``h`` of its high ``m - m // 2`` digits and a column ``l`` of its low
    ``m // 2``, so group ``g``'s bundle is ``high[g, h] | low[g, l]``, and
    every range in ``bounds`` is a block of whole rows or part of one row.
    """
    import numpy as np

    total = _space(inst.k, inst.m, cap)
    k, m = inst.k, inst.m
    N = math.lcm(*inst.sizes)
    if N >= 1 << 63:  # scores reach N, in int64
        raise CapExceededError(
            f"the oracle's exact int64 scores need the lcm of the group sizes"
            f" ({N}) to be at most 2^63 - 1"
        )
    scale = [N // n for n in inst.sizes]
    a = m // 2
    width = k**a
    high, low = _digit_masks(k, 0, m - a), _digit_masks(k, m - a, a)
    counts = _binary_rule(inst, crits, high, low) or _table_rule(
        inst, crits, high, low
    )

    def chunk_scores(lo, hi):
        row, col = divmod(lo, width)
        if hi - lo < width:
            rows, cols = slice(row, row + 1), slice(col, col + hi - lo)
        else:
            rows, cols = slice(row, hi // width), slice(None)
        scores = [happy * s for happy, s in zip(counts(rows, cols), scale)]
        return functools.reduce(np.minimum, scores)

    return N, _blocks(total, width), chunk_scores


def max_h(
    inst: Instance, criterion, cap: int = DEFAULT_CAP, workers: int = 1
) -> OracleResult:
    """Best democratic fraction over all ``k**m`` allocations.

    Ties are broken toward the lexicographically smallest assignment vector
    (good 0 most significant), so the witness is reproducible and
    independent of ``workers``, the number of threads that score chunks.
    Raises :class:`CapExceededError` when the space exceeds ``cap``.
    """
    crits = per_group_criteria(criterion, inst.k)
    N, bounds, chunk_scores = _chunk_scorer(inst, crits, cap)

    def best_in(bound):
        scores = chunk_scores(*bound)
        pos = int(scores.argmax())
        return int(scores[pos]), bound[0] + pos

    if workers > 1 and len(bounds) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(best_in, bounds))
    else:
        results = map(best_in, bounds)
    # max keeps the first of equal scores: the smallest index
    best_score, best_idx = max(results, key=lambda result: result[0])
    return OracleResult(
        best_h=Fraction(best_score, N),
        witness=_decode(best_idx, inst.k, inst.m),
        allocations_examined=inst.k**inst.m,
    )


def exists_h(inst: Instance, criterion, h, cap: int = DEFAULT_CAP) -> ExistsResult:
    """Is some allocation ``h``-democratic fair?  Short-circuits at the
    first witness in enumeration order."""
    target = Fraction(h)
    if not 0 <= target <= 1:
        raise ValueError("h must be a rational in [0, 1]")
    crits = per_group_criteria(criterion, inst.k)
    N, bounds, chunk_scores = _chunk_scorer(inst, crits, cap)
    # integer score threshold: score/N >= p/q  <=>  score*q >= p*N
    needed = -((-target.numerator * N) // target.denominator)
    for lo, hi in bounds:
        hits = chunk_scores(lo, hi) >= needed
        if hits.any():
            idx = lo + int(hits.argmax())
            return ExistsResult(True, _decode(idx, inst.k, inst.m), idx + 1)
    return ExistsResult(False, None, inst.k**inst.m)


# ---------------------------------------------------------------------------
# adversarial generators


class ThreeGoodCycle(Record):
    """Three goods; every group has three members, each disapproving one
    distinct good (so each desires the other two)."""

    k: int = 2

    def __init__(self, k: int = 2):
        if k < 2:
            raise ValueError("three-good-cycle needs k >= 2")
        self._init(k)


class AllSubsets(Record):
    """``k*m`` goods; every group has one member per ``r``-subset."""

    r: int
    s: int
    k: int
    m: int

    def __init__(self, r: int, s: int, k: int, m: int):
        if not (s >= 1 and r >= s):
            raise ValueError("all-subsets needs r >= s >= 1")
        if k < 2 or m < 1:
            raise ValueError("all-subsets needs k >= 2 and m >= 1")
        if r > k * m:
            raise ValueError("all-subsets needs r <= k*m goods")
        self._init(r, s, k, m)


class Circle(Record):
    """``2k - 1`` goods in a circle; every group has ``2k - 1`` members,
    each desiring a distinct window of ``k`` consecutive goods."""

    k: int

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("circle needs k >= 2")
        self._init(k)


class AdditiveThird(Record):
    """Two groups of three additive agents valuing (2,1,1) rotations."""


class EFcLimit(Record):
    """All-subsets family at r = 2l sized so EF-c fails beyond the budget
    bound: s = l - floor(c/2), two groups, 2l goods per group."""

    c: int
    l: int

    def __init__(self, c: int, l: int):
        if c < 0 or l < 1:
            raise ValueError("efc-limit needs c >= 0 and l >= 1")
        if l - c // 2 < 1:
            raise ValueError("efc-limit needs l - floor(c/2) >= 1")
        self._init(c, l)


_SPEC_PARAMS = {
    "three-good-cycle": (ThreeGoodCycle, {"k"}, {"k"}),
    "all-subsets": (AllSubsets, {"r", "s", "k", "m"}, set()),
    "circle": (Circle, {"k"}, set()),
    "additive-third": (AdditiveThird, set(), set()),
    "efc-limit": (EFcLimit, {"c", "l"}, set()),
}


def spec_name(spec) -> str:
    """Canonical textual form, re-parsable by :func:`parse_spec`."""
    for name, (cls, params, _) in _SPEC_PARAMS.items():
        if isinstance(spec, cls):
            if not params:
                return name
            args = ",".join(
                f"{p}={getattr(spec, p)}" for p in sorted(params)
            )
            return f"{name}:{args}"
    raise TypeError(f"unknown generator spec {spec!r}")


def parse_spec(text: str):
    """Parse ``"name:key=int,..."`` into a generator spec.

    >>> parse_spec("all-subsets:r=2,s=1,k=2,m=3")
    AllSubsets(r=2, s=1, k=2, m=3)
    >>> parse_spec("three-good-cycle")
    ThreeGoodCycle(k=2)
    """
    name, _, args = text.strip().partition(":")
    name = name.strip()
    if name not in _SPEC_PARAMS:
        import difflib

        hint = difflib.get_close_matches(name, _SPEC_PARAMS, n=1)
        extra = f"; did you mean {hint[0]!r}?" if hint else ""
        raise FormatError(f"unknown generator {name!r}{extra}")
    cls, params, optional = _SPEC_PARAMS[name]
    kwargs = {}
    for part in filter(None, (p.strip() for p in args.split(","))):
        m = re.fullmatch(r"([a-z]+)\s*=\s*(\d+)", part)
        if not m or m.group(1) not in params:
            raise FormatError(
                f"bad parameter {part!r} for {name} (expected"
                f" {sorted(params) or 'none'})"
            )
        kwargs[m.group(1)] = int(m.group(2))
    missing = params - optional - set(kwargs)
    if missing:
        raise FormatError(f"{name} needs parameters {sorted(missing)}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise FormatError(str(exc)) from None


def check_space(spec, cap: int) -> None:
    """Raise :class:`CapExceededError` before :func:`generate` builds an
    instance whose allocation space exceeds ``cap``.  A space of more than
    4,096 bits is left to :func:`generate`: every such spec has over 64
    goods or a million members, which its own caps refuse."""
    k = getattr(spec, "k", 2)  # additive-third and efc-limit have two groups
    if isinstance(spec, AllSubsets):
        m = k * spec.m
    elif isinstance(spec, Circle):
        m = 2 * k - 1
    elif isinstance(spec, EFcLimit):
        m = 4 * spec.l
    else:  # three-good-cycle and additive-third
        m = 3
    if m * k.bit_length() <= 4096:
        _space(k, m, cap)


def _comb_at_most(n: int, r: int, limit: int):
    """``math.comb(n, r)`` if it is at most ``limit``, else None, found
    without computing a binomial much larger than ``limit``: ``C(n, i)``
    grows with ``i`` up to ``min(r, n - r)``, so the running product stops
    once it passes."""
    c = 1
    for i in range(min(r, n - r)):
        c = c * (n - i) // (i + 1)  # C(n, i + 1), exact
        if c > limit:
            return None
    return c if c <= limit else None


def generate(spec) -> Instance:
    """Build the adversarial instance described by ``spec``."""
    if isinstance(spec, ThreeGoodCycle):
        if 3 * spec.k > MAX_MEMBERS:
            raise CapExceededError(
                f"three-good-cycle instance would have more than {MAX_MEMBERS}"
                f" members"
            )
        goods = ("x", "y", "z")
        members = [
            BinaryValuation(Bundle.from_indices([j for j in range(3) if j != i], 3))
            for i in range(3)
        ]
        return Instance.from_valuations(goods, [list(members)] * spec.k)
    if isinstance(spec, AllSubsets):
        n_goods = spec.k * spec.m
        per_group = _comb_at_most(n_goods, spec.r, MAX_MEMBERS // spec.k)
        if per_group is None:
            raise CapExceededError(
                f"all-subsets instance would have more than {MAX_MEMBERS}"
                f" members"
            )
        if n_goods > MAX_SUBSET_GOODS:
            raise CapExceededError(
                f"all-subsets instance would have {n_goods} goods, which"
                f" exceeds the cap of {MAX_SUBSET_GOODS}"
            )
        entries = per_group * spec.k * spec.r
        if entries > MAX_SUBSET_ENTRIES:
            raise CapExceededError(
                f"all-subsets instance would have {entries} desired entries,"
                f" which exceeds the cap of {MAX_SUBSET_ENTRIES}"
            )
        goods = tuple(f"g{i + 1}" for i in range(n_goods))
        members = [
            BinaryValuation(Bundle.from_indices(subset, n_goods))
            for subset in itertools.combinations(range(n_goods), spec.r)
        ]
        return Instance.from_valuations(goods, [list(members)] * spec.k)
    if isinstance(spec, Circle):
        n = 2 * spec.k - 1
        if spec.k * n * spec.k > MAX_MEMBERS:
            raise CapExceededError(
                f"circle instance would have {spec.k * n * spec.k} desired"
                f" entries, which exceeds the cap of {MAX_MEMBERS}"
            )
        goods = tuple(f"g{i + 1}" for i in range(n))
        members = [
            BinaryValuation(
                Bundle.from_indices([(start + j) % n for j in range(spec.k)], n)
            )
            for start in range(n)
        ]
        return Instance.from_valuations(goods, [list(members)] * spec.k)
    if isinstance(spec, AdditiveThird):
        goods = ("x", "y", "z")
        rows = [(2, 1, 1), (1, 2, 1), (1, 1, 2)]
        members = [
            AdditiveValuation(tuple(Fraction(v) for v in row)) for row in rows
        ]
        return Instance.from_valuations(goods, [list(members), list(members)])
    if isinstance(spec, EFcLimit):
        inner = AllSubsets(
            r=2 * spec.l, s=spec.l - spec.c // 2, k=2, m=2 * spec.l
        )
        return generate(inner)
    raise TypeError(f"unknown generator spec {spec!r}")


def negative_bound(spec, criterion=None) -> Fraction:
    """The impossibility bound the generated instance witnesses."""
    if isinstance(spec, ThreeGoodCycle):
        return Fraction(2, 3)
    if isinstance(spec, AllSubsets):
        return maxh_finite(spec.r, spec.s, spec.k, spec.m)
    if isinstance(spec, Circle):
        return Fraction(spec.k, 2 * spec.k - 1)
    if isinstance(spec, AdditiveThird):
        return Fraction(1, 3)
    if isinstance(spec, EFcLimit):
        return maxh_finite(2 * spec.l, spec.l - spec.c // 2, 2, 2 * spec.l)
    raise TypeError(f"unknown generator spec {spec!r}")


def verify_negative(
    spec, criterion, claimed_bound, cap: int = DEFAULT_CAP, workers: int = 1
) -> bool:
    """Exhaustively confirm that no allocation of the generated instance
    beats ``claimed_bound`` under ``criterion``."""
    inst = generate(spec)
    result = max_h(inst, criterion, cap=cap, workers=workers)
    return result.best_h <= Fraction(claimed_bound)
