"""Exhaustive ground-truth solvers and adversarial instance generators.

:func:`max_h` sweeps every one of the ``k**m`` total allocations and reports
the best achievable democratic fraction (the largest ``h`` such that some
allocation leaves at least ``h`` of every group happy), together with the
lexicographically-smallest witness.  :func:`exists_h` is its short-circuit
decision form.

Both sweep the index space in numpy chunks with one decode: each index
becomes one own-bundle mask per group.  One of two scoring rules then
counts each group's happy members.  When every member is binary and its
criterion is an own-count threshold, the binary rule compares popcounts
against the thresholds.  Otherwise the table rule gathers from per-group
count tables over own-bundle masks, plus exact rank tables for EF-c
members, all compiled from each valuation's
:func:`groupfair.model.int_table`.  What each criterion means comes from
:mod:`groupfair.fairness`.
numpy is imported by the sweep functions themselves, and the thread pool
by :func:`max_h` only when ``workers > 1``, so importing this module (and
running any CLI command but ``brute``) loads neither.

The generators build the small adversarial instances used to show that the
protocol guarantees cannot be improved: cycles of disapproval, all-subsets
families, circular blocks, and the additive rotation example.
"""

from __future__ import annotations

import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass
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
    Instance,
    MAX_MEMBERS,
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

DEFAULT_CAP = 1 << 24
_CHUNK = 1 << 16


@dataclass(frozen=True)
class OracleResult:
    """Best democratic fraction over the full allocation space.

    ``witness`` is the lexicographically smallest assignment vector (good 0
    most significant) achieving ``best_h``; its democratic report has
    ``h == best_h`` by construction.
    """

    best_h: Fraction
    witness: Allocation
    allocations_examined: int


@dataclass(frozen=True)
class ExistsResult:
    """Decision-form result: was an ``h``-democratic allocation found?"""

    found: bool
    witness: object  # Allocation | None
    allocations_examined: int

    def __bool__(self) -> bool:
        return self.found


# ---------------------------------------------------------------------------
# happiness compilation


def _binary_rule(inst: Instance, crits):
    """The binary scoring rule: ``happy(g, masks)`` counts the members of
    group ``g`` whose own bundle holds their own-count threshold of desired
    goods, one entry per distinct desired set.  None unless every member
    is binary and every criterion has such a threshold."""
    if not inst.is_binary():
        return None
    import numpy as np

    rows = []
    for g, grp in enumerate(inst.groups):
        row = []
        for mask, count in Counter(a.valuation.desired.mask for a in grp).items():
            t = _binary_threshold(crits[g], mask.bit_count(), inst.k)
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


def _drop_table(values, m: int, c: int):
    """``out[mask]`` = min value of ``mask`` after deleting min(c, |mask|)
    goods (the envious agent's most favourable removal)."""
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


def _table_rule(inst: Instance, crits):
    """The table scoring rule: ``happy(g, masks)`` from lookup tables over
    own-bundle masks, for any valuation and criterion.

    Each group has one count table: for every mask, how many members whose
    verdict depends on their own bundle alone are happy holding it.  Each
    EF-c member (one entry per distinct valuation, with its multiplicity)
    has its value table and :func:`_drop_table` as ranks over their union,
    so envy is an exact int comparison against every other group's bundle.
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
        counts = np.zeros(1 << m, dtype=np.int64)
        pairs = []
        for v, count in Counter(a.valuation for a in grp).items():
            values = int_table(v, (1 << m) - 1)
            if isinstance(crit, EFc):
                drop = _drop_table(values, m, crit.c)
                rank = {x: i for i, x in enumerate(sorted({*values, *drop}))}
                pairs.append(
                    (count, np.array([rank[x] for x in values]),
                     np.array([rank[x] for x in drop]))
                )
                continue
            if isinstance(crit, PROPc):
                bench = _prop_benchmark_table(values, m, crit.c)
                ok = [k * x >= b for x, b in zip(values, bench)]
            else:
                bar = _own_bar(v, crit, k)
                ok = [x >= bar for x in values]
            counts += count * np.array(ok, dtype=np.int64)
        own.append(counts)
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

    return happy


# ---------------------------------------------------------------------------
# enumeration


def _space(inst: Instance, cap: int) -> int:
    total = inst.k**inst.m
    if total > cap:
        raise CapExceededError(
            f"allocation space {inst.k}^{inst.m} = {total} exceeds cap {cap}"
        )
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


def _group_masks(lo: int, hi: int, k: int, m: int):
    """Own-bundle masks of allocation indices [lo, hi): row ``g`` holds
    group ``g``'s.  Good 0 is the most significant base-``k`` digit; each
    index is split into its high and low ``m // 2`` digits, which are
    looked up in two small tables."""
    import numpy as np

    a = m // 2
    high, low = np.divmod(np.arange(lo, hi, dtype=np.int64), k**a)
    return _digit_masks(k, 0, m - a)[:, high] | _digit_masks(k, m - a, a)[:, low]


def _chunk_scorer(inst: Instance, crits, cap: int):
    """``(N, bounds, chunk_scores)`` for both sweeps: ``chunk_scores(lo,
    hi)`` decodes allocation indices [lo, hi) to group masks, counts each
    group's happy members with the binary or the table rule, and returns
    the integer scores min_g(happy_g * N / n_g), N = lcm(sizes)."""
    import numpy as np

    total = _space(inst, cap)
    k, m = inst.k, inst.m
    N = math.lcm(*inst.sizes)
    scale = [N // n for n in inst.sizes]
    happy = _binary_rule(inst, crits) or _table_rule(inst, crits)

    def chunk_scores(lo, hi):
        masks = _group_masks(lo, hi, k, m)
        return np.min([happy(g, masks) * scale[g] for g in range(k)], axis=0)

    bounds = [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]
    return N, bounds, chunk_scores


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


@dataclass(frozen=True)
class ThreeGoodCycle:
    """Three goods; every group has three members, each disapproving one
    distinct good (so each desires the other two)."""

    k: int = 2

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("three-good-cycle needs k >= 2")


@dataclass(frozen=True)
class AllSubsets:
    """``k*m`` goods; every group has one member per ``r``-subset."""

    r: int
    s: int
    k: int
    m: int

    def __post_init__(self):
        if not (self.s >= 1 and self.r >= self.s):
            raise ValueError("all-subsets needs r >= s >= 1")
        if self.k < 2 or self.m < 1:
            raise ValueError("all-subsets needs k >= 2 and m >= 1")
        if self.r > self.k * self.m:
            raise ValueError("all-subsets needs r <= k*m goods")


@dataclass(frozen=True)
class Circle:
    """``2k - 1`` goods in a circle; every group has ``2k - 1`` members,
    each desiring a distinct window of ``k`` consecutive goods."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("circle needs k >= 2")


@dataclass(frozen=True)
class AdditiveThird:
    """Two groups of three additive agents valuing (2,1,1) rotations."""


@dataclass(frozen=True)
class EFcLimit:
    """All-subsets family at r = 2l sized so EF-c fails beyond the budget
    bound: s = l - floor(c/2), two groups, 2l goods per group."""

    c: int
    l: int

    def __post_init__(self):
        if self.c < 0 or self.l < 1:
            raise ValueError("efc-limit needs c >= 0 and l >= 1")
        if self.l - self.c // 2 < 1:
            raise ValueError("efc-limit needs l - floor(c/2) >= 1")


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


def generate(spec) -> Instance:
    """Build the adversarial instance described by ``spec``."""
    if isinstance(spec, ThreeGoodCycle):
        goods = ("x", "y", "z")
        members = [
            BinaryValuation(Bundle.from_indices([j for j in range(3) if j != i], 3))
            for i in range(3)
        ]
        return Instance.from_valuations(goods, [list(members)] * spec.k)
    if isinstance(spec, AllSubsets):
        n_goods = spec.k * spec.m
        if math.comb(n_goods, spec.r) * spec.k > MAX_MEMBERS:
            raise CapExceededError(
                f"all-subsets instance would have {math.comb(n_goods, spec.r)}"
                f" members per group"
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
