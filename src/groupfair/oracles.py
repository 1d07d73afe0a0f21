"""Exhaustive ground-truth solvers and adversarial instance generators.

:func:`max_h` sweeps every one of the ``k**m`` total allocations and reports
the best achievable democratic fraction (the largest ``h`` such that some
allocation leaves at least ``h`` of every group happy), together with the
lexicographically-smallest witness.  :func:`exists_h` is its short-circuit
decision form.  Binary instances with per-member happiness expressible as an
own-bundle count threshold take a vectorized path (numpy popcounts over
chunked index ranges); everything else goes through per-agent value tables.
numpy is imported by the sweep functions themselves, so importing this
module (and running any CLI command but ``brute``) never loads it.

The generators build the small adversarial instances used to show that the
protocol guarantees cannot be improved: cycles of disapproval, all-subsets
families, circular blocks, and the additive rotation example.
"""

from __future__ import annotations

import itertools
import math
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .budgets import maxh_finite
from .errors import CapExceededError, FormatError
from .fairness import (
    EFc,
    FractionMMS,
    MMS,
    OneOfBestC,
    OneOutOfCMMS,
    PositiveMMS,
    PROPc,
    _best_c_threshold,
    mms_share,
    per_group_criteria,
)
from .model import (
    AdditiveValuation,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
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


def _binary_threshold(criterion, r: int, k: int):
    """Own-count threshold t: a binary agent desiring ``r`` goods is happy
    under ``criterion`` iff it receives at least ``t`` of them.  ``None``
    when happiness is not a pure own-count property (EF-c with 3+ groups)."""
    if isinstance(criterion, EFc):
        if k != 2:
            return None
        return max(0, (r - criterion.c + 1) // 2)
    if isinstance(criterion, PROPc):
        return max(0, -((criterion.c - r) // k))
    if isinstance(criterion, MMS):
        return r // k
    if isinstance(criterion, OneOutOfCMMS):
        if criterion.c < k:
            raise ValueError("1-out-of-c MMS needs c >= number of groups")
        return r // criterion.c
    if isinstance(criterion, FractionMMS):
        q = criterion.q
        return -((-q.numerator * (r // k)) // q.denominator)
    if isinstance(criterion, OneOfBestC):
        return 1 if r >= criterion.c else 0
    if isinstance(criterion, PositiveMMS):
        return 1 if r >= k else 0
    raise TypeError(f"unknown criterion {criterion!r}")


def _try_binary_compile(inst: Instance, crits):
    """Desired-mask and threshold arrays for the vectorized path, or None."""
    if not inst.is_binary():
        return None
    import numpy as np

    masks, thresholds = [], []
    for g, grp in enumerate(inst.groups):
        gm, gt = [], []
        for agent in grp:
            mask = agent.valuation.desired.mask
            t = _binary_threshold(crits[g], mask.bit_count(), inst.k)
            if t is None:
                return None
            gm.append(mask)
            gt.append(t)
        masks.append(np.array(gm, dtype=np.uint64))
        thresholds.append(np.array(gt, dtype=np.uint64))
    return masks, thresholds


def _value_table(valuation, m: int):
    """Values of every subset of the full good set, indexed by bitmask."""
    if isinstance(valuation, BinaryValuation):
        desired = valuation.desired.mask
        return [(mask & desired).bit_count() for mask in range(1 << m)]
    if isinstance(valuation, AdditiveValuation):
        table = [Fraction(0)] * (1 << m)
        for mask in range(1, 1 << m):
            low = mask & -mask
            table[mask] = table[mask ^ low] + valuation.values[low.bit_length() - 1]
        return table
    return [valuation.value(Bundle(mask, m)) for mask in range(1 << m)]


def _drop_table(values, m: int, c: int):
    """``out[mask]`` = min value of ``mask`` after deleting min(c, |mask|)
    goods (the envious agent's most favourable removal)."""
    cur = list(values)
    for _ in range(c):
        nxt = list(cur)
        for mask in range(1, 1 << m):
            best = nxt[mask]
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                cand = cur[mask ^ low]
                if cand < best:
                    best = cand
            nxt[mask] = best
        cur = nxt
    return cur


def _prop_benchmark_table(values, m: int, c: int):
    """``out[own]`` = min value of the whole set after deleting up to ``c``
    goods the agent does not own (monotone valuations: delete exactly ``c``,
    i.e. the cheapest superset of ``own`` of size ``m - c``)."""
    keep = m - c
    out = list(values)
    if keep <= 0:
        return out
    by_pop = sorted(range(1 << m), key=lambda mask: -mask.bit_count())
    full = (1 << m) - 1
    g = list(values)
    for mask in by_pop:
        pop = mask.bit_count()
        if pop >= keep:
            g[mask] = values[mask]
            continue
        best = None
        rest = full ^ mask
        while rest:
            low = rest & -rest
            rest ^= low
            cand = g[mask | low]
            if best is None or cand < best:
                best = cand
        g[mask] = best
    for mask in range(1 << m):
        out[mask] = values[mask] if mask.bit_count() > keep else g[mask]
    return out


class _GenericChecker:
    """Per-agent verdict machinery for the table-driven enumeration path."""

    def __init__(self, inst: Instance, crits):
        m = inst.m
        k = inst.k
        if m > 16:
            raise CapExceededError(
                f"generic oracle path supports at most 16 goods, got {m}"
            )
        # happy[g][j] is either ("own", table) -- verdict from own mask only
        # -- or ("efc", values, drop) -- compare own value against the
        # other bundles' post-removal values.
        self.happy = []
        for g, grp in enumerate(inst.groups):
            crit = crits[g]
            row = []
            for agent in grp:
                v = agent.valuation
                values = _value_table(v, m)
                if isinstance(crit, EFc):
                    row.append(("efc", values, _drop_table(values, m, crit.c)))
                    continue
                if isinstance(crit, PROPc):
                    bench = _prop_benchmark_table(values, m, crit.c)
                    table = [k * values[x] >= bench[x] for x in range(1 << m)]
                elif isinstance(crit, MMS):
                    share = mms_share(v, k)
                    table = [values[x] >= share for x in range(1 << m)]
                elif isinstance(crit, OneOutOfCMMS):
                    if crit.c < k:
                        raise ValueError(
                            "1-out-of-c MMS needs c >= number of groups"
                        )
                    share = mms_share(v, crit.c)
                    table = [values[x] >= share for x in range(1 << m)]
                elif isinstance(crit, FractionMMS):
                    share = crit.q * mms_share(v, k)
                    table = [values[x] >= share for x in range(1 << m)]
                elif isinstance(crit, OneOfBestC):
                    t = _best_c_threshold(v, crit.c)
                    table = [values[x] >= t for x in range(1 << m)]
                elif isinstance(crit, PositiveMMS):
                    if mms_share(v, k) == 0:
                        table = [True] * (1 << m)
                    else:
                        table = [values[x] > 0 for x in range(1 << m)]
                else:
                    raise TypeError(f"unknown criterion {crit!r}")
                row.append(("own", table))
            self.happy.append(row)

    def group_happy(self, g: int, bundle_masks) -> int:
        own = bundle_masks[g]
        count = 0
        for kind, *tabs in self.happy[g]:
            if kind == "own":
                count += tabs[0][own]
            else:
                values, drop = tabs
                mine = values[own]
                ok = True
                for h, mask in enumerate(bundle_masks):
                    if h != g and mine < drop[mask]:
                        ok = False
                        break
                count += ok
        return count


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


def _binary_chunk_scores(lo, hi, k, m, masks, thresholds, scale):
    """Integer scores min_g(happy_g * scale_g) for allocation indices
    [lo, hi); scale_g = lcm(sizes) // n_g keeps everything integral."""
    import numpy as np

    idx = np.arange(lo, hi, dtype=np.uint64)
    group_masks = []
    for g in range(k):
        mg = np.zeros(len(idx), dtype=np.uint64)
        for i in range(m):
            digit = (idx // np.uint64(k ** (m - 1 - i))) % np.uint64(k)
            mg |= (digit == np.uint64(g)).astype(np.uint64) << np.uint64(i)
        group_masks.append(mg)
    score = None
    for g in range(k):
        happy = np.zeros(len(idx), dtype=np.int64)
        for dj, tj in zip(masks[g], thresholds[g]):
            happy += np.bitwise_count(group_masks[g] & dj) >= tj
        part = happy * scale[g]
        score = part if score is None else np.minimum(score, part)
    return score


def _sweep(inst: Instance, crits, cap: int, workers: int, target=None):
    """Shared enumeration core.

    Without ``target``: returns (best_score, best_idx, N, total).  With
    ``target`` (an integer score): additionally stops at the first index
    whose score reaches it, returning (score, idx, N, examined) with
    ``idx = None`` if the target is never reached.
    """
    import numpy as np

    total = _space(inst, cap)
    k, m = inst.k, inst.m
    sizes = inst.sizes
    N = math.lcm(*sizes)
    scale = np.array([N // n for n in sizes], dtype=np.int64)

    compiled = _try_binary_compile(inst, crits)
    if compiled is not None:
        masks, thresholds = compiled

        def chunk_scores(lo, hi):
            return _binary_chunk_scores(lo, hi, k, m, masks, thresholds, scale)

    else:
        checker = _GenericChecker(inst, crits)

        def chunk_scores(lo, hi):
            out = np.empty(hi - lo, dtype=np.int64)
            bundle_masks = [0] * k
            for pos, digits in enumerate(
                itertools.islice(
                    itertools.product(range(k), repeat=m), lo, hi
                )
            ):
                for g in range(k):
                    bundle_masks[g] = 0
                for i, d in enumerate(digits):
                    bundle_masks[d] |= 1 << i
                out[pos] = min(
                    checker.group_happy(g, bundle_masks) * int(scale[g])
                    for g in range(k)
                )
            return out

    bounds = [(lo, min(lo + _CHUNK, total)) for lo in range(0, total, _CHUNK)]

    def reduce_chunk(scores, lo):
        pos = int(np.argmax(scores))
        return int(scores[pos]), lo + pos

    best_score, best_idx = -1, 0
    if target is None:
        if workers > 1 and len(bounds) > 1:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                results = pool.map(
                    lambda b: reduce_chunk(chunk_scores(*b), b[0]), bounds
                )
                for val, idx in results:
                    if val > best_score:
                        best_score, best_idx = val, idx
        else:
            for lo, hi in bounds:
                val, idx = reduce_chunk(chunk_scores(lo, hi), lo)
                if val > best_score:
                    best_score, best_idx = val, idx
        return best_score, best_idx, N, total

    for lo, hi in bounds:
        scores = chunk_scores(lo, hi)
        hits = scores >= target
        if hits.any():
            pos = int(np.argmax(hits))
            return int(scores[pos]), lo + pos, N, lo + pos + 1
    return -1, None, N, total


def max_h(
    inst: Instance, criterion, cap: int = DEFAULT_CAP, workers: int = 1
) -> OracleResult:
    """Best democratic fraction over all ``k**m`` allocations.

    Ties are broken toward the lexicographically smallest assignment vector
    (good 0 most significant), so the witness is reproducible and
    independent of ``workers``.  Raises :class:`CapExceededError` when the
    space exceeds ``cap``.
    """
    crits = per_group_criteria(criterion, inst.k)
    best_score, best_idx, N, total = _sweep(inst, crits, cap, workers)
    return OracleResult(
        best_h=Fraction(best_score, N),
        witness=_decode(best_idx, inst.k, inst.m),
        allocations_examined=total,
    )


def exists_h(
    inst: Instance, criterion, h, cap: int = DEFAULT_CAP, workers: int = 1
) -> ExistsResult:
    """Is some allocation ``h``-democratic fair?  Short-circuits at the
    first witness in enumeration order."""
    target = Fraction(h)
    if not 0 <= target <= 1:
        raise ValueError("h must be a rational in [0, 1]")
    crits = per_group_criteria(criterion, inst.k)
    total = _space(inst, cap)
    sizes = inst.sizes
    N = math.lcm(*sizes)
    # integer score threshold: score/N >= p/q  <=>  score*q >= p*N
    needed = -((-target.numerator * N) // target.denominator)
    score, idx, N, examined = _sweep(inst, crits, cap, workers, target=needed)
    if idx is None:
        return ExistsResult(False, None, examined)
    return ExistsResult(True, _decode(idx, inst.k, inst.m), examined)


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
        if math.comb(n_goods, spec.r) * spec.k > 1_000_000:
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
