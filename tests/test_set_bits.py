"""The one reader of a mask's goods, ``model._set_bits``, and the listings
that read it, each against a plain scan of the mask bit by bit."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from groupfair.model import (
    AdditiveValuation,
    BinaryValuation,
    Bundle,
    Instance,
    _set_bits,
    binarize_instance,
)
from groupfair.protocols import _near_unanimous


def per_bit(mask: int) -> list:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


@st.composite
def _masks(draw, width: int):
    """A mask below ``2**width``: random bytes (dense), a few set bits
    (sparse), or every bit."""
    kind = draw(st.sampled_from(("dense", "sparse", "full")))
    if kind == "dense":
        data = draw(st.binary(min_size=(width + 7) // 8, max_size=(width + 7) // 8))
        return int.from_bytes(data, "little") & (1 << width) - 1
    if kind == "sparse" and width:
        return sum({1 << i for i in draw(st.lists(st.integers(0, width - 1), max_size=12))})
    return (1 << width) - 1 if kind == "full" else 0


@given(st.integers(0, 4096).flatmap(_masks))
def test_set_bits_matches_a_per_bit_scan(mask):
    assert _set_bits(mask) == per_bit(mask)
    assert list(Bundle(mask, mask.bit_length())) == per_bit(mask)


@settings(deadline=None)
@given((st.integers(1, 2000) | st.just(2000)).flatmap(
           lambda m: st.tuples(st.just(m), _masks(m))),
       st.integers(0, 2**32))
def test_int_value_is_the_exact_sum(width_mask, seed):
    m, mask = width_mask
    rng = random.Random(seed)  # one seed, not a drawn stream: thousands of values
    values = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 4, 6))) for _ in range(m)]
    v = AdditiveValuation(tuple(values))
    exact = sum((values[i] for i in per_bit(mask)), Fraction(0))
    assert Fraction(v.int_value(mask), v.scale) == v.value(Bundle(mask, m)) == exact


@given(st.integers(1, 300).flatmap(
           lambda m: st.tuples(st.just(m), st.lists(_masks(m), min_size=1, max_size=6))),
       st.integers(1, 10))
def test_binarize_keeps_the_c_lowest_desired_goods(width_masks, c):
    m, masks = width_masks
    inst = Instance.from_valuations(
        [f"g{i}" for i in range(m)], [[BinaryValuation(Bundle(x, m)) for x in masks]])
    out = binarize_instance(inst, c)
    kept = [sum(1 << i for i in per_bit(x)[:c]) for x in masks]
    assert [a.valuation.desired.mask for a in out.groups[0]] == kept
    assert (out is inst) == (kept == masks)


@given((st.integers(1, 16) | st.integers(1, 300)).flatmap(lambda m: st.tuples(
           _masks(m), st.lists(_masks(m), min_size=1, max_size=8))),
       st.fractions(0, 1, max_denominator=6))
def test_near_unanimous_matches_a_per_good_count(candidates_masks, share):
    candidates, masks = candidates_masks
    expected = None
    for good in per_bit(candidates):
        desiring = sum(x >> good & 1 for x in masks)
        if desiring and desiring * share.denominator >= share.numerator * len(masks):
            expected = (good, desiring)
            break
    assert _near_unanimous(masks, candidates, share) == expected
