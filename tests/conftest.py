"""Shared builders for the test suite."""

import random
from fractions import Fraction

import pytest
from hypothesis import reject, strategies as st

from groupfair import fairness
from groupfair.model import (
    AdditiveValuation,
    BinaryValuation,
    Bundle,
    Instance,
)


def binval(labels, goods):
    """Binary valuation desiring the goods named in ``labels``."""
    idx = {g: i for i, g in enumerate(goods)}
    return BinaryValuation(
        Bundle.from_indices([idx[c] for c in labels], len(goods))
    )


def addval(values):
    return AdditiveValuation(tuple(Fraction(v) for v in values))


def random_binary_instance(rng: random.Random, k: int, m_max=8, n_max=6):
    m = rng.randint(2, m_max)
    goods = tuple(f"g{i}" for i in range(m))
    groups = [
        [
            BinaryValuation(Bundle(rng.randrange(1, 1 << m), m))
            for _ in range(rng.randint(1, n_max))
        ]
        for _ in range(k)
    ]
    return Instance.from_valuations(goods, groups)


def meets_bk(frac: Fraction, r: int, k: int) -> bool:
    """Whether the happy fraction ``frac`` reaches the k-group guarantee
    ``B_k(r, 1) = 1 - 2**(-r/d)``, ``d = k - 1``, exactly: ``p/q`` does
    when ``r <= 0`` or ``q**d >= (q - p)**d * 2**r``."""
    d = k - 1
    p, q = frac.numerator, frac.denominator
    return r <= 0 or q**d >= (q - p) ** d << r


#: Small values for each ``<field>`` of a criterion's shape.
_FIELD_VALUES = {"c": st.integers(0, 5), "q": st.fractions(0, 1, max_denominator=10)}


@st.composite
def criteria(draw):
    """A criterion of any shape with small fields; a draw whose fields its
    class refuses, such as ``1-of-best-0`` or ``fraction-mms:0``, is
    rejected."""
    cls = draw(st.sampled_from(fairness._CRITERIA))
    try:
        return cls(**{field: draw(_FIELD_VALUES[field]) for field in cls._fields})
    except ValueError:
        reject()


GOODS5 = ("v", "w", "x", "y", "z")
GOODS6 = ("u", "v", "w", "x", "y", "z")


@pytest.fixture
def mixed_two_group():
    """The five-good two-group instance behind the picking-protocol goldens:
    group 1 wants one of two maximin parts, group 2 one of its two best."""
    g1 = (
        [binval("vx", GOODS5)] * 2
        + [binval("vxy", GOODS5)]
        + [binval("wxyz", GOODS5)] * 5
        + [binval("wz", GOODS5)] * 3
    )
    g2 = [binval("wxyz", GOODS5)] * 2 + [binval("vz", GOODS5)] * 3
    return Instance.from_valuations(GOODS5, [g1, g2])


@pytest.fixture
def additive_three_groups():
    """Three additive groups over six goods; feeds the line-protocol goldens."""
    g1 = [addval((1, 1, 2, 4, 8, 16))] * 7 + [addval((16, 16, 8, 4, 2, 1))] * 2
    g2 = [addval((1, 1, 1, 3, 3, 4))] * 5 + [addval((4, 4, 3, 1, 3, 1))]
    g3 = [addval((1, 1, 1, 2, 3, 3))] * 9 + [addval((3, 3, 3, 2, 1, 1))] * 3
    return Instance.from_valuations(GOODS6, [g1, g2, g3])
