"""The integer value kernel against the exact ``Fraction`` reference.

Every valuation carries one int form (``scale``, ``int_value`` and
:func:`groupfair.model.int_table`); the predicates, ``mms_share`` and the
oracle's table compile all read it.  These property tests hold each of
them to ``value_reference.py``, which computes the same things with
``Fraction`` values, on binary agents, additive agents with mixed
denominators (so ``scale > 1``) and random monotone tabular agents.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

import value_reference as ref
from groupfair.fairness import (
    MMS,
    EFc,
    FractionMMS,
    OneOfBestC,
    OneOutOfCMMS,
    PositiveMMS,
    PROPc,
    check,
    democratic_report,
    efc_holds,
    _min_after_removal,
    mms_share,
    propc_holds,
)
from groupfair.model import (
    AdditiveValuation,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    TabularValuation,
    bundles_of,
    int_table,
)

_VALUES = st.builds(Fraction, st.integers(0, 9), st.sampled_from((1, 2, 3, 4, 6)))


@st.composite
def _valuations(draw, m: int):
    kind = draw(st.sampled_from(("binary", "additive", "tabular")))
    if kind == "binary":
        return BinaryValuation(Bundle(draw(st.integers(0, (1 << m) - 1)), m))
    if kind == "additive":
        return AdditiveValuation(tuple(draw(st.lists(_VALUES, min_size=m, max_size=m))))
    # each bundle is worth its best one-good-smaller subset plus a nonnegative
    # step, which draws every monotone table; past 6 goods the steps come
    # from one seeded stream, as so many draws overrun an example
    if m <= 6:
        steps = draw(st.lists(_VALUES, min_size=(1 << m) - 1, max_size=(1 << m) - 1))
    else:
        rng = draw(st.randoms(use_true_random=False))
        steps = [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 4, 6)))
                 for _ in range((1 << m) - 1)]
    table = [Fraction(0)] * (1 << m)
    for mask in range(1, 1 << m):
        below = max(table[mask & ~(1 << i)] for i in range(m) if mask >> i & 1)
        table[mask] = below + steps[mask - 1]
    return TabularValuation(tuple(table), m)


@st.composite
def _cases(draw):
    """An instance with k = 2..4 groups over m <= 6 goods, an allocation and
    a goods subset."""
    k = draw(st.integers(2, 4))
    m = draw(st.integers(1, 6))
    groups = [
        draw(st.lists(_valuations(m), min_size=1, max_size=3)) for _ in range(k)
    ]
    inst = Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups)
    assignment = draw(st.lists(st.integers(0, k - 1), min_size=m, max_size=m))
    goods = Bundle(draw(st.integers(0, (1 << m) - 1)), m)
    return inst, Allocation(tuple(assignment), k), goods


def _criteria(k: int) -> list:
    return [
        EFc(0), EFc(1), EFc(2), PROPc(0), PROPc(1), PROPc(k - 1), MMS(),
        OneOutOfCMMS(k), OneOutOfCMMS(k + 1), FractionMMS(Fraction(1, 2)),
        FractionMMS(Fraction(2, 3)), OneOfBestC(1), OneOfBestC(2),
        OneOfBestC(3), PositiveMMS(),
    ]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(lambda m: st.tuples(
    _valuations(m), st.integers(0, (1 << m) - 1))))
def test_int_table_matches_local_reference(case):
    # binary, additive and tabular valuations over up to 12 goods, on the
    # whole set and on a random subset of it
    v, mask = case
    assert [Fraction(x, v.scale) for x in int_table(v, (1 << v.m) - 1)] == (
        ref.value_table(v, v.m)
    )
    local, scale = ref.local_value_table(v, Bundle(mask, v.m))
    assert [Fraction(x, v.scale) for x in int_table(v, mask)] == [
        Fraction(x, scale) for x in local
    ]


@settings(max_examples=100, deadline=None)
@given(_cases())
def test_value_kernel_matches_fraction_reference(case):
    inst, alloc, goods = case
    m, k = inst.m, inst.k
    bundles = bundles_of(alloc)
    for agent in inst.agents():
        v = agent.valuation
        for c in range(1, k + 2):
            for subset in (None, goods):
                share = mms_share(v, c, subset)
                expected = ref.mms_share(v, c, subset)
                assert share == expected and type(share) is type(expected)
        own = bundles[agent.group]
        others = [b for gi, b in enumerate(bundles) if gi != agent.group]
        for c in range(4):
            assert efc_holds(v, own, others, c) == ref.efc_holds(v, own, others, c)
            assert propc_holds(v, own, k, c) == ref.propc_holds(v, own, k, c)
        for criterion in _criteria(k):
            assert check(agent, alloc, criterion) == ref.check(agent, alloc, criterion), (
                agent.label, criterion
            )
    for criterion in _criteria(k):
        assert democratic_report(inst, alloc, criterion) == (
            ref.democratic_report(inst, alloc, criterion)
        )
    per_group = (EFc(1), PROPc(1), MMS(), OneOfBestC(2))[:k]
    assert democratic_report(inst, alloc, per_group) == (
        ref.democratic_report(inst, alloc, per_group)
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 80).flatmap(lambda m: st.tuples(
    st.lists(st.integers(0, 50), min_size=m, max_size=m),
    st.integers(0, (1 << m) - 1), st.integers(0, (1 << m) - 1),
    st.booleans(), st.integers(0, m + 1))))
def test_additive_removal_matches_sorting(case):
    # the additive removal takes the c largest removable values in one walk,
    # and reads the held value off them when every held good is removable
    # (each EF-c call): the same as sorting every removable value
    values, mask, pool, whole, c = case
    v = AdditiveValuation(tuple(values))
    pool = mask if whole else pool
    removable = sorted((v.ints[i] for i in Bundle(mask & pool, v.m)), reverse=True)
    assert _min_after_removal(v, mask, pool, c) == v.int_value(mask) - sum(removable[:c])
