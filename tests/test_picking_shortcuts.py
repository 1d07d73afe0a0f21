"""Work the picking protocols skip, held to the results of not skipping it.

The weighted-approval loop builds its ``ProtocolTrace.turns`` on first
read; ``best_k_protocol`` counts each group's desires once and reuses its
binarized instance when the sub-instance would equal it;
``binarize_instance`` returns its input when no valuation changes.  Each is
compared here with the eager or rebuilding version on the same inputs.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from groupfair.fairness import EFc, OneOutOfCMMS, PROPc
from groupfair.model import (
    AdditiveValuation,
    BinaryValuation,
    Bundle,
    Instance,
    binarize_instance,
)
from groupfair.protocols import (
    BestKTrace,
    ProtocolTrace,
    RunResult,
    UnanimousStep,
    best_k_protocol,
    cwav2,
    rwav2,
    rwav2_enhanced,
    rwavk,
)


@st.composite
def binary_instances(draw, k=None, m_max=6, n_max=5, ordered=False):
    k = k if k is not None else draw(st.integers(2, 4))
    m = draw(st.integers(1, m_max))
    groups = [
        [BinaryValuation(Bundle(mask, m)) for mask in draw(
            st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=n_max))]
        for _ in range(k)
    ]
    order = draw(st.permutations(range(m))) if ordered else None
    return Instance.from_valuations(tuple(f"g{i}" for i in range(m)), groups, order)


def picking_runs(inst, seed):
    """Two equal runs of each picking protocol the instance allows."""
    if inst.k == 2:
        yield lambda: rwav2(inst, (EFc(1), OneOutOfCMMS(2)), first_group=seed % 2)
        yield lambda: cwav2(inst, PROPc(1), seed)
    yield lambda: rwavk(inst, 1 + seed % 4)


@pytest.mark.filterwarnings("ignore:rwavk with c=")
@settings(max_examples=80, deadline=None)
@given(binary_instances(), st.integers(0, 99))
def test_deferred_trace_equals_the_eager_one(inst, seed):
    for run in picking_runs(inst, seed):
        done = run()
        eager = ProtocolTrace(done.trace.kind, done.trace.turns)
        result = RunResult(*(eager if f == "trace" else getattr(done, f)
                             for f in RunResult._fields))
        # fresh runs, whose turns are first read by ==, hash and repr
        assert run().trace == eager and eager == run().trace
        assert hash(run().trace) == hash(eager)
        assert repr(run().trace) == repr(eager)
        assert run() == result and result == run()
        assert hash(run()) == hash(result)
        assert pickle.loads(pickle.dumps(run())) == result
        assert copy.deepcopy(run().trace) == eager


def test_deferred_trace_is_a_plain_record():
    trace = rwav2(Instance.from_valuations(
        ("a", "b"), ([BinaryValuation(Bundle(3, 2))],) * 2), EFc(0)).trace
    with pytest.raises(AttributeError):
        trace.other
    assert [t.pick for t in trace.turns] == [0, 1]
    assert trace.turns is trace.turns
    with pytest.raises(AttributeError):
        trace.turns = ()


# ---------------------------------------------------------------------------
# best-k


def reference_best_k(inst):
    """``best_k_protocol`` rescanning every mask for every good at every
    step and always rebuilding the sub-instance."""
    k = inst.k
    binary = binarize_instance(inst, k)
    masks = [[a.valuation.desired.mask for a in grp] for grp in binary.groups]
    active, remaining, steps = list(range(k)), (1 << inst.m) - 1, []
    assignment = [None] * inst.m
    while len(active) >= 3:
        step = next((
            UnanimousStep(g, good, desiring, len(masks[g]))
            for g in active for good in range(inst.m)
            if remaining >> good & 1
            and 3 * (desiring := sum(x >> good & 1 for x in masks[g])) >= len(masks[g])
        ), None)
        if step is None:
            break
        assignment[step.good] = step.group
        remaining &= ~(1 << step.good)
        active.remove(step.group)
        steps.append(step)
    left = [i for i in range(inst.m) if remaining >> i & 1]
    base = sub = None
    if left:
        sub = Instance.from_valuations([inst.goods[i] for i in left], [
            [BinaryValuation(Bundle.from_indices(
                (j for j, i in enumerate(left) if x >> i & 1), len(left)))
             for x in masks[g]]
            for g in active
        ])
        base = (rwav2_enhanced(sub, c=2) if len(active) == 2
                else rwavk(sub, c=len(active)))
        for local, owner in enumerate(base.allocation.assignment):
            assignment[left[local]] = active[owner]
    return tuple(assignment), BestKTrace(
        tuple(steps), base, tuple(left), tuple(active) if left else (), sub)


@pytest.mark.filterwarnings("ignore:rwavk with c=")
@settings(max_examples=120, deadline=None)
@given(st.one_of(binary_instances(ordered=True), binary_instances(k=3, m_max=8)))
def test_best_k_matches_the_rescanning_version(inst):
    result = best_k_protocol(inst)
    assignment, trace = reference_best_k(inst)
    assert result.allocation.assignment == assignment
    assert result.trace == trace


def test_best_k_reuses_the_binarized_instance():
    # three groups, no good wanted by a third of any: rwavk runs on all of
    # them, on the instance binarized once
    goods = tuple(f"g{i}" for i in range(12))
    groups = [[BinaryValuation(Bundle(1 << (4 * g + j), 12)) for j in range(4)]
              for g in range(3)]
    inst = Instance.from_valuations(goods, groups)
    trace = best_k_protocol(inst).trace
    assert trace.steps == () and trace.base_instance is inst


# ---------------------------------------------------------------------------
# binarization


def test_binarize_returns_its_input_when_nothing_changes():
    small = BinaryValuation(Bundle(0b0101, 4))
    inst = Instance.from_valuations(("a", "b", "c", "d"), ([small], [small]), (3, 2, 1, 0))
    assert binarize_instance(inst, 2) is inst
    assert binarize_instance(inst, 1) != inst
    additive = Instance.from_valuations(
        ("a", "b"), ([AdditiveValuation((Fraction(1), Fraction(0)))],) * 2)
    out = binarize_instance(additive, 1)
    assert out is not additive and out.is_binary()
    assert binarize_instance(out, 1) is out
