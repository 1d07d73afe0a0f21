"""Each path that reads :attr:`groupfair.model.Instance.runs` against its
per-member reference.

A run is a maximal stretch of a group's consecutive members that share one
valuation object.  The democratic report, the line protocols' polls and
the picking trace's member rows ask once per run what they asked once per
member; these tests hold each to the per-member answer, on instances with
counted entries, repeated and alternating valuations, and equal valuations
that are distinct objects, and count the verdicts asked.
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import criteria
from groupfair import fairness, protocols
from groupfair.errors import CapExceededError
from groupfair.fairness import (
    MMS,
    EFc,
    OneOfBestC,
    OneOutOfCMMS,
    PROPc,
    check,
    democratic_report,
)
from groupfair.model import Allocation, BinaryValuation, Bundle, Instance, parse_instance
from groupfair.protocols import _render_trace, cwav2, line2, linek, rwav2, rwavk
from test_model import _repetitive_instances
from trace_reference import reference_render_turns


def _outcome(compute):
    """``compute()``, or the type and text of the error it raised."""
    try:
        return compute()
    except (ValueError, CapExceededError) as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(_repetitive_instances(), st.data())
def test_report_is_check_on_every_member(inst, data):
    assignment = data.draw(st.lists(st.integers(0, inst.k - 1),
                                    min_size=inst.m, max_size=inst.m))
    alloc = Allocation(tuple(assignment), inst.k)
    crits = tuple(data.draw(criteria()) for _ in range(inst.k))
    expected = _outcome(lambda: [[check(agent, alloc, crits[g]) for agent in grp]
                                 for g, grp in enumerate(inst.groups)])
    got = _outcome(lambda: [list(verdicts) for verdicts in
                            democratic_report(inst, alloc, crits).verdicts])
    assert got == expected


@st.composite
def _counted_instances(draw, k):
    """``k`` binary groups of counted runs over a pool of a few masks, some
    of them equal masks in distinct objects."""
    m = draw(st.integers(1, 6))
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=4))
    pool = [BinaryValuation(Bundle(mask, m)) for mask in masks]
    runs = st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 4)),
                    min_size=1, max_size=5)
    groups = [[v for v, n in draw(runs) for _ in range(n)] for _ in range(k)]
    return Instance.from_valuations([f"g{i}" for i in range(m)], groups)


CRITERIA = st.sampled_from([EFc(1), PROPc(1), MMS(), OneOfBestC(1), OneOfBestC(2),
                            OneOutOfCMMS(2)])
PICKING_RUNS = {
    "rwav2": (st.just(2), lambda data, inst: rwav2(
        inst, data.draw(CRITERIA), first_group=data.draw(st.integers(0, 1)))),
    "cwav2": (st.just(2), lambda data, inst: cwav2(
        inst, data.draw(CRITERIA), seed=data.draw(st.integers(0, 99)))),
    "rwavk": (st.integers(2, 4), lambda data, inst: rwavk(
        inst, data.draw(st.integers(1, inst.k + 1)))),
}


@pytest.mark.filterwarnings("ignore:rwavk with c=")
@pytest.mark.parametrize("name", PICKING_RUNS)
def test_trace_rows_per_run_match_rows_per_member(name):
    groups, run = PICKING_RUNS[name]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def compare(data):
        inst = data.draw(_counted_instances(data.draw(groups)))
        result = run(data, inst)
        text = _render_trace(result, inst)
        with mock.patch.object(protocols, "_render_turns", reference_render_turns):
            assert text == _render_trace(result, inst)

    compare()


# group 1 alternates two additive valuations and repeats a binary one; two
# equal additive entries are two objects, so two runs
RUNS_DOC = """{"goods": ["a", "b", "c", "d", "e", "f"], "groups": [
  [{"type": "additive", "values": [1, 2, 3, 4, 5, 6], "count": 3},
   {"type": "binary", "desired": ["a", "b", "c"], "count": 4},
   {"type": "binary", "desired": ["a", "b", "c"], "count": 2},
   {"type": "additive", "values": [6, 5, 4, 3, 2, 1], "count": 5},
   {"type": "additive", "values": [1, 2, 3, 4, 5, 6]}],
  [{"type": "binary", "desired": ["e", "f"], "count": 7},
   {"type": "additive", "values": [1, 1, 1, 1, 1, 1], "count": 2},
   {"type": "additive", "values": [1, 1, 1, 1, 1, 1], "count": 2}],
  [{"type": "binary", "desired": ["c"], "count": 3},
   {"type": "additive", "values": [0, 0, 1, 1, 0, 0], "count": 4}]
]}"""


def _counting(monkeypatch, module) -> list:
    """Patch ``module._holds`` to log the group of every verdict it gives."""
    groups, holds = [], fairness._holds

    def counted(v, group, bundles, criterion):
        groups.append(group)
        return holds(v, group, bundles, criterion)

    monkeypatch.setattr(module, "_holds", counted)
    return groups


def test_report_asks_once_per_run(monkeypatch):
    inst = parse_instance(RUNS_DOC)
    assert [len(runs) for runs in inst.runs] == [4, 3, 2]
    asked = _counting(monkeypatch, fairness)
    alloc = Allocation((0, 1, 2, 0, 1, 2), 3)
    report = democratic_report(inst, alloc, PROPc(1))
    assert asked == [g for g, runs in enumerate(inst.runs) for _ in runs]
    assert report.sizes == (15, 11, 7)


@pytest.mark.parametrize("protocol, k", [(line2, 2), (linek, 3)])
def test_each_line_poll_asks_once_per_run(protocol, k, monkeypatch):
    doc = parse_instance(RUNS_DOC)
    inst = Instance(doc.goods, doc.groups[:k])
    asked = _counting(monkeypatch, protocols)
    result = protocol(inst)
    polled = [g for rec in result.trace.records for g, _, _ in rec.counts]
    assert len(polled) > k
    assert asked == [g for g in polled for _ in inst.runs[g]]
