"""Every record class of the package against a frozen-dataclass twin.

The package's value types share :class:`groupfair.model.Record` instead of
``@dataclass(frozen=True)``.  Each is held here to a twin that is a frozen
dataclass: the pre-change definition in ``record_reference.py`` where the
class checks or normalises its arguments, else one made by
``dataclasses.make_dataclass`` over the class's ``_fields`` and defaults.
For the same arguments both must give the same ``repr`` and ``hash``,
agree on ``==`` across every pair, raise ``TypeError`` for missing or
extra arguments and ``AttributeError`` on assignment and deletion.
"""

import dataclasses
import itertools
from fractions import Fraction

import pytest

import record_reference
from groupfair import fairness, model, oracles, protocols
from groupfair.fairness import EFc, FairnessReport, OneOfBestC
from groupfair.model import (
    AdditiveValuation,
    Agent,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    Record,
)
from groupfair.protocols import ProtocolTrace, TurnRecord

B5, B3 = Bundle(0b101, 3), Bundle(0b011, 3)
ADD = AdditiveValuation((1, "1/2", 2))
AGENTS = ((Agent(0, 0, BinaryValuation(B5)),), (Agent(1, 0, BinaryValuation(B3)),))
ALLOC = Allocation((0, 1, 0), 2)
REPORT = FairnessReport(((True,), (False,)))
TURN = TurnRecord(1, 0, (0, 1, 2), ((2, 1, Fraction(1, 2)),),
                  ((0, Fraction(1, 2)), (1, 0), (2, Fraction(1, 2))), 0,
                  (Fraction(1, 2), Fraction(-1)), ((Fraction(-1, 2),), (Fraction(-1),)))
INST = Instance(("a", "b", "c"), AGENTS)


def call(*args, **kwargs):
    return args, kwargs


#: Argument lists per record class; equal and unequal records both occur.
CASES = {
    fairness.EFc: [call(0), call(1), call(c=1)],
    fairness.PROPc: [call(1), call(2)],
    fairness.MMS: [call()],
    fairness.OneOutOfCMMS: [call(2), call(c=3)],
    fairness.FractionMMS: [call("1/2"), call(Fraction(1, 2)), call(0.25), call(q="3/4")],
    fairness.OneOfBestC: [call(1), call(2)],
    fairness.PositiveMMS: [call()],
    fairness.SFunction: [call(EFc(1)), call(EFc(1), 2), call(OneOfBestC(2), k=3)],
    fairness.FairnessReport: [
        call([[1, 0], [True]]), call(((True, False), (1,))), call(verdicts=[[0]]),
    ],
    model.Bundle: [call(0b101, 3), call(5, 3), call(0, 1), call(mask=3, m=2)],
    model.BinaryValuation: [call(B5), call(Bundle(5, 3)), call(desired=B3)],
    model.AdditiveValuation: [
        call((1, "1/2", 0.25)), call([1, Fraction(1, 2), "0.25"]), call(values=(0, 0)),
    ],
    model.TabularValuation: [
        call((0, "1/2", "3/4", 1), 2), call([0, 0.5, 0.75, 1], m=2), call((0, 1), 1),
    ],
    model.Agent: [call(0, 0, ADD), call(0, 1, ADD), call(group=1, index=0, valuation=ADD)],
    model.Instance: [
        call(["a", "b", "c"], [list(g) for g in AGENTS]),
        call(("a", "b", "c"), AGENTS, None),
        call(("a", "b", "c"), AGENTS, [0, 1, 2]),
        call(goods=["a", "b", "c"], groups=AGENTS, order=(2, 0, 1)),
    ],
    model.Allocation: [call([0, 1, 0], 2), call((0, 1, 0), 2), call(assignment=[1], k=2)],
    oracles.OracleResult: [call(Fraction(1, 2), ALLOC, 8), call(Fraction(1), ALLOC, 8)],
    oracles.ExistsResult: [call(True, ALLOC, 3), call(False, None, 8)],
    oracles.ThreeGoodCycle: [call(), call(2), call(k=3)],
    oracles.AllSubsets: [call(2, 1, 2, 2), call(r=3, s=2, k=2, m=2)],
    oracles.Circle: [call(2), call(k=3)],
    oracles.AdditiveThird: [call()],
    oracles.EFcLimit: [call(1, 2), call(c=0, l=1)],
    protocols.TurnRecord: [
        call(*(getattr(TURN, f) for f in TurnRecord._fields)),
        call(**{f: getattr(TURN, f) for f in TurnRecord._fields}),
        call(*(getattr(TURN, f) for f in TurnRecord._fields[:-1]), ()),
    ],
    protocols.ProtocolTrace: [call("rwav2", ()), call("rwav2", (TURN,))],
    protocols.PrefixRecord: [
        call((0,), (1, 2), ((0, 1, 2),)), call((0,), (1, 2), ((0, 1, 2),), None),
        call((0,), (1, 2), ((0, 1, 2),), claimed_by=1),
    ],
    protocols.LineTrace: [call("line2", "ef-1", (), 1), call("linek", "prop-2", (), 2)],
    protocols.MoveRecord: [call(0, 0, 1), call(good=1, from_group=0, to_group=1)],
    protocols.SearchTrace: [call("identical", ()), call("identical", ((0, 0, 1),))],
    protocols.EnhancedSplit: [call(0, 1, 3, 4), call(1, 1, 3, 4)],
    protocols.UnanimousStep: [call(0, 1, 3, 3), call(0, 2, 3, 3)],
    protocols.BestKTrace: [
        call((), None, (0, 1), (0,)), call((), None, (0, 1), (0,), INST),
    ],
    protocols.RunResult: [
        call("rwav2", ALLOC, REPORT, (Fraction(1, 2),) * 2, (EFc(1),) * 2),
        call("cwav2", ALLOC, REPORT, (0, 0), (EFc(1),) * 2,
             ProtocolTrace("cwav2", ()), (Fraction(1, 3),) * 2),
    ],
}


def record_classes():
    return {
        cls
        for module in (model, fairness, oracles, protocols)
        for cls in vars(module).values()
        if isinstance(cls, type) and issubclass(cls, Record) and cls is not Record
    }


def twin(cls):
    """The frozen-dataclass twin of a record class."""
    if hasattr(record_reference, cls.__name__):
        return getattr(record_reference, cls.__name__)
    spec = [
        (f, object, dataclasses.field(default=cls._defaults[f]))
        if f in cls._defaults else (f, object)
        for f in cls._fields
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def test_every_record_class_has_cases():
    assert record_classes() == set(CASES)
    assert len(CASES) == 33


@pytest.mark.parametrize("cls", sorted(CASES, key=lambda c: c.__qualname__),
                         ids=lambda c: c.__qualname__)
def test_record_matches_dataclass_twin(cls):
    ref = twin(cls)
    compared = tuple(f.name for f in dataclasses.fields(ref) if f.compare)
    assert cls._fields == compared
    pairs = [(cls(*a, **kw), ref(*a, **kw)) for a, kw in CASES[cls]]
    for new, old in pairs:
        assert repr(new) == repr(old)
        assert hash(new) == hash(old)
        assert new.__eq__(old) is NotImplemented and new != old
        if hasattr(old, "ints"):  # the int form, outside the fields
            assert (new.scale, new.ints) == (old.scale, old.ints)
    for (new1, old1), (new2, old2) in itertools.product(pairs, repeat=2):
        assert (new1 == new2) == (old1 == old2)
        assert (new1 != new2) == (old1 != old2)

    new, old = pairs[0]
    values = tuple(getattr(new, f) for f in cls._fields)
    assert cls(*values) == new
    required = sum(1 for f in cls._fields if f not in cls._defaults)
    bad_calls = [call(*values, None), call(*values, bogus=1)]
    if required:
        bad_calls.append(call(*values[:required - 1]))
    if values:
        bad_calls.append(call(*values, **{cls._fields[0]: values[0]}))
    for a, kw in bad_calls:
        for make in (cls, ref):
            with pytest.raises(TypeError):
                make(*a, **kw)

    for record in (new, old):
        for name in (*cls._fields, "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert tuple(getattr(new, f) for f in cls._fields) == values
