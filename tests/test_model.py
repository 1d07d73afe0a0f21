"""Model-layer tests: bundles, valuations, instances, JSON round-trips."""

import itertools
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from groupfair.cli import main
from groupfair.errors import CapExceededError, FormatError
from groupfair.model import (
    MAX_MEMBERS,
    AdditiveValuation,
    Agent,
    Allocation,
    BinaryValuation,
    Bundle,
    Instance,
    TabularValuation,
    _valuation_doc,
    binarize_instance,
    bundles_of,
    parse_allocation,
    parse_instance,
    parse_rational,
    rational_doc,
    serialize_allocation,
    serialize_instance,
)

from conftest import addval, binval
from parse_reference import reference_parse_instance


# ---------------------------------------------------------------------------
# bundles


def test_bundle_basics():
    b = Bundle.from_indices([0, 2], 4)
    assert list(b) == [0, 2]
    assert len(b) == 2
    assert 2 in b and 1 not in b and 7 not in b
    assert list(b.complement()) == [1, 3]
    assert b.add(1).mask == 0b0111
    assert b.remove(2).mask == 0b0001
    assert b.issubset(Bundle.full(4))
    assert not Bundle.full(4).issubset(b)
    assert list(b | Bundle.from_indices([1], 4)) == [0, 1, 2]
    assert list(b & Bundle.from_indices([2, 3], 4)) == [2]
    assert list(b - Bundle.from_indices([2, 3], 4)) == [0]
    assert not Bundle.empty(4)
    assert Bundle.full(4)


def test_bundle_space_mismatch():
    with pytest.raises(ValueError):
        Bundle.from_indices([0], 3) | Bundle.from_indices([0], 4)
    with pytest.raises(ValueError):
        Bundle(1 << 3, 3)
    with pytest.raises(ValueError):
        Bundle.from_indices([5], 3)


# ---------------------------------------------------------------------------
# valuations


def test_binary_valuation():
    v = BinaryValuation(Bundle.from_indices([0, 2], 3))
    assert v.value(Bundle.from_indices([0, 1, 2], 3)) == 2
    assert v.value(Bundle.empty(3)) == 0
    assert [v.int_value(1 << i) for i in range(3)] == [1, 0, 1]


def test_additive_valuation():
    v = AdditiveValuation((1, Fraction(1, 2), 2))
    assert v.value(Bundle.full(3)) == Fraction(7, 2)
    assert [v.int_value(1 << i) for i in range(3)] == [2, 1, 4]  # scale 2
    with pytest.raises(ValueError):
        AdditiveValuation((1, -1))


def test_tabular_valuation():
    # unit-demand on two goods
    v = TabularValuation((0, 1, 1, 1), 2)
    assert v.value(Bundle.full(2)) == 1
    assert [v.int_value(1 << i) for i in range(2)] == [1, 1]
    with pytest.raises(ValueError):
        TabularValuation((0, 1, 1), 2)  # wrong size
    with pytest.raises(ValueError):
        TabularValuation((1, 1, 1, 1), 2)  # empty bundle not 0
    with pytest.raises(ValueError):
        TabularValuation((0, 2, 1, 1), 2)  # not monotone
    with pytest.raises(ValueError):
        TabularValuation((0,) * (1 << 17), 17)


# ---------------------------------------------------------------------------
# instances and allocations


def test_instance_validation():
    with pytest.raises(ValueError):
        Instance.from_valuations((), ((binval("", "v"),),))
    with pytest.raises(ValueError):
        Instance.from_valuations(("v", "v"), ((binval("v", "vv"),),))
    with pytest.raises(ValueError):
        Instance.from_valuations(("v", "w"), ())
    with pytest.raises(ValueError):
        Instance.from_valuations(("v", "w"), ((),))
    with pytest.raises(ValueError):  # valuation over the wrong m
        Instance.from_valuations(("v", "w"), ((binval("v", "vwx"),),))
    with pytest.raises(ValueError):  # order not a permutation
        Instance.from_valuations(
            ("v", "w"), ((binval("v", "vw"),),), order=(0, 0)
        )
    with pytest.raises(ValueError):  # comma would break tabular keys
        Instance.from_valuations(("a,b",), ((BinaryValuation(Bundle(1, 1)),),))


def test_instance_accessors():
    inst = Instance.from_valuations(
        ("v", "w", "x"),
        ((binval("vx", "vwx"), binval("w", "vwx")), (binval("x", "vwx"),)),
    )
    assert inst.m == 3 and inst.k == 2 and inst.sizes == (2, 1)
    assert inst.is_binary()
    assert [a.label for a in inst.agents()] == ["1.1", "1.2", "2.1"]
    assert inst.index_of("x") == 2
    with pytest.raises(FormatError):
        inst.index_of("q")
    assert inst.labels(inst.bundle(["x", "v"])) == ["v", "x"]
    assert inst.labels((2, 0, 1)) == ["x", "v", "w"]  # any run of indices, in its order
    assert inst.order == (0, 1, 2)


def test_index_of_reads_the_label_index():
    inst = Instance.from_valuations(
        ("v", "w"), ((binval("v", "vw"),), (binval("w", "vw"),)))
    assert inst.good_index == {"v": 0, "w": 1}
    assert "good_index" not in repr(inst)  # an attribute, not a field
    for label in (1, ["v"]):
        message = f"^unknown good label {re.escape(repr(label))}$"
        with pytest.raises(FormatError, match=message):
            inst.index_of(label)
        with pytest.raises(FormatError, match=message):
            parse_allocation(json.dumps({"bundles": [["v", label], ["w"]]}), inst)


def test_goods_padded_with_whitespace_are_refused():
    # a tabular key strips each of its labels, so it could never name " a"
    with pytest.raises(ValueError, match=r"^bad good label ' a'$"):
        Instance.from_valuations((" a", "b"), [[TabularValuation((0, 1, 1, 2), 2)]])
    # whitespace inside a label stays, and round-trips through tabular keys
    inst = Instance.from_valuations(("a b", "c"), [[TabularValuation((0, 1, 1, 2), 2)]])
    text = serialize_instance(inst)
    assert json.loads(text)["groups"][0][0]["values"]["a b,c"] == 2
    assert parse_instance(text) == inst


def test_allocation_round_trip():
    alloc = Allocation((0, 1, 0, 1), 2)
    b0, b1 = bundles_of(alloc)
    assert list(b0) == [0, 2] and list(b1) == [1, 3]
    assert Allocation.from_bundles([b0, b1]) == alloc
    with pytest.raises(ValueError):
        Allocation.from_bundles([b0, b0])
    with pytest.raises(ValueError):
        Allocation.from_bundles([b0, Bundle.empty(4)])
    with pytest.raises(ValueError):
        Allocation((0, 2), 2)


# ---------------------------------------------------------------------------
# rationals


def test_parse_rational():
    assert parse_rational(3) == 3
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(0.51) == Fraction(51, 100)  # decimal, not binary
    for bad in (True, "x", "1/0", None, [1]):
        with pytest.raises(FormatError):
            parse_rational(bad)


def test_parse_rational_bounds_decimal_exponents():
    # only just above the bound: a larger exponent would build a huge int
    for bad in ("1e1001", "-2.5E+1001", "1e-1001", "3e0_001_001"):
        with pytest.raises(FormatError, match="exponent"):
            parse_rational(bad)
    assert parse_rational("25e-2") == Fraction(1, 4)


def test_rational_doc():
    assert rational_doc(Fraction(3, 4)) == "3/4"
    assert rational_doc(Fraction(8, 4)) == 2
    assert rational_doc(Fraction(0)) == 0


@given(st.fractions(max_denominator=10**6))
def test_rational_doc_round_trips(f):
    assert parse_rational(rational_doc(f)) == f


# ---------------------------------------------------------------------------
# instance JSON


INSTANCE_DOC = """{
  "goods": ["v", "w", "x"],
  "groups": [
    [{"type": "binary", "desired": ["v", "x"], "count": 3},
     {"type": "additive", "values": [1, "1/2", 0.25]}],
    [{"type": "tabular",
      "values": {"": 0, "v": 1, "w": 1, "x": 0, "vw": 1, "v,x": 1,
                 "w,x": 1, "v,w,x": 1}}]
  ],
  "order": ["x", "w", "v"]
}"""


def test_parse_instance_document():
    inst = parse_instance(INSTANCE_DOC)
    assert inst.sizes == (4, 1)
    assert inst.order == (2, 1, 0)
    a, b, c, d = inst.groups[0]
    assert a.valuation == b.valuation == c.valuation
    assert d.valuation.values == (1, Fraction(1, 2), Fraction(1, 4))
    tab = inst.groups[1][0].valuation
    assert tab.value(inst.bundle(["w", "x"])) == 1
    assert tab.value(inst.bundle(["x"])) == 0


def test_serialize_instance_round_trip_and_count_compression():
    inst = parse_instance(INSTANCE_DOC)
    text = serialize_instance(inst)
    doc = json.loads(text)
    assert doc["groups"][0][0]["count"] == 3
    assert "count" not in doc["groups"][0][1]
    assert doc["order"] == ["x", "w", "v"]
    again = parse_instance(text)
    assert again == inst


BIN_V = {"type": "binary", "desired": ["v"]}
BIN_W = {"type": "binary", "desired": ["w"]}


@pytest.mark.parametrize("groups, expected", [
    # adjacent equal entries merge, their counts summed
    ([[{**BIN_V, "count": 2}, BIN_V], [BIN_W]],
     [[{**BIN_V, "count": 3}], [BIN_W]]),
    # equal members apart stay apart; a single member has no count
    ([[BIN_V, BIN_W, BIN_V], [{"type": "binary", "desired": []}]],
     [[BIN_V, BIN_W, BIN_V], [{"type": "binary", "desired": []}]]),
    # one member of each kind
    ([[BIN_W, {"type": "additive", "values": [1, 0.5]}],
      [{"type": "tabular", "values": {"": 0, "v": "1/3", "w": 0.5, "v,w": 1}}]],
     [[BIN_W, {"type": "additive", "values": [1, "1/2"]}],
      [{"type": "tabular", "values": {"": 0, "v": "1/3", "w": "1/2", "v,w": 1}}]]),
], ids=["adjacent", "apart", "kinds"])
def test_serialize_instance_text(groups, expected):
    text = json.dumps({"goods": ["v", "w"], "groups": groups})
    assert serialize_instance(parse_instance(text)) == json.dumps(
        {"goods": ["v", "w"], "groups": expected}, indent=2
    )


def test_parse_instance_errors():
    bad = [
        "{",  # invalid JSON
        "[]",  # not an object
        '{"goods": [], "groups": [[]]}',
        '{"goods": ["v"], "groups": []}',
        '{"goods": ["v"], "groups": [[]]}',
        '{"goods": ["v"], "groups": [[{"type": "binary"}]]}',
        '{"goods": ["v"], "groups": [[{"type": "magic"}]]}',
        '{"goods": ["v"], "groups": [[{"type": "binary", "desired": ["q"]}]]}',
        '{"goods": ["v"], "groups": [[{"type": "binary", "desired": [],'
        ' "count": 0}]]}',
        '{"goods": ["v"], "groups": [[{"type": "additive", "values": [1, 2]}]]}',
        '{"goods": ["v"], "groups": [[{"type": "additive", "values": [-1]}]]}',
        '{"goods": ["v"], "groups": [[{"type": "tabular", "values": {"": 0}}]]}',
        '{"goods": ["v"], "groups": [[{"type": "tabular",'
        ' "values": {"": 0, "v": 1, "v,v": 1}}]]}',
        '{"goods": ["v", "w"], "groups": [[{"type": "binary", "desired": []}]],'
        ' "order": ["v"]}',
    ]
    for text in bad:
        with pytest.raises(FormatError):
            parse_instance(text)


TABULAR = '{"type": "tabular", "values": %s}'


@pytest.mark.parametrize("goods, agent, message", [
    (["v"], '{"type": "additive", "values": [Infinity]}', "not a finite number: inf"),
    (["vv", "ww"], TABULAR % '{"": 0, "vv": 1, "ww": 1, "vv,zz": 2}',
     "unknown good 'zz' in bundle key 'vv,zz'"),
    (["v"], '{"type": "additive", "values": 1}',
     "additive agent needs a 'values' list or map"),
    (["v"], '{"type": "tabular", "values": [0, 1]}',
     "tabular agent needs a 'values' map"),
    ([f"g{i}" for i in range(17)], TABULAR % "{}",
     "tabular valuations support at most 16 goods"),
    (["v", "w"], TABULAR % '{"": 0, "v": 1, "w": 1, "vw": 2, "v,w": 2}',
     "bundle key 'v,w' listed twice"),
    (["v", "w"], TABULAR % '{"": 0, "v": 2, "w": 1, "v,w": 1}',
     "tabular valuation not monotone at mask 0x3"),
], ids=["non-finite", "unknown-good", "additive-values", "tabular-values",
        "tabular-17-goods", "key-twice", "non-monotone"])
def test_parse_instance_error_messages(goods, agent, message, tmp_path, capsys):
    text = '{"goods": %s, "groups": [[%s], [%s]]}' % (json.dumps(goods), agent, agent)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_instance(text)
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert main(["brute", "--instance", str(path), "--criterion", "ef-1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_allocation_error_messages(tmp_path, capsys):
    with pytest.raises(ValueError, match="^allocation covers no goods$"):
        Allocation((), 2)
    with pytest.raises(FormatError, match="^not a finite number: nan$"):
        parse_rational(float("nan"))
    inst = tmp_path / "inst.json"
    inst.write_text('{"goods": ["v", "w"], "groups": ['
                    '[{"type": "binary", "desired": ["v"]}],'
                    ' [{"type": "binary", "desired": ["w"]}]]}')
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"bundles": ["v", ["w"]]}')
    message = "each bundle must be a list of good labels"
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_allocation(alloc.read_text(), parse_instance(inst.read_text()))
    argv = ["check", "--instance", str(inst), "--allocation", str(alloc),
            "--criterion", "ef-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


TWO_GROUPS = ('{"goods": ["v", "w"], "groups": [[{"type": "binary", "desired": ["v"]}],'
              ' [{"type": "binary", "desired": ["w"]}]]%s}')


def test_order_that_is_not_a_list_exits_2(tmp_path, capsys):
    text = TWO_GROUPS % ', "order": "vw"'
    message = "'order' must be a permutation of the goods"
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_instance(text)
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert main(["run", "--protocol", "line2", "--instance", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("doc, message", [
    ({"goods": ["a", "a"],
      "groups": [[{"type": "tabular", "values": {"": 0, "a": 1}}]]},
     "good labels must be unique"),
    ({"goods": [1, "a"], "groups": [[{"type": "magic"}]]}, "bad good label 1"),
    ({"goods": [" a", "b"], "groups": [[{"type": "tabular", "values": {"": 0}}]]},
     "bad good label ' a'"),
    ({"goods": ["a", "b"], "groups": [[{"type": "binary", "desired": ["a"]}]],
      "order": ["a", 1]}, "'order' must be a permutation of the goods"),
], ids=["repeated-goods", "int-good", "padded-good", "int-in-order"])
def test_goods_rule_is_checked_before_members_and_order(doc, message, tmp_path,
                                                        capsys):
    # the goods rule runs before any member is read; a non-string order
    # entry is simply not a good
    text = json.dumps(doc)
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        parse_instance(text)
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert main(["run", "--protocol", "line2", "--instance", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_numbers_past_the_digit_limit_exit_2(tmp_path, capsys):
    digits = "1" * 5000
    message = f"number has more than {sys.get_int_max_str_digits()} digits"
    for text in (digits, "1/" + digits, "0." + digits):
        with pytest.raises(FormatError, match=f"^{message}$"):
            parse_rational(text)
    inst_text = ('{"goods": ["v", "w"], "groups": [[{"type": "additive",'
                 ' "values": [%s, 1]}], [{"type": "binary", "desired": ["w"]}]]}')
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_instance(inst_text % digits)
    inst = parse_instance(inst_text % 1)
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_allocation('{"bundles": [[%s], ["w"]]}' % digits, inst)
    path = tmp_path / "inst.json"
    path.write_text(inst_text % digits)
    assert main(["brute", "--instance", str(path), "--criterion", "ef-1"]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    path.write_text(inst_text % 1)
    assert main(["brute", "--instance", str(path), "--criterion", "ef-1",
                 "--h", digits * 2]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_agent_entry_that_is_not_an_object_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text('{"goods": ["a"], "groups": [[1]]}')
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"bundles": [["a"]]}')
    argv = ["check", "--instance", str(inst), "--allocation", str(alloc),
            "--criterion", "ef-1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: agent entry must be an object, got 1\n")


def test_additive_values_map(tmp_path, capsys):
    # a map names the goods it values, and every good left out is worth 0
    doc = {"goods": ["a", "b", "c"],
           "groups": [[{"type": "additive", "values": {"c": "1/2", "a": 2}}]]}
    inst = parse_instance(json.dumps(doc))
    assert inst.groups[0][0].valuation == addval([2, 0, "1/2"])
    # the writer gives the list form, which parses back equal
    text = serialize_instance(inst)
    assert json.loads(text)["groups"][0][0]["values"] == [2, 0, "1/2"]
    assert parse_instance(text) == inst
    doc["groups"][0][0]["values"]["z"] = 1
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    argv = ["brute", "--instance", str(path), "--criterion", "ef-1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", "error: unknown good label 'z'\n")


def test_allocation_without_bundles_exits_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(TWO_GROUPS % "")
    alloc = tmp_path / "alloc.json"
    alloc.write_text('{"bundle": [["v"], ["w"]]}')
    message = "allocation document needs a 'bundles' list"
    with pytest.raises(FormatError, match=f"^{message}$"):
        parse_allocation(alloc.read_text(), parse_instance(inst.read_text()))
    argv = ["check", "--instance", str(inst), "--allocation", str(alloc),
            "--criterion", "ef-1"]
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_instance_refuses_a_mislabelled_agent():
    v = binval("v", "v")
    with pytest.raises(ValueError, match=r"^agent at position 0\.1 mislabelled as 0\.0$"):
        Instance(("v",), ((Agent(0, 0, v), Agent(0, 0, v)),))


class _Unknown:
    """A valuation over one good of no type the writer knows."""

    m = 1

    def __repr__(self):
        return "_Unknown()"


def test_serialize_refuses_an_unknown_valuation():
    inst = Instance.from_valuations(("v",), ((_Unknown(),),))
    with pytest.raises(TypeError, match=r"^unknown valuation _Unknown\(\)$"):
        serialize_instance(inst)


def test_tabular_keys_accept_both_spellings():
    inst = parse_instance(
        '{"goods": ["v", "w"], "groups": [[{"type": "tabular",'
        ' "values": {"": 0, "v": 1, "w": 0, "v,w": 2}}]]}'
    )
    other = parse_instance(
        '{"goods": ["v", "w"], "groups": [[{"type": "tabular",'
        ' "values": {"": 0, "v": 1, "w": 0, "vw": 2}}]]}'
    )
    assert inst == other


def test_member_count_cap():
    # the malformed last entry stops a parser without the cap before it
    # builds a million agents
    agent, bad = {"type": "binary", "desired": ["v"]}, {"type": "magic"}
    one_entry = {"goods": ["v"], "groups": [
        [{**agent, "count": MAX_MEMBERS + 1}], [bad],
    ]}
    two_groups = {"goods": ["v"], "groups": [
        [{**agent, "count": MAX_MEMBERS}], [agent, bad],
    ]}
    for doc in (one_entry, two_groups):
        with pytest.raises(CapExceededError, match=f"more than {MAX_MEMBERS}"):
            parse_instance(json.dumps(doc))


# labels of every kind a document can hold: duplicates, unknown, empty,
# comma-joined, padded with whitespace, non-str, and unhashable
_LABELS = st.sampled_from(["a", "b", "c", "ab", "z", "", "a,b", " a", 1, None,
                           ["a"]])
_GOODS = st.one_of(
    st.lists(st.sampled_from(["a", "b", "c", "dd"]), min_size=1, max_size=4,
             unique=True),
    st.lists(st.one_of(st.sampled_from("abcd"), _LABELS), min_size=1, max_size=4),
)
_KEYS = st.sampled_from(["", "a", "b", "c", "ab", "ba", "z", "a,b", "b, a",
                         "a,a", "a,,b", "1", "null"])
_VALUES = st.sampled_from([0, 1, 2, "1/2", 0.5] * 3 + [-1, "x", None])


@st.composite
def _agent_docs(draw, goods):
    m = len(goods)
    labels = st.one_of(st.sampled_from(goods), st.sampled_from(goods), _LABELS)
    kind = draw(st.sampled_from(["binary"] * 3 + ["additive-map", "additive-list",
                                 "tabular-full"] * 2 + ["tabular", "other"]))
    if kind == "binary":
        doc = {"type": "binary", "desired": draw(st.lists(labels, max_size=4))}
    elif kind == "additive-map":
        names = [g for g in goods if isinstance(g, str)] or [""]
        keys = st.one_of(st.sampled_from(names), _KEYS)
        doc = {"type": "additive",
               "values": draw(st.dictionaries(keys, _VALUES, max_size=4))}
    elif kind == "additive-list":
        doc = {"type": "additive",
               "values": [draw(_VALUES) for _ in range(
                   draw(st.sampled_from([m, m, m, m - 1, m + 1])))]}
    elif kind == "tabular":
        doc = {"type": "tabular",
               "values": draw(st.dictionaries(_KEYS, _VALUES, max_size=6))}
    elif kind == "tabular-full":
        # every subset but a dropped few, comma-joined or concatenated,
        # worth its size; with duplicate goods the first missing mask shows
        # which index a label got
        join = draw(st.sampled_from([",", ""]))
        dropped = draw(st.sets(st.integers(0, (1 << m) - 1), max_size=2))
        values = {}
        for mask in set(range(1 << m)) - dropped:
            key = join.join(str(goods[i]) for i in range(m) if mask >> i & 1)
            values[key] = mask.bit_count()
        doc = {"type": "tabular", "values": values}
    else:
        doc = draw(st.sampled_from([{"type": "magic"}, {}, {"type": "binary"}]))
    count = draw(st.sampled_from([None] * 9 + [2, 3, 0, "2", True]))
    if count is not None:
        doc["count"] = count
    return doc


@st.composite
def _instance_docs(draw):
    goods = draw(_GOODS)
    groups = draw(st.lists(st.lists(_agent_docs(goods), min_size=1, max_size=3),
                           min_size=1, max_size=3))
    doc = {"goods": goods, "groups": groups}
    order = draw(st.sampled_from(["none", "permutation", "list"]))
    if order == "permutation":
        doc["order"] = draw(st.permutations(goods))
    elif order == "list":
        doc["order"] = draw(st.lists(_LABELS, max_size=4))
    return json.dumps(doc)


def _parse_outcome(parse, text):
    try:
        inst = parse(text)
    except Exception as exc:  # the reference may fail in any way
        return type(exc).__name__, str(exc)
    return inst, repr(inst)


@given(_instance_docs())
@example(  # repeated goods are refused before the tabular entry is read
    '{"goods": ["a", "a"], "groups": [[{"type": "tabular",'
    ' "values": {"": 0, "a": 1}}]]}'
)
@example(  # a non-string good is refused before any tabular key is read
    '{"goods": [1, "a"], "groups": [[{"type": "tabular",'
    ' "values": {"xy": 0}}]]}'
)
@example(  # an additive map leaves goods out, which are worth 0
    '{"goods": ["a", "b", "c"], "groups": [[{"type": "additive",'
    ' "values": {"c": "1/2", "a": 2}}]]}'
)
@example(  # the int good is refused before the order is read
    '{"goods": ["a", 1], "groups": [[{"type": "binary", "desired": []}]],'
    ' "order": ["a", 1]}'
)
def test_parse_instance_matches_scanning_reference(text):
    got = _parse_outcome(parse_instance, text)
    assert got == _parse_outcome(reference_parse_instance, text)


@st.composite
def _random_instances(draw):
    m = draw(st.integers(1, 4))
    goods = tuple(f"g{i}" for i in range(m))
    k = draw(st.integers(1, 3))
    groups = []
    for _ in range(k):
        n = draw(st.integers(1, 3))
        members = []
        for _ in range(n):
            kind = draw(st.sampled_from(["binary", "additive"]))
            if kind == "binary":
                mask = draw(st.integers(0, (1 << m) - 1))
                members.append(BinaryValuation(Bundle(mask, m)))
            else:
                members.append(
                    AdditiveValuation(
                        tuple(
                            draw(
                                st.fractions(
                                    min_value=0, max_value=9, max_denominator=4
                                )
                            )
                            for _ in range(m)
                        )
                    )
                )
        groups.append(members)
    order = tuple(draw(st.permutations(range(m))))
    return Instance.from_valuations(goods, groups, order)


@given(_random_instances())
def test_instance_json_round_trip(inst):
    text = serialize_instance(inst)
    assert parse_instance(text) == inst
    assert repr(reference_parse_instance(text)) == repr(inst)


def _reference_serialize_instance(inst):
    """The whole document through ``json.dumps(doc, indent=2)``."""
    groups = []
    for grp in inst.groups:
        entries = []
        for v, run in itertools.groupby(agent.valuation for agent in grp):
            doc = _valuation_doc(v, inst)
            count = sum(1 for _ in run)
            if count > 1:
                doc["count"] = count
            entries.append(doc)
        groups.append(entries)
    doc = {"goods": list(inst.goods), "groups": groups}
    if inst.order != tuple(range(inst.m)):
        doc["order"] = [inst.goods[i] for i in inst.order]
    return json.dumps(doc, indent=2)


# non-ASCII, escaped and multi-character labels
_TEXT_LABELS = ["v", "é", "日本", "\U0001f600", "x y", 'q"t', "b\\s", "t\tab", "\x7f"]


@st.composite
def _repetitive_instances(draw):
    goods = draw(st.lists(st.sampled_from(_TEXT_LABELS), min_size=1, max_size=3,
                          unique=True))
    m = len(goods)
    values = st.fractions(min_value=0, max_value=3, max_denominator=3)
    kinds = [
        st.builds(BinaryValuation, st.integers(0, (1 << m) - 1).map(
            lambda mask: Bundle(mask, m))),
        st.tuples(*[values] * m).map(AdditiveValuation),
        # worth its best good: monotone, and not additive
        st.tuples(*[values] * m).map(lambda best: TabularValuation(
            tuple(max((best[i] for i in range(m) if mask >> i & 1), default=0)
                  for mask in range(1 << m)), m)),
    ]
    # groups of one size over a few valuations, with runs of equal members,
    # that repeat as the generators repeat them: the same valuation objects
    pool = draw(st.lists(st.one_of(kinds), min_size=1, max_size=3))
    n = draw(st.integers(1, 5))
    members = st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    distinct = draw(st.lists(members, min_size=1, max_size=3))
    groups = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=4))
    order = draw(st.none() | st.permutations(range(m)))
    return Instance.from_valuations(goods, groups, order)


@given(_repetitive_instances())
def test_serialize_instance_matches_json_dumps(inst):
    text = serialize_instance(inst)
    assert text == _reference_serialize_instance(inst)
    assert parse_instance(text) == inst


@given(_repetitive_instances())
def test_runs_fold_the_members_that_share_a_valuation(inst):
    for grp, runs in zip(inst.groups, inst.runs):
        expanded = [v for v, count in runs for _ in range(count)]
        assert list(map(id, expanded)) == [id(a.valuation) for a in grp]
        assert all(count >= 1 for _, count in runs)
        assert all(a is not b for (a, _), (b, _) in zip(runs, runs[1:]))
    # an entry read with a count is one valuation object: it lies in one run
    text = serialize_instance(inst)
    parsed = parse_instance(text)
    for entries, runs in zip(json.loads(text)["groups"], parsed.runs):
        ends = list(itertools.accumulate(count for _, count in runs))
        start = 0
        for entry in entries:
            end = start + entry.get("count", 1)
            first = next(i for i, e in enumerate(ends) if e > start)
            assert ends[first] >= end, (entry, runs)
            start = end
    assert "runs" not in repr(inst)  # an attribute, not a field


# ---------------------------------------------------------------------------
# allocation JSON


def test_allocation_json():
    inst = Instance.from_valuations(
        ("v", "w", "x"), ((binval("v", "vwx"),), (binval("x", "vwx"),))
    )
    alloc = parse_allocation('{"bundles": [["x", "v"], ["w"]]}', inst)
    assert alloc.assignment == (0, 1, 0)
    text = serialize_allocation(alloc, inst)
    assert json.loads(text) == {"bundles": [["v", "x"], ["w"]]}
    assert parse_allocation(text, inst) == alloc
    for bad in (
        "{",
        '{"bundles": [["v", "w", "x"]]}',  # wrong bundle count
        '{"bundles": [["v", "v"], ["w", "x"]]}',
        '{"bundles": [["v"], ["w"]]}',  # x unassigned
        '{"bundles": [["v", "q"], ["w", "x"]]}',
    ):
        with pytest.raises(FormatError):
            parse_allocation(bad, inst)


# ---------------------------------------------------------------------------
# binarization


def test_binarize_additive():
    inst = Instance.from_valuations(
        ("v", "w", "x", "y"),
        ((addval([4, 8, 8, 1]), addval([0, 0, 0, 5])),),
    )
    out = binarize_instance(inst, 2)
    # ties broken towards the lower index; zero-valued goods dropped
    assert out.groups[0][0].valuation == binval("wx", "vwxy")
    assert out.groups[0][1].valuation == binval("y", "vwxy")
    assert out.order == inst.order and out.goods == inst.goods


def test_binarize_keeps_small_binary_sets():
    inst = Instance.from_valuations(("v", "w", "x"), ((binval("w", "vwx"),),))
    out = binarize_instance(inst, 2)
    assert out.groups[0][0].valuation == binval("w", "vwx")
    with pytest.raises(ValueError):
        binarize_instance(inst, 0)


def test_binarize_shares_one_valuation_per_new_mask():
    # three binary members truncate to {v, w} and two additive members rank
    # {w, x} first; a member already wanting {v, w} keeps its own valuation
    keep = binval("vw", "vwxy")
    inst = Instance.from_valuations(("v", "w", "x", "y"), (
        (binval("vwx", "vwxy"), binval("vwy", "vwxy"), keep),
        (addval([1, 5, 4, 0]), binval("vwxy", "vwxy"), addval([0, 3, 3, 1])),
    ))
    out = [[agent.valuation for agent in grp]
           for grp in binarize_instance(inst, 2).groups]
    assert out[0][0] is out[0][1] is out[1][1] == keep
    assert out[0][2] is keep
    assert out[1][0] is out[1][2] == binval("wx", "vwxy")
    assert len({id(v) for grp in out for v in grp}) == 3


def test_binarize_tabular_uses_singletons():
    inst = parse_instance(
        '{"goods": ["v", "w"], "groups": [[{"type": "tabular",'
        ' "values": {"": 0, "v": 2, "w": 3, "vw": 4}}]]}'
    )
    out = binarize_instance(inst, 1)
    assert out.groups[0][0].valuation == binval("w", "vw")
