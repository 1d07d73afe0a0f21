"""Scanning reference for the instance parser.

This is the straightforward parser :func:`groupfair.model.parse_instance`
replaces: it checks the goods by scanning them, every label lookup scans
the goods list twice, once with ``label in goods`` and once with
``goods.index(label)``, and ``count`` has no bound.  The property tests in
``test_model.py`` require the one-index parser to build an equal
:class:`~groupfair.model.Instance` or raise the same error text on every
document they generate.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from groupfair.errors import FormatError
from groupfair.model import (
    MAX_TABULAR_GOODS,
    AdditiveValuation,
    BinaryValuation,
    Bundle,
    Instance,
    TabularValuation,
    Valuation,
    _load_json,
    parse_rational,
)


def _parse_subset_key(key: str, inst_goods: Sequence[str]) -> int:
    if key == "":
        return 0
    parts = key.split(",") if "," in key else [key]
    if len(parts) == 1 and parts[0] not in inst_goods:
        if all(len(g) == 1 for g in inst_goods):
            parts = list(key)
    mask = 0
    for part in parts:
        part = part.strip()
        if part not in inst_goods:
            raise FormatError(f"unknown good {part!r} in bundle key {key!r}")
        bit = 1 << inst_goods.index(part)
        if mask & bit:
            raise FormatError(f"good {part!r} repeated in bundle key {key!r}")
        mask |= bit
    return mask


def _parse_valuation(doc, goods: Sequence[str]) -> Valuation:
    if not isinstance(doc, dict):
        raise FormatError(f"agent entry must be an object, got {doc!r}")
    kind = doc.get("type")
    m = len(goods)
    if kind == "binary":
        desired = doc.get("desired")
        if not isinstance(desired, list):
            raise FormatError("binary agent needs a 'desired' list")
        mask = 0
        for label in desired:
            if label not in goods:
                raise FormatError(f"unknown good label {label!r}")
            mask |= 1 << goods.index(label)
        return BinaryValuation(Bundle(mask, m))
    if kind == "additive":
        values = doc.get("values")
        if isinstance(values, dict):
            vec = [Fraction(0)] * m
            for label, v in values.items():
                if label not in goods:
                    raise FormatError(f"unknown good label {label!r}")
                vec[goods.index(label)] = parse_rational(v)
        elif isinstance(values, list):
            if len(values) != m:
                raise FormatError(
                    f"additive agent needs {m} values, got {len(values)}"
                )
            vec = [parse_rational(v) for v in values]
        else:
            raise FormatError("additive agent needs a 'values' list or map")
        try:
            return AdditiveValuation(tuple(vec))
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    if kind == "tabular":
        values = doc.get("values")
        if not isinstance(values, dict):
            raise FormatError("tabular agent needs a 'values' map")
        if m > MAX_TABULAR_GOODS:
            raise FormatError(
                f"tabular valuations support at most {MAX_TABULAR_GOODS} goods"
            )
        table = [None] * (1 << m)
        for key, v in values.items():
            mask = _parse_subset_key(key, goods)
            if table[mask] is not None:
                raise FormatError(f"bundle key {key!r} listed twice")
            table[mask] = parse_rational(v)
        missing = [i for i, v in enumerate(table) if v is None]
        if missing:
            raise FormatError(
                f"tabular valuation misses {len(missing)} bundles "
                f"(first: mask {missing[0]:#x})"
            )
        try:
            return TabularValuation(tuple(table), m)
        except ValueError as exc:
            raise FormatError(str(exc)) from None
    raise FormatError(f"unknown agent type {kind!r}")


def reference_parse_instance(text: str) -> Instance:
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    goods = doc.get("goods")
    if not isinstance(goods, list) or not goods:
        raise FormatError("instance needs a non-empty 'goods' list")
    groups_doc = doc.get("groups")
    if not isinstance(groups_doc, list) or not groups_doc:
        raise FormatError("instance needs a non-empty 'groups' list")
    goods = list(goods)
    for g in goods:
        if not isinstance(g, str) or not g or "," in g or g != g.strip():
            raise FormatError(f"bad good label {g!r}")
    for i, g in enumerate(goods):
        if g in goods[:i]:
            raise FormatError("good labels must be unique")
    groups = []
    for grp in groups_doc:
        if not isinstance(grp, list) or not grp:
            raise FormatError("each group must be a non-empty list of agents")
        members = []
        for entry in grp:
            if not isinstance(entry, dict):
                raise FormatError(f"agent entry must be an object, got {entry!r}")
            count = entry.get("count", 1)
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise FormatError(f"bad agent count {count!r}")
            valuation = _parse_valuation(entry, goods)
            members.extend([valuation] * count)
        groups.append(members)
    order = None
    if "order" in doc:
        order_labels = doc["order"]
        if (
            not isinstance(order_labels, list)
            or any(not isinstance(label, str) for label in order_labels)
            or sorted(order_labels) != sorted(goods)
        ):
            raise FormatError("'order' must be a permutation of the goods")
        order = tuple(goods.index(label) for label in order_labels)
    try:
        return Instance.from_valuations(goods, groups, order)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
