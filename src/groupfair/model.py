"""Instances, valuations, bundles and allocations, plus their JSON format.

An *instance* is a set of goods and ``k`` groups of agents; every agent has
its own valuation over bundles of goods.  An *allocation* assigns every good
to exactly one group.  Three valuation families are supported:

* binary: the agent wants a subset of the goods, a bundle is worth the
  number of wanted goods it contains;
* additive: one nonnegative value per good, a bundle is worth the sum;
* tabular: an explicit monotone table over all ``2**m`` bundles.

Each valuation carries one exact int form, built once: ``scale`` (1 for
binary, else the lcm of the value denominators), ``int_value(mask)`` (a
bundle's value times ``scale``) and :func:`int_table`.  The library computes
on these ints; ``Fraction`` appears only where a value leaves it (``value``,
:func:`groupfair.fairness.mms_share`).

The JSON instance document looks like::

    {
      "goods": ["v", "w", "x", "y", "z"],
      "groups": [
        [
          {"type": "binary", "desired": ["v", "x"], "count": 2},
          {"type": "additive", "values": [1, 1, 2, 4, 8]}
        ],
        [
          {"type": "tabular", "values": {"": 0, "v": 1, "w": 1, "v,w": 1}}
        ]
      ],
      "order": ["z", "y", "x", "w", "v"]
    }

``count`` repeats an agent entry (at most ``MAX_MEMBERS`` members in all),
and binary entries with equal desired sets share one valuation object;
``order`` (optional) fixes the traversal order used by the line protocols.
Rational numbers may be written as ints, decimal strings, ``"p/q"``
strings, or JSON floats (read with decimal semantics, so ``0.51`` means
51/100 exactly).
"""

from __future__ import annotations

import itertools
import json
import operator
import re
import sys
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator, Sequence, Union

from .errors import CapExceededError, FormatError, quoted

__all__ = [
    "Record",
    "Bundle",
    "BinaryValuation",
    "AdditiveValuation",
    "TabularValuation",
    "Valuation",
    "Agent",
    "Instance",
    "Allocation",
    "bundles_of",
    "int_table",
    "parse_rational",
    "parse_instance",
    "serialize_instance",
    "parse_allocation",
    "allocation_doc",
    "serialize_allocation",
    "binarize_instance",
]

MAX_TABULAR_GOODS = 16

#: Most members one instance may hold, over all its groups: the bound for
#: ``count`` in an instance document and for the all-subsets generator.  The
#: circle generator applies it to desired entries (``k`` groups of
#: ``2k - 1`` members wanting ``k`` goods each), which caps it at k = 79.
MAX_MEMBERS = 1_000_000


# ---------------------------------------------------------------------------
# records


class Record:
    """Base of the package's immutable value types.

    A subclass declares its fields as annotations, in order, with any
    defaults as class attributes; ``_fields`` lists them.  Two records are
    equal when they have the same class and equal fields, a record hashes
    as the tuple of its fields and reprs as ``Name(field=value, ...)``, and
    assigning or deleting an attribute raises ``AttributeError``.

    The constructor here takes the fields by position or keyword.  A
    subclass that checks or normalises its arguments defines its own
    ``__init__`` and stores its fields with ``_init``, or with
    ``object.__setattr__`` where a constructor is hot.  Not through
    ``self.__dict__``: that gives the instance a dict of its own, larger
    and slower to read than its inline attributes.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults,
                         **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        fields = cls._fields
        get = operator.attrgetter(*fields) if fields else lambda r: ()
        # attrgetter returns a bare value, not a tuple, for one name
        cls._values = staticmethod(get if len(fields) != 1 else lambda r: (get(r),))

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments "
                            f"but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields or key in values:
                raise TypeError(f"{name}() got an unexpected or repeated "
                                f"argument {key!r}")
            values[key] = value
        missing = [f for f in fields if f not in values and f not in self._defaults]
        if missing:
            raise TypeError(f"{name}() missing arguments: {', '.join(missing)}")
        self._init(*(values[f] if f in values else self._defaults[f] for f in fields))

    def _init(self, *values):
        """Store ``values`` as the fields, in order."""
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# bundles


#: Each byte value's set bits, lowest first.
_BYTE_BITS = tuple(tuple(i for i in range(8) if byte >> i & 1) for byte in range(256))


def _set_bits(mask: int) -> list:
    """The set bits of ``mask``, lowest first, read a byte at a time: a
    mask costs its bytes plus its set bits.

    >>> _set_bits(0b1000000101)
    [0, 2, 9]
    """
    data = mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
    return [at << 3 | i for at, byte in enumerate(data) if byte for i in _BYTE_BITS[byte]]


class Bundle(Record):
    """An immutable set of goods, stored as a bitmask over ``m`` goods.

    Bit ``i`` set means good ``i`` is in the bundle.

    >>> b = Bundle.from_indices([0, 2], 4)
    >>> list(b), len(b), 2 in b
    ([0, 2], 2, True)
    >>> list(b | Bundle.from_indices([1], 4))
    [0, 1, 2]
    """

    mask: int
    m: int

    def __init__(self, mask: int, m: int):
        if not 0 <= mask < (1 << m):
            raise ValueError(f"mask {mask:#x} out of range for m={m}")
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "m", m)

    @classmethod
    def empty(cls, m: int) -> "Bundle":
        return cls(0, m)

    @classmethod
    def full(cls, m: int) -> "Bundle":
        return cls((1 << m) - 1, m)

    @classmethod
    def from_indices(cls, indices: Iterable[int], m: int) -> "Bundle":
        mask = 0
        for i in indices:
            if not 0 <= i < m:
                raise ValueError(f"good index {i} out of range for m={m}")
            mask |= 1 << i
        return cls(mask, m)

    def __contains__(self, good: int) -> bool:
        return 0 <= good < self.m and bool(self.mask >> good & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(_set_bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def _check_same_space(self, other: "Bundle"):
        if self.m != other.m:
            raise ValueError("bundles live over different good sets")

    def __or__(self, other: "Bundle") -> "Bundle":
        self._check_same_space(other)
        return Bundle(self.mask | other.mask, self.m)

    def __and__(self, other: "Bundle") -> "Bundle":
        self._check_same_space(other)
        return Bundle(self.mask & other.mask, self.m)

    def __sub__(self, other: "Bundle") -> "Bundle":
        self._check_same_space(other)
        return Bundle(self.mask & ~other.mask, self.m)

    def add(self, good: int) -> "Bundle":
        return Bundle(self.mask | (1 << good), self.m)

    def remove(self, good: int) -> "Bundle":
        return Bundle(self.mask & ~(1 << good), self.m)

    def issubset(self, other: "Bundle") -> bool:
        self._check_same_space(other)
        return self.mask & ~other.mask == 0

    def complement(self) -> "Bundle":
        return Bundle(~self.mask & ((1 << self.m) - 1), self.m)

    def __repr__(self):
        return f"Bundle({sorted(self)!r}, m={self.m})"


# ---------------------------------------------------------------------------
# valuations


class BinaryValuation(Record):
    """The agent wants ``desired``; a bundle is worth the overlap size.

    Its int form is the desired mask itself, at scale 1.

    >>> v = BinaryValuation(Bundle.from_indices([0, 2], 3))
    >>> v.value(Bundle.from_indices([2], 3)), v.scale, v.int_value(0b111)
    (1, 1, 2)
    """

    desired: Bundle
    scale = 1

    def __init__(self, desired: Bundle):
        object.__setattr__(self, "desired", desired)

    @property
    def m(self) -> int:
        return self.desired.m

    def int_value(self, mask: int) -> int:
        return (self.desired.mask & mask).bit_count()

    def value(self, bundle: Bundle) -> int:
        return self.int_value(bundle.mask)


class AdditiveValuation(Record):
    """One nonnegative value per good; bundles are worth the sum.

    The int form scales every value by ``scale``, the lcm of their
    denominators, so ``ints[i] == values[i] * scale``.

    >>> v = AdditiveValuation((1, "1/2", "1/3"))
    >>> v.scale, v.ints, v.int_value(0b110)
    (6, (6, 3, 2), 5)
    >>> v.value(Bundle(0b110, 3))
    Fraction(5, 6)
    """

    values: tuple

    def __init__(self, values: tuple):
        vals = tuple(Fraction(v) for v in values)
        if any(v < 0 for v in vals):
            raise ValueError("additive values must be nonnegative")
        self._init(vals)
        _set_int_form(self, vals)

    @property
    def m(self) -> int:
        return len(self.values)

    def int_value(self, mask: int) -> int:
        ints = self.ints
        return sum([ints[i] for i in _set_bits(mask)])

    def value(self, bundle: Bundle) -> Fraction:
        return Fraction(self.int_value(bundle.mask), self.scale)


class TabularValuation(Record):
    """An explicit table: ``table[mask]`` is the value of that bundle.

    Must have ``2**m`` entries, value 0 on the empty bundle, and be monotone
    (adding a good never lowers the value).  Capped at
    ``MAX_TABULAR_GOODS`` goods.  The int form is the table scaled by
    ``scale``, the lcm of its denominators.

    >>> v = TabularValuation((0, "1/2", "3/4", 1), 2)
    >>> v.scale, v.ints, v.int_value(0b10)
    (4, (0, 2, 3, 4), 3)
    """

    table: tuple
    m: int

    def __init__(self, table: tuple, m: int):
        if m > MAX_TABULAR_GOODS:
            raise ValueError(
                f"tabular valuations support at most {MAX_TABULAR_GOODS} goods"
            )
        table = tuple(Fraction(v) for v in table)
        if len(table) != 1 << m:
            raise ValueError(
                f"tabular valuation over {m} goods needs "
                f"{1 << m} entries, got {len(table)}"
            )
        if table[0] != 0:
            raise ValueError("tabular valuation must give the empty bundle 0")
        self._init(table, m)
        _set_int_form(self, table)
        ints = self.ints
        for mask in range(1, 1 << m):
            rest = mask
            while rest:
                low = rest & -rest
                if ints[mask] < ints[mask ^ low]:
                    raise ValueError(
                        f"tabular valuation not monotone at mask {mask:#x}"
                    )
                rest ^= low

    def int_value(self, mask: int) -> int:
        return self.ints[mask]

    def value(self, bundle: Bundle) -> Fraction:
        return Fraction(self.ints[bundle.mask], self.scale)


def _set_int_form(v, fractions: tuple):
    """Give ``v`` its ``scale``, the lcm of the denominators, and ``ints``
    (attributes outside its fields: not compared, hashed or shown)."""
    scale = lcm(*(x.denominator for x in fractions))
    object.__setattr__(v, "scale", scale)
    ints = tuple(x.numerator * (scale // x.denominator) for x in fractions)
    object.__setattr__(v, "ints", ints)


Valuation = Union[BinaryValuation, AdditiveValuation, TabularValuation]


def int_table(v: Valuation, goods_mask: int) -> list:
    """``v.int_value`` of every subset of ``goods_mask``, relabelled so the
    goods of ``goods_mask`` become bits ``0 .. r-1`` in index order.  Built
    by doubling: each good, in index order, appends every subset so far
    with that good added (a tabular valuation doubles masks, then reads
    its ints).

    >>> int_table(AdditiveValuation((1, "1/2", 2)), 0b101)
    [0, 2, 4, 6]
    >>> int_table(BinaryValuation(Bundle(0b011, 3)), 0b111)
    [0, 1, 1, 2, 0, 1, 1, 2]
    """
    tabular = isinstance(v, TabularValuation)
    table = [0]
    for i in _set_bits(goods_mask):
        single = 1 << i if tabular else v.int_value(1 << i)
        table += [x + single for x in table]
    return [v.ints[mask] for mask in table] if tabular else table


# ---------------------------------------------------------------------------
# agents, instances, allocations


class Agent(Record):
    """One agent: its group, its position inside the group, its valuation."""

    group: int
    index: int
    valuation: Valuation

    def __init__(self, group: int, index: int, valuation: Valuation):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "valuation", valuation)

    @property
    def label(self) -> str:
        """1-based ``group.member`` label used in traces."""
        return f"{self.group + 1}.{self.index + 1}"


def _goods_index(goods: Sequence) -> dict:
    """``{label: index}`` over ``goods``, which must be at least one
    distinct label, each a non-empty string with no comma and no
    surrounding whitespace (a ValueError names the first that is not)."""
    if not goods:
        raise ValueError("instance needs at least one good")
    for g in goods:
        if not isinstance(g, str) or not g or "," in g or g != g.strip():
            raise ValueError(f"bad good label {quoted(g)}")
    index = {g: i for i, g in enumerate(goods)}
    if len(index) != len(goods):
        raise ValueError("good labels must be unique")
    return index


class Instance(Record):
    """Immutable problem instance: labelled goods and ``k`` agent groups.

    ``order`` is the traversal order of goods (a permutation of indices)
    used by the line protocols; it defaults to instance order.
    ``good_index`` maps each label to its index; ``runs`` holds per group
    its maximal runs of consecutive members sharing one valuation object,
    as ``(valuation, count)`` pairs, which the report, the line polls, the
    trace text, binarization, the oracle tallies and the writer read
    (attributes outside the fields: not compared, hashed or shown).
    """

    goods: tuple
    groups: tuple
    order: tuple = None  # type: ignore[assignment]

    def __init__(self, goods: tuple, groups: tuple, order: tuple = None):
        goods = tuple(goods)
        index = _goods_index(goods)
        m = len(goods)
        groups = tuple(tuple(grp) for grp in groups)
        if not groups:
            raise ValueError("instance needs at least one group")
        runs = []
        for gi, grp in enumerate(groups):
            if not grp:
                raise ValueError(f"group {gi + 1} is empty")
            fold, last, start = [], None, 0  # a pair per run ended so far
            for ai, agent in enumerate(grp):
                if agent.group != gi or agent.index != ai:
                    raise ValueError(
                        f"agent at position {gi}.{ai} mislabelled as "
                        f"{agent.group}.{agent.index}"
                    )
                v = agent.valuation
                if ai and v is last:
                    continue
                if v.m != m:
                    raise ValueError(
                        f"agent {agent.label} valuation covers "
                        f"{v.m} goods, instance has {m}"
                    )
                if ai:
                    fold.append((last, ai - start))
                last, start = v, ai
            fold.append((last, len(grp) - start))
            runs.append(tuple(fold))
        if order is None:
            order = tuple(range(m))
        else:
            order = tuple(order)
            if sorted(order) != list(range(m)):
                raise ValueError("order must be a permutation of good indices")
        self._init(goods, groups, order)
        object.__setattr__(self, "good_index", index)
        object.__setattr__(self, "runs", tuple(runs))

    @classmethod
    def from_valuations(
        cls, goods: Sequence[str], groups: Sequence[Sequence[Valuation]], order=None
    ) -> "Instance":
        """Build an instance from bare valuations (agents get labelled)."""
        built = tuple(
            tuple(Agent(gi, ai, v) for ai, v in enumerate(grp))
            for gi, grp in enumerate(groups)
        )
        return cls(tuple(goods), built, order)

    @property
    def m(self) -> int:
        return len(self.goods)

    @property
    def k(self) -> int:
        return len(self.groups)

    @property
    def sizes(self) -> tuple:
        return tuple(len(grp) for grp in self.groups)

    def agents(self) -> Iterator[Agent]:
        for grp in self.groups:
            yield from grp

    def index_of(self, label: str) -> int:
        try:
            return self.good_index[label]
        except (KeyError, TypeError):  # unknown, or unhashable
            raise FormatError(f"unknown good label {quoted(label)}") from None

    def bundle(self, labels: Iterable[str]) -> Bundle:
        return Bundle.from_indices((self.index_of(g) for g in labels), self.m)

    def labels(self, indices: Iterable[int]) -> list:
        """The labels of a run of good indices, such as a :class:`Bundle`."""
        return [self.goods[i] for i in indices]

    def is_binary(self) -> bool:
        return all(isinstance(v, BinaryValuation) for runs in self.runs for v, _ in runs)


class Allocation(Record):
    """A total assignment of goods to groups: ``assignment[i]`` owns good i."""

    assignment: tuple
    k: int

    def __init__(self, assignment: tuple, k: int):
        assignment = tuple(assignment)
        if not assignment:
            raise ValueError("allocation covers no goods")
        for gi, grp in enumerate(assignment):
            if not 0 <= grp < k:
                raise ValueError(f"good {gi} assigned to bad group {grp}")
        self._init(assignment, k)

    @property
    def m(self) -> int:
        return len(self.assignment)

    @classmethod
    def from_bundles(cls, bundles: Sequence[Bundle]) -> "Allocation":
        m = bundles[0].m
        assignment = [-1] * m
        for gi, b in enumerate(bundles):
            for good in b:
                if assignment[good] != -1:
                    raise ValueError(f"good {good} assigned twice")
                assignment[good] = gi
        if -1 in assignment:
            raise ValueError(f"good {assignment.index(-1)} left unassigned")
        return cls(tuple(assignment), len(bundles))


def bundles_of(allocation: Allocation) -> tuple:
    """The per-group bundles of an allocation, in group order."""
    masks = [0] * allocation.k
    for good, grp in enumerate(allocation.assignment):
        masks[grp] |= 1 << good
    return tuple(Bundle(mask, allocation.m) for mask in masks)


def _fitted_bundles(alloc: Allocation, m: int, k: int, least: bool = False) -> tuple:
    """:func:`bundles_of` an allocation that gives ``m`` goods to ``k``
    groups (with ``least``, to at least ``k``); a ValueError naming both
    shapes for any other."""
    if alloc.m != m or alloc.k < k or alloc.k > k and not least:
        raise ValueError(
            f"allocation of {alloc.m} goods to {alloc.k} groups does not fit"
            f" {m} goods and {'at least ' * least}{k} groups"
        )
    return bundles_of(alloc)


# ---------------------------------------------------------------------------
# rationals in JSON


#: Largest decimal exponent magnitude accepted in a rational string, so
#: ``"1e999999"`` cannot ask for an integer of any size.
MAX_DECIMAL_EXPONENT = 1000
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_rational(x) -> Fraction:
    """Read a JSON-borne rational: int, decimal/`p/q` string, or float.

    Floats are read with decimal semantics (0.51 -> 51/100 exactly).

    >>> parse_rational("3/4"), parse_rational(0.51), parse_rational(2)
    (Fraction(3, 4), Fraction(51, 100), Fraction(2, 1))
    """
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, float):
        try:
            return Fraction(repr(x))
        except ValueError:
            raise FormatError(f"not a finite number: {x!r}") from None
    if isinstance(x, str):
        exponent = _EXPONENT.search(x)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        # the bound has 4 digits: a longer run is rejected, never converted
        if len(digits) > 4 or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise FormatError(
                f"decimal exponent in {quoted(x)} exceeds {MAX_DECIMAL_EXPONENT}")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            if "int_max_str_digits" in str(exc):  # CPython's digit limit
                raise _digit_limit() from None
            raise FormatError(f"not a rational: {quoted(x)}") from None
    raise FormatError(f"not a rational: {quoted(x)}")


def _digit_limit() -> FormatError:
    """The error for a number with more digits than CPython converts to an
    int (``sys.get_int_max_str_digits()``); it does not echo the digits."""
    return FormatError(f"number has more than {sys.get_int_max_str_digits()} digits")


def _int_of_digits(digits: str) -> int:
    """``int`` of a run of decimal digits, or :func:`_digit_limit`'s error."""
    try:
        return int(digits)
    except ValueError:
        raise _digit_limit() from None


def rational_doc(f: Fraction):
    """Render a Fraction for a JSON document: int when integral, else 'p/q'."""
    f = Fraction(f)
    if f.denominator == 1:
        return f.numerator
    return f"{f.numerator}/{f.denominator}"


# ---------------------------------------------------------------------------
# instance JSON


def _load_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("invalid JSON: nested too deeply") from None
    except ValueError:  # the one other: an integer past CPython's digit limit
        raise _digit_limit() from None


def _parse_subset_key(key: str, index: dict) -> int:
    """A tabular key is a comma-joined label list ('' = empty bundle).

    For single-character labels plain concatenation ('vw') is accepted too.
    """
    if key == "":
        return 0
    parts = key.split(",") if "," in key else [key]
    if len(parts) == 1 and key not in index and all(len(g) == 1 for g in index):
        parts = list(key)
    mask = 0
    for part in parts:
        part = part.strip()
        if part not in index:
            raise FormatError(f"unknown good {quoted(part)} in bundle key {quoted(key)}")
        bit = 1 << index[part]
        if mask & bit:
            raise FormatError(f"good {quoted(part)} repeated in bundle key {quoted(key)}")
        mask |= bit
    return mask


def _parse_valuation(doc, index: dict, bits: dict, binary: dict) -> Valuation:
    """The valuation of one agent entry, over the goods of ``index``
    (label -> index; ``bits``, label -> mask bit).  ``binary`` maps each
    desired mask read so far in the document to its valuation, which equal
    entries then share."""
    kind = doc.get("type")
    m = len(index)
    if kind == "binary":
        desired = doc.get("desired")
        if not isinstance(desired, list):
            raise FormatError("binary agent needs a 'desired' list")
        mask = 0
        try:
            for label in desired:
                mask |= bits[label]
        except (KeyError, TypeError):  # unknown, or unhashable
            raise FormatError(f"unknown good label {quoted(label)}") from None
        v = binary.get(mask)
        if v is None:
            v = binary[mask] = BinaryValuation(Bundle(mask, m))
        return v
    if kind == "additive":
        values = doc.get("values")
        if isinstance(values, dict):
            vec = [Fraction(0)] * m
            for label, v in values.items():
                if label not in index:
                    raise FormatError(f"unknown good label {quoted(label)}")
                vec[index[label]] = parse_rational(v)
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
            mask = _parse_subset_key(key, index)
            if table[mask] is not None:
                raise FormatError(f"bundle key {quoted(key)} listed twice")
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
    raise FormatError(f"unknown agent type {quoted(kind)}")


def parse_instance(text: str) -> Instance:
    """Parse an instance JSON document.

    >>> inst = parse_instance('''{"goods": ["v", "w"], "groups": [
    ...   [{"type": "binary", "desired": ["v"], "count": 2}],
    ...   [{"type": "additive", "values": [1, "1/2"]}]]}''')
    >>> inst.sizes
    (2, 1)
    """
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise FormatError("instance document must be a JSON object")
    goods = doc.get("goods")
    if not isinstance(goods, list) or not goods:
        raise FormatError("instance needs a non-empty 'goods' list")
    groups_doc = doc.get("groups")
    if not isinstance(groups_doc, list) or not groups_doc:
        raise FormatError("instance needs a non-empty 'groups' list")
    try:
        index = _goods_index(goods)
    except ValueError as exc:
        raise FormatError(str(exc)) from None
    bits = {label: 1 << i for label, i in index.items()}
    binary: dict = {}
    groups = []
    total = 0
    for grp in groups_doc:
        if not isinstance(grp, list) or not grp:
            raise FormatError("each group must be a non-empty list of agents")
        members = []
        for entry in grp:
            if not isinstance(entry, dict):
                raise FormatError(f"agent entry must be an object, got {quoted(entry)}")
            count = entry.get("count", 1)
            if not isinstance(count, int) or isinstance(count, bool) or count < 1:
                raise FormatError(f"bad agent count {quoted(count)}")
            total += count
            if total > MAX_MEMBERS:
                raise CapExceededError(
                    f"instance has more than {MAX_MEMBERS} members"
                )
            valuation = _parse_valuation(entry, index, bits, binary)
            members.extend([valuation] * count)
        groups.append(members)
    order = None
    if "order" in doc:
        labels = doc["order"]
        if (not isinstance(labels, list) or not all(isinstance(g, str) for g in labels)
                or sorted(labels) != sorted(goods)):
            raise FormatError("'order' must be a permutation of the goods")
        order = tuple(index[g] for g in labels)
    return Instance.from_valuations(goods, groups, order)


def _valuation_doc(v: Valuation, inst: Instance) -> dict:
    if isinstance(v, BinaryValuation):
        return {"type": "binary", "desired": inst.labels(v.desired)}
    if isinstance(v, AdditiveValuation):
        return {"type": "additive", "values": [rational_doc(x) for x in v.values]}
    if isinstance(v, TabularValuation):
        values = {}
        for mask in range(1 << v.m):
            key = ",".join(inst.labels(_set_bits(mask)))
            values[key] = rational_doc(v.table[mask])
        return {"type": "tabular", "values": values}
    raise TypeError(f"unknown valuation {v!r}")


def _dumped(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested ``depth`` levels
    deep (a JSON string holds no raw newline)."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _joined(items: list, depth: int, brackets: str = "[]") -> str:
    """A JSON list (or, with ``brackets="{}"``, object) of already-rendered
    ``items``, at least one, laid out as ``json.dumps(..., indent=2)`` lays
    it out ``depth`` levels deep."""
    pad = "\n" + "  " * (depth + 1)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + "  " * depth + brackets[1]


def serialize_instance(inst: Instance) -> str:
    """Serialize an instance to JSON; parse_instance round-trips it.

    Each entry is one of the group's :attr:`Instance.runs`, with a count
    when it holds more than one member; adjacent runs of equal valuations
    (distinct objects) merge into one entry.  The text is what
    ``json.dumps(..., indent=2)`` makes of the document, put together from
    each distinct group encoded once (the generators, and
    :func:`parse_instance` for binary entries, give equal groups the same
    valuation objects).
    """
    distinct = {}  # a group's runs, as (id, count) pairs -> its text
    groups = []
    for runs in inst.runs:
        key = tuple((id(v), n) for v, n in runs)
        text = distinct.get(key)
        if text is None:
            entries = []
            for v, equal in itertools.groupby(runs, key=operator.itemgetter(0)):
                entry = _valuation_doc(v, inst)
                count = sum(n for _, n in equal)
                if count > 1:
                    entry["count"] = count
                entries.append(entry)
            text = distinct[key] = _dumped(entries, 2)  # groups sit 2 deep
        groups.append(text)
    fields = [f'"goods": {_dumped(list(inst.goods), 1)}',
              f'"groups": {_joined(groups, 1)}']
    if inst.order != tuple(range(inst.m)):
        fields.append(f'"order": {_dumped(inst.labels(inst.order), 1)}')
    return _joined(fields, 0, "{}")


# ---------------------------------------------------------------------------
# allocation JSON


def parse_allocation(text: str, inst: Instance) -> Allocation:
    """Parse an allocation document ``{"bundles": [[labels...], ...]}``.

    The bundles must partition the instance's goods, one per group.
    """
    doc = _load_json(text)
    if not isinstance(doc, dict) or "bundles" not in doc:
        raise FormatError("allocation document needs a 'bundles' list")
    bundles = doc["bundles"]
    if not isinstance(bundles, list) or len(bundles) != inst.k:
        raise FormatError(f"allocation needs exactly {inst.k} bundles")
    assignment = [-1] * inst.m
    for gi, labels in enumerate(bundles):
        if not isinstance(labels, list):
            raise FormatError("each bundle must be a list of good labels")
        for label in labels:
            idx = inst.index_of(label)
            if assignment[idx] != -1:
                raise FormatError(f"good {quoted(label)} assigned twice")
            assignment[idx] = gi
    if -1 in assignment:
        label = inst.goods[assignment.index(-1)]
        raise FormatError(f"good {quoted(label)} left unassigned")
    return Allocation(tuple(assignment), inst.k)


def allocation_doc(alloc: Allocation, inst: Instance) -> dict:
    """The allocation document ``{"bundles": [[labels...], ...]}``."""
    bundles = _fitted_bundles(alloc, inst.m, inst.k)
    return {"bundles": [inst.labels(b) for b in bundles]}


def serialize_allocation(alloc: Allocation, inst: Instance) -> str:
    return json.dumps(allocation_doc(alloc, inst), indent=2)


# ---------------------------------------------------------------------------
# binarization


def binarize_instance(inst: Instance, c: int) -> Instance:
    """Replace every valuation with a binary one over its ``c`` best goods.

    Each agent keeps its ``c`` highest-valued goods (ties broken towards the
    lowest good index); binary agents wanting fewer than ``c`` goods keep
    what they have.  Used by the protocols whose guarantees only depend on
    each agent getting one of its best ``c`` goods.  Changed members left
    with the same goods share one valuation; ``inst`` itself is returned
    when no valuation changes.
    """
    if c < 1:
        raise ValueError("binarize needs c >= 1")
    groups = []
    made = {}  # each new desired mask -> the one valuation its members share
    for runs in inst.runs:
        members = []
        for v, count in runs:
            if isinstance(v, BinaryValuation):
                desired = _set_bits(v.desired.mask)
                if len(desired) <= c:
                    members += [v] * count
                    continue
                mask = v.desired.mask & (1 << desired[c]) - 1  # below the (c+1)-th
            else:
                vals = [v.int_value(1 << i) for i in range(inst.m)]
                ranked = sorted(range(inst.m), key=lambda i: (-vals[i], i))
                mask = sum(1 << i for i in ranked[:c] if vals[i] > 0)
            if mask not in made:
                made[mask] = BinaryValuation(Bundle(mask, inst.m))
            members += [made[mask]] * count
        groups.append(members)
    if not made:
        return inst
    return Instance.from_valuations(inst.goods, groups, inst.order)
