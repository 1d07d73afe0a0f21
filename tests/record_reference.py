"""The record classes that check or normalise their arguments, as frozen
dataclasses: their definitions before the package moved its records onto
:class:`groupfair.model.Record`.

``test_records.py`` holds each package class to its twin here; the
classes that only store their arguments are held to twins made with
``dataclasses.make_dataclass``.  Methods no comparison reaches are left
out.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from groupfair.model import MAX_TABULAR_GOODS


@dataclass(frozen=True)
class Bundle:
    mask: int
    m: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << self.m):
            raise ValueError(f"mask {self.mask:#x} out of range for m={self.m}")

    def __iter__(self):
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __repr__(self):
        return f"Bundle({sorted(self)!r}, m={self.m})"


def _set_int_form(v, fractions: tuple):
    scale = lcm(*(x.denominator for x in fractions))
    object.__setattr__(v, "scale", scale)
    ints = tuple(x.numerator * (scale // x.denominator) for x in fractions)
    object.__setattr__(v, "ints", ints)


@dataclass(frozen=True)
class AdditiveValuation:
    values: tuple
    scale: int = field(init=False, repr=False, compare=False)
    ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vals = tuple(Fraction(v) for v in self.values)
        if any(v < 0 for v in vals):
            raise ValueError("additive values must be nonnegative")
        object.__setattr__(self, "values", vals)
        _set_int_form(self, vals)


@dataclass(frozen=True)
class TabularValuation:
    table: tuple
    m: int
    scale: int = field(init=False, repr=False, compare=False)
    ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m > MAX_TABULAR_GOODS:
            raise ValueError(
                f"tabular valuations support at most {MAX_TABULAR_GOODS} goods"
            )
        table = tuple(Fraction(v) for v in self.table)
        if len(table) != 1 << self.m:
            raise ValueError(
                f"tabular valuation over {self.m} goods needs "
                f"{1 << self.m} entries, got {len(table)}"
            )
        if table[0] != 0:
            raise ValueError("tabular valuation must give the empty bundle 0")
        object.__setattr__(self, "table", table)
        _set_int_form(self, table)
        ints = self.ints
        for mask in range(1, 1 << self.m):
            rest = mask
            while rest:
                low = rest & -rest
                if ints[mask] < ints[mask ^ low]:
                    raise ValueError(
                        f"tabular valuation not monotone at mask {mask:#x}"
                    )
                rest ^= low


@dataclass(frozen=True)
class Instance:
    goods: tuple
    groups: tuple
    order: tuple = None  # type: ignore[assignment]

    def __post_init__(self):
        goods = tuple(self.goods)
        if not goods:
            raise ValueError("instance needs at least one good")
        for g in goods:
            if not isinstance(g, str) or not g or "," in g:
                raise ValueError(f"bad good label {g!r}")
        if len(set(goods)) != len(goods):
            raise ValueError("good labels must be unique")
        m = len(goods)
        groups = tuple(tuple(grp) for grp in self.groups)
        if not groups:
            raise ValueError("instance needs at least one group")
        for gi, grp in enumerate(groups):
            if not grp:
                raise ValueError(f"group {gi + 1} is empty")
            for ai, agent in enumerate(grp):
                if agent.group != gi or agent.index != ai:
                    raise ValueError(
                        f"agent at position {gi}.{ai} mislabelled as "
                        f"{agent.group}.{agent.index}"
                    )
                if agent.valuation.m != m:
                    raise ValueError(
                        f"agent {agent.label} valuation covers "
                        f"{agent.valuation.m} goods, instance has {m}"
                    )
        order = self.order
        if order is None:
            order = tuple(range(m))
        else:
            order = tuple(order)
            if sorted(order) != list(range(m)):
                raise ValueError("order must be a permutation of good indices")
        object.__setattr__(self, "goods", goods)
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "order", order)


@dataclass(frozen=True)
class Allocation:
    assignment: tuple
    k: int

    def __post_init__(self):
        assignment = tuple(self.assignment)
        if not assignment:
            raise ValueError("allocation covers no goods")
        for gi, grp in enumerate(assignment):
            if not 0 <= grp < self.k:
                raise ValueError(f"good {gi} assigned to bad group {grp}")
        object.__setattr__(self, "assignment", assignment)


@dataclass(frozen=True)
class FractionMMS:
    q: Fraction

    def __post_init__(self):
        q = Fraction(self.q)
        if not 0 < q < 1:
            raise ValueError("fraction-mms needs q strictly between 0 and 1")
        object.__setattr__(self, "q", q)


@dataclass(frozen=True)
class FairnessReport:
    verdicts: tuple  # one tuple of booleans per group

    def __post_init__(self):
        object.__setattr__(
            self, "verdicts", tuple(tuple(bool(x) for x in g) for g in self.verdicts)
        )
