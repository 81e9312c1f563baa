"""Sequences over a product of finite abelian groups, finitely presented.

Coordinates 0..w0-1 may carry individual groups (the prefix); from w0 on
every coordinate carries the shared tail group.  An element stores explicit
values on ``[0, P)`` and an eventually repeating block of length ``L`` that
starts at coordinate ``P``.  Construction rewrites to the canonical form
with minimal block length and minimal prefix length, so equal sequences
have equal representations.

A ProductSubgroup is the subgroup generated by finitely many such
elements.  Every decision about it reduces to a finite abelian instance
over the coordinates of an effective window ``[0, W)`` plus one block of
``L`` tail coordinates, since all generators are determined there.
``WindowCodec`` owns that instance's layout: the columns each coordinate
of ``[0, W + L)`` occupies in one flat residue tuple, and the fold of a
coordinate ``i >= W + L`` onto ``W + (i - W) % L``.  Every decider reads
the layout from it, through ``window_rows``, which encodes each generator
once; ``project`` and ``supported_rows`` read columns of those rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from math import lcm
from operator import mod
from typing import Iterable, Sequence

from .errors import SchemaMismatch
from .finabel import (
    DEFAULT_ENUM_CAP,
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    direct_sum,
    enumerate_subgroup,
    row_span,
    subgroup_equal,
)
from .intlinalg import IntMatrix, kernel_mod

INFINITE = "infinite"


@dataclass(frozen=True)
class CoordSchema:
    """Coordinate groups: explicit prefix groups, then a constant tail group."""

    prefix: tuple[FiniteAbelianGroup, ...]
    tail: FiniteAbelianGroup

    @property
    def w0(self) -> int:
        return len(self.prefix)

    def group_at(self, i: int) -> FiniteAbelianGroup:
        if i < 0:
            raise IndexError("coordinates are indexed from 0")
        return self.prefix[i] if i < self.w0 else self.tail


def uniform_schema(group: FiniteAbelianGroup) -> CoordSchema:
    """Schema with the same group at every coordinate."""
    return CoordSchema((), group)


@dataclass(frozen=True)
class SeqElement:
    """Eventually periodic sequence; canonical minimal representation."""

    schema: CoordSchema
    prefix_vals: tuple[GroupElement, ...]
    period: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        if len(self.period) < 1:
            raise ValueError("period block must be non-empty")
        if len(self.prefix_vals) < self.schema.w0:
            raise SchemaMismatch("prefix values must cover all prefix coordinates")
        for i, v in enumerate(self.prefix_vals):
            if v.parent != self.schema.group_at(i):
                raise SchemaMismatch(f"value at coordinate {i} is in the wrong group")
        for v in self.period:
            if v.parent != self.schema.tail:
                raise SchemaMismatch("period values must lie in the tail group")
        prefix, period = _canonicalize(self.schema, list(self.prefix_vals), list(self.period))
        object.__setattr__(self, "prefix_vals", tuple(prefix))
        object.__setattr__(self, "period", tuple(period))

    @property
    def prefix_len(self) -> int:
        return len(self.prefix_vals)

    @property
    def period_len(self) -> int:
        return len(self.period)

    def value_at(self, i: int) -> GroupElement:
        if i < 0:
            raise IndexError("coordinates are indexed from 0")
        if i < self.prefix_len:
            return self.prefix_vals[i]
        return self.period[(i - self.prefix_len) % self.period_len]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.prefix_vals) and all(v.is_zero() for v in self.period)

    def __add__(self, other: SeqElement) -> SeqElement:
        if self.schema != other.schema:
            raise SchemaMismatch("elements over different schemas")
        p = max(self.prefix_len, other.prefix_len)
        l = lcm(self.period_len, other.period_len)
        prefix = [self.value_at(i) + other.value_at(i) for i in range(p)]
        period = [self.value_at(p + t) + other.value_at(p + t) for t in range(l)]
        return SeqElement(self.schema, tuple(prefix), tuple(period))

    def __neg__(self) -> SeqElement:
        return SeqElement(self.schema, tuple(-v for v in self.prefix_vals), tuple(-v for v in self.period))

    def __sub__(self, other: SeqElement) -> SeqElement:
        return self + (-other)

    def scale(self, k: int) -> SeqElement:
        return SeqElement(self.schema, tuple(v.scale(k) for v in self.prefix_vals), tuple(v.scale(k) for v in self.period))


def _canonicalize(
    schema: CoordSchema, prefix: list[GroupElement], period: list[GroupElement]
) -> tuple[list[GroupElement], list[GroupElement]]:
    # Minimal block length: the shortest divisor length that tiles the block.
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and all(period[t] == period[t % d] for t in range(n)):
            period = period[:d]
            break
    # Minimal prefix: absorb trailing prefix values into the block, rotating
    # it so that reads at every coordinate are unchanged.
    while len(prefix) > schema.w0 and prefix[-1] == period[-1]:
        prefix.pop()
        period = period[-1:] + period[:-1]
    return prefix, period


def from_values(
    schema: CoordSchema, values: Sequence[GroupElement], period: Sequence[GroupElement] | None = None
) -> SeqElement:
    """Element with the given explicit values, then the given block (default zero)."""
    prefix = list(values)
    for i in range(len(prefix), schema.w0):
        prefix.append(schema.group_at(i).zero())
    block = tuple(period) if period else (schema.tail.zero(),)
    return SeqElement(schema, tuple(prefix), block)


def delta(schema: CoordSchema, i: int, value: GroupElement) -> SeqElement:
    """Finite-support element equal to ``value`` at coordinate ``i`` and zero elsewhere."""
    if value.parent != schema.group_at(i):
        raise SchemaMismatch("value group does not match the coordinate group")
    prefix = [schema.group_at(j).zero() for j in range(max(i + 1, schema.w0))]
    prefix[i] = value
    return SeqElement(schema, tuple(prefix), (schema.tail.zero(),))


def constant(schema: CoordSchema, value: GroupElement) -> SeqElement:
    """Element equal to ``value`` at every tail coordinate and zero on the prefix."""
    if value.parent != schema.tail:
        raise SchemaMismatch("constant value must lie in the tail group")
    prefix = tuple(schema.group_at(i).zero() for i in range(schema.w0))
    return SeqElement(schema, prefix, (value,))


def support(a: SeqElement) -> frozenset[int] | str:
    """Set of coordinates with nonzero value, or the marker ``INFINITE``."""
    if not all(v.is_zero() for v in a.period):
        return INFINITE
    return frozenset(i for i, v in enumerate(a.prefix_vals) if not v.is_zero())


@dataclass(frozen=True)
class ProductSubgroup:
    """Subgroup generated by finitely many sequence elements."""

    schema: CoordSchema
    gens: tuple[SeqElement, ...]

    def __post_init__(self) -> None:
        for g in self.gens:
            if g.schema != self.schema:
                raise SchemaMismatch("generator over a different schema")


def effective_window(h: ProductSubgroup) -> tuple[int, int]:
    """Window ``(W, L)``: explicit length and block length covering every generator."""
    w = max([h.schema.w0] + [g.prefix_len for g in h.gens])
    l = lcm(*(g.period_len for g in h.gens)) if h.gens else 1
    return w, l


def project(h: ProductSubgroup, j: Iterable[int]) -> Subgroup:
    """Projection of the subgroup onto the coordinates in ``j`` (sorted): a column slice of its window rows."""
    codec, rows = window_rows(h)
    return codec.project(rows, j)


def intersect_directsum(h: ProductSubgroup) -> ProductSubgroup:
    """The finite-support part: ``intersect_sum_window(h, range(W))``.

    A combination of generators has finite support exactly when its block
    vanishes, and then its support lies inside ``[0, W)``.
    """
    return intersect_sum_window(h, range(effective_window(h)[0]))


def intersect_sum_window(h: ProductSubgroup, window: Iterable[int]) -> ProductSubgroup:
    """Elements of the subgroup supported inside the finite coordinate set: ``supported_rows`` decoded."""
    codec, rows = window_rows(h)
    return ProductSubgroup(h.schema, tuple(map(codec.decode, supported_rows((codec, rows), window))))


def supported_rows(encoded: tuple[WindowCodec, Sequence[Sequence[int]]], window: Iterable[int]) -> list[list[int]]:
    """Nonzero residue rows, in the codec's layout, that span the rows' elements supported inside ``window``.

    Such an element vanishes on the block ``[W, W + L)``, hence from ``W``
    on, so it is a combination of the window rows that vanishes on the
    columns of ``([0, W) - window) + [W, W + L)``.
    """
    codec, rows = encoded
    keep = set(window)
    if any(i < 0 for i in keep):
        raise IndexError("coordinates are indexed from 0")
    w, l, orders = codec.w, codec.l, codec.ambient.orders
    cols = codec.columns([i for i in range(w) if i not in keep] + list(range(w, w + l)))
    matrix = IntMatrix(len(cols), len(rows), tuple(r[c] for c in cols for r in rows))
    coeffs = kernel_mod(matrix, [orders[c] for c in cols])
    part = []
    for i in range(coeffs.rows):
        x = [0] * len(orders)
        for a, r in zip(coeffs.row(i), rows):
            if a:
                x = [u + a * v for u, v in zip(x, r)]
        part.append(list(map(mod, x, orders)))
    return list(filter(any, part))


@dataclass(frozen=True)
class WindowCodec:
    """The flat residue layout of a window, and the fold onto it.

    Elements with prefix length at most ``w`` and block length dividing
    ``l`` are determined by their values on ``[0, w + l)``; the codec
    flattens those values into a single finite abelian group and back.
    Coordinate ``i`` occupies the columns ``[offsets[i], offsets[i + 1])``,
    and a coordinate ``i >= w + l`` reads those of ``w + (i - w) % l``, the
    block coordinate it repeats.  This is the one place that knows the
    layout; every decider reads it from here.
    """

    schema: CoordSchema
    w: int
    l: int
    ambient: FiniteAbelianGroup
    offsets: tuple[int, ...]

    @classmethod
    def for_window(cls, schema: CoordSchema, w: int, l: int) -> WindowCodec:
        groups = [schema.group_at(i) for i in range(w + l)]
        return cls(schema, w, l, direct_sum(groups), tuple(accumulate((g.n for g in groups), initial=0)))

    def columns(self, coords: Iterable[int]) -> list[int]:
        """The columns of the listed coordinates, in their order, each coordinate folded onto the window."""
        w, l, offsets = self.w, self.l, self.offsets
        cols: list[int] = []
        for i in coords:
            if i < 0:
                raise IndexError("coordinates are indexed from 0")
            if i >= w + l:
                i = w + (i - w) % l
            cols.extend(range(offsets[i], offsets[i + 1]))
        return cols

    def residues(self, e: SeqElement) -> tuple[int, ...]:
        """The element's values on ``[0, w + l)``, flattened in this layout."""
        if e.prefix_len > self.w or self.l % e.period_len:
            raise SchemaMismatch("element is not bounded by this window")
        return tuple([c for i in range(self.w + self.l) for c in e.value_at(i).coords])

    def project(self, rows: Iterable[Sequence[int]], coords: Iterable[int]) -> Subgroup:
        """The span of the rows' values on the coordinates in ``coords`` (sorted), each folded onto the window."""
        cols, orders = self.columns(sorted(set(coords))), self.ambient.orders
        return row_span([orders[c] for c in cols], [[r[c] for c in cols] for r in rows])

    def decode(self, x: Sequence[int]) -> SeqElement:
        """The element with the residues ``x`` on ``[0, w + l)``, in this layout."""
        if len(x) != self.ambient.n:
            raise SchemaMismatch("residue count does not match the window")
        offsets = self.offsets
        vals = [self.schema.group_at(i).element(x[offsets[i] : offsets[i + 1]]) for i in range(self.w + self.l)]
        return SeqElement(self.schema, tuple(vals[: self.w]), tuple(vals[self.w :]))


def window_rows(h: ProductSubgroup) -> tuple[WindowCodec, list[tuple[int, ...]]]:
    """The codec of the effective window and each generator's residues on it, encoded once."""
    codec = WindowCodec.for_window(h.schema, *effective_window(h))
    return codec, [codec.residues(g) for g in h.gens]


def window_subgroup(h: ProductSubgroup) -> tuple[Subgroup, WindowCodec]:
    """The subgroup as a finite abelian instance over its effective window."""
    codec, rows = window_rows(h)
    return row_span(codec.ambient.orders, rows), codec


def enumerate_elements(h: ProductSubgroup, cap: int = DEFAULT_ENUM_CAP) -> list[SeqElement]:
    sub, codec = window_subgroup(h)
    return [codec.decode(x.coords) for x in enumerate_subgroup(sub, cap)]


def subgroup_order(h: ProductSubgroup) -> int:
    sub, _ = window_subgroup(h)
    return sub.order()


def subgroups_equal(h1: ProductSubgroup, h2: ProductSubgroup) -> bool:
    """Mathematical equality of two generated subgroups over one schema."""
    if h1.schema != h2.schema:
        raise SchemaMismatch("subgroups over different schemas")
    (w1, l1), (w2, l2) = effective_window(h1), effective_window(h2)
    codec = WindowCodec.for_window(h1.schema, max(w1, w2), lcm(l1, l2))
    s1, s2 = (row_span(codec.ambient.orders, [codec.residues(g) for g in h.gens]) for h in (h1, h2))
    return subgroup_equal(s1, s2)


__all__ = [
    "INFINITE",
    "CoordSchema",
    "SeqElement",
    "ProductSubgroup",
    "WindowCodec",
    "uniform_schema",
    "from_values",
    "delta",
    "constant",
    "support",
    "effective_window",
    "project",
    "intersect_directsum",
    "intersect_sum_window",
    "supported_rows",
    "window_rows",
    "window_subgroup",
    "enumerate_elements",
    "subgroup_order",
    "subgroups_equal",
]
