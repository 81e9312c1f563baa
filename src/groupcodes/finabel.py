"""Finite abelian groups presented as products of cyclic factors.

A group is a tuple of factor orders; an element is a coordinate vector of
residues.  A subgroup is stored as the canonical Hermite basis of the
integer lattice of all its coordinate representatives, which by
construction contains the relation lattice spanned by ``orders[j] * e_j``.
Canonicalisation inserts the generators into the triangular basis
``diag(orders)`` and keeps every entry below its column's order
(``intlinalg.echelon_mod``); because the row Hermite form of a lattice is
unique, this is the same basis a general HNF of the generators stacked on
the relations gives.  Two subgroups are equal exactly when their canonical
bases are equal, so every subgroup identity in the engine reduces to
matrix equality.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, lcm, prod
from operator import mod
from typing import Iterable, Iterator, Sequence

from .errors import CapExceeded, SchemaMismatch
from .intlinalg import (
    IntMatrix,
    echelon_mod,
    kernel_mod,
    lattice_member,
)

DEFAULT_ENUM_CAP = 10**5


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Direct product of cyclic groups ``Z/orders[0] + ... + Z/orders[n-1]``."""

    orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(o, int) and o >= 1 for o in self.orders):
            raise ValueError("factor orders must be positive integers")

    @property
    def n(self) -> int:
        return len(self.orders)

    def order(self) -> int:
        return prod(self.orders)

    def zero(self) -> GroupElement:
        return GroupElement(self, (0,) * self.n)

    def element(self, coords: Sequence[int]) -> GroupElement:
        return GroupElement(self, tuple(coords))

    def generators(self) -> list[GroupElement]:
        """The standard generating set: one unit vector per nontrivial factor."""
        out = []
        for j, o in enumerate(self.orders):
            if o > 1:
                coords = [0] * self.n
                coords[j] = 1
                out.append(self.element(coords))
        return out

    def elements(self, cap: int = DEFAULT_ENUM_CAP) -> Iterator[GroupElement]:
        if self.order() > cap:
            raise CapExceeded(self.order(), cap)
        for coords in itertools.product(*(range(o) for o in self.orders)):
            yield GroupElement(self, coords)

    def __repr__(self) -> str:
        if not self.orders:
            return "Group()"
        return "Group(" + "x".join(f"Z{o}" for o in self.orders) + ")"


def direct_sum(groups: Iterable[FiniteAbelianGroup]) -> FiniteAbelianGroup:
    orders: tuple[int, ...] = ()
    for g in groups:
        orders = orders + g.orders
    return FiniteAbelianGroup(orders)


@dataclass(frozen=True)
class GroupElement:
    parent: FiniteAbelianGroup
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != self.parent.n:
            raise SchemaMismatch("coordinate count does not match group rank")
        object.__setattr__(self, "coords", tuple(map(mod, map(int, self.coords), self.parent.orders)))

    def __add__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return GroupElement(self.parent, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: GroupElement) -> GroupElement:
        self._check(other)
        return GroupElement(self.parent, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> GroupElement:
        return GroupElement(self.parent, tuple(-c for c in self.coords))

    def scale(self, k: int) -> GroupElement:
        return GroupElement(self.parent, tuple(k * c for c in self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def order(self) -> int:
        return lcm(*(o // gcd(c, o) for c, o in zip(self.coords, self.parent.orders))) if self.coords else 1

    def _check(self, other: GroupElement) -> None:
        if self.parent != other.parent:
            raise SchemaMismatch("elements of different groups")


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of ``parent`` as the canonical lattice of its representatives.

    Any generator matrix may be passed as ``basis``; construction adds the
    relation rows ``orders[j] * e_j`` and rewrites to the canonical Hermite
    form, an ``n x n`` upper triangular matrix whose pivots divide the
    orders.  The generators are inserted into ``diag(orders)`` with entries
    kept below the orders, and the Hermite form is unique, so structurally
    equal Subgroup values denote the same subgroup and conversely.
    """

    parent: FiniteAbelianGroup
    basis: IntMatrix

    def __post_init__(self) -> None:
        if self.basis.cols != self.parent.n:
            raise SchemaMismatch("basis width does not match group rank")
        object.__setattr__(self, "basis", echelon_mod(self.basis, self.parent.orders))

    def order(self) -> int:
        pivots = prod(self.basis[i, i] for i in range(self.basis.rows))
        return self.parent.order() // pivots

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order()} of {self.parent!r})"


def span(parent: FiniteAbelianGroup, gens: Iterable[GroupElement]) -> Subgroup:
    gens = list(gens)
    if any(g.parent != parent for g in gens):
        raise SchemaMismatch("generator outside the ambient group")
    return row_span(parent.orders, [g.coords for g in gens])


def row_span(orders: Sequence[int], rows: Sequence[Sequence[int]]) -> Subgroup:
    """Subgroup of ``Z/orders[0] + ... + Z/orders[n-1]`` spanned by integer rows, any residues, one entry per column."""
    n = len(orders)
    if any(len(r) != n for r in rows):
        raise SchemaMismatch("row width does not match group rank")
    flat = tuple(itertools.chain.from_iterable(rows))
    return Subgroup(FiniteAbelianGroup(tuple(orders)), IntMatrix(len(rows), n, flat))


def trivial(parent: FiniteAbelianGroup) -> Subgroup:
    return span(parent, [])


def full(parent: FiniteAbelianGroup) -> Subgroup:
    return Subgroup(parent, IntMatrix.identity(parent.n))


def member(s: Subgroup, x: GroupElement) -> bool:
    if x.parent != s.parent:
        raise SchemaMismatch("element outside the ambient group")
    return lattice_member(s.basis, x.coords)


def subgroup_equal(a: Subgroup, b: Subgroup) -> bool:
    _same_parent(a, b)
    return a.basis == b.basis


def subgroup_le(a: Subgroup, b: Subgroup) -> bool:
    """Whether ``a`` is contained in ``b``."""
    _same_parent(a, b)
    return all(lattice_member(b.basis, a.basis.row(i)) for i in range(a.basis.rows))


def _same_parent(a: Subgroup, b: Subgroup) -> None:
    if a.parent != b.parent:
        raise SchemaMismatch("subgroups of different ambient groups")


def invariant_factors(s: Subgroup) -> list[int]:
    """Invariant factor decomposition ``d_1 | d_2 | ... | d_r`` with ``d_i >= 2``.

    A basis row whose pivot equals its column's order is that order times
    the unit vector, trivial in the quotient, so the ``r`` rows with smaller
    pivots generate the subgroup.  Their relation lattice, the ``x`` with
    ``x @ rows == 0`` mod the orders, is read with ``kernel_mod``; it is a
    square presentation ``P`` whose Smith form lists the factors.
    ``det P = D = |s|``, so the row lattices of ``P`` and ``P^T`` both hold
    every ``D * e_j``, and ``echelon_mod`` with orders ``D`` is a row HNF
    pass with entries below ``D``.  Passes over the matrix and its transpose
    alternate until it is diagonal (Kannan & Bachem, SIAM J. Comput. 8(4),
    1979; Hafner & McCurley, SIAM J. Comput. 20(6), 1991); pairwise
    ``gcd``/``lcm`` then put the diagonal in divisibility order.
    """
    rows = [s.basis.row(i) for i, o in enumerate(s.parent.orders) if s.basis[i, i] < o]
    n = len(rows)
    m = kernel_mod(IntMatrix.from_rows(rows, cols=s.parent.n).transpose(), s.parent.orders)
    orders = [s.order()] * n
    while True:
        m = echelon_mod(m, orders)
        if not any(x for i in range(n) for x in m.row(i)[i + 1 :]):
            break
        m = m.transpose()
    d = [m[i, i] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] * d[j] // g
    return [x for x in d if x > 1]


def enumerate_subgroup(s: Subgroup, cap: int = DEFAULT_ENUM_CAP) -> list[GroupElement]:
    """All elements of the subgroup, raising CapExceeded past the cap.

    With the canonical basis the map from coefficient boxes
    ``prod(range(orders[j] // basis[j][j]))`` to elements is a bijection, so
    the enumeration is duplicate-free by construction.
    """
    size = s.order()
    if size > cap:
        raise CapExceeded(size, cap)
    n = s.parent.n
    ranges = [range(s.parent.orders[j] // s.basis[j, j]) for j in range(n)]
    out = []
    for combo in itertools.product(*ranges):
        vec = [0] * n
        for j, c in enumerate(combo):
            if c:
                row = s.basis.row(j)
                for k in range(n):
                    vec[k] += c * row[k]
        out.append(s.parent.element(vec))
    return out


__all__ = [
    "DEFAULT_ENUM_CAP",
    "FiniteAbelianGroup",
    "GroupElement",
    "Subgroup",
    "direct_sum",
    "span",
    "row_span",
    "trivial",
    "full",
    "member",
    "subgroup_equal",
    "subgroup_le",
    "invariant_factors",
    "enumerate_subgroup",
]
