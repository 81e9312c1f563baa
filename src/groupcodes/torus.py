"""Exact arithmetic in the rationals mod 1 and torsion sequence subgroups.

Values are ``fractions.Fraction`` instances normalised into ``[0, 1)``; a
value ``a/b`` in lowest terms has additive order ``b``.  Sequences are
eventually constant, so a subgroup generated by finitely many of them maps
faithfully onto an integer sequence subgroup over ``Z/Q`` where ``Q`` is
the least common denominator; all lattice reasoning happens there.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .control import CONTROLLABLE, Verdict, Witness
from .errors import InternalInconsistency, PreconditionFailed
from .finabel import FiniteAbelianGroup, member
from .seqspace import (
    CoordSchema,
    ProductSubgroup,
    from_values,
    intersect_directsum,
    project,
)


def qz(num: int | Fraction, den: int | None = None) -> Fraction:
    """Canonical point of the rationals mod 1: reduced, in ``[0, 1)``."""
    value = Fraction(num, den) if den is not None else Fraction(num)
    return value - (value.numerator // value.denominator)


def qz_order(x: Fraction) -> int:
    """Additive order of a canonical point; the reduced denominator."""
    return qz(x).denominator


def qz_str(x: Fraction) -> str:
    x = qz(x)
    return f"{x.numerator}/{x.denominator}"


def circle_dist(a: Fraction, b: Fraction) -> Fraction:
    """Shortest distance around the circle of circumference 1."""
    d = qz(a - b)
    return min(d, 1 - d)


def in_span(x: Fraction, y: Sequence[Fraction]) -> bool:
    """Whether ``x`` lies in the cyclic group generated by the points of ``y``.

    The span of ``a_i / b_i`` (reduced) is generated by ``1 / lcm(b_i)``,
    so membership is a divisibility test on denominators.
    """
    denominators = [qz_order(v) for v in y]
    return lcm(*denominators) % qz_order(x) == 0 if denominators else qz_order(x) == 1


@dataclass(frozen=True)
class TorusSeq:
    """Eventually constant sequence of circle points."""

    prefix: tuple[Fraction, ...]
    tail: Fraction

    def __post_init__(self) -> None:
        canon_prefix = [qz(v) for v in self.prefix]
        canon_tail = qz(self.tail)
        while canon_prefix and canon_prefix[-1] == canon_tail:
            canon_prefix.pop()
        object.__setattr__(self, "prefix", tuple(canon_prefix))
        object.__setattr__(self, "tail", canon_tail)

    def value_at(self, i: int) -> Fraction:
        if i < 0:
            raise IndexError("coordinates are indexed from 0")
        return self.prefix[i] if i < len(self.prefix) else self.tail

    def is_zero(self) -> bool:
        return not self.prefix and self.tail == 0

    def __add__(self, other: TorusSeq) -> TorusSeq:
        p = max(len(self.prefix), len(other.prefix))
        return TorusSeq(
            tuple(qz(self.value_at(i) + other.value_at(i)) for i in range(p)),
            qz(self.tail + other.tail),
        )

    def __neg__(self) -> TorusSeq:
        return TorusSeq(tuple(qz(-v) for v in self.prefix), qz(-self.tail))

    def scale(self, k: int) -> TorusSeq:
        return TorusSeq(tuple(qz(k * v) for v in self.prefix), qz(k * self.tail))

    def denominator_lcm(self) -> int:
        return lcm(self.tail.denominator, *(v.denominator for v in self.prefix)) if self.prefix else self.tail.denominator


def build_fk(y: Sequence[Fraction], k: int) -> TorusSeq:
    """The step generator: ``y[k]`` on coordinates ``0..k`` and zero after."""
    if not 0 <= k < len(y):
        raise PreconditionFailed("index outside the generator list")
    return TorusSeq((qz(y[k]),) * (k + 1), Fraction(0))


def constant_seq(x: Fraction) -> TorusSeq:
    return TorusSeq((), qz(x))


@dataclass(frozen=True)
class TorusSeqSubgroup:
    """Subgroup of a torus power generated by eventually constant sequences."""

    y: tuple[Fraction, ...]
    gens: tuple[TorusSeq, ...]
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "y", tuple(qz(v) for v in self.y))
        if self.tags and len(self.tags) != len(self.gens):
            raise ValueError("one tag per generator, or no tags")


def closure_diff_check(g: TorusSeq, y: Sequence[Fraction], window: int | None = None) -> tuple[bool, int | None]:
    """Difference condition ``g(n) - g(n+1) in <y[n]>`` for ``n < window``.

    This is a necessary condition for membership in the closure of the
    step-generator subgroup, not a sufficient one; the certificate is
    advisory.  Returns ``(True, None)`` or ``(False, first failing n)``.
    """
    bound = len(y) if window is None else window
    if bound > len(y):
        raise PreconditionFailed("window reaches past the generator list")
    for n in range(bound):
        diff = qz(g.value_at(n) - g.value_at(n + 1))
        if qz_order(y[n]) % qz_order(diff):
            return False, n
    return True, None


def approximate_constant(
    x: Fraction, y: Sequence[Fraction], j: Iterable[int], epsilon: Fraction
) -> tuple[int, int] | None:
    """Smallest ``(k, m)`` with ``m * y[k]`` within ``epsilon`` of ``x`` on ``j``.

    A multiple of the step generator ``f_k`` is constant on ``0..k``, so it
    approximates the constant ``x`` on all of ``j`` as soon as ``k`` covers
    ``max(j)`` and the circle distance is small.  The scan is ascending in
    ``k`` then ``m``, making the result deterministic and the found ``k``
    non-decreasing as ``epsilon`` shrinks.
    """
    coords = sorted(set(j))
    if not coords:
        raise PreconditionFailed("the coordinate set must be non-empty")
    x = qz(x)
    epsilon = Fraction(epsilon)
    for k in range(max(coords), len(y)):
        step = qz(y[k])
        for m in range(qz_order(step)):
            if circle_dist(qz(m * step), x) < epsilon:
                return k, m
    return None


def to_product_subgroup(tsub: TorusSeqSubgroup) -> tuple[ProductSubgroup, int]:
    """Faithful image over ``Z/Q`` with ``Q`` the least common denominator.

    The map ``a/b -> a * (Q // b) mod Q`` embeds the points appearing in the
    subgroup into the cyclic group of order ``Q``, turning every sequence
    question into an exact integer one.
    """
    q = lcm(*(g.denominator_lcm() for g in tsub.gens), *(v.denominator for v in tsub.y)) if tsub.gens or tsub.y else 1
    group = FiniteAbelianGroup((q,))
    schema = CoordSchema((), group)
    gens = []
    for g in tsub.gens:
        prefix = [group.element((v.numerator * (q // v.denominator),)) for v in g.prefix]
        tail = group.element((g.tail.numerator * (q // g.tail.denominator),))
        gens.append(from_values(schema, prefix, period=(tail,)))
    return ProductSubgroup(schema, tuple(gens)), q


def noncontrollability_witness(tsub: TorusSeqSubgroup, x: Fraction) -> Verdict:
    """Certified failure of controllability at coordinate 0.

    Requires the constant sequence of ``x`` among the generators and ``x``
    outside the span of the step values; then ``x`` is a coordinate-0
    pattern of the subgroup that no finite-support element attains.
    """
    x = qz(x)
    if in_span(x, tsub.y):
        raise PreconditionFailed(
            f"{qz_str(x)} lies in the span of the step values; no witness exists"
        )
    if constant_seq(x) not in tsub.gens:
        raise PreconditionFailed("the constant sequence of x must be a generator")
    ps, q = to_product_subgroup(tsub)
    residue = x.numerator * (q // x.denominator)
    p0h = project(ps, [0])
    p0d = project(intersect_directsum(ps), [0])
    xelem = p0h.parent.element((residue,))
    if not member(p0h, xelem):
        raise InternalInconsistency("the constant generator does not project onto its own value")
    if member(p0d, xelem):
        raise InternalInconsistency("finite-support projection reached a value outside the span")
    return Verdict(
        CONTROLLABLE,
        False,
        Witness(
            (0,),
            xelem,
            "directsum",
            context=f"constant {qz_str(x)} is a coordinate-0 pattern with no finite-support match",
        ),
    )


__all__ = [
    "qz",
    "qz_order",
    "qz_str",
    "circle_dist",
    "in_span",
    "TorusSeq",
    "TorusSeqSubgroup",
    "build_fk",
    "constant_seq",
    "closure_diff_check",
    "approximate_constant",
    "to_product_subgroup",
    "noncontrollability_witness",
]
