"""Parameterised families of sequence subgroups with known behaviour.

Each constructor produces the finitely generated truncation of an infinite
family whose members separate levels of the controllability hierarchy:
ascending chains with growing support windows, disjoint blocks of equal
order elements, and residue-class patterns whose finite-support part is
trivial while the whole subgroup projects onto every finite face.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .control import Analysis, DefectProfile
from .errors import ChainNotStrict, PreconditionFailed
from .finabel import (
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    span,
    subgroup_equal,
    subgroup_le,
)
from .intlinalg import MAX_WIDTH
from .seqspace import (
    ProductSubgroup,
    SeqElement,
    from_values,
    intersect_sum_window,
    subgroups_equal,
    uniform_schema,
)
from .torus import TorusSeq, TorusSeqSubgroup, build_fk, constant_seq, qz


def _subgroup_generators(s: Subgroup) -> list[GroupElement]:
    gens = [s.parent.element(s.basis.row(i)) for i in range(s.basis.rows)]
    return [g for g in gens if not g.is_zero()]


def chain_layer(m: FiniteAbelianGroup, a_i: Subgroup, i: int) -> ProductSubgroup:
    """Elements constant on ``0..i`` with value in ``a_i`` and zero after."""
    schema = uniform_schema(m)
    gens = [from_values(schema, [a] * (i + 1)) for a in _subgroup_generators(a_i)]
    return ProductSubgroup(schema, tuple(gens))


def chain_family(m: FiniteAbelianGroup, chain: Sequence[Subgroup]) -> ProductSubgroup:
    """Sum of the layers of a strictly ascending subgroup chain.

    Layer ``i`` repeats a value of ``chain[i]`` on the ``i + 1`` leading
    coordinates; the union of all layer generators generates the family
    member.  The chain must be strictly increasing.
    """
    if not chain:
        raise ChainNotStrict("the chain must contain at least one subgroup")
    for s in chain:
        if s.parent != m:
            raise ChainNotStrict("chain subgroups must live in the coordinate group")
    for a, b in zip(chain, chain[1:]):
        if not subgroup_le(a, b) or subgroup_equal(a, b):
            raise ChainNotStrict("chain must be strictly ascending")
    return chain_layer_sum(m, chain, len(chain) - 1)


def chain_layer_sum(m: FiniteAbelianGroup, chain: Sequence[Subgroup], k: int) -> ProductSubgroup:
    """Sum of the layers ``0..k`` of the chain family, generated by their generators."""
    gens: list[SeqElement] = []
    for i, a_i in enumerate(chain[: k + 1]):
        gens.extend(chain_layer(m, a_i, i).gens)
    return ProductSubgroup(uniform_schema(m), tuple(gens))


def chain_faces_hold(m: FiniteAbelianGroup, chain: Sequence[Subgroup], k: int) -> bool:
    """Whether the support-window part up to ``k`` is the sum of layers up to ``k``.

    This is the finite-faces identity of the chain family, checked as an
    exact equality of generated subgroups.
    """
    window_part = intersect_sum_window(chain_family(m, chain), range(k + 1))
    return subgroups_equal(window_part, chain_layer_sum(m, chain, k))


def z2_power_chain(depth: int) -> tuple[FiniteAbelianGroup, list[Subgroup]]:
    """``M = (Z/2)^depth`` and the chain whose ``A_i`` is spanned by the first ``i + 1`` units."""
    if depth < 1:
        raise PreconditionFailed("depth must be at least 1")
    m = FiniteAbelianGroup((2,) * depth)
    units = [m.element([int(i == j) for i in range(depth)]) for j in range(depth)]
    return m, [span(m, units[: i + 1]) for i in range(depth)]


def z2_power_example(depth: int) -> ProductSubgroup:
    """Chain family over ``(Z/2)^depth`` with ``A_i`` spanned by the first ``i + 1`` units.

    Controllable with supports defect ``depth - 1`` at coordinate 0.
    """
    return chain_family(*z2_power_chain(depth))


def block_family(p: int, block_sizes: Sequence[int]) -> ProductSubgroup:
    """All-ones generators over ``Z/p`` on consecutive disjoint blocks.

    Every coordinate of a generator has the same order ``p``; supports are
    disjoint and increasing.  A splice across a block of size ``S`` needs a
    gap of at least ``S - 1``, so the family is not ``k``-controllable for
    any ``k <= max(block_sizes) - 2`` while staying uniformly controllable.
    """
    if p < 2:
        raise PreconditionFailed("the coordinate order must be at least 2")
    if not block_sizes or any(s < 1 for s in block_sizes):
        raise PreconditionFailed("block sizes must be positive")
    group = FiniteAbelianGroup((p,))
    schema = uniform_schema(group)
    one = group.element((1,))
    zero = group.zero()
    gens = []
    pos = 0
    for size in block_sizes:
        vals = [zero] * pos + [one] * size
        gens.append(from_values(schema, vals))
        pos += size
    return ProductSubgroup(schema, tuple(gens))


def dense_trivial_sum_family(k_group: FiniteAbelianGroup, l: int, window: int) -> ProductSubgroup:
    """Residue-class generators whose finite-support part is trivial.

    Generator ``(d, k)`` carries value ``d`` on every coordinate congruent
    to ``k`` mod ``l`` from ``k`` onwards.  Any combination with finite
    support must kill every residue class, hence is zero, while projections
    onto the first ``l`` coordinates are already full.  ``window`` must show
    at least one full residue cycle and is recorded for reporting.
    """
    if l < 2:
        raise PreconditionFailed("at least two residue classes are required")
    if window < l:
        raise PreconditionFailed("window must cover one full residue cycle")
    schema = uniform_schema(k_group)
    zero = k_group.zero()
    gens = []
    for k in range(l):
        for d in k_group.generators():
            block = [d if t == 0 else zero for t in range(l)]
            gens.append(from_values(schema, [zero] * k, period=block))
    return ProductSubgroup(schema, tuple(gens))


ODD_PRIMES_START = 3


def odd_primes(n: int) -> list[int]:
    """The first ``n`` odd primes."""
    out: list[int] = []
    candidate = ODD_PRIMES_START
    while len(out) < n:
        if all(candidate % p for p in range(3, int(candidate**0.5) + 1, 2)):
            out.append(candidate)
        candidate += 2
    return out


def torsion_torus_example(n: int) -> TorusSeqSubgroup:
    """Step generators at reciprocal odd primes plus the constant one-half.

    The step values span a cyclic group of odd order, so the constant
    ``1/2`` is a coordinate-0 pattern of the subgroup that its
    finite-support part can never reach.
    """
    if n < 1:
        raise PreconditionFailed("at least one step generator is required")
    y = tuple(Fraction(1, p) for p in odd_primes(n))
    gens: list[TorusSeq] = [build_fk(y, k) for k in range(n)]
    tags = [f"step_{k}" for k in range(n)]
    gens.append(constant_seq(qz(1, 2)))
    tags.append("constant_1_2")
    return TorusSeqSubgroup(y, tuple(gens), tuple(tags))


@dataclass(frozen=True)
class GrowthRow:
    parameter: int
    profile: DefectProfile
    controllable: bool
    strong: int | None


# Each growth family: its member at a parameter and the width of that member's window in columns.
_GROWTH = {
    "chain": (z2_power_example, lambda depth: depth * (depth + 1)),
    "block": (lambda size: block_family(2, (2, size)), lambda size: size + 3),
}


def defect_growth(kind: str, grid: Sequence[int], j: Sequence[int] = (0,)) -> list[GrowthRow]:
    """Defect and splice-gap growth along a parameter grid.

    ``kind`` selects the family: "chain" grows the chain depth of the
    z2 power example; "block" grows the largest block of a two-block family
    over ``Z/2``.  Before any member is built, a parameter whose window is
    wider than ``MAX_WIDTH`` columns raises ``MemoryError``.
    """
    if kind not in _GROWTH:
        raise PreconditionFailed(f"unknown growth family {kind!r}")
    build, width = _GROWTH[kind]
    wide = next((p for p in grid if width(p) > MAX_WIDTH), None)
    if wide is not None:
        raise MemoryError(f"parameter {wide} needs a {width(wide)}-column window, above the {MAX_WIDTH}-column limit")
    rows = []
    for parameter in grid:
        a = Analysis(build(parameter))
        rows.append(GrowthRow(parameter, a.uniformity_defect(j), a.controllable().holds, a.least_gap()))
    return rows


__all__ = [
    "chain_layer",
    "chain_family",
    "chain_layer_sum",
    "chain_faces_hold",
    "z2_power_chain",
    "z2_power_example",
    "block_family",
    "dense_trivial_sum_family",
    "odd_primes",
    "torsion_torus_example",
    "GrowthRow",
    "defect_growth",
]
