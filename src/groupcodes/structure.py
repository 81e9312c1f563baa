"""Structural invariants of window truncations.

A finitely generated sequence subgroup over finite coordinate groups is
determined by its values on one effective window, so its isomorphism type
is that of a finite abelian group and is captured by invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass

from .finabel import invariant_factors
from .seqspace import ProductSubgroup, effective_window, window_subgroup


@dataclass(frozen=True)
class DecompositionReport:
    """Invariant factors of the window image of a sequence subgroup."""

    window: tuple[int, int]
    factors: tuple[int, ...]
    order: int


def decompose(h: ProductSubgroup) -> DecompositionReport:
    """Cyclic decomposition of the subgroup restricted to its effective window.

    The restriction to ``[0, W + L)`` is a faithful image: two elements of
    the subgroup agreeing there are equal, so the invariant factors of the
    window image classify the subgroup itself up to isomorphism.
    """
    s = window_subgroup(h)[0]
    return DecompositionReport(effective_window(h), tuple(invariant_factors(s)), s.order())


__all__ = ["DecompositionReport", "decompose"]
