"""Structural invariants of window truncations.

A finitely generated sequence subgroup over finite coordinate groups is
determined by its values on one effective window, so its isomorphism type
is that of a finite abelian group and is captured by invariant factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .finabel import Subgroup, invariant_factors
from .seqspace import ProductSubgroup, effective_window, window_subgroup


@dataclass(frozen=True)
class DecompositionReport:
    """Invariant factors of the window image of a sequence subgroup."""

    window: tuple[int, int]
    factors: tuple[int, ...]
    order: int

    def factor_product(self) -> int:
        out = 1
        for d in self.factors:
            out *= d
        return out


def decompose(h: ProductSubgroup, window: Subgroup | None = None) -> DecompositionReport:
    """Cyclic decomposition of the subgroup restricted to its effective window.

    The restriction to ``[0, W + L)`` is a faithful image: two elements of
    the subgroup agreeing there are equal, so the invariant factors of the
    window image classify the subgroup itself up to isomorphism.  A caller
    that already holds that image, ``window_subgroup(h)``'s subgroup, passes
    it as ``window``.
    """
    s = window_subgroup(h)[0] if window is None else window
    return DecompositionReport(effective_window(h), tuple(invariant_factors(s)), s.order())


def torsion_density(h: ProductSubgroup) -> tuple[bool, str]:
    """Whether every element has finite order, with the reason.

    Coordinate groups are finite, an element is determined by finitely many
    window values, so every element's order divides the window exponent.
    """
    w, l = effective_window(h)
    exponent = 1
    for i in range(w + l):
        exponent = lcm(exponent, h.schema.group_at(i).exponent())
    return True, (
        "every generator has finite order: values on the effective window "
        f"determine each element and the window exponent is {exponent}"
    )


__all__ = ["DecompositionReport", "decompose", "torsion_density"]
