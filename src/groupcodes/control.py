"""Controllability deciders for finitely generated sequence subgroups.

Conventions used by every splice-style check in this module and by the
enumeration oracle:

  * A splice of a past of ``h`` with a future of ``h2`` at cut ``n`` with
    gap ``k`` is an element ``g`` with ``g == h`` on ``[0, n)`` and
    ``g == h2`` on ``[n + k, infinity)``.  The past interval is half open,
    so gap 0 means the future may start exactly where the past stops.
  * Cuts are checked for every ``n`` in ``[0, W + L]`` where ``(W, L)`` is
    the effective window.  Elements are determined by their values on
    ``[0, W + L)``, so at ``n = W + L`` the past pins ``g`` completely and
    the condition stabilises; larger cuts add nothing.

Every verdict carries either a certificate (re-derivable equalities of
canonical bases) or a witness (a concrete projection that lies in one
image and not the other); ``verify_verdict`` re-checks both kinds from
scratch.

The deciders are views over one ``Analysis`` per subgroup.  It encodes the
generators once on ``[0, W + L)``, the columns of the last coordinate first,
and runs one ``echelon_mod``.  Its result is a triangular basis of a
full-rank lattice, so it has the suffix property: the rows whose pivots lie
in the columns of coordinates ``0..k`` span exactly the representatives that
vanish above ``k`` (Cohen, A Course in Computational Algebraic Number
Theory, GTM 138, 2.4).  They give the window part ``part(k)``, the elements
supported inside ``[0, k]``, for ``k < W``.  An element supported inside
``[0, k]`` with ``k >= W`` vanishes on a whole block past ``W``, hence on
``[W, infinity)``, so ``k`` is clamped to ``W - 1`` and that part is the
finite-support part (trivial when ``W = 0``).  A projection slices columns
of the generator rows or of a part's rows; a coordinate ``i >= W + L`` reads
the columns of ``W + (i - W) % L``, the block coordinate it repeats.

Segment data are read in natural column order: by the suffix property the
projection onto ``[0, n)`` is the upper-left block of the window's canonical
basis.  Each block is cut once per analysis, and the plain, uniform and
splice claims share it.  The parts are nested, and ``part(k + 1)`` is
``part(k)`` plus the basis rows whose pivots lie in coordinate ``k + 1``.
So one pass grows them all: it inserts those rows with ``insert_mod`` into
``diag(orders)`` on the chosen columns, a coordinate at a time from
coordinate 0, and records the diagonal after each (incremental HNF,
Micciancio and Warinschi, ISSAC 2001).
Any triangular basis of a full-rank lattice has the Hermite pivots, so each
recorded diagonal is a part's, and the last is the subgroup's.  ``part(k)``
lies in ``part(k + 1)`` and in ``H``, so a pivot of ``part(k)`` that equals
the window's stays equal; the defect ``d(n)`` of ``[0, n - 1]`` is the
running maximum over the columns of ``[0, n)`` of ``kappa(i)``, the least
``k < max(W, 1)`` whose part has the window's ``i``-th pivot, so defects
never decrease.  On a coordinate set ``J`` the same pass gives the order
``prod(orders) / prod(pivots)`` of each part's image, the table of
``uniformity_defect``: the trellis span data of a group code (Forney and
Trott, IEEE Trans. IT 39(5), 1993).

Plain and uniform controllability read the same defects: the segment
``[0, n - 1]`` holds exactly when ``d(n)`` is not None, and the first None is
the first failing segment.  Elements are determined on ``[0, W + L)``, so weak,
plain and uniform controllability all hold exactly when ``H`` lies in the
direct sum of the ``G_i``: when every generator's repeating block is zero.

Strong and k-controllability are read off the defects ``d(n)`` of the
segments ``[0, n - 1]``.  A cut splices exactly when every past pattern
joins the zero future, and an element of ``H`` that vanishes on the future
coordinates ``[n + k, max(W, n + k) + L)`` vanishes on a whole block past
``W``, so it lies in ``part(n + k - 1)``.  Hence cut ``n >= 1`` splices with
gap ``k`` exactly when ``d(n) <= n + k - 1`` (cut 0 always does), the least
gap is ``max(0, max_n d(n) - n + 1)``, none if some ``d(n)`` is None, and at
a cut that splices both spans have the block-diagonal join of the past and
future images' canonical bases as their basis.

The futures ``[m, W + L)``, ``m = k..W``, come from one suffix sweep.  The
rows of the canonical basis of the projection onto ``[m, W + L)`` whose
pivots lie past coordinate ``m`` span exactly its vectors that vanish on
``m`` (the suffix property, Cohen, GTM 138, 2.4).  So the projection onto
``[m + 1, W + L)`` is that lower-right block with the tails of the other
rows inserted by ``insert_mod`` and the entries above its pivots reduced
again; one ``echelon_mod`` starts the sweep at ``m = min(k, W)``.  These
are the future state spaces of a minimal trellis (Forney and Trott, IEEE
Trans. IT 39(5), 1993).  A future past ``W`` folds onto a rotation of
``[W, W + L)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain, compress, count
from operator import add, itemgetter, mod, not_
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded, InternalInconsistency
from .finabel import (
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    member,
    span,
    subgroup_equal,
)
from .intlinalg import IntMatrix, echelon_mod, insert_mod, reduce_above_pivots
from .seqspace import (
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    ambient_group,
    delta,
    effective_window,
    from_values,
    intersect_directsum,
    intersect_sum_window,
    project,
    restrict,
)

WEAKLY_CONTROLLABLE = "weakly_controllable"
CONTROLLABLE = "controllable"
UNIFORMLY_CONTROLLABLE = "uniformly_controllable"
K_CONTROLLABLE = "k_controllable"
STRONGLY_CONTROLLABLE = "strongly_controllable"
CONTROLLABLE_AT = "controllable_at"

ORACLE_CAP = 10**4


@dataclass(frozen=True)
class Witness:
    """A projection pattern that separates two images.

    ``h_proj`` lies in the projection of the subgroup onto ``j`` but not in
    the projection of the comparison object named by ``variant``:
    the finite-support part ("directsum"), the part supported on
    ``[0, k]`` ("window"), or the spliceable combinations at cut ``n``
    with gap ``k`` ("splice", where ``j`` lists past then future
    coordinates).
    """

    j: tuple[int, ...]
    h_proj: GroupElement
    variant: str
    n: int | None = None
    k: int | None = None
    context: str = ""


@dataclass(frozen=True)
class EqualityClaim:
    """Two projections agreed; stores both canonical bases for re-checking."""

    j: tuple[int, ...]
    lhs_basis: tuple[tuple[int, ...], ...]
    rhs_basis: tuple[tuple[int, ...], ...]
    n: int | None = None
    k: int | None = None


@dataclass(frozen=True)
class Certificate:
    kind: str
    claims: tuple[EqualityClaim, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class Verdict:
    property: str
    holds: bool
    evidence: Certificate | Witness
    k: int | None = None


@dataclass(frozen=True)
class DefectProfile:
    """Least window ``[0, defect]`` whose support part already fills p_J.

    ``defect`` is None when no window up to ``W + L`` works, which happens
    exactly when the subgroup is not controllable at ``j``.
    """

    j: tuple[int, ...]
    defect: int | None
    table: tuple[tuple[int, int], ...]

    @property
    def exceeds_window(self) -> bool:
        return self.defect is None


def _basis_rows(s: Subgroup) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(s.basis.row(i)) for i in range(s.basis.rows))


def _separating_element(larger: tuple[tuple[int, ...], ...], smaller: Subgroup) -> GroupElement:
    """A basis row of the larger subgroup outside ``smaller`` (requires smaller < larger)."""
    for row in larger:
        x = smaller.parent.element(row)
        if not member(smaller, x):
            return x
    raise InternalInconsistency("no separating basis element between unequal subgroups")


class Analysis:
    """Everything the deciders compute for one subgroup, from one echelon form.

    The generators are encoded once on ``[0, W + L)``, the coordinates'
    columns laid out last coordinate first, and one ``echelon_mod`` gives
    the triangular basis of all their representatives.  Window parts and
    projections are column slices of the generator rows or of a tail of
    that basis; they, the window's basis rows, the segment bases and the
    segment defects are memoised on the instance.  A segment's basis is an
    upper-left block of the window's basis, cut once and shared by every
    verdict's claims.  The futures of ``k_controllable(k)`` come from one
    suffix sweep that starts with one ``echelon_mod`` at coordinate ``k``
    (Cohen, GTM 138, 2.4); only the folded futures past ``W`` and the
    witnesses are projected on their own.  One pass inserts the basis rows
    into ``diag(orders)`` a coordinate at a time and records the pivots of
    every window part; a segment's defect is a running maximum over them,
    and ``uniformity_defect`` reads the parts' image orders off the same
    pass on its coordinates.  The plain, uniform, k- and strong verdicts
    all read ``segment_defects``; the first None there is the first failing
    segment.  The subgroup itself is read only while encoding.  An instance
    serves one call; nothing is cached across instances.
    """

    def __init__(self, h: ProductSubgroup):
        self.w, self.l = effective_window(h)
        coords = range(self.w + self.l - 1, -1, -1)
        groups = [h.schema.group_at(i) for i in coords]
        self._orders = [o for g in groups for o in g.orders]
        # Coordinate i occupies the columns [n - _offsets[i + 1], n - _offsets[i]) of n.
        self._offsets = list(accumulate(reversed([g.n for g in groups]), initial=0))
        self._gen_rows = [[c for i in coords for c in g.value_at(i).coords] for g in h.gens]
        flat = tuple(chain.from_iterable(self._gen_rows))
        basis = echelon_mod(IntMatrix(len(self._gen_rows), len(self._orders), flat), self._orders)
        self._basis_rows = [basis.row(i) for i in range(basis.rows)]
        self._projections: dict[tuple[int | None, tuple[int, ...]], Subgroup] = {}
        self._segments: dict[int, tuple[tuple[int, ...], ...]] = {}

    def part(self, k: int) -> Subgroup:
        """Elements supported inside ``[0, k]``, on the window ``[0, W + L)``."""
        return self._project(k, tuple(range(self.w + self.l)))

    @cached_property
    def window(self) -> Subgroup:
        """The subgroup on ``[0, W + L)``: ``window_subgroup(h)``'s subgroup."""
        return self._project(None, tuple(range(self.w + self.l)))

    @cached_property
    def _window_rows(self) -> tuple[tuple[int, ...], ...]:
        return _basis_rows(self.window)

    def _columns(self, coords: tuple[int, ...]) -> tuple[tuple[int, ...], list[int]]:
        """The sorted ``coords`` with ``i >= W + L`` folded onto ``W + (i - W) % L``, and their columns."""
        if coords and coords[0] < 0:
            raise IndexError("coordinates are indexed from 0")
        w, l = self.w, self.l
        if coords and coords[-1] >= w + l:
            coords = tuple(i if i < w + l else w + (i - w) % l for i in coords)
        n, offsets = len(self._orders), self._offsets
        return coords, [c for i in coords for c in range(n - offsets[i + 1], n - offsets[i])]

    def _project(self, k: int | None, coords: tuple[int, ...]) -> Subgroup:
        """Projection onto the sorted ``coords`` of the subgroup (``k`` None) or of ``part(k)``.

        The memo is keyed on the folded coordinates.
        """
        if k is not None:
            k = min(k, self.w - 1)
        coords, cols = self._columns(coords)
        key = (k, coords)
        if key not in self._projections:
            n = len(self._orders)
            rows = self._gen_rows if k is None else self._basis_rows[n - self._offsets[k + 1] :]
            flat = [r[c] for r in rows for c in cols]
            ambient = FiniteAbelianGroup(tuple(self._orders[c] for c in cols))
            self._projections[key] = Subgroup(ambient, IntMatrix(len(rows), len(cols), tuple(flat)))
        return self._projections[key]

    def _segment(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Canonical basis of the projection onto ``[0, n)``: the upper-left block of the window's, memoised."""
        if n not in self._segments:
            m = self._offsets[n]
            self._segments[n] = tuple(r[:m] for r in self._window_rows[:m])
        return self._segments[n]

    def _futures(self, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Canonical bases of the futures ``[m, max(W, m) + L)`` for ``m = k, k + 1, ...``.

        Up to ``m = W`` they come from the suffix sweep the module docstring
        describes.  Past ``W`` a future folds onto a rotation of ``[W, W + L)``:
        by whole blocks it is the sweep's last basis, otherwise a projection.
        """
        w, l, offsets, orders = self.w, self.l, self._offsets, self.window.parent.orders
        m = min(k, w)
        rows = _basis_rows(self._project(None, tuple(range(m, w + l))))
        while True:
            if m >= k:
                yield rows
            if m == w:
                break
            g = offsets[m + 1] - offsets[m]
            basis, tail = [list(r[g:]) for r in rows[g:]], orders[offsets[m + 1] :]
            for r in rows[:g]:
                insert_mod(basis, r[g:], tail)
            reduce_above_pivots(basis)
            rows, m = tuple(map(tuple, basis)), m + 1
        for m in count(max(k, w + 1)):
            yield rows if (m - w) % l == 0 else _basis_rows(self._project(None, tuple(range(m, m + l))))

    def controllable_at(self, j: Iterable[int]) -> Verdict:
        coords = tuple(sorted(set(j)))
        ph = self._project(None, coords)
        pd = self._project(self.w + self.l, coords)
        basis = _basis_rows(ph)
        if subgroup_equal(ph, pd):
            claim = EqualityClaim(coords, basis, basis)
            return Verdict(CONTROLLABLE_AT, True, Certificate("projection_equality", (claim,)))
        x = _separating_element(basis, pd)
        context = "pattern of the subgroup with no finite-support match"
        return Verdict(CONTROLLABLE_AT, False, Witness(coords, x, "directsum", context=context))

    def controllable(self) -> Verdict:
        """Initial segments ``[0, n]``, ``n < W + L``, decide every finite coordinate set.

        Any finite set lies in such a segment once the window is covered, and
        a finite-support match on ``[0, W + L)`` vanishes beyond the window.
        """
        w, l = self.w, self.l
        claims = []
        for n, d in enumerate(self.segment_defects, start=1):
            coords, basis = tuple(range(n)), self._segment(n)
            if d is None:
                x = _separating_element(basis, self._project(w + l, coords))
                context = "pattern of the subgroup with no finite-support match"
                return Verdict(CONTROLLABLE, False, Witness(coords, x, "directsum", context=context))
            claims.append(EqualityClaim(coords, basis, basis))
        note = f"initial segments up to {w + l - 1} cover all finite coordinate sets at window ({w}, {l})"
        return Verdict(CONTROLLABLE, True, Certificate("projection_equality", tuple(claims), note))

    def _part_pivots(self, coords: tuple[int, ...]) -> list[list[int]]:
        """Pivots on the sorted ``coords`` of every window part, from one insertion pass.

        The window basis rows go into ``diag(orders)`` a coordinate at a time
        from 0, the diagonal recorded first and after each: entry
        ``min(k + 1, W)`` is ``part(k)``'s, the last the subgroup's.  A
        column that folding repeats is read once; it adds no image elements.
        """
        cols = list(dict.fromkeys(self._columns(coords)[1]))
        n, offsets, orders = len(self._orders), self._offsets, [self._orders[c] for c in cols]
        basis = [[0] * k + [o] + [0] * (len(cols) - k - 1) for k, o in enumerate(orders)]
        pivots = [orders]
        for i in range(self.w + self.l):
            for row in self._basis_rows[n - offsets[i + 1] : n - offsets[i]]:
                insert_mod(basis, [row[c] for c in cols], orders)
            pivots.append([row[k] for k, row in enumerate(basis)])
        return pivots

    def uniformity_defect(self, j: Iterable[int]) -> DefectProfile:
        """Least window part that fills the projection onto ``j``, with the order of each part tried.

        An image's order is ``prod(orders) / prod(pivots)``; a part's image
        lies in the subgroup's, so equal orders mean equal images.
        """
        coords = tuple(sorted(set(j)))
        index = [FiniteAbelianGroup(tuple(p)).order() for p in self._part_pivots(coords)]
        table = tuple((k, index[0] // index[min(k + 1, self.w)]) for k in range(self.w + self.l + 1))
        defect = next((k for k, order in table if order == index[0] // index[-1]), None)
        return DefectProfile(coords, defect, table if defect is None else table[: defect + 1])

    @cached_property
    def segment_defects(self) -> tuple[int | None, ...]:
        """``d(n)`` for the segments ``[0, n - 1]``, ``n = 1..W+L``, ending at the first None.

        ``d(n)`` is the running maximum over the columns of ``[0, n)`` of the
        least ``k < max(W, 1)`` whose ``part(k)`` has the window's pivot there.
        """
        parts, top = self._part_pivots(tuple(range(self.w + self.l))), max(self.w, 1)
        defects, d = [], 0
        for n in range(1, self.w + self.l + 1):
            for i in range(self._offsets[n - 1], self._offsets[n]):
                while d < top and parts[min(d + 1, self.w)][i] != parts[-1][i]:
                    d += 1
            if d == top:
                return (*defects, None)
            defects.append(d)
        return tuple(defects)

    def uniformly_controllable(self) -> Verdict:
        claims = []
        for n, d in enumerate(self.segment_defects, start=1):
            coords, basis = tuple(range(n)), self._segment(n)
            if d is None:
                top = self.w + self.l
                x = _separating_element(basis, self._project(top, coords))
                context = "pattern not matched by any support window up to W+L"
                return Verdict(UNIFORMLY_CONTROLLABLE, False, Witness(coords, x, "window", k=top, context=context))
            claims.append(EqualityClaim(coords, basis, basis, k=d))
        return Verdict(UNIFORMLY_CONTROLLABLE, True, Certificate("window_equality", tuple(claims)))

    def k_controllable(self, k: int) -> Verdict:
        if k < 0:
            raise ValueError("gap must be non-negative")
        defects = self.segment_defects
        claims = []
        for n, lower in zip(range(self.w + self.l + 1), self._futures(k)):
            upper = self._segment(n)
            basis = tuple(r + (0,) * len(lower) for r in upper) + tuple((0,) * len(upper) + r for r in lower)
            coords = tuple(chain(*_splice_coords(self.w, self.l, n, k)))
            if n and (defects[n - 1] is None or defects[n - 1] > n + k - 1):
                x = _separating_element(basis, self._project(None, coords))
                context = "past/future pair with no spliced element at this cut"
                return Verdict(K_CONTROLLABLE, False, Witness(coords, x, "splice", n=n, k=k, context=context), k=k)
            claims.append(EqualityClaim(coords, basis, basis, n=n, k=k))
        return Verdict(K_CONTROLLABLE, True, Certificate("splice_equality", tuple(claims)), k=k)

    def least_gap(self, k_max: int | None = None) -> int | None:
        """Least gap that splices at every cut, ``max(0, max_n d(n) - n + 1)``; None if some ``d(n)`` is.

        Also None past the bound, ``W + L`` by default, which no gap exceeds as ``d(n) < max(W, 1)``.
        """
        defects = self.segment_defects
        gap = None if None in defects else max([0] + [d - n + 1 for n, d in enumerate(defects, start=1)])
        return gap if gap is not None and gap <= (self.w + self.l if k_max is None else k_max) else None

    def strongly_controllable(self, k_max: int | None = None) -> Verdict:
        """The least gap up to the bound with its splice certificate, or the witness at the bound.

        A negative ``k_max`` has no gap to witness at and raises ``ValueError``.
        """
        if k_max is not None and k_max < 0:
            raise ValueError("k_max must be non-negative")
        bound = self.w + self.l if k_max is None else k_max
        idx = self.least_gap(bound)
        v = self.k_controllable(bound if idx is None else idx)
        return Verdict(STRONGLY_CONTROLLABLE, idx is not None, v.evidence, k=idx)


def _splice_coords(w: int, l: int, n: int, k: int) -> tuple[range, range]:
    """The past ``[0, n)`` and future ``[n + k, max(W, n + k) + L)`` coordinates of cut ``n`` with gap ``k``."""
    return range(n), range(n + k, max(w, n + k) + l)


def _splice_spans(h: ProductSubgroup, n: int, k: int) -> tuple[Subgroup, Subgroup, tuple[int, ...]]:
    """Span of joint past/future patterns versus the product of the images."""
    coords = tuple(chain(*_splice_coords(*effective_window(h), n, k)))
    ambient = ambient_group(h.schema, coords)
    restricted = [restrict(g, coords, ambient) for g in h.gens]
    a_width = sum(h.schema.group_at(i).n for i in range(n))
    b_zero, a_zero = (0,) * (ambient.n - a_width), (0,) * a_width
    split_gens = []
    for x in restricted:
        split_gens.append(ambient.element(x.coords[:a_width] + b_zero))
        split_gens.append(ambient.element(a_zero + x.coords[a_width:]))
    return span(ambient, restricted), span(ambient, split_gens), coords


def controllable_at(h: ProductSubgroup, j: Iterable[int]) -> Verdict:
    """Whether the finite-support part already fills the projection onto ``j``."""
    return Analysis(h).controllable_at(j)


def is_controllable(h: ProductSubgroup) -> Verdict:
    """Controllability over all finite coordinate sets."""
    return Analysis(h).controllable()


def is_weakly_controllable_discrete(h: ProductSubgroup) -> Verdict:
    """Density of the finite-support part, read over discrete coordinates.

    With discrete coordinate groups a basic open set of the product is a
    finite pattern, so density is the same projection equality that
    controllability checks; the verdict delegates and relabels.
    """
    return as_weak(is_controllable(h))


def as_weak(controllable: Verdict) -> Verdict:
    """The weak-controllability verdict carried by a controllability verdict."""
    return replace(controllable, property=WEAKLY_CONTROLLABLE)


def uniformity_defect(h: ProductSubgroup, j: Iterable[int]) -> DefectProfile:
    return Analysis(h).uniformity_defect(j)


def is_uniformly_controllable(h: ProductSubgroup) -> Verdict:
    """A finite support window suffices for every finite coordinate set."""
    return Analysis(h).uniformly_controllable()


def is_k_controllable(h: ProductSubgroup, k: int) -> Verdict:
    """Splice any past with any future at every cut, with gap exactly ``k``."""
    return Analysis(h).k_controllable(k)


def strong_index(h: ProductSubgroup, k_max: int | None = None) -> int | None:
    """Least gap that works at every cut, or None up to ``k_max``."""
    return Analysis(h).least_gap(k_max)


def is_strongly_controllable(h: ProductSubgroup, k_max: int | None = None) -> Verdict:
    return Analysis(h).strongly_controllable(k_max)


def hierarchy_consistent(verdicts: dict[str, bool]) -> bool:
    """The implication chain between the computed properties.

    strongly (some gap) implies uniformly implies controllable implies
    weakly; a violation signals an engine bug.
    """
    ladder = (STRONGLY_CONTROLLABLE, UNIFORMLY_CONTROLLABLE, CONTROLLABLE, WEAKLY_CONTROLLABLE)
    known = [verdicts[p] for p in ladder if verdicts.get(p) is not None]
    return not any(earlier and not later for earlier, later in zip(known, known[1:]))


# The certificate kind and witness variant that each property's evidence must have.
_EVIDENCE = {
    WEAKLY_CONTROLLABLE: ("projection_equality", "directsum"),
    CONTROLLABLE: ("projection_equality", "directsum"),
    CONTROLLABLE_AT: ("projection_equality", "directsum"),
    UNIFORMLY_CONTROLLABLE: ("window_equality", "window"),
    K_CONTROLLABLE: ("splice_equality", "splice"),
    STRONGLY_CONTROLLABLE: ("splice_equality", "splice"),
}


def verify_verdict(h: ProductSubgroup, v: Verdict) -> bool:
    """Re-derive the evidence of a verdict from the subgroup alone.

    Each property takes one certificate kind and one witness variant.  A
    certificate must hold the full claim set: one claim per segment
    ``[0, n - 1]``, ``n = 1..W+L``, or, for the splice kind, one claim per
    cut ``0..W+L`` at the verdict's gap; a verdict at one coordinate set
    holds one projection claim.  A witness must lie in the outer
    span and not in the inner one; a window witness needs ``k >= W + L``,
    and a k-controllability witness the verdict's gap.
    """
    if v.property not in _EVIDENCE:
        return False
    kind, variant = _EVIDENCE[v.property]
    top = sum(effective_window(h))
    ev, inner = v.evidence, {}
    if isinstance(ev, Witness):
        n, k = (ev.n if variant == "splice" else None), (None if variant == "directsum" else ev.k)
        spans = _spans(h, ev.j, n, k, inner)
        return (
            not v.holds
            and ev.variant == variant
            and spans is not None
            and (variant != "window" or k is not None and k >= top)
            and (v.property != K_CONTROLLABLE or k == v.k)
            and ev.h_proj.parent == spans[0].parent
            and member(spans[0], ev.h_proj)
            and not member(spans[1], ev.h_proj)
        )
    if not (isinstance(ev, Certificate) and v.holds and ev.kind == kind):
        return False
    if v.property == CONTROLLABLE_AT:
        full = [(c.n, c.k) for c in ev.claims] == [(None, None)]
    elif variant == "splice":
        full = [(c.n, c.k) for c in ev.claims] == [(n, v.k) for n in range(top + 1)]
    else:
        segments = [(tuple(range(n)), None, variant == "window") for n in range(1, top + 1)]
        full = [(c.j, c.n, c.k is not None) for c in ev.claims] == segments
    return full and all(_claim_holds(h, c, inner) for c in ev.claims)


def _claim_holds(h: ProductSubgroup, c: EqualityClaim, inner: dict[int | None, ProductSubgroup]) -> bool:
    spans = _spans(h, c.j, c.n, c.k, inner)
    return spans is not None and c.lhs_basis == c.rhs_basis == _basis_rows(spans[0]) == _basis_rows(spans[1])


def _spans(
    h: ProductSubgroup, j: tuple[int, ...], n: int | None, k: int | None, inner: dict[int | None, ProductSubgroup]
) -> tuple[Subgroup, Subgroup] | None:
    """The outer and inner span that a claim at ``(j, n, k)`` equates and a witness separates.

    With ``n`` set, the product of the past and future images and the joint
    span at cut ``n`` with gap ``k``, if ``j`` lists their coordinates;
    otherwise the projections onto ``j`` of the subgroup and of the part
    supported on ``[0, k]``, or of the finite-support part when ``k`` is
    None or ``k >= W - 1``: a part supported inside ``[0, k]`` with
    ``k >= W`` vanishes on a whole block past ``W``.  ``inner`` memoises
    those parts by the index read.  None for a negative or non-integer
    index, or for a ``j`` of the wrong length.
    """
    if (n is not None and k is None) or not all(isinstance(x, int) and x >= 0 for x in (*j, n, k) if x is not None):
        return None
    w, l = effective_window(h)
    if n is not None:
        if len(j) != sum(map(len, _splice_coords(w, l, n, k))):
            return None
        joint, product, coords = _splice_spans(h, n, k)
        return (product, joint) if coords == j else None
    key = None if k is None or k >= w - 1 else k
    if key not in inner:
        inner[key] = intersect_directsum(h) if key is None else intersect_sum_window(h, range(key + 1))
    return project(h, j), project(inner[key], j)


class WindowOracle:
    """Ground truth by exhaustive enumeration over the effective window.

    Every element is determined by its values on the window ``[0, W + L)``,
    and past ``W`` it repeats its block, so it is stored as one flat residue
    tuple over the window; coordinate ``i >= W + L`` reads ``W + (i - W) % L``,
    as ``SeqElement.value_at`` does.  The values from any coordinate
    ``s >= W`` on determine the values from ``W`` on, and are determined by
    them, so "the values from ``n`` on" is the slice from coordinate
    ``min(n, W)``: a future, a reconnection point or a support bound past
    ``W`` adds nothing.

    Every property is a comparison of sets; no lattice computation is
    involved.  A pattern set holds the values of some elements on some
    columns.  A splice set holds one integer per element in place of its
    pair of slices, the past before a cut and the future from a start on.
    Equal slices are interned into one class, numbered by the index of its
    first element, and the pair is stored as ``past * |H| + future``.  These
    classes are the past and future state spaces of a trellis (Forney and
    Trott, IEEE Trans. IT 39(5), 1993).  Classes, pattern sets and splice
    answers are memoised on the instance.
    """

    def __init__(self, h: ProductSubgroup, cap: int = ORACLE_CAP):
        self.w, self.l = w, l = effective_window(h)
        groups = [h.schema.group_at(i) for i in range(w + l)]
        orders = [o for g in groups for o in g.orders]
        self.offsets = list(accumulate((g.n for g in groups), initial=0))
        if cap < 1:
            raise CapExceeded(1, cap)
        elems = {(0,) * len(orders)}
        for g in h.gens:
            # The multiples of g up to the first one already enumerated shift
            # the enumerated subgroup onto its other cosets, so each new
            # element is made once.
            step = tuple(c for i in range(w + l) for c in g.value_at(i).coords)
            shifts, shift = [], step
            while shift not in elems:
                shifts.append(shift)
                if len(elems) * (len(shifts) + 1) > cap:
                    raise CapExceeded(cap + 1, cap)
                shift = tuple(map(mod, map(add, shift, step), orders))
            elems |= {tuple(map(mod, map(add, x, s), orders)) for s in shifts for x in elems}
        self.elements = list(elems)
        self._memo: dict = {}

    def _memoised(self, key: tuple, make: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def _from(self, n: int) -> int:
        """Start of the slice that holds the values from coordinate ``n`` on."""
        return self.offsets[min(n, self.w)]

    def _classes(self, cols: slice, scale: int) -> tuple[list[int], int]:
        """Each element's class of slices ``x[cols]``, times ``scale``, and the number of classes.

        A class is numbered by the index of its first element, so ids are below ``|H|``.
        """

        def number() -> tuple[list[int], int]:
            first: dict[tuple[int, ...], int] = {}
            ids = list(map(first.setdefault, map(itemgetter(cols), self.elements), count(0, scale)))
            return ids, len(first)

        return self._memoised(("classes", cols.start, cols.stop, scale), number)

    def _pasts(self, cut: int) -> tuple[list[int], int]:
        """``|H|`` times each element's class of slices before column ``cut``, and the number of classes."""
        return self._classes(slice(0, cut), len(self.elements))

    def _futures(self, start: int) -> tuple[list[int], int]:
        """Each element's class of slices from column ``start`` on, and the number of classes."""
        return self._classes(slice(start, None), 1)

    def patterns(self, coords: Sequence[int], within: int | None = None) -> set[tuple[int, ...]]:
        """Values on ``coords`` of every element, or of those supported inside ``[0, within]``."""
        w, l = self.w, self.l
        cols = []
        for i in coords:
            i = i if i < w + l else w + (i - w) % l
            cols.extend(range(self.offsets[i], self.offsets[i + 1]))
        start = None if within is None else self._from(within + 1)

        def read() -> set[tuple[int, ...]]:
            pool = self.elements
            if start is not None:
                pool = compress(pool, map(not_, map(any, map(itemgetter(slice(start, None)), pool))))
            # A run of columns is read as one slice; other column lists hold at least two.
            first = cols[0] if cols else 0
            run = cols == list(range(first, first + len(cols)))
            return set(map(itemgetter(slice(first, first + len(cols))) if run else itemgetter(*cols), pool))

        return self._memoised(("patterns", tuple(cols), start), read)

    def controllable_at(self, j: Iterable[int]) -> bool:
        coords = sorted(set(j))
        return self.patterns(coords) == self.patterns(coords, within=self.w - 1)

    def controllable(self) -> bool:
        # Only the longest segment [0, W + L - 1] is checked: the pattern sets
        # of every shorter segment are projections of its sets, so equality
        # there, and a defect there, carry over to every shorter segment.
        return self.controllable_at(range(self.w + self.l))

    def weakly_controllable(self) -> bool:
        """Density of the finite-support part: every finite pattern is matched."""
        return self.controllable()

    def defect(self, j: Iterable[int]) -> int | None:
        coords = sorted(set(j))
        target = self.patterns(coords)
        # From k = W - 1 on, the elements supported inside [0, k] are those that vanish from W on.
        return next((k for k in range(max(self.w, 1)) if self.patterns(coords, within=k) == target), None)

    def uniformly_controllable(self) -> bool:
        return self.defect(range(self.w + self.l)) is not None

    def _splices(self, n: int, m: int) -> tuple[set[int], int, int]:
        """The pair (values before ``n``, values from ``m`` on) of every element, as ``past * |H| + future``.

        Also the number of pasts and of futures.
        """
        pasts, past_count = self._pasts(self.offsets[n])
        futures, future_count = self._futures(self._from(m))
        return set(map(add, pasts, futures)), past_count, future_count

    def _joins(self, n: int, m: int) -> bool:
        """Whether every past before ``n`` joins every future from ``m`` on."""
        key = ("joins", self.offsets[n], self._from(m))
        return self._memoised(key, lambda: _every_past_joins_every_future(*self._splices(n, m)))

    def k_controllable(self, k: int) -> bool:
        if k < 0:
            raise ValueError("gap must be non-negative")
        return all(self._joins(n, n + k) for n in range(self.w + self.l + 1))

    def strong_index(self, k_max: int | None = None) -> int | None:
        # A future from n + k >= W on is the slice from W, so every gap past W answers as W does.
        bound = self.w if k_max is None else min(k_max, self.w)
        return next((k for k in range(bound + 1) if self.k_controllable(k)), None)

    def _reconnection_points(self, n: int) -> range:
        return range(n, max(n, self.w) + 1)

    def controllable_splice(self) -> bool:
        """Pair-by-pair splicing with a free reconnection point."""
        for n in range(self.w + self.l + 1):
            pasts, _ = self._pasts(self.offsets[n])
            joints = [(self._futures(self._from(m))[0], self._splices(n, m)[0]) for m in self._reconnection_points(n)]
            for past in set(pasts):
                for y in range(len(self.elements)):
                    if not any(past + futures[y] in joint for futures, joint in joints):
                        return False
        return True

    def uniform_splice(self) -> bool:
        """One reconnection point per cut that serves every pair."""
        return all(any(self._joins(n, m) for m in self._reconnection_points(n)) for n in range(self.w + self.l + 1))


def _every_past_joins_every_future(joint: set[int], pasts: int, futures: int) -> bool:
    return len(joint) == pasts * futures


def translate_from_Z(window_neg: int, h: ProductSubgroup) -> ProductSubgroup:
    """Reindex a description whose coordinates start at ``-window_neg``: the identity on storage.

    The shift is an isomorphism of the ambient product that maps
    finite-support parts onto each other, so every verdict is unchanged.
    """
    if window_neg < 0:
        raise ValueError("window_neg must be non-negative")
    return ProductSubgroup(h.schema, h.gens)


def with_full_past(h: ProductSubgroup, depth: int, group: FiniteAbelianGroup | None = None) -> ProductSubgroup:
    """Extend by ``depth`` fresh leading coordinates carrying the full group.

    The result represents the two-sided extension of ``h`` whose negative
    window is saturated: stored coordinate ``i < depth`` stands for a
    negative index and carries every value, while ``h`` is shifted right by
    ``depth``.  Feeding the result to ``translate_from_Z(depth, ...)``
    yields the one-sided problem with the same verdicts.
    """
    if depth < 0:
        raise ValueError("depth must be non-negative")
    if group is None:
        group = h.schema.group_at(0)
    schema = CoordSchema((group,) * depth + h.schema.prefix, h.schema.tail)
    gens: list[SeqElement] = []
    for i in range(depth):
        for val in group.generators():
            gens.append(delta(schema, i, val))
    for g in h.gens:
        vals = [schema.group_at(i).zero() for i in range(depth)]
        vals.extend(g.value_at(t) for t in range(g.prefix_len))
        gens.append(from_values(schema, vals, g.period))
    return ProductSubgroup(schema, tuple(gens))


__all__ = [
    "WEAKLY_CONTROLLABLE",
    "CONTROLLABLE",
    "UNIFORMLY_CONTROLLABLE",
    "K_CONTROLLABLE",
    "STRONGLY_CONTROLLABLE",
    "CONTROLLABLE_AT",
    "ORACLE_CAP",
    "Witness",
    "EqualityClaim",
    "Certificate",
    "Verdict",
    "DefectProfile",
    "Analysis",
    "controllable_at",
    "is_controllable",
    "is_weakly_controllable_discrete",
    "as_weak",
    "uniformity_defect",
    "is_uniformly_controllable",
    "is_k_controllable",
    "strong_index",
    "is_strongly_controllable",
    "hierarchy_consistent",
    "verify_verdict",
    "WindowOracle",
    "translate_from_Z",
    "with_full_past",
]
