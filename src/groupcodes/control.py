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
image and not the other); ``verify_verdict`` re-checks both kinds apart
from ``Analysis``: it encodes the generators once per call (``window_rows``)
and compares column slices of those rows and of window parts' rows.

The deciders are views over one ``Analysis`` per subgroup.  It encodes the
generators once on ``[0, W + L)`` and runs one ``echelon_mod`` on their rows
with the columns reversed.  Its result is a triangular basis of a full-rank
lattice, so it has the suffix property: the rows whose pivots lie in the
columns of coordinates ``0..k`` span exactly the representatives that
vanish above ``k`` (Cohen, A Course in Computational Algebraic Number
Theory, GTM 138, 2.4).  They are the basis's last rows; with their columns
read forwards again they give the window part ``part(k)``, the elements
supported inside ``[0, k]``, for ``k < W``.  An element supported inside
``[0, k]`` with ``k >= W`` vanishes on a whole block past ``W``, hence on
``[W, infinity)``, so ``k`` is clamped to ``W - 1`` and that part is the
finite-support part (trivial when ``W = 0``).  Every projection is ``WindowCodec.project`` of
the generator rows or of a part's rows: the layout of ``[0, W + L)`` and the
fold of a coordinate ``i >= W + L`` onto ``W + (i - W) % L`` are the codec's.

A segment's basis needs no echelon of its own: by the suffix property the
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
the first failing segment; a pattern of it with no finite-support match
witnesses both failures.  Elements are determined on ``[0, W + L)``, so weak,
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
from itertools import chain, count
from operator import add
from typing import Any, Callable, Iterable, Iterator, Sequence

from .errors import CapExceeded, InternalInconsistency
from .finabel import (
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    member,
    row_span,
    subgroup_equal,
)
from .intlinalg import IntMatrix, echelon_mod, insert_mod, reduce_above_pivots
from .seqspace import (
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    WindowCodec,
    delta,
    from_values,
    supported_rows,
    window_rows,
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

    The generators are encoded once on ``[0, W + L)``, and one
    ``echelon_mod`` on their rows, with the columns of the last coordinate
    first, gives the triangular basis of all their representatives, read
    back in the codec's column order.  A window part's rows are a tail of
    that basis; every projection is ``WindowCodec.project`` of them or of
    the generator rows.  A segment's basis is an upper-left block of the
    window's basis, cut once and shared by every verdict's claims.  The
    futures of ``k_controllable(k)`` come from one suffix sweep that starts
    with one ``echelon_mod`` at coordinate ``k`` (Cohen, GTM 138, 2.4).  One
    pass inserts the basis rows into ``diag(orders)`` a coordinate at a time
    and records the pivots of every window part; a segment's defect is a
    running maximum over them, and ``uniformity_defect`` reads the parts'
    image orders off the same pass on its coordinates.  Every verdict reads
    ``segment_defects``; the first None there is the first failing segment,
    whose witness the plain and uniform verdicts share.  The subgroup is
    read only while encoding; nothing is cached across instances.
    """

    def __init__(self, h: ProductSubgroup):
        self._codec, self._gen_rows = window_rows(h)
        self.w, self.l, self._offsets = self._codec.w, self._codec.l, self._codec.offsets
        # Reversed columns put the pivots of coordinates 0..k in the basis's last rows.
        orders = self._codec.ambient.orders[::-1]
        flat = tuple(chain.from_iterable(r[::-1] for r in self._gen_rows))
        basis = echelon_mod(IntMatrix(len(self._gen_rows), len(orders), flat), orders)
        self._basis_rows = [basis.row(i)[::-1] for i in range(basis.rows)]
        self._segments: dict[int, tuple[tuple[int, ...], ...]] = {}

    def _part_rows(self, k: int) -> list[tuple[int, ...]]:
        """Basis rows that span ``part(k)``: those with pivots in the columns of ``[0, min(k, W - 1)]``."""
        return self._basis_rows[len(self._basis_rows) - self._offsets[min(k, self.w - 1) + 1] :]

    def part(self, k: int) -> Subgroup:
        """Elements supported inside ``[0, k]``, on the window ``[0, W + L)``."""
        return self._codec.project(self._part_rows(k), range(self.w + self.l))

    @cached_property
    def window(self) -> Subgroup:
        """The subgroup on ``[0, W + L)``: ``window_subgroup(h)``'s subgroup."""
        return self._codec.project(self._gen_rows, range(self.w + self.l))

    @cached_property
    def _window_rows(self) -> tuple[tuple[int, ...], ...]:
        return _basis_rows(self.window)

    def _segment(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Canonical basis of the projection onto ``[0, n)``: the upper-left block of the window's, memoised."""
        if n not in self._segments:
            m = self._offsets[n]
            self._segments[n] = tuple(r[:m] for r in self._window_rows[:m])
        return self._segments[n]

    def _futures(self, k: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Canonical bases of the futures ``[m, max(W, m) + L)`` for ``m = k, k + 1, ...``.

        Up to ``m = W`` they come from the suffix sweep the module docstring
        describes.  Past ``W`` a future folds onto the rotation ``(m - W) % L``
        of ``[W, W + L)``: rotation 0 is the sweep's last basis, the others
        are projected once per sweep.
        """
        w, l, offsets, orders = self.w, self.l, self._offsets, self._codec.ambient.orders
        m = min(k, w)
        rows = self._window_rows if m == 0 else _basis_rows(self._codec.project(self._gen_rows, range(m, w + l)))
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
        rotations = {0: rows}
        for m in count(max(k, w + 1)):
            if (m - w) % l not in rotations:
                rotations[(m - w) % l] = _basis_rows(self._codec.project(self._gen_rows, range(m, m + l)))
            yield rotations[(m - w) % l]

    def controllable_at(self, j: Iterable[int]) -> Verdict:
        coords = tuple(sorted(set(j)))
        ph = self._codec.project(self._gen_rows, coords)
        pd = self._codec.project(self._part_rows(self.w), coords)
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
        if self._first_failure:
            context = "pattern of the subgroup with no finite-support match"
            return Verdict(CONTROLLABLE, False, Witness(*self._first_failure, "directsum", context=context))
        claims = tuple(EqualityClaim(tuple(range(n)), self._segment(n), self._segment(n)) for n in range(1, w + l + 1))
        note = f"initial segments up to {w + l - 1} cover all finite coordinate sets at window ({w}, {l})"
        return Verdict(CONTROLLABLE, True, Certificate("projection_equality", claims, note))

    def _part_pivots(self, coords: tuple[int, ...]) -> list[list[int]]:
        """Pivots on the sorted ``coords`` of every window part, from one insertion pass.

        The window basis rows go into ``diag(orders)`` a coordinate at a time
        from 0, the diagonal recorded first and after each: entry
        ``min(k + 1, W)`` is ``part(k)``'s, the last the subgroup's.  A
        column that folding repeats is read once; it adds no image elements.
        """
        cols = list(dict.fromkeys(self._codec.columns(coords)))
        n, offsets, orders = len(self._basis_rows), self._offsets, [self._codec.ambient.orders[c] for c in cols]
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

    @cached_property
    def _first_failure(self) -> tuple[tuple[int, ...], GroupElement] | None:
        """The first failing segment's coordinates and a pattern of it with no finite-support match, or None."""
        if None not in self.segment_defects:
            return None
        coords = tuple(range(len(self.segment_defects)))
        finite = self._codec.project(self._part_rows(self.w), coords)
        return coords, _separating_element(self._segment(len(coords)), finite)

    def uniformly_controllable(self) -> Verdict:
        if self._first_failure:
            context = "pattern not matched by any support window up to W+L"
            witness = Witness(*self._first_failure, "window", k=self.w + self.l, context=context)
            return Verdict(UNIFORMLY_CONTROLLABLE, False, witness)
        segments = enumerate(self.segment_defects, start=1)
        claims = tuple(EqualityClaim(tuple(range(n)), self._segment(n), self._segment(n), k=d) for n, d in segments)
        return Verdict(UNIFORMLY_CONTROLLABLE, True, Certificate("window_equality", claims))

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
                x = _separating_element(basis, self._codec.project(self._gen_rows, coords))
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


def _splice_spans(encoded: tuple[WindowCodec, list], n: int, k: int) -> tuple[Subgroup, Subgroup, tuple[int, ...]]:
    """Span of joint past/future patterns versus the product of the images, from ``window_rows``' pair."""
    codec, rows = encoded
    past, future = _splice_coords(codec.w, codec.l, n, k)
    a, b = codec.columns(past), codec.columns(future)
    orders = [codec.ambient.orders[c] for c in a + b]
    pasts, futures = [[r[c] for c in a] for r in rows], [[r[c] for c in b] for r in rows]
    split = [p + [0] * len(b) for p in pasts] + [[0] * len(a) + f for f in futures]
    return row_span(orders, list(map(add, pasts, futures))), row_span(orders, split), (*past, *future)


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
    and a k-controllability witness the verdict's gap.  A failing strong
    verdict means only that no gap up to its witness's ``k`` splices at
    every cut: the ``k_max`` it was decided with is not recorded.
    """
    if v.property not in _EVIDENCE:
        return False
    kind, variant = _EVIDENCE[v.property]
    encoded = window_rows(h)
    top = encoded[0].w + encoded[0].l
    ev, inner = v.evidence, {}
    if isinstance(ev, Witness):
        n, k = (ev.n if variant == "splice" else None), (None if variant == "directsum" else ev.k)
        spans = _spans(encoded, ev.j, n, k, inner)
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
    return full and all(_claim_holds(encoded, c, inner) for c in ev.claims)


def _claim_holds(encoded: tuple[WindowCodec, list], c: EqualityClaim, inner: dict[int | None, list]) -> bool:
    spans = _spans(encoded, c.j, c.n, c.k, inner)
    return spans is not None and c.lhs_basis == c.rhs_basis == _basis_rows(spans[0]) == _basis_rows(spans[1])


def _spans(
    encoded: tuple[WindowCodec, list], j: tuple[int, ...], n: int | None, k: int | None, inner: dict[int | None, list]
) -> tuple[Subgroup, Subgroup] | None:
    """The outer and inner span that a claim at ``(j, n, k)`` equates and a witness separates.

    With ``n`` set, the product of the past and future images and the joint
    span at cut ``n`` with gap ``k``, if ``j`` lists their coordinates;
    otherwise the projections onto ``j`` of the subgroup and of the part
    supported on ``[0, k]``, or of the finite-support part when ``k`` is
    None or ``k >= W - 1``: a part supported inside ``[0, k]`` with
    ``k >= W`` vanishes on a whole block past ``W``.  ``inner`` memoises
    those parts' rows by the index read.  None for a negative or
    non-integer index, or for a ``j`` of the wrong length.
    """
    if (n is not None and k is None) or not all(isinstance(x, int) and x >= 0 for x in (*j, n, k) if x is not None):
        return None
    codec, rows = encoded
    if n is not None:
        if len(j) != sum(map(len, _splice_coords(codec.w, codec.l, n, k))):
            return None
        joint, product, coords = _splice_spans(encoded, n, k)
        return (product, joint) if coords == j else None
    key = None if k is None or k >= codec.w - 1 else k
    if key not in inner:
        inner[key] = supported_rows(encoded, range(codec.w if key is None else key + 1))
    return codec.project(rows, j), codec.project(inner[key], j)


class WindowOracle:
    """Ground truth by exhaustive enumeration over the effective window.

    Every element is determined by its values on the window ``[0, W + L)``,
    and past ``W`` it repeats its block, so it is stored by its residues in
    the layout of ``seqspace.WindowCodec``, whose ``columns`` fold a
    coordinate ``i >= W + L`` onto ``W + (i - W) % L``.  The values from any
    coordinate ``s >= W`` on determine the values from ``W`` on, and are
    determined by them, so "the values from ``n`` on" is the slice from
    coordinate ``min(n, W)``: a future, a reconnection point or a support
    bound past ``W`` adds nothing.

    The residues are packed into one integer, column ``c`` in the bit field
    ``[c * b, c * b + b)``, where ``b`` is one bit wider than the largest
    residue.  The spare top bit of each field lets two elements add field by
    field with no carry between fields.  Every slice is then one integer
    operation: the values before a column are the bits below it, the values
    from a column on are a shift, and the values on some columns are a mask.

    Every property is a comparison of sets; no lattice computation is
    involved.  A pattern set holds the values of some elements on some
    columns.  A splice set holds, per element, its past before a cut and its
    future from a start on, as the element with the columns between cleared;
    every past joins every future exactly when it has as many members as
    there are pasts times futures.  Pasts and futures are the state spaces
    of a trellis (Forney and Trott, IEEE Trans. IT 39(5), 1993).  A past
    that joins every future from ``m`` on joins every future from ``m + 1``
    on, their projection, so the least gap is one sweep over the cuts that
    raises the gap only where a cut needs it.  Pattern sets, counts and
    splice answers are memoised on the instance.
    """

    def __init__(self, h: ProductSubgroup, cap: int = ORACLE_CAP):
        self._codec, rows = window_rows(h)
        self.w, self.l, self.offsets = self._codec.w, self._codec.l, self._codec.offsets
        orders = self._codec.ambient.orders
        if cap < 1:
            raise CapExceeded(1, cap)
        self._b = b = max(((o - 1).bit_length() for o in orders), default=0) + 1
        self._field = field = (1 << b) - 1
        modulus, top = self._pack(orders), self._pack([1 << (b - 1)] * len(orders))
        lift = top - modulus

        def add_mod(x: int, s: int) -> int:
            # Field c of y holds y_c <= 2 o_c - 2 < 2^b, and field c of y + lift
            # holds y_c + 2^(b-1) - o_c < 2^b, whose top bit is set exactly when
            # y_c >= o_c; those fields take o_c off.  No field carries into, or
            # borrows from, the next.
            y = x + s
            return y - (modulus & (((y + lift) & top) >> (b - 1)) * field)

        elems = {0}
        for step in map(self._pack, rows):
            # The multiples of a generator up to the first one already
            # enumerated shift the enumerated subgroup onto its other cosets,
            # so each new element is made once.
            shifts, shift = [], step
            while shift not in elems:
                shifts.append(shift)
                if len(elems) * (len(shifts) + 1) > cap:
                    raise CapExceeded(cap + 1, cap)
                shift = add_mod(shift, step)
            elems |= {add_mod(x, s) for s in shifts for x in elems}
        self._packed = list(elems)
        self._memo: dict = {}

    def _pack(self, residues: Iterable[int]) -> int:
        """One integer holding the ``c``-th residue in the bit field of column ``c``."""
        return sum(r << c * self._b for c, r in enumerate(residues))

    def _unpack(self, values: Iterable[int], cols: Iterable[int]) -> list[tuple[int, ...]]:
        """The residues of each value on the listed columns, in their order."""
        field, shifts = self._field, [c * self._b for c in cols]
        return [tuple([x >> s & field for s in shifts]) for x in values]

    @property
    def elements(self) -> list[tuple[int, ...]]:
        """Every element's residues on the window, in the codec's column order."""
        return self._unpack(self._packed, range(self._codec.ambient.n))

    def _memoised(self, key: tuple, make: Callable[[], Any]) -> Any:
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    def _from(self, n: int) -> int:
        """First bit of the values from coordinate ``n`` on."""
        return self.offsets[min(n, self.w)] * self._b

    def _mask(self, coords: Iterable[int]) -> tuple[list[int], int]:
        """The columns of the listed coordinates, and the mask of their bit fields."""
        cols = self._codec.columns(coords)
        return cols, sum(self._field << c * self._b for c in set(cols))

    def _values(self, mask: int, within: int | None) -> set[int]:
        """Every element masked, or only those supported inside ``[0, within]``."""
        start = None if within is None else self._from(within + 1)

        def read() -> set[int]:
            pool = self._packed
            if start is not None:
                # An element vanishes from bit ``start`` on exactly when it is below 2^start.
                pool = filter((1 << start).__gt__, pool)
            return set(map(mask.__and__, pool))

        return self._memoised(("patterns", mask, start), read)

    def patterns(self, coords: Sequence[int], within: int | None = None) -> set[tuple[int, ...]]:
        """Values on ``coords`` of every element, or of those supported inside ``[0, within]``."""
        cols, mask = self._mask(coords)
        return set(self._unpack(self._values(mask, within), cols))

    def controllable_at(self, j: Iterable[int]) -> bool:
        _, mask = self._mask(sorted(set(j)))
        return self._values(mask, None) == self._values(mask, self.w - 1)

    def controllable(self) -> bool:
        # Only the longest segment [0, W + L - 1] is checked: the pattern sets
        # of every shorter segment are projections of its sets, so equality
        # there, and a defect there, carry over to every shorter segment.
        return self.controllable_at(range(self.w + self.l))

    def weakly_controllable(self) -> bool:
        """Density of the finite-support part: every finite pattern is matched."""
        return self.controllable()

    def defect(self, j: Iterable[int]) -> int | None:
        _, mask = self._mask(sorted(set(j)))
        target = self._values(mask, None)
        # From k = W - 1 on, the elements supported inside [0, k] are those that vanish from W on.
        return next((k for k in range(max(self.w, 1)) if self._values(mask, k) == target), None)

    def uniformly_controllable(self) -> bool:
        return self.defect(range(self.w + self.l)) is not None

    def _distinct(self, view: Callable[[int], int]) -> int:
        return len(set(map(view, self._packed)))

    def _joins(self, n: int, m: int) -> bool:
        """Whether every past before ``n`` joins every future from ``m`` on."""
        cut, start = self.offsets[n] * self._b, self._from(m)
        past = (1 << cut) - 1
        # Past and future together, the columns between them cleared.
        keep = past | (-1 << start)

        def joins() -> bool:
            pasts = self._memoised(("pasts", cut), lambda: self._distinct(past.__and__))
            futures = self._memoised(("futures", start), lambda: self._distinct(start.__rrshift__))
            return _every_past_joins_every_future(set(map(keep.__and__, self._packed)), pasts, futures)

        return self._memoised(("joins", cut, start), joins)

    def k_controllable(self, k: int) -> bool:
        if k < 0:
            raise ValueError("gap must be non-negative")
        return all(self._joins(n, n + k) for n in range(self.w + self.l + 1))

    def strong_index(self, k_max: int | None = None) -> int | None:
        # A future from n + k >= W on is the slice from W, so every gap past W answers as W does.
        bound = self.w if k_max is None else min(k_max, self.w)
        # A gap that serves a cut serves it with every larger gap, so the
        # least gap of the cuts up to n is the least one of the cuts before n,
        # raised until it serves n.
        k = 0
        for n in range(self.w + self.l + 1):
            while k <= bound and not self._joins(n, n + k):
                k += 1
            if k > bound:
                return None
        return k

    def _reconnection_points(self, n: int) -> range:
        return range(n, max(n, self.w) + 1)

    def controllable_splice(self) -> bool:
        """Pair-by-pair splicing with a free reconnection point: the splice form of the definition.

        The tests check the pattern form ``controllable`` against it.
        """
        elems = self._packed
        for n in range(self.w + self.l + 1):
            past = (1 << self.offsets[n] * self._b) - 1
            joints = []
            for m in self._reconnection_points(n):
                future = -1 << self._from(m)
                joints.append((future, past & future, set(map((past | future).__and__, elems))))
            for p in set(map(past.__and__, elems)):
                for y in elems:
                    # A past and a future that overlap join only where they agree.
                    if not any(
                        not ((p ^ y) & overlap) and p | (y & future) in joint for future, overlap, joint in joints
                    ):
                        return False
        return True

    def uniform_splice(self) -> bool:
        """One reconnection point per cut that serves every pair: the splice form of the definition.

        The tests check the pattern form ``uniformly_controllable`` against it.
        """
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
