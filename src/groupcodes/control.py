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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

from .errors import CapExceeded, InternalInconsistency
from .finabel import (
    FiniteAbelianGroup,
    GroupElement,
    Subgroup,
    member,
    span,
    subgroup_equal,
)
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


def _separating_element(larger: Subgroup, smaller: Subgroup) -> GroupElement:
    """An element of ``larger`` outside ``smaller`` (requires smaller < larger)."""
    for i in range(larger.basis.rows):
        x = larger.parent.element(larger.basis.row(i))
        if not member(smaller, x):
            return x
    raise InternalInconsistency("no separating basis element between unequal subgroups")


def _segment(n: int) -> tuple[int, ...]:
    return tuple(range(n + 1))


def controllable_at(h: ProductSubgroup, j: Iterable[int]) -> Verdict:
    """Whether the finite-support part already fills the projection onto ``j``."""
    coords = tuple(sorted(set(j)))
    dsum = intersect_directsum(h)
    return _controllable_at_given(h, dsum, coords)


def _controllable_at_given(h: ProductSubgroup, dsum: ProductSubgroup, coords: tuple[int, ...]) -> Verdict:
    ph = project(h, coords)
    pd = project(dsum, coords)
    if subgroup_equal(ph, pd):
        claim = EqualityClaim(coords, _basis_rows(ph), _basis_rows(pd))
        return Verdict(CONTROLLABLE, True, Certificate("projection_equality", (claim,)))
    x = _separating_element(ph, pd)
    return Verdict(
        CONTROLLABLE,
        False,
        Witness(coords, x, "directsum", context="pattern of the subgroup with no finite-support match"),
    )


def is_controllable(h: ProductSubgroup) -> Verdict:
    """Controllability over all finite coordinate sets.

    Initial segments ``[0, n]`` for ``n < W + L`` decide the general case:
    any finite set sits inside such a segment once the window is covered,
    and a finite-support match on ``[0, W + L)`` forces the matched element
    to vanish beyond the window, extending the match to every segment.
    """
    w, l = effective_window(h)
    dsum = intersect_directsum(h)
    claims = []
    for n in range(w + l):
        v = _controllable_at_given(h, dsum, _segment(n))
        if not v.holds:
            return Verdict(CONTROLLABLE, False, v.evidence)
        cert = v.evidence
        assert isinstance(cert, Certificate)
        claims.extend(cert.claims)
    note = f"initial segments up to {w + l - 1} cover all finite coordinate sets at window ({w}, {l})"
    return Verdict(CONTROLLABLE, True, Certificate("projection_equality", tuple(claims), note))


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


def _window_parts(h: ProductSubgroup) -> list[ProductSubgroup]:
    w, l = effective_window(h)
    return [intersect_sum_window(h, range(k + 1)) for k in range(w + l + 1)]


def uniformity_defect(h: ProductSubgroup, j: Iterable[int]) -> DefectProfile:
    coords = tuple(sorted(set(j)))
    return _defect_given(h, coords, _window_parts(h))


def _defect_given(h: ProductSubgroup, coords: tuple[int, ...], parts: Sequence[ProductSubgroup]) -> DefectProfile:
    target = project(h, coords)
    table = []
    for k, part in enumerate(parts):
        pk = project(part, coords)
        table.append((k, pk.order()))
        if subgroup_equal(pk, target):
            return DefectProfile(coords, k, tuple(table))
    if controllable_at(h, coords).holds:
        raise InternalInconsistency(
            "projection is matched by the full finite-support part but by no window part"
        )
    return DefectProfile(coords, None, tuple(table))


def is_uniformly_controllable(h: ProductSubgroup) -> Verdict:
    """A finite support window suffices for every finite coordinate set."""
    w, l = effective_window(h)
    parts = _window_parts(h)
    claims = []
    for n in range(w + l):
        coords = _segment(n)
        profile = _defect_given(h, coords, parts)
        if profile.exceeds_window:
            ph = project(h, coords)
            pw = project(parts[-1], coords)
            x = _separating_element(ph, pw)
            return Verdict(
                UNIFORMLY_CONTROLLABLE,
                False,
                Witness(coords, x, "window", k=len(parts) - 1,
                        context="pattern not matched by any support window up to W+L"),
            )
        k = profile.defect
        assert k is not None
        pk = project(parts[k], coords)
        ph = project(h, coords)
        claims.append(EqualityClaim(coords, _basis_rows(ph), _basis_rows(pk), k=k))
    return Verdict(UNIFORMLY_CONTROLLABLE, True, Certificate("window_equality", tuple(claims)))


def _splice_spans(h: ProductSubgroup, n: int, k: int) -> tuple[Subgroup, Subgroup, tuple[int, ...]]:
    """Span of joint past/future patterns versus the product of the images."""
    w, l = effective_window(h)
    w2 = max(w, n + k)
    a_coords = list(range(n))
    b_coords = list(range(n + k, w2 + l))
    coords = tuple(a_coords + b_coords)
    ambient = ambient_group(h.schema, coords)
    joint = span(ambient, [restrict(g, coords, ambient) for g in h.gens])
    split_gens = []
    a_width = sum(h.schema.group_at(i).n for i in a_coords)
    for g in h.gens:
        flat = restrict(g, coords, ambient).coords
        split_gens.append(ambient.element(flat[:a_width] + (0,) * (len(flat) - a_width)))
        split_gens.append(ambient.element((0,) * a_width + flat[a_width:]))
    product = span(ambient, split_gens)
    return joint, product, coords


def is_k_controllable(h: ProductSubgroup, k: int) -> Verdict:
    """Splice any past with any future at every cut, with gap exactly ``k``."""
    if k < 0:
        raise ValueError("gap must be non-negative")
    w, l = effective_window(h)
    claims = []
    for n in range(w + l + 1):
        joint, product, coords = _splice_spans(h, n, k)
        if subgroup_equal(joint, product):
            claims.append(EqualityClaim(coords, _basis_rows(joint), _basis_rows(product), n=n, k=k))
            continue
        x = _separating_element(product, joint)
        return Verdict(
            K_CONTROLLABLE,
            False,
            Witness(coords, x, "splice", n=n, k=k,
                    context="past/future pair with no spliced element at this cut"),
            k=k,
        )
    return Verdict(K_CONTROLLABLE, True, Certificate("splice_equality", tuple(claims)), k=k)


def strong_index(h: ProductSubgroup, k_max: int | None = None) -> int | None:
    """Least gap that works at every cut, or None up to ``k_max``."""
    return _least_gap(h, k_max)[0]


def _least_gap(h: ProductSubgroup, k_max: int | None) -> tuple[int | None, Verdict | None]:
    """Least working gap up to the bound with its verdict, or None and the verdict at the bound.

    Splicing only gets easier as the gap grows, so the first success in an
    ascending scan is the least index.  The verdict is None only for a
    negative bound, where no gap is tried.
    """
    w, l = effective_window(h)
    bound = w + l if k_max is None else k_max
    v = None
    for k in range(bound + 1):
        v = is_k_controllable(h, k)
        if v.holds:
            return k, v
    return None, v


def is_strongly_controllable(h: ProductSubgroup, k_max: int | None = None) -> Verdict:
    idx, v = _least_gap(h, k_max)
    if v is None:
        raise ValueError("gap must be non-negative")
    return Verdict(STRONGLY_CONTROLLABLE, idx is not None, v.evidence, k=idx)


def hierarchy_consistent(verdicts: dict[str, bool]) -> bool:
    """The implication chain between the computed properties.

    strongly (some gap) implies uniformly implies controllable implies
    weakly; a violation signals an engine bug.
    """
    strong = verdicts.get(STRONGLY_CONTROLLABLE)
    uniform = verdicts.get(UNIFORMLY_CONTROLLABLE)
    ctrl = verdicts.get(CONTROLLABLE)
    weak = verdicts.get(WEAKLY_CONTROLLABLE)
    chain = [strong, uniform, ctrl, weak]
    known = [v for v in chain if v is not None]
    for earlier, later in zip(known, known[1:]):
        if earlier and not later:
            return False
    return True


def verify_verdict(h: ProductSubgroup, v: Verdict) -> bool:
    """Re-derive the evidence of a verdict from the subgroup alone."""
    ev = v.evidence
    if isinstance(ev, Certificate):
        return v.holds and all(_verify_claim(h, v.property, c) for c in ev.claims)
    if isinstance(ev, Witness):
        return (not v.holds) and _verify_witness(h, ev)
    return False


def _verify_claim(h: ProductSubgroup, prop: str, c: EqualityClaim) -> bool:
    if c.n is not None:
        joint, product, coords = _splice_spans(h, c.n, c.k or 0)
        return (
            coords == c.j
            and _basis_rows(joint) == c.lhs_basis
            and _basis_rows(product) == c.rhs_basis
            and c.lhs_basis == c.rhs_basis
        )
    ph = project(h, c.j)
    if c.k is not None:
        other = project(intersect_sum_window(h, range(c.k + 1)), c.j)
    else:
        other = project(intersect_directsum(h), c.j)
    return _basis_rows(ph) == c.lhs_basis and _basis_rows(other) == c.rhs_basis and c.lhs_basis == c.rhs_basis


def _verify_witness(h: ProductSubgroup, wit: Witness) -> bool:
    if wit.variant == "directsum":
        ph = project(h, wit.j)
        pd = project(intersect_directsum(h), wit.j)
        return member(ph, wit.h_proj) and not member(pd, wit.h_proj)
    if wit.variant == "window":
        assert wit.k is not None
        ph = project(h, wit.j)
        pw = project(intersect_sum_window(h, range(wit.k + 1)), wit.j)
        return member(ph, wit.h_proj) and not member(pw, wit.h_proj)
    if wit.variant == "splice":
        assert wit.n is not None and wit.k is not None
        joint, product, coords = _splice_spans(h, wit.n, wit.k)
        return coords == wit.j and member(product, wit.h_proj) and not member(joint, wit.h_proj)
    return False


class WindowOracle:
    """Ground truth by exhaustive enumeration over the effective window.

    Elements are expanded to flat residue tuples over ``[0, horizon)`` and
    every property is evaluated by set comparisons on those tuples, with no
    lattice computations involved.
    """

    def __init__(self, h: ProductSubgroup, cap: int = ORACLE_CAP, k_cap: int | None = None):
        self.h = h
        w, l = effective_window(h)
        self.w, self.l = w, l
        self.k_cap = (w + l) if k_cap is None else k_cap
        self.horizon = w + l + self.k_cap + l
        schema = h.schema
        self.offsets = [0]
        orders: list[int] = []
        for i in range(self.horizon):
            orders.extend(schema.group_at(i).orders)
            self.offsets.append(len(orders))
        self.orders = tuple(orders)
        gens = [self._expand(g) for g in h.gens]
        zero = (0,) * len(self.orders)
        elems = {zero}
        queue = [zero]
        while queue:
            x = queue.pop()
            for g in gens:
                y = tuple((a + b) % o for a, b, o in zip(x, g, self.orders))
                if y not in elems:
                    if len(elems) >= cap:
                        raise CapExceeded(len(elems) + 1, cap)
                    elems.add(y)
                    queue.append(y)
        self.elements = sorted(elems)

    def _expand(self, e: SeqElement) -> tuple[int, ...]:
        flat: list[int] = []
        for i in range(self.horizon):
            flat.extend(e.value_at(i).coords)
        return tuple(flat)

    def _slice(self, x: tuple[int, ...], coords: Iterable[int]) -> tuple[int, ...]:
        out: list[int] = []
        for i in coords:
            out.extend(x[self.offsets[i] : self.offsets[i + 1]])
        return tuple(out)

    def _finite_support(self, x: tuple[int, ...]) -> bool:
        return all(v == 0 for v in x[self.offsets[self.w] :])

    def _supported_within(self, x: tuple[int, ...], k: int) -> bool:
        return all(v == 0 for v in x[self.offsets[k + 1] :])

    def patterns(self, coords: Sequence[int], finite_only: bool = False) -> set[tuple[int, ...]]:
        pool = (x for x in self.elements if self._finite_support(x)) if finite_only else self.elements
        return {self._slice(x, coords) for x in pool}

    def controllable_at(self, j: Iterable[int]) -> bool:
        coords = sorted(set(j))
        return self.patterns(coords) == self.patterns(coords, finite_only=True)

    def controllable(self) -> bool:
        return all(self.controllable_at(range(n + 1)) for n in range(self.w + self.l))

    def weakly_controllable(self) -> bool:
        """Density of the finite-support part: every finite pattern is matched."""
        return self.controllable()

    def defect(self, j: Iterable[int]) -> int | None:
        coords = sorted(set(j))
        target = self.patterns(coords)
        for k in range(self.w + self.l + 1):
            sub = {self._slice(x, coords) for x in self.elements if self._supported_within(x, k)}
            if sub == target:
                return k
        return None

    def uniformly_controllable(self) -> bool:
        return all(self.defect(range(n + 1)) is not None for n in range(self.w + self.l))

    def k_controllable(self, k: int) -> bool:
        if k > self.k_cap:
            raise ValueError("gap exceeds the oracle's expansion horizon")
        for n in range(self.w + self.l + 1):
            cut, start = self.offsets[n], self.offsets[n + k]
            pasts = {x[:cut] for x in self.elements}
            futures = {x[start:] for x in self.elements}
            joint = {(x[:cut], x[start:]) for x in self.elements}
            if len(joint) != len(pasts) * len(futures):
                return False
        return True

    def strong_index(self, k_max: int | None = None) -> int | None:
        bound = self.k_cap if k_max is None else min(k_max, self.k_cap)
        for k in range(bound + 1):
            if self.k_controllable(k):
                return k
        return None

    def _reconnection_points(self, n: int) -> range:
        return range(n, self.horizon - self.l + 1)

    def controllable_splice(self) -> bool:
        """Pair-by-pair splicing with a free reconnection point."""
        for n in range(self.w + self.l + 1):
            cut = self.offsets[n]
            joints = [
                (self.offsets[m], {(g[: cut], g[self.offsets[m] :]) for g in self.elements})
                for m in self._reconnection_points(n)
            ]
            for hx in self.elements:
                past = hx[:cut]
                for hy in self.elements:
                    if not any((past, hy[start:]) in joint for start, joint in joints):
                        return False
        return True

    def uniform_splice(self) -> bool:
        """One reconnection point per cut that serves every pair."""
        for n in range(self.w + self.l + 1):
            cut = self.offsets[n]
            pasts = {x[:cut] for x in self.elements}
            ok = False
            for m in self._reconnection_points(n):
                start = self.offsets[m]
                futures = {x[start:] for x in self.elements}
                joint = {(g[:cut], g[start:]) for g in self.elements}
                if len(joint) == len(pasts) * len(futures):
                    ok = True
                    break
            if not ok:
                return False
        return True


def oracle_check(h: ProductSubgroup, prop: str, params: dict | None = None, cap: int = ORACLE_CAP) -> Verdict:
    """Evaluate one property by exhaustive enumeration; the reference answer."""
    params = dict(params or {})
    oracle = WindowOracle(h, cap=cap, k_cap=params.get("k"))
    note = "exhaustive enumeration over the effective window"
    if prop == CONTROLLABLE:
        holds = oracle.controllable()
    elif prop == WEAKLY_CONTROLLABLE:
        holds = oracle.weakly_controllable()
    elif prop == UNIFORMLY_CONTROLLABLE:
        holds = oracle.uniformly_controllable()
    elif prop == K_CONTROLLABLE:
        holds = oracle.k_controllable(params["k"])
    elif prop == STRONGLY_CONTROLLABLE:
        holds = oracle.strong_index(params.get("k_max")) is not None
    elif prop == "controllable_at":
        holds = oracle.controllable_at(params["j"])
    else:
        raise ValueError(f"unknown property {prop!r}")
    return Verdict(prop, holds, Certificate("oracle", (), note), k=params.get("k"))


def translate_from_Z(window_neg: int, h: ProductSubgroup) -> ProductSubgroup:
    """Reindex a description whose coordinates start at ``-window_neg``.

    Stored data always runs over 0, 1, 2, ...; in a two-sided problem the
    stored coordinate ``i`` stands for integer index ``i - window_neg``.
    Shifting by ``+window_neg`` is the identity on storage, so this returns
    an equal subgroup whose coordinate ``i`` now means index ``i``.  All
    hierarchy properties are invariant because the shift is an isomorphism
    of the ambient product that maps finite-support parts onto each other.
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
    "ORACLE_CAP",
    "Witness",
    "EqualityClaim",
    "Certificate",
    "Verdict",
    "DefectProfile",
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
    "oracle_check",
    "translate_from_Z",
    "with_full_past",
]
