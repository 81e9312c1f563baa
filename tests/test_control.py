"""Hierarchy deciders against the enumeration oracle, plus certificates."""

import ast
import inspect
import random
from dataclasses import replace

import pytest

from groupcodes import control, seqspace
from groupcodes.control import (
    CONTROLLABLE,
    CONTROLLABLE_AT,
    K_CONTROLLABLE,
    STRONGLY_CONTROLLABLE,
    UNIFORMLY_CONTROLLABLE,
    WEAKLY_CONTROLLABLE,
    Analysis,
    Certificate,
    Verdict,
    WindowOracle,
    Witness,
    controllable_at,
    hierarchy_consistent,
    is_controllable,
    is_k_controllable,
    is_strongly_controllable,
    is_uniformly_controllable,
    is_weakly_controllable_discrete,
    strong_index,
    translate_from_Z,
    uniformity_defect,
    verify_verdict,
    with_full_past,
)
from groupcodes.errors import CapExceeded
from groupcodes.families import block_family, dense_trivial_sum_family
from groupcodes.finabel import FiniteAbelianGroup
from groupcodes.seqspace import (
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    constant,
    delta,
    effective_window,
    from_values,
    intersect_sum_window,
    project,
    uniform_schema,
)

Z2 = FiniteAbelianGroup((2,))
Z4 = FiniteAbelianGroup((4,))


def elem(schema, vals, period=None):
    values = [schema.group_at(i).element((v,)) for i, v in enumerate(vals)]
    block = None
    if period is not None:
        block = [schema.tail.element((v,)) for v in period]
    return from_values(schema, values, period=block)


def corpus(seed, count):
    rng = random.Random(seed)
    pool = (2, 3, 4, 6)
    out = []
    while len(out) < count:
        w0 = rng.randrange(0, 3)
        prefix = tuple(
            FiniteAbelianGroup(tuple(rng.choice(pool) for _ in range(rng.randrange(1, 3))))
            for _ in range(w0)
        )
        tail = FiniteAbelianGroup(tuple(rng.choice(pool) for _ in range(rng.randrange(1, 3))))
        schema = CoordSchema(prefix, tail)
        gens = []
        for _ in range(rng.randrange(1, 4)):
            plen = rng.randrange(schema.w0, schema.w0 + 3)
            vals = []
            for i in range(plen):
                g = schema.group_at(i)
                vals.append(g.element(tuple(rng.randrange(o) for o in g.orders)))
            if rng.random() < 0.5:
                period = tuple(
                    tail.element(tuple(rng.randrange(o) for o in tail.orders))
                    for _ in range(rng.randrange(1, 3))
                )
            else:
                period = (tail.zero(),)
            gens.append(SeqElement(schema, tuple(vals), period))
        h = ProductSubgroup(schema, tuple(gens))
        try:
            oracle = WindowOracle(h, cap=4000)
        except CapExceeded:
            continue
        out.append((h, oracle))
    return out


CORPUS = corpus(20260801, 60)


class TestOracleAgreement:
    def test_weak_controllable_uniform(self):
        for h, oracle in CORPUS:
            assert is_weakly_controllable_discrete(h).holds == oracle.weakly_controllable()
            assert is_controllable(h).holds == oracle.controllable()
            assert is_uniformly_controllable(h).holds == oracle.uniformly_controllable()

    def test_controllable_at_segments(self):
        for h, oracle in CORPUS[:30]:
            w, l = effective_window(h)
            for n in range(w + l):
                j = tuple(range(n + 1))
                assert controllable_at(h, j).holds == oracle.controllable_at(j)

    def test_defect_per_segment(self):
        for h, oracle in CORPUS[:30]:
            w, l = effective_window(h)
            for n in range(min(w + l, 3)):
                j = tuple(range(n + 1))
                assert uniformity_defect(h, j).defect == oracle.defect(j)

    def test_k_controllable(self):
        for h, oracle in CORPUS[:30]:
            w, l = effective_window(h)
            for k in range(min(w + l, 4) + 1):
                assert is_k_controllable(h, k).holds == oracle.k_controllable(k)

    def test_strong_index(self):
        for h, oracle in CORPUS[:30]:
            assert strong_index(h) == oracle.strong_index()


class TestDefinitionalEquivalences:
    def test_controllable_equals_pairwise_splice(self):
        # the set form (every pattern has a finite-support match) and the
        # splice form (every past joins every future somewhere) agree
        for h, oracle in CORPUS[:25]:
            assert oracle.controllable() == oracle.controllable_splice()

    def test_uniform_equals_per_cut_splice(self):
        for h, oracle in CORPUS[:25]:
            assert oracle.uniformly_controllable() == oracle.uniform_splice()


class TestHierarchy:
    def test_consistent_on_corpus(self):
        for h, _ in CORPUS:
            verdicts = {
                WEAKLY_CONTROLLABLE: is_weakly_controllable_discrete(h).holds,
                CONTROLLABLE: is_controllable(h).holds,
                UNIFORMLY_CONTROLLABLE: is_uniformly_controllable(h).holds,
                STRONGLY_CONTROLLABLE: is_strongly_controllable(h).holds,
            }
            assert hierarchy_consistent(verdicts)

    def test_k_monotone(self):
        for h, _ in CORPUS[:25]:
            w, l = effective_window(h)
            seen = False
            for k in range(w + l + 1):
                holds = is_k_controllable(h, k).holds
                if seen:
                    assert holds
                seen = seen or holds

    def test_violation_detected(self):
        assert not hierarchy_consistent({STRONGLY_CONTROLLABLE: True, CONTROLLABLE: False})
        assert not hierarchy_consistent({UNIFORMLY_CONTROLLABLE: True, WEAKLY_CONTROLLABLE: False})
        assert hierarchy_consistent({STRONGLY_CONTROLLABLE: False, WEAKLY_CONTROLLABLE: True})


class TestCertificates:
    def test_all_verdicts_verify(self):
        for h, _ in CORPUS[:25]:
            for v in (
                is_weakly_controllable_discrete(h),
                is_controllable(h),
                is_uniformly_controllable(h),
                is_k_controllable(h, 0),
                is_k_controllable(h, 2),
            ):
                assert verify_verdict(h, v)

    def test_tampered_holds_bit_fails(self):
        for h, _ in CORPUS[:8]:
            v = is_controllable(h)
            flipped = Verdict(v.property, not v.holds, v.evidence, v.k)
            assert not verify_verdict(h, flipped)

    def test_tampered_witness_fails(self):
        # a witness carrying the zero pattern is never separating
        for h, _ in CORPUS[:25]:
            v = is_controllable(h)
            if v.holds:
                continue
            wit = v.evidence
            assert isinstance(wit, Witness)
            fake = Witness(wit.j, wit.h_proj.parent.zero(), wit.variant, wit.n, wit.k)
            assert not verify_verdict(h, Verdict(v.property, False, fake))

    def test_strong_verdict_carries_least_gap(self):
        for h, _ in CORPUS[:10]:
            v = is_strongly_controllable(h)
            idx = strong_index(h)
            assert v.holds == (idx is not None)
            assert v.k == idx

    def test_strong_verdict_below_least_gap_keeps_last_witness(self):
        for h, _ in CORPUS[:10]:
            idx = strong_index(h)
            if not idx:
                continue
            v = is_strongly_controllable(h, k_max=idx - 1)
            assert not v.holds and v.k is None
            assert v.evidence == is_k_controllable(h, idx - 1).evidence

    def test_negative_gap_bound(self):
        # Searches past a negative bound find nothing; the verdict has no gap to witness at.
        h, oracle = CORPUS[0]
        assert strong_index(h, k_max=-1) is None and oracle.strong_index(-1) is None
        with pytest.raises(ValueError, match="^k_max must be non-negative$"):
            is_strongly_controllable(h, k_max=-1)
        with pytest.raises(ValueError, match="^k_max must be non-negative$"):
            Analysis(h).strongly_controllable(-1)


class TestKnownInstances:
    def test_full_group_is_0_controllable(self):
        # the full group on finitely many live coordinates: trivial tail,
        # every delta present; everything splices with gap 0
        trivial_tail = FiniteAbelianGroup((1,))
        s = CoordSchema((Z2, Z2, Z2), trivial_tail)
        gens = tuple(delta(s, i, Z2.element((1,))) for i in range(3))
        h = ProductSubgroup(s, gens)
        assert is_controllable(h).holds
        assert strong_index(h) == 0

    def test_single_delta_strong_index_0(self):
        s = uniform_schema(Z2)
        h = ProductSubgroup(s, (delta(s, 0, Z2.element((1,))),))
        assert strong_index(h) == 0
        assert is_strongly_controllable(h).holds

    def test_constant_alone_not_controllable(self):
        s = uniform_schema(Z2)
        h = ProductSubgroup(s, (constant(s, Z2.element((1,))),))
        v = is_controllable(h)
        assert not v.holds
        assert verify_verdict(h, v)

    def test_delta_plus_constant_needs_final_cut(self):
        # the splice condition fails only at the last admissible cut, so a
        # strictly smaller cut range would wrongly accept gap 1
        s = uniform_schema(Z2)
        h = ProductSubgroup(s, (delta(s, 0, Z2.element((1,))), constant(s, Z2.element((1,)))))
        w, l = effective_window(h)
        assert (w, l) == (1, 1)
        assert not is_k_controllable(h, 1).holds
        oracle = WindowOracle(h)
        assert not oracle.k_controllable(1)
        joint_ok_below_final = True
        from groupcodes.control import _splice_spans
        from groupcodes.finabel import subgroup_equal
        from groupcodes.seqspace import window_rows

        for n in range(w + l):
            joint, product, _ = _splice_spans(window_rows(h), n, 1)
            joint_ok_below_final = joint_ok_below_final and subgroup_equal(joint, product)
        assert joint_ok_below_final

    def test_empty_subgroup(self):
        s = uniform_schema(Z2)
        h = ProductSubgroup(s, ())
        assert is_controllable(h).holds
        assert strong_index(h) == 0


class TestReindexing:
    def test_translate_is_identity_on_storage(self):
        for h, _ in CORPUS[:10]:
            t = translate_from_Z(3, h)
            assert t.schema == h.schema and t.gens == h.gens
        with pytest.raises(ValueError):
            translate_from_Z(-1, CORPUS[0][0])

    def test_full_past_preserves_verdicts(self):
        for h, _ in CORPUS[:12]:
            for depth in (1, 2):
                ext = with_full_past(h, depth)
                assert is_weakly_controllable_discrete(ext).holds == is_weakly_controllable_discrete(h).holds
                assert is_controllable(ext).holds == is_controllable(h).holds
                assert is_uniformly_controllable(ext).holds == is_uniformly_controllable(h).holds

    def test_full_past_agrees_with_oracle(self):
        for h, _ in CORPUS[:6]:
            ext = with_full_past(h, 1)
            try:
                oracle = WindowOracle(ext, cap=8000)
            except CapExceeded:
                continue
            assert is_controllable(ext).holds == oracle.controllable()
            assert strong_index(ext) == oracle.strong_index()

    def test_full_past_shifts_defect(self):
        from groupcodes.seqspace import project

        for h, _ in CORPUS[:12]:
            base = uniformity_defect(h, (0,)).defect
            trivial_target = project(h, (0,)).order() == 1
            for depth in (1, 2):
                ext = with_full_past(h, depth)
                shifted = uniformity_defect(ext, (depth,)).defect
                if base is None:
                    assert shifted is None
                elif trivial_target:
                    # a trivial projection is matched by the empty window
                    # at any position, so no shift is observable
                    assert shifted == 0
                else:
                    assert shifted == base + depth

    def test_full_past_strong_index_invariant(self):
        for h, _ in CORPUS[:8]:
            ext = with_full_past(h, 1)
            assert strong_index(ext) == strong_index(h)

    def test_depth_zero_is_same_subgroup(self):
        h, _ = CORPUS[0]
        ext = with_full_past(h, 0)
        assert ext.schema == h.schema

    def test_new_coordinates_are_saturated(self):
        from groupcodes.seqspace import project

        h, _ = CORPUS[0]
        ext = with_full_past(h, 2, group=Z4)
        for i in (0, 1):
            assert project(ext, (i,)).order() == 4


class TestOracleInternals:
    def test_cap_raised(self):
        s = uniform_schema(FiniteAbelianGroup((6, 6)))
        gens = tuple(
            elem_with(s, i) for i in range(3)
        )
        h = ProductSubgroup(s, gens)
        with pytest.raises(CapExceeded):
            WindowOracle(h, cap=5)

    def test_negative_gap_rejected(self):
        h, oracle = CORPUS[0]
        with pytest.raises(ValueError):
            oracle.k_controllable(-1)

    def test_oracle_is_lattice_free(self):
        tree = ast.parse(inspect.getsource(control))
        (body,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "WindowOracle"]
        names = {n.id for n in ast.walk(body) if isinstance(n, ast.Name)}
        names |= {n.attr for n in ast.walk(body) if isinstance(n, ast.Attribute)}
        lattice = {"echelon_mod", "Subgroup", "span", "member", "subgroup_equal", "project", "kernel_mod"}
        lattice |= {"head_kernel", "IntMatrix", "Analysis"}
        assert sorted(n for n in names if n in lattice or n.startswith("intersect_")) == []


NEGATIVE_QUERIES = {
    "oracle.patterns": lambda h, j: WindowOracle(h).patterns(j),
    "oracle.controllable_at": lambda h, j: WindowOracle(h).controllable_at(j),
    "oracle.defect": lambda h, j: WindowOracle(h).defect(j),
    "Analysis.controllable_at": lambda h, j: Analysis(h).controllable_at(j),
    "Analysis.uniformity_defect": lambda h, j: Analysis(h).uniformity_defect(j),
    "project": project,
    "intersect_sum_window": intersect_sum_window,
}


@pytest.mark.parametrize("name", NEGATIVE_QUERIES)
@pytest.mark.parametrize("j", [[-1], [-2], [0, -1]], ids=str)
def test_negative_coordinates_raise(name, j):
    # A negative coordinate must not fold onto the window's last columns.
    with pytest.raises(IndexError):
        NEGATIVE_QUERIES[name](block_family(2, (2, 3)), j)


def elem_with(schema, i):
    g = schema.tail
    vals = [g.zero()] * i + [g.element((1, 1))]
    return from_values(schema, vals)


BLOCK = block_family(2, (2, 3))  # controllable and uniform, least gap 2
DENSE = dense_trivial_sum_family(FiniteAbelianGroup((2,)), 3, 12)  # not even weakly controllable


class TestForgedEvidence:
    def test_engine_verdicts_verify(self):
        for h in (BLOCK, DENSE):
            a = Analysis(h)
            verdicts = [a.controllable(), a.uniformly_controllable(), a.strongly_controllable()]
            verdicts += [a.k_controllable(k) for k in range(4)] + [a.strongly_controllable(k) for k in range(4)]
            assert all(verify_verdict(h, v) for v in verdicts)

    def test_splice_witness_does_not_refute_controllability(self):
        wit = is_k_controllable(BLOCK, 0).evidence
        assert verify_verdict(BLOCK, is_k_controllable(BLOCK, 0))
        assert not verify_verdict(BLOCK, Verdict(CONTROLLABLE, False, wit))
        assert not verify_verdict(BLOCK, Verdict(UNIFORMLY_CONTROLLABLE, False, wit))

    @pytest.mark.parametrize("prop", [WEAKLY_CONTROLLABLE, CONTROLLABLE, UNIFORMLY_CONTROLLABLE])
    @pytest.mark.parametrize("kind", ["projection_equality", "window_equality", "splice_equality", "oracle"])
    def test_empty_certificate(self, prop, kind):
        assert not verify_verdict(DENSE, Verdict(prop, True, Certificate(kind, ())))

    def test_strong_verdict_below_least_gap(self):
        uniform = is_uniformly_controllable(BLOCK)
        assert verify_verdict(BLOCK, uniform)
        assert not verify_verdict(BLOCK, Verdict(STRONGLY_CONTROLLABLE, True, uniform.evidence, k=0))
        at_gap = is_k_controllable(BLOCK, 2)
        assert verify_verdict(BLOCK, Verdict(STRONGLY_CONTROLLABLE, True, at_gap.evidence, k=2))
        assert not verify_verdict(BLOCK, Verdict(STRONGLY_CONTROLLABLE, True, at_gap.evidence, k=0))
        assert not verify_verdict(BLOCK, Verdict(STRONGLY_CONTROLLABLE, True, at_gap.evidence, k=None))

    def test_k_verdict_needs_evidence_at_its_gap(self):
        assert not verify_verdict(BLOCK, replace(is_k_controllable(BLOCK, 2), k=3))
        assert not verify_verdict(BLOCK, replace(is_k_controllable(BLOCK, 0), k=1))

    def test_window_witness_needs_the_whole_window(self):
        v = is_uniformly_controllable(DENSE)
        w, l = effective_window(DENSE)
        assert verify_verdict(DENSE, v) and v.evidence.k == w + l
        for k in (None, w + l - 1, -1):
            assert not verify_verdict(DENSE, replace(v, evidence=replace(v.evidence, k=k)))

    def test_indices_past_the_window_build_nothing_of_their_size(self, monkeypatch):
        # A part supported inside [0, k], k >= W, is the finite-support part; a splice witness
        # whose coordinates cannot be those of its cut is refused before they are listed.
        def bounded(real, size):
            def call(h, *args):
                assert size(*args) <= 100, "a window of the forged index was built"
                return real(h, *args)

            return call

        monkeypatch.setattr(control, "supported_rows", bounded(control.supported_rows, len))
        monkeypatch.setattr(control, "_splice_spans", bounded(control._splice_spans, lambda n, k: n))
        window = is_uniformly_controllable(DENSE)
        for k in (10**6, 10**12):
            assert verify_verdict(DENSE, replace(window, evidence=replace(window.evidence, k=k)))
        splice = is_k_controllable(BLOCK, 0)
        assert verify_verdict(BLOCK, splice)
        assert not verify_verdict(BLOCK, replace(splice, evidence=replace(splice.evidence, n=10**12)))

    def test_one_encoding_per_replay(self, monkeypatch):
        # Replay encodes the generators once per call; every span it compares slices those rows.
        verdicts = [is_k_controllable(BLOCK, 2), is_uniformly_controllable(BLOCK)]
        calls, window_rows = [], seqspace.window_rows

        def counted(h):
            calls.append(h)
            return window_rows(h)

        for module in (control, seqspace):
            monkeypatch.setattr(module, "window_rows", counted)
        for v in verdicts:
            calls.clear()
            assert v.holds and verify_verdict(BLOCK, v)
            assert len(calls) == 1, v.property

    def test_truncated_claim_set(self):
        for v in (is_controllable(BLOCK), is_uniformly_controllable(BLOCK), is_k_controllable(BLOCK, 2)):
            claims = v.evidence.claims
            assert len(claims) > 1
            for cut in (claims[:-1], claims[1:], claims[::-1]):
                assert not verify_verdict(BLOCK, replace(v, evidence=replace(v.evidence, claims=cut)))


class TestControllableAtEvidence:
    def test_every_verdict_at_a_segment_replays(self):
        assert controllable_at(BLOCK, (0,)).holds and not controllable_at(DENSE, (0,)).holds
        for h in (BLOCK, DENSE):
            w, l = effective_window(h)
            verdicts = [controllable_at(h, range(n)) for n in range(1, w + l + 1)]
            assert {v.property for v in verdicts} == {CONTROLLABLE_AT}
            assert all(verify_verdict(h, v) for v in verdicts)

    def test_one_claim_does_not_certify_controllability(self):
        v = controllable_at(BLOCK, (0,))
        assert not verify_verdict(BLOCK, replace(v, property=CONTROLLABLE))
        assert not verify_verdict(BLOCK, replace(v, property=WEAKLY_CONTROLLABLE))

    def test_claim_must_be_one_plain_projection(self):
        v = controllable_at(BLOCK, (0, 1))
        (claim,) = v.evidence.claims
        for claims in ((), (claim, claim), (replace(claim, k=0),), (replace(claim, n=1, k=0),)):
            assert not verify_verdict(BLOCK, replace(v, evidence=replace(v.evidence, claims=claims)))

    def test_early_failure_keeps_the_controllable_label(self):
        v = is_controllable(DENSE)
        assert not v.holds and v.property == CONTROLLABLE
        assert verify_verdict(DENSE, v)
