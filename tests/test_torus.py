"""Rational circle points and torsion subgroups of torus powers."""

from fractions import Fraction

import pytest

from groupcodes.control import verify_verdict
from groupcodes.errors import InternalInconsistency, PreconditionFailed
from groupcodes.seqspace import effective_window, project, subgroup_order
from groupcodes.torus import (
    TorusSeq,
    TorusSeqSubgroup,
    approximate_constant,
    build_fk,
    circle_dist,
    closure_diff_check,
    constant_seq,
    in_span,
    noncontrollability_witness,
    qz,
    qz_order,
    qz_str,
    to_product_subgroup,
)

F = Fraction


class TestRationalPoints:
    def test_canonical_range(self):
        assert qz(F(5, 2)) == F(1, 2)
        assert qz(-1, 3) == F(2, 3)
        assert qz(7) == 0
        assert qz(3, 6) == F(1, 2)

    def test_order(self):
        assert qz_order(qz(1, 2)) == 2
        assert qz_order(qz(2, 6)) == 3
        assert qz_order(qz(0)) == 1

    def test_str(self):
        assert qz_str(qz(1, 2)) == "1/2"

    def test_circle_dist(self):
        assert circle_dist(qz(0), qz(9, 10)) == F(1, 10)
        assert circle_dist(qz(1, 4), qz(3, 4)) == F(1, 2)
        assert circle_dist(qz(1, 3), qz(1, 3)) == 0


class TestSpan:
    def test_half_outside_odd_span(self):
        assert not in_span(F(1, 2), (F(1, 3), F(1, 5), F(1, 7)))

    def test_member_of_lcm_span(self):
        assert in_span(F(1, 6), (F(1, 2), F(1, 3)))
        assert in_span(F(0), ())
        assert not in_span(F(1, 2), ())

    def test_matches_enumeration(self):
        y = (F(1, 4), F(1, 6))
        # the span is exactly the multiples of 1/12
        for num in range(12):
            assert in_span(F(num, 12), y)
        assert not in_span(F(1, 24), y)
        assert not in_span(F(1, 5), y)


class TestSequences:
    def test_build_fk_values(self):
        y = (F(1, 3), F(1, 5))
        f1 = build_fk(y, 1)
        assert [f1.value_at(i) for i in range(4)] == [F(1, 5), F(1, 5), 0, 0]
        with pytest.raises(PreconditionFailed):
            build_fk(y, 2)

    def test_canonicalization_strips_tail(self):
        e = TorusSeq((F(1, 3), F(1, 2), F(1, 2)), F(1, 2))
        assert e.prefix == (F(1, 3),)
        assert e.value_at(10) == F(1, 2)

    def test_arithmetic(self):
        a = constant_seq(F(1, 2))
        b = build_fk((F(1, 2),), 0)
        c = a + b
        assert c.value_at(0) == 0
        assert c.value_at(5) == F(1, 2)
        assert (-a).value_at(3) == F(1, 2)
        assert a.scale(2).is_zero()

    def test_denominator_lcm(self):
        e = TorusSeq((F(1, 4),), F(1, 6))
        assert e.denominator_lcm() == 12


class TestClosureCheck:
    def test_steps_pass(self):
        y = (F(1, 3), F(1, 5), F(1, 7))
        for k in range(3):
            assert closure_diff_check(build_fk(y, k), y) == (True, None)

    def test_constant_passes(self):
        y = (F(1, 3), F(1, 5))
        assert closure_diff_check(constant_seq(F(1, 2)), y) == (True, None)

    def test_failure_located(self):
        y = (F(1, 3), F(1, 5))
        # the step at position 1 drops by 1/2, which no multiple of 1/5 gives
        e = TorusSeq((F(1, 2), F(1, 2)), F(0))
        ok, n = closure_diff_check(e, y)
        assert not ok and n == 1
        # a drop of 1/2 at position 0 is caught there first
        ok, n = closure_diff_check(TorusSeq((F(1, 2),), F(0)), y)
        assert not ok and n == 0

    def test_window_bound(self):
        y = (F(1, 3),)
        with pytest.raises(PreconditionFailed):
            closure_diff_check(constant_seq(F(0)), y, window=2)


class TestApproximation:
    def test_frozen_value(self):
        y = (F(1, 3), F(1, 5), F(1, 7), F(1, 11))
        assert approximate_constant(F(1, 2), y, (0,), F(1, 10)) == (2, 3)

    def test_strictness_excludes_boundary(self):
        # 2/5 sits at circle distance exactly 1/10 from 1/2, so it is not
        # accepted at tolerance 1/10 but is at any larger tolerance
        y = (F(1, 3), F(1, 5))
        assert approximate_constant(F(1, 2), y, (0,), F(1, 10)) is None
        assert approximate_constant(F(1, 2), y, (0,), F(11, 100)) == (1, 2)

    def test_k_covers_coordinates(self):
        y = (F(1, 3), F(1, 5), F(1, 7))
        k, _m = approximate_constant(F(1, 7), y, (0, 2), F(1, 100))
        assert k >= 2

    def test_k_nondecreasing_as_tolerance_shrinks(self):
        y = (F(1, 3), F(1, 5), F(1, 7), F(1, 11), F(1, 13))
        prev = -1
        for eps in (F(1, 4), F(1, 8), F(1, 16), F(1, 32)):
            got = approximate_constant(F(1, 2), y, (0,), eps)
            if got is None:
                break
            assert got[0] >= prev
            prev = got[0]

    def test_empty_coordinate_set_rejected(self):
        with pytest.raises(PreconditionFailed):
            approximate_constant(F(1, 2), (F(1, 3),), (), F(1, 10))


def example(n=4):
    y = tuple(F(1, p) for p in (3, 5, 7, 11)[:n])
    gens = tuple(build_fk(y, k) for k in range(n)) + (constant_seq(F(1, 2)),)
    tags = tuple(f"f{k}" for k in range(n)) + ("c",)
    return TorusSeqSubgroup(y, gens, tags)


class TestEmbedding:
    def test_lcm_modulus(self):
        ps, q = to_product_subgroup(example())
        assert q == 2 * 3 * 5 * 7 * 11
        assert len(ps.gens) == 5

    def test_values_map_faithfully(self):
        tsub = example(2)
        ps, q = to_product_subgroup(tsub)
        for g, pg in zip(tsub.gens, ps.gens):
            for i in range(5):
                want = g.value_at(i)
                got = pg.value_at(i).coords[0]
                assert F(got, q) % 1 == want % 1

    def test_window_matches(self):
        ps, _ = to_product_subgroup(example())
        assert effective_window(ps) == (4, 1)


class TestWitness:
    def test_valid_witness(self):
        tsub = example()
        v = noncontrollability_witness(tsub, F(1, 2))
        assert not v.holds
        ps, _ = to_product_subgroup(tsub)
        assert verify_verdict(ps, v)

    def test_requires_x_outside_span(self):
        y = (F(1, 2), F(1, 3))
        gens = (build_fk(y, 0), build_fk(y, 1), constant_seq(F(1, 2)))
        tsub = TorusSeqSubgroup(y, gens)
        with pytest.raises(PreconditionFailed):
            noncontrollability_witness(tsub, F(1, 2))

    def test_requires_constant_generator(self):
        y = (F(1, 3),)
        tsub = TorusSeqSubgroup(y, (build_fk(y, 0),))
        with pytest.raises(PreconditionFailed):
            noncontrollability_witness(tsub, F(1, 2))

    def test_subgroup_structure(self):
        tsub = example(2)
        ps, q = to_product_subgroup(tsub)
        # projection onto coordinate 0 sees all three generator values
        p0 = project(ps, (0,))
        assert p0.order() == 2 * 3 * 5
        # one free multiple per generator: the whole subgroup is cyclic of
        # order 30 even though it sits inside a window of three coordinates
        assert subgroup_order(ps) == 30


class TestTags:
    def test_tag_count_validated(self):
        y = (F(1, 3),)
        with pytest.raises(ValueError):
            TorusSeqSubgroup(y, (build_fk(y, 0),), ("a", "b"))
