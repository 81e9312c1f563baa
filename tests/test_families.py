"""Separating families: chains, blocks, residue classes, torus steps."""

import pytest

from groupcodes.control import (
    WindowOracle,
    is_controllable,
    is_k_controllable,
    is_uniformly_controllable,
    is_weakly_controllable_discrete,
    strong_index,
    uniformity_defect,
)
from groupcodes.errors import ChainNotStrict, PreconditionFailed
from groupcodes.families import (
    _GROWTH,
    GrowthRow,
    block_family,
    chain_faces_hold,
    chain_family,
    chain_layer,
    defect_growth,
    dense_trivial_sum_family,
    odd_primes,
    torsion_torus_example,
    z2_power_example,
)
from groupcodes.finabel import FiniteAbelianGroup, full, span, trivial
from groupcodes.seqspace import (
    effective_window,
    intersect_directsum,
    project,
    subgroup_order,
    support,
)
from groupcodes.torus import constant_seq, qz


def unit_chain(m, depth):
    chain = []
    for i in range(depth):
        rows = []
        for j in range(i + 1):
            row = [0] * m.n
            row[j] = 1
            rows.append(m.element(row))
        chain.append(span(m, rows))
    return chain


class TestChainFamily:
    def test_strictness_enforced(self):
        m = FiniteAbelianGroup((2, 2))
        a = span(m, [m.element((1, 0))])
        with pytest.raises(ChainNotStrict):
            chain_family(m, [a, a])
        with pytest.raises(ChainNotStrict):
            chain_family(m, [full(m), a])
        with pytest.raises(ChainNotStrict):
            chain_family(m, [])
        with pytest.raises(ChainNotStrict):
            chain_family(m, [trivial(FiniteAbelianGroup((2,)))])

    def test_layer_shape(self):
        m = FiniteAbelianGroup((2, 2))
        a = span(m, [m.element((1, 1))])
        layer = chain_layer(m, a, 2)
        assert len(layer.gens) == 1
        g = layer.gens[0]
        assert support(g) == frozenset({0, 1, 2})
        assert g.value_at(0).coords == (1, 1)

    def test_z2_power_verdicts(self):
        for depth in (2, 3, 4):
            h = z2_power_example(depth)
            assert is_controllable(h).holds
            assert is_uniformly_controllable(h).holds
            profile = uniformity_defect(h, (0,))
            assert profile.defect == depth - 1
            assert [order for _k, order in profile.table] == [
                2 ** (i + 1) for i in range(depth)
            ]

    def test_z2_power_matches_oracle(self):
        for depth in (2, 3):
            h = z2_power_example(depth)
            oracle = WindowOracle(h)
            assert oracle.controllable()
            assert oracle.defect((0,)) == depth - 1

    def test_faces_identity(self):
        m = FiniteAbelianGroup((2, 2, 2))
        chain = unit_chain(m, 3)
        for k in range(4):
            assert chain_faces_hold(m, chain, k)

    def test_depth_validation(self):
        with pytest.raises(PreconditionFailed):
            z2_power_example(0)


class TestBlockFamily:
    def test_two_blocks_over_z2(self):
        h = block_family(2, (2, 3))
        assert effective_window(h) == (5, 1)
        assert is_uniformly_controllable(h).holds
        assert not is_k_controllable(h, 0).holds
        assert not is_k_controllable(h, 1).holds
        assert is_k_controllable(h, 2).holds
        assert strong_index(h) == 2

    def test_single_block_gap_bound(self):
        for p in (2, 3):
            for size in (1, 2, 3, 4):
                h = block_family(p, (size,))
                assert strong_index(h) == max(size - 1, 0)

    def test_disjoint_supports(self):
        h = block_family(3, (2, 2, 2))
        supports = [support(g) for g in h.gens]
        assert supports == [frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})]

    def test_oracle_agreement(self):
        for p in (2, 3):
            h = block_family(p, (2, 4))
            oracle = WindowOracle(h)
            assert strong_index(h) == oracle.strong_index() == 3
            assert is_uniformly_controllable(h).holds == oracle.uniformly_controllable()

    def test_validation(self):
        with pytest.raises(PreconditionFailed):
            block_family(1, (2,))
        with pytest.raises(PreconditionFailed):
            block_family(2, ())
        with pytest.raises(PreconditionFailed):
            block_family(2, (0,))


class TestDenseFamily:
    def test_trivial_finite_support_part(self):
        for order in (2, 3):
            h = dense_trivial_sum_family(FiniteAbelianGroup((order,)), 3, 12)
            assert subgroup_order(intersect_directsum(h)) == 1

    def test_projections_full(self):
        g = FiniteAbelianGroup((2,))
        h = dense_trivial_sum_family(g, 3, 12)
        for j in range(12):
            assert project(h, (j,)).order() == 2
        assert project(h, (0, 1, 2)).order() == 8
        assert project(h, (4, 5, 6)).order() == 8

    def test_not_weakly_controllable(self):
        h = dense_trivial_sum_family(FiniteAbelianGroup((3,)), 3, 12)
        assert not is_weakly_controllable_discrete(h).holds

    def test_generator_pattern(self):
        g = FiniteAbelianGroup((2,))
        h = dense_trivial_sum_family(g, 3, 12)
        assert len(h.gens) == 3
        x1 = h.gens[1]
        vals = [x1.value_at(i).coords[0] for i in range(7)]
        assert vals == [0, 1, 0, 0, 1, 0, 0]

    def test_validation(self):
        g = FiniteAbelianGroup((2,))
        with pytest.raises(PreconditionFailed):
            dense_trivial_sum_family(g, 1, 12)
        with pytest.raises(PreconditionFailed):
            dense_trivial_sum_family(g, 3, 2)


class TestTorusExample:
    def test_primes(self):
        assert odd_primes(5) == [3, 5, 7, 11, 13]

    def test_structure(self):
        t = torsion_torus_example(3)
        assert t.y == (qz(1, 3), qz(1, 5), qz(1, 7))
        assert len(t.gens) == 4
        assert t.tags[-1] == "constant_1_2"
        assert t.gens[-1] == constant_seq(qz(1, 2))

    def test_validation(self):
        with pytest.raises(PreconditionFailed):
            torsion_torus_example(0)


class TestDefectGrowth:
    def test_chain_growth(self):
        rows = defect_growth("chain", range(2, 5))
        assert [r.parameter for r in rows] == [2, 3, 4]
        assert [r.profile.defect for r in rows] == [1, 2, 3]
        assert all(r.controllable for r in rows)
        assert all(isinstance(r, GrowthRow) for r in rows)

    def test_block_growth(self):
        rows = defect_growth("block", (3, 4))
        assert [r.strong for r in rows] == [2, 3]
        assert all(r.controllable for r in rows)

    def test_unknown_family(self):
        with pytest.raises(PreconditionFailed):
            defect_growth("nope", (1,))

    @pytest.mark.parametrize("kind", sorted(_GROWTH))
    def test_window_widths_are_the_members_windows(self, kind):
        build, width = _GROWTH[kind]
        for parameter in range(1, 7):
            h = build(parameter)
            assert width(parameter) == sum(h.schema.group_at(i).n for i in range(sum(effective_window(h))))

    def test_a_range_past_the_width_limit_is_refused_before_any_member(self):
        with pytest.raises(MemoryError, match="parameter 64 needs a 4160-column window"):
            defect_growth("chain", range(1, 10**12))
