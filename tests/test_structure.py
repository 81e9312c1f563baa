"""Window decompositions."""

import random
from math import prod

from groupcodes.families import block_family, z2_power_example
from groupcodes.finabel import FiniteAbelianGroup
from groupcodes.seqspace import (
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    from_values,
    subgroup_order,
    uniform_schema,
)
from groupcodes.structure import DecompositionReport, decompose


class TestDecompose:
    def test_blocks(self):
        report = decompose(block_family(2, (2, 3)))
        assert report.factors == (2, 2)
        assert report.order == 4
        assert report.window == (5, 1)
        assert prod(report.factors) == 4

    def test_single_mixed_order_generator(self):
        s = CoordSchema((FiniteAbelianGroup((2, 4)),), FiniteAbelianGroup((3,)))
        g = from_values(
            s,
            [s.group_at(0).element((1, 2))],
            period=[s.tail.element((1,)), s.tail.element((2,))],
        )
        report = decompose(ProductSubgroup(s, (g,)))
        assert report.factors == (6,)
        assert report.order == 6

    def test_chain_is_elementary_abelian(self):
        report = decompose(z2_power_example(3))
        assert all(d == 2 for d in report.factors)
        assert prod(report.factors) == report.order

    def test_empty_subgroup(self):
        s = uniform_schema(FiniteAbelianGroup((4,)))
        report = decompose(ProductSubgroup(s, ()))
        assert report.factors == ()
        assert report.order == 1

    def test_order_matches_enumeration_random(self):
        rng = random.Random(51)
        for _ in range(30):
            tail = FiniteAbelianGroup(tuple(rng.choice((2, 3, 4)) for _ in range(rng.randrange(1, 3))))
            s = uniform_schema(tail)
            gens = []
            for _ in range(rng.randrange(1, 3)):
                plen = rng.randrange(0, 3)
                vals = [tail.element(tuple(rng.randrange(o) for o in tail.orders)) for _ in range(plen)]
                period = (
                    tail.element(tuple(rng.randrange(o) for o in tail.orders)),
                )
                gens.append(SeqElement(s, tuple(vals), period))
            h = ProductSubgroup(s, tuple(gens))
            report = decompose(h)
            assert isinstance(report, DecompositionReport)
            assert report.order == subgroup_order(h)
            assert prod(report.factors) == report.order
            for a, b in zip(report.factors, report.factors[1:]):
                assert b % a == 0

