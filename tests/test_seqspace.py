"""Eventually periodic sequences and their finitely generated subgroups."""

import random

import pytest

from groupcodes.errors import SchemaMismatch
from groupcodes.finabel import FiniteAbelianGroup, enumerate_subgroup
from groupcodes.seqspace import (
    INFINITE,
    CoordSchema,
    ProductSubgroup,
    SeqElement,
    WindowCodec,
    constant,
    delta,
    effective_window,
    enumerate_elements,
    from_values,
    intersect_directsum,
    intersect_sum_window,
    project,
    subgroup_order,
    subgroups_equal,
    support,
    uniform_schema,
)

Z2 = FiniteAbelianGroup((2,))
Z6 = FiniteAbelianGroup((6,))


def elem(schema, vals, period=None):
    groups = [schema.group_at(i) for i in range(len(vals))]
    values = [g.element((v,)) for g, v in zip(groups, vals)]
    block = None
    if period is not None:
        block = [schema.tail.element((v,)) for v in period]
    return from_values(schema, values, period=block)


def random_schema(rng):
    pool = (2, 3, 4)
    w0 = rng.randrange(0, 3)
    prefix = tuple(
        FiniteAbelianGroup(tuple(rng.choice(pool) for _ in range(rng.randrange(1, 3))))
        for _ in range(w0)
    )
    tail = FiniteAbelianGroup(tuple(rng.choice(pool) for _ in range(rng.randrange(1, 3))))
    return CoordSchema(prefix, tail)


def random_element(rng, schema):
    plen = rng.randrange(schema.w0, schema.w0 + 3)
    vals = []
    for i in range(plen):
        g = schema.group_at(i)
        vals.append(g.element(tuple(rng.randrange(o) for o in g.orders)))
    tail = schema.tail
    if rng.random() < 0.5:
        period = tuple(
            tail.element(tuple(rng.randrange(o) for o in tail.orders))
            for _ in range(rng.randrange(1, 3))
        )
    else:
        period = (tail.zero(),)
    return SeqElement(schema, tuple(vals), period)


def random_subgroup(rng):
    schema = random_schema(rng)
    gens = tuple(random_element(rng, schema) for _ in range(rng.randrange(1, 4)))
    return ProductSubgroup(schema, gens)


class TestCanonicalization:
    def test_period_tiling_minimized(self):
        s = uniform_schema(Z6)
        e = elem(s, [], period=[1, 2, 1, 2, 1, 2])
        assert e.period_len == 2

    def test_trailing_prefix_absorbed(self):
        s = uniform_schema(Z6)
        e = elem(s, [5, 3], period=[3])
        assert e.prefix_len == 1
        assert e.period_len == 1
        assert [e.value_at(i).coords[0] for i in range(4)] == [5, 3, 3, 3]

    def test_rotation_on_absorption(self):
        s = uniform_schema(Z6)
        e = elem(s, [1, 2], period=[3, 2])
        # coordinate reads must be preserved even though the prefix shrank
        assert e.prefix_len == 1
        assert [e.value_at(i).coords[0] for i in range(6)] == [1, 2, 3, 2, 3, 2]

    def test_equal_sequences_equal_representations(self):
        s = uniform_schema(Z6)
        a = elem(s, [0, 4], period=[4])
        b = elem(s, [0], period=[4, 4])
        c = elem(s, [], period=[0, 4, 4, 0, 4, 4])
        assert a == b
        assert a.value_at(0).coords == (0,)
        assert c.period_len == 3

    def test_values_preserved_random(self):
        rng = random.Random(41)
        for _ in range(200):
            schema = random_schema(rng)
            e = random_element(rng, schema)
            rebuilt = SeqElement(
                schema,
                tuple(e.value_at(i) for i in range(e.prefix_len + 3)),
                tuple(e.value_at(e.prefix_len + 3 + t) for t in range(e.period_len * 2)),
            )
            assert rebuilt == e
            for i in range(e.prefix_len + 3 * e.period_len + 5):
                assert rebuilt.value_at(i) == e.value_at(i)

    def test_prefix_must_cover_schema(self):
        schema = CoordSchema((Z2,), Z6)
        with pytest.raises(SchemaMismatch):
            SeqElement(schema, (), (Z6.zero(),))

    def test_wrong_value_group_rejected(self):
        schema = CoordSchema((Z2,), Z6)
        with pytest.raises(SchemaMismatch):
            SeqElement(schema, (Z6.element((1,)),), (Z6.zero(),))


class TestArithmetic:
    def test_pointwise_random(self):
        rng = random.Random(42)
        for _ in range(100):
            schema = random_schema(rng)
            a = random_element(rng, schema)
            b = random_element(rng, schema)
            c = a + b
            d = a - b
            s = a.scale(5)
            for i in range(12):
                assert c.value_at(i) == a.value_at(i) + b.value_at(i)
                assert d.value_at(i) == a.value_at(i) - b.value_at(i)
                assert s.value_at(i) == a.value_at(i).scale(5)

    def test_zero(self):
        s = uniform_schema(Z6)
        z = from_values(s, [])
        assert z.is_zero()
        e = elem(s, [3], period=[1])
        assert e + z == e


class TestSupport:
    def test_finite(self):
        s = uniform_schema(Z6)
        e = elem(s, [0, 3, 0, 1])
        assert support(e) == frozenset({1, 3})

    def test_infinite(self):
        s = uniform_schema(Z6)
        assert support(elem(s, [], period=[0, 2])) == INFINITE

    def test_delta_and_constant(self):
        s = uniform_schema(Z6)
        d = delta(s, 3, Z6.element((2,)))
        assert support(d) == frozenset({3})
        c = constant(s, Z6.element((1,)))
        assert support(c) == INFINITE
        assert c.value_at(17).coords == (1,)


class TestEffectiveWindow:
    def test_examples(self):
        s = uniform_schema(Z6)
        h = ProductSubgroup(s, (elem(s, [1, 2, 3]), elem(s, [0], period=[1, 2])))
        assert effective_window(h) == (3, 2)

    def test_empty(self):
        s = uniform_schema(Z6)
        assert effective_window(ProductSubgroup(s, ())) == (0, 1)


class TestWindowCodec:
    def test_roundtrip(self):
        rng = random.Random(43)
        for _ in range(100):
            schema = random_schema(rng)
            e = random_element(rng, schema)
            codec = WindowCodec.for_window(schema, e.prefix_len + 1, e.period_len)
            assert codec.decode(codec.residues(e)) == e
        with pytest.raises(SchemaMismatch):
            codec.decode(codec.residues(e)[1:])

    def test_rejects_unbounded(self):
        s = uniform_schema(Z6)
        codec = WindowCodec.for_window(s, 1, 2)
        with pytest.raises(SchemaMismatch):
            codec.residues(elem(s, [], period=[1, 2, 3]))


class TestProjectAndIntersect:
    def test_project_matches_enumeration(self):
        rng = random.Random(44)
        for h in [random_subgroup(rng) for _ in range(40)] + [ProductSubgroup(random_schema(rng), ())]:
            elems = enumerate_elements(h, cap=4000)
            w, l = effective_window(h)
            # No coordinates; past the window, folded, unsorted and repeated ones; the first ones.
            for coords in [(), (0,), (1,), tuple(range(min(w + l, 3))), (w + l + 2,), (0, w + l, 10**6), (2, 0, w, 2)]:
                p = project(h, coords)
                read = sorted(set(coords))
                expected = {p.parent.element([c for i in read for c in e.value_at(i).coords]) for e in elems}
                assert set(enumerate_subgroup(p)) == expected

    def test_intersect_directsum_matches_enumeration(self):
        rng = random.Random(45)
        for _ in range(40):
            h = random_subgroup(rng)
            elems = enumerate_elements(h, cap=4000)
            finite = {e for e in elems if support(e) != INFINITE}
            d = intersect_directsum(h)
            assert subgroup_order(d) == len(finite)
            assert set(enumerate_elements(d, cap=4000)) == finite

    def test_intersect_sum_window_matches_enumeration(self):
        rng = random.Random(46)
        for _ in range(30):
            h = random_subgroup(rng)
            elems = enumerate_elements(h, cap=4000)
            w, l = effective_window(h)
            # Intervals, sets with gaps, and sets that reach past W.
            for keep in [set(range(1)), set(range(3)), set(), {0, 2}, {1, w + 1}, set(range(w + l + 3))]:
                part = intersect_sum_window(h, keep)
                expected = {e for e in elems if support(e) != INFINITE and support(e) <= keep}
                assert set(enumerate_elements(part, cap=4000)) == expected

    def test_directsum_equals_window_at_w(self):
        # finite support forces support inside [0, W)
        rng = random.Random(47)
        for _ in range(40):
            h = random_subgroup(rng)
            w, l = effective_window(h)
            d = intersect_directsum(h)
            win = intersect_sum_window(h, range(max(w, 1)))
            assert subgroups_equal(d, win)


class TestMembershipEquality:
    def test_equality_is_presentation_independent(self):
        rng = random.Random(49)
        for _ in range(25):
            h = random_subgroup(rng)
            doubled = ProductSubgroup(
                h.schema, h.gens + (h.gens[0] + h.gens[-1], h.gens[0].scale(2))
            )
            assert subgroups_equal(h, doubled)

    def test_equality_rejects_different(self):
        s = uniform_schema(Z2)
        h1 = ProductSubgroup(s, (elem(s, [1]),))
        h2 = ProductSubgroup(s, (elem(s, [1, 1]),))
        assert not subgroups_equal(h1, h2)
