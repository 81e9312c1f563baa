"""Finite abelian groups as lattices: spans, membership, kernels, invariants."""

import itertools
import random
from collections import Counter
from math import lcm, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcodes.errors import CapExceeded, SchemaMismatch
from groupcodes.finabel import (
    FiniteAbelianGroup,
    Subgroup,
    direct_sum,
    enumerate_subgroup,
    full,
    invariant_factors,
    member,
    row_span,
    span,
    subgroup_equal,
    subgroup_le,
    trivial,
)
from groupcodes.intlinalg import IntMatrix, echelon_lattice, kernel_mod, lattice_coefficients, lattice_member, snf


def closure(group, gens):
    """Independent additive closure by breadth-first search on coordinate tuples."""
    seen = {group.zero().coords}
    queue = [group.zero().coords]
    gen_coords = [g.coords for g in gens]
    while queue:
        x = queue.pop()
        for g in gen_coords:
            y = tuple((a + b) % o for a, b, o in zip(x, g, group.orders))
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def random_group(rng, max_n=3, pool=(2, 3, 4)):
    return FiniteAbelianGroup(tuple(rng.choice(pool) for _ in range(rng.randrange(1, max_n + 1))))


def random_elements(rng, group, count):
    return [
        group.element(tuple(rng.randrange(o) for o in group.orders)) for _ in range(count)
    ]


class TestGroupBasics:
    def test_order_exponent(self):
        g = FiniteAbelianGroup((2, 3, 4))
        assert g.order() == 24

    def test_element_canonicalizes_mod_orders(self):
        g = FiniteAbelianGroup((2, 5))
        assert g.element((3, -1)).coords == (1, 4)

    def test_arithmetic(self):
        g = FiniteAbelianGroup((4,))
        a = g.element((3,))
        assert (a + a).coords == (2,)
        assert (-a).coords == (1,)
        assert a.scale(5).coords == (3,)
        assert a.order() == 4

    def test_generators_skip_trivial_factors(self):
        g = FiniteAbelianGroup((1, 3, 1))
        gens = g.generators()
        assert [x.coords for x in gens] == [(0, 1, 0)]

    def test_elements_cap(self):
        g = FiniteAbelianGroup((100, 100))
        with pytest.raises(CapExceeded):
            list(g.elements(cap=10))

    def test_direct_sum(self):
        g = direct_sum([FiniteAbelianGroup((2,)), FiniteAbelianGroup((3, 4))])
        assert g.orders == (2, 3, 4)

    def test_cross_group_arithmetic_rejected(self):
        a = FiniteAbelianGroup((2,)).element((1,))
        b = FiniteAbelianGroup((3,)).element((1,))
        with pytest.raises(SchemaMismatch):
            a + b


class TestSpanMembership:
    def test_matches_closure_random(self):
        rng = random.Random(31)
        for _ in range(60):
            g = random_group(rng)
            gens = random_elements(rng, g, rng.randrange(0, 3))
            s = span(g, gens)
            expected = closure(g, gens)
            assert s.order() == len(expected)
            for coords in itertools.product(*(range(o) for o in g.orders)):
                assert member(s, g.element(coords)) == (coords in expected)

    def test_canonical_basis_is_presentation_independent(self):
        rng = random.Random(32)
        for _ in range(60):
            g = random_group(rng)
            gens = random_elements(rng, g, 2)
            s1 = span(g, gens)
            doubled = gens + [gens[0] + gens[1], gens[1].scale(3)]
            s2 = span(g, doubled)
            assert s1 == s2
            assert subgroup_equal(s1, s2)

    def test_row_span_matches_span(self):
        # Rows may hold any residues, negative or past the orders; no rows and no columns are spans too.
        rng = random.Random(34)
        groups = [random_group(rng) for _ in range(60)] + [FiniteAbelianGroup(())]
        for g in groups:
            rows = [[rng.randrange(-3 * o, 3 * o) for o in g.orders] for _ in range(rng.randrange(0, 4))]
            s = row_span(g.orders, rows)
            assert s == span(g, map(g.element, rows))
            assert s.order() == len(closure(g, list(map(g.element, rows))))
        assert row_span((), [[], []]).order() == 1
        assert row_span((2, 3), []) == trivial(FiniteAbelianGroup((2, 3)))
        with pytest.raises(SchemaMismatch):
            row_span((2, 3), [[1]])

    def test_trivial_and_full(self):
        g = FiniteAbelianGroup((2, 3))
        assert trivial(g).order() == 1
        assert full(g).order() == 6
        assert subgroup_le(trivial(g), full(g))

    def test_lagrange(self):
        rng = random.Random(33)
        for _ in range(60):
            g = random_group(rng)
            s = span(g, random_elements(rng, g, 2))
            assert g.order() % s.order() == 0


@st.composite
def generator_matrices(draw):
    orders = draw(st.lists(st.one_of(st.sampled_from([1, 4, 6, 12, 36, 60]), st.integers(1, 64)), max_size=6))
    n, r = len(orders), draw(st.integers(0, 6))
    entries = st.one_of(st.integers(-60, 60), st.integers(-(10**15), 10**15))
    return orders, IntMatrix(r, n, tuple(draw(st.lists(entries, min_size=r * n, max_size=r * n))))


class TestCanonicalBasis:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(generator_matrices())
    @example(([], IntMatrix(0, 0, ())))
    @example(([1, 1], IntMatrix(1, 2, (5, -3))))
    def test_equals_hnf_of_generators_over_relations(self, case):
        orders, gens = case
        s = Subgroup(FiniteAbelianGroup(tuple(orders)), gens)
        assert s.basis == echelon_lattice(gens.vstack(IntMatrix.diagonal(orders)))
        assert s.basis.rows == len(orders)
        assert all(orders[j] % s.basis[j, j] == 0 for j in range(len(orders)))


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


KERNEL_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SMALL_ORDERS = st.sampled_from([1, 2, 3, 4, 6])
BIG_ENTRIES = st.one_of(st.integers(-50, 50), st.integers(-(10**15), 10**15))


@st.composite
def congruence_systems(draw):
    r, c = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    moduli = draw(st.lists(SMALL_ORDERS, min_size=r, max_size=r))
    return IntMatrix(r, c, tuple(draw(st.lists(BIG_ENTRIES, min_size=r * c, max_size=r * c)))), moduli


class TestKernelRoutesAgainstEnumeration:
    """kernel_mod against brute-force solution of the congruence system."""

    @KERNEL_PROPERTY
    @given(congruence_systems())
    @example((IntMatrix(0, 0, ()), []))
    @example((IntMatrix(2, 0, ()), [4, 6]))
    @example((IntMatrix(0, 3, ()), []))
    @example((IntMatrix(2, 2, (10**15, -(10**15) + 1, 1, 1)), [1, 6]))
    def test_kernel_mod(self, case):
        a, moduli = case
        k = kernel_mod(a, moduli)
        box = lcm(*moduli)
        assert k.rows == a.cols
        for x in itertools.product(range(box), repeat=a.cols):
            solves = all(sum(a[i, j] * x[j] for j in range(a.cols)) % moduli[i] == 0 for i in range(a.rows))
            assert lattice_member(k, x) == solves
        for j in range(a.cols):
            assert lattice_member(k, [box if i == j else 0 for i in range(a.cols)])

class TestInvariantFactors:
    def test_full_cyclic(self):
        g = FiniteAbelianGroup((12,))
        assert invariant_factors(full(g)) == [12]

    def test_full_two_by_two(self):
        g = FiniteAbelianGroup((2, 2))
        assert invariant_factors(full(g)) == [2, 2]

    def test_diagonal_in_klein(self):
        g = FiniteAbelianGroup((2, 2))
        s = span(g, [g.element((1, 1))])
        assert invariant_factors(s) == [2]

    def test_mixed_orders(self):
        g = FiniteAbelianGroup((4, 2))
        s = span(g, [g.element((1, 1))])
        assert invariant_factors(s) == [4]

    def test_trivial(self):
        g = FiniteAbelianGroup((6,))
        assert invariant_factors(trivial(g)) == []

    def test_product_and_divisibility_random(self):
        rng = random.Random(36)
        for _ in range(60):
            g = random_group(rng, pool=(2, 3, 4, 6))
            s = span(g, random_elements(rng, g, 2))
            factors = invariant_factors(s)
            prod = 1
            for d in factors:
                assert d > 1
                prod *= d
            assert prod == s.order()
            for a, b in zip(factors, factors[1:]):
                assert b % a == 0

    def test_element_order_multiset_matches(self):
        rng = random.Random(37)
        for _ in range(30):
            g = random_group(rng)
            s = span(g, random_elements(rng, g, 2))
            factors = invariant_factors(s)
            concrete = sorted(x.order() for x in enumerate_subgroup(s))
            abstract_group = FiniteAbelianGroup(tuple(factors))
            abstract = sorted(x.order() for x in abstract_group.elements())
            assert concrete == abstract


class TestEnumeration:
    def test_no_duplicates_and_complete(self):
        rng = random.Random(38)
        for _ in range(50):
            g = random_group(rng)
            s = span(g, random_elements(rng, g, 2))
            elems = enumerate_subgroup(s)
            coords = [x.coords for x in elems]
            assert len(coords) == len(set(coords)) == s.order()
            for x in elems:
                assert member(s, x)

    def test_cap_enforced(self):
        g = FiniteAbelianGroup((4, 4, 4))
        with pytest.raises(CapExceeded):
            enumerate_subgroup(full(g), cap=10)


HUGE_PRIMES = (10**18 + 3, 2**61 - 1)
FACTOR_ORDERS = st.one_of(st.sampled_from((1, 2, 4, 6, 8, 12, 36) + HUGE_PRIMES), st.integers(1, 30))


@st.composite
def finite_subgroups(draw):
    """Up to four factors, possibly none or of order 1, and up to three generators, possibly none."""
    g = FiniteAbelianGroup(tuple(draw(st.lists(FACTOR_ORDERS, max_size=4))))
    gens = draw(st.lists(st.tuples(*(BIG_ENTRIES for _ in g.orders)), max_size=3))
    return Subgroup(g, IntMatrix(len(gens), g.n, tuple(itertools.chain.from_iterable(gens))))


def presentation(s):
    """The relations ``orders[j] * e_j`` written in the subgroup's basis, one row each."""
    n = s.parent.n
    rels = ([o if i == j else 0 for i in range(n)] for j, o in enumerate(s.parent.orders))
    return IntMatrix(n, n, tuple(itertools.chain.from_iterable(lattice_coefficients(s.basis, r) for r in rels)))


def element_orders(factors):
    """The multiset of element orders of ``Z/d_1 + ... + Z/d_r``."""
    elements = itertools.product(*map(range, factors))
    return Counter(lcm(*(d // _gcd(x, d) for x, d in zip(xs, factors))) for xs in elements)


class TestInvariantFactorProperties:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(finite_subgroups())
    @example(Subgroup(FiniteAbelianGroup(()), IntMatrix(0, 0, ())))
    @example(Subgroup(FiniteAbelianGroup((1, 1)), IntMatrix(0, 2, ())))
    @example(Subgroup(FiniteAbelianGroup(HUGE_PRIMES), IntMatrix(1, 2, (1, 1))))
    @example(Subgroup(FiniteAbelianGroup((10**18 + 3, 10**18 + 3)), IntMatrix.identity(2)))
    def test_matches_smith_form_of_presentation(self, s):
        factors = invariant_factors(s)
        d = snf(presentation(s)).d
        assert factors == [d[i, i] for i in range(s.parent.n) if d[i, i] > 1]
        assert prod(factors) == s.order()
        if s.order() <= 400:
            assert element_orders(factors) == Counter(x.order() for x in enumerate_subgroup(s))
