"""Exact integer matrix layer: canonical forms and kernels."""

import itertools
import random
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupcodes.intlinalg import (
    MAX_WIDTH,
    IntMatrix,
    det,
    echelon_lattice,
    echelon_mod,
    hnf,
    insert_mod,
    kernel_mod,
    lattice_coefficients,
    lattice_member,
    snf,
)


def rows(m: IntMatrix) -> list[list[int]]:
    return m.to_rows()


def random_matrix(rng: random.Random, max_dim: int = 5, bound: int = 20) -> IntMatrix:
    r = rng.randrange(1, max_dim + 1)
    c = rng.randrange(1, max_dim + 1)
    return IntMatrix.from_rows(
        [[rng.randrange(-bound, bound + 1) for _ in range(c)] for _ in range(r)], cols=c
    )


class TestHnf:
    def test_two_by_two(self):
        res = hnf(IntMatrix.from_rows([[4, 6], [2, 2]]))
        assert rows(res.h) == [[2, 0], [0, 2]]

    def test_identity_fixed(self):
        m = IntMatrix.identity(3)
        assert rows(hnf(m).h) == rows(m)

    def test_zero_matrix(self):
        m = IntMatrix.zeros(2, 3)
        assert rows(hnf(m).h) == [[0, 0, 0], [0, 0, 0]]

    def test_transform_identity_random(self):
        rng = random.Random(11)
        for _ in range(300):
            m = random_matrix(rng)
            res = hnf(m)
            assert res.u @ m == res.h
            assert abs(det(res.u)) == 1

    def test_pivots_positive_and_reduced(self):
        rng = random.Random(12)
        for _ in range(200):
            m = random_matrix(rng)
            h = hnf(m).h
            last_col = -1
            for i in range(h.rows):
                row = h.row(i)
                nz = [j for j, v in enumerate(row) if v]
                if not nz:
                    continue
                pivot_col = nz[0]
                assert pivot_col > last_col
                last_col = pivot_col
                pivot = row[pivot_col]
                assert pivot > 0
                for above in range(i):
                    assert 0 <= h[above, pivot_col] < pivot

    def test_canonical_for_equal_lattices(self):
        base = IntMatrix.from_rows([[2, 1], [0, 3]])
        shuffled = IntMatrix.from_rows([[2, 4], [2, 1], [0, 3]], cols=2)
        h1 = [r for r in rows(hnf(base).h) if any(r)]
        h2 = [r for r in rows(hnf(shuffled).h) if any(r)]
        assert h1 == h2


class TestSnf:
    def test_diag_2_3(self):
        res = snf(IntMatrix.diagonal([2, 3]))
        assert rows(res.d) == [[1, 0], [0, 6]]

    def test_diag_6_4(self):
        res = snf(IntMatrix.diagonal([6, 4]))
        assert rows(res.d) == [[2, 0], [0, 12]]

    def test_transform_identity_random(self):
        rng = random.Random(13)
        for _ in range(200):
            m = random_matrix(rng)
            res = snf(m)
            assert res.l @ m @ res.r == res.d
            assert abs(det(res.l)) == 1
            assert abs(det(res.r)) == 1

    def test_divisibility_chain(self):
        rng = random.Random(14)
        for _ in range(200):
            m = random_matrix(rng)
            d = snf(m).d
            diag = [d[i, i] for i in range(min(d.rows, d.cols))]
            seen_zero = False
            for a, b in zip(diag, diag[1:]):
                assert a >= 0 and b >= 0
                if a == 0:
                    seen_zero = True
                    assert b == 0
                elif not seen_zero and b:
                    assert b % a == 0
            for i in range(d.rows):
                for j in range(d.cols):
                    if i != j:
                        assert d[i, j] == 0


class TestDet:
    def test_known_values(self):
        assert det(IntMatrix.from_rows([[2, 0], [0, 3]])) == 6
        assert det(IntMatrix.from_rows([[1, 2], [3, 4]])) == -2
        assert det(IntMatrix.identity(4)) == 1

    def test_matches_permutation_expansion(self):
        rng = random.Random(15)
        for _ in range(50):
            n = rng.randrange(1, 5)
            m = IntMatrix.from_rows(
                [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)], cols=n
            )
            expected = 0
            for perm in itertools.permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= m[i, perm[i]]
                expected += term
            assert det(m) == expected

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det(IntMatrix.zeros(2, 3))


class TestKernels:
    def test_kernel_mod_frozen(self):
        k = kernel_mod(IntMatrix.from_rows([[2]]), [4])
        assert rows(k) == [[2]]

    def test_kernel_mod_empty_rows(self):
        k = kernel_mod(IntMatrix.zeros(0, 3), [])
        assert rows(k) == rows(IntMatrix.identity(3))

    def test_kernel_mod_matches_enumeration(self):
        rng = random.Random(17)
        for _ in range(40):
            r = rng.randrange(1, 3)
            c = rng.randrange(1, 4)
            moduli = [rng.choice((2, 3, 4)) for _ in range(r)]
            a = IntMatrix.from_rows(
                [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)], cols=c
            )
            k = kernel_mod(a, moduli)
            box = 12
            for x in itertools.product(range(box), repeat=c):
                belongs = all(
                    sum(a[i, j] * x[j] for j in range(c)) % moduli[i] == 0 for i in range(r)
                )
                assert lattice_member(k, list(x)) == belongs

    def test_kernel_mod_contains_lcm_units(self):
        rng = random.Random(18)
        for _ in range(40):
            r = rng.randrange(1, 3)
            c = rng.randrange(1, 4)
            moduli = [rng.choice((2, 3, 4, 6)) for _ in range(r)]
            a = IntMatrix.from_rows(
                [[rng.randrange(-4, 5) for _ in range(c)] for _ in range(r)], cols=c
            )
            k = kernel_mod(a, moduli)
            l = 1
            for m in moduli:
                l = l * m // _gcd(l, m)
            for j in range(c):
                unit = [0] * c
                unit[j] = l
                assert lattice_member(k, unit)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


class TestLatticeOps:
    def test_echelon_spans_same_lattice(self):
        rng = random.Random(19)
        for _ in range(100):
            m = random_matrix(rng, max_dim=4, bound=6)
            e = echelon_lattice(m)
            for i in range(m.rows):
                assert lattice_member(e, m.row(i))
            um = hnf(m).u @ m
            for i in range(e.rows):
                # every echelon row is an integer combination of the inputs
                assert um.row(i) == e.row(i)

    def test_coefficients_reconstruct(self):
        rng = random.Random(20)
        for _ in range(100):
            m = random_matrix(rng, max_dim=4, bound=6)
            e = echelon_lattice(m)
            coeffs = [rng.randrange(-3, 4) for _ in range(e.rows)]
            vec = [0] * e.cols
            for c, i in zip(coeffs, range(e.rows)):
                for j in range(e.cols):
                    vec[j] += c * e[i, j]
            found = lattice_coefficients(e, vec)
            assert found is not None
            rebuilt = [0] * e.cols
            for c, i in zip(found, range(e.rows)):
                for j in range(e.cols):
                    rebuilt[j] += c * e[i, j]
            assert rebuilt == vec

    def test_coefficients_none_outside(self):
        m = IntMatrix.from_rows([[2, 0], [0, 2]])
        assert lattice_coefficients(m, [1, 0]) is None


PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
ORDERS = st.one_of(st.sampled_from([1, 2, 4, 6, 12, 30, 36, 60, 210]), st.integers(1, 97))
ENTRIES = st.one_of(st.integers(-50, 50), st.integers(-(10**15), 10**15))


@st.composite
def matrices(draw, cols=None, max_rows=6):
    c = draw(st.integers(0, 6)) if cols is None else cols
    r = draw(st.integers(0, max_rows))
    return IntMatrix(r, c, tuple(draw(st.lists(ENTRIES, min_size=r * c, max_size=r * c))))


@st.composite
def lattice_cases(draw):
    orders = draw(st.lists(ORDERS, max_size=6))
    return draw(matrices(cols=len(orders))), orders


class TestKernelProperties:
    @PROPERTY
    @given(lattice_cases())
    @example((IntMatrix(0, 0, ()), []))
    @example((IntMatrix(2, 0, ()), []))
    @example((IntMatrix(1, 3, (-(10**20), 7, 10**20)), [1, 6, 1]))
    def test_echelon_mod_equals_general_hnf(self, case):
        gens, orders = case
        assert echelon_mod(gens, orders) == echelon_lattice(gens.vstack(IntMatrix.diagonal(orders)))

    @PROPERTY
    @given(matrices())
    def test_echelon_lattice_is_nonzero_hnf_rows(self, m):
        h = hnf(m).h
        assert rows(echelon_lattice(m)) == [r for r in rows(h) if any(r)]

    @PROPERTY
    @given(
        st.lists(st.integers(), max_size=5),
        st.one_of(st.floats(allow_nan=False), st.text(max_size=3)),
        st.data(),
    )
    def test_rejects_non_integer_entries(self, ints, bad, data):
        at = data.draw(st.integers(0, len(ints)))
        entries = tuple(ints[:at]) + (bad,) + tuple(ints[at:])
        with pytest.raises(ValueError):
            IntMatrix(1, len(entries), entries)

    def test_echelon_mod_rejects_width_mismatch(self):
        with pytest.raises(ValueError):
            echelon_mod(IntMatrix.zeros(1, 2), [2, 3, 4])

    def test_echelon_mod_refuses_width_past_the_limit(self):
        n = MAX_WIDTH + 1
        with pytest.raises(MemoryError, match=f"^a {n}-column echelon form"):
            echelon_mod(IntMatrix.zeros(1, n), [2] * n)

    @PROPERTY
    @given(lattice_cases())
    def test_insert_mod_keeps_the_hermite_pivots(self, case):
        # After each insertion the triangular basis has the pivots of the canonical basis of the prefix.
        gens, orders = case
        n = len(orders)
        basis = [[o if j == k else 0 for j in range(n)] for k, o in enumerate(orders)]
        for i in range(gens.rows):
            insert_mod(basis, gens.row(i), orders)
            assert all(not any(basis[k][:k]) for k in range(n))
            canonical = echelon_mod(IntMatrix(i + 1, n, gens.entries[: (i + 1) * n]), orders)
            assert [basis[k][k] for k in range(n)] == [canonical[k, k] for k in range(n)]
        assert echelon_mod(IntMatrix.from_rows(basis, cols=n), orders) == echelon_mod(gens, orders)


def determinantal_diagonal(m: IntMatrix) -> IntMatrix:
    """The Smith form from the determinantal divisors: ``d_k = D_k / D_(k-1)``.

    ``D_k`` is the gcd of the ``k x k`` minors, each computed by ``det``, so
    this reference runs no Hermite or Smith elimination.
    """
    diag, prev = [], 1
    for k in range(1, min(m.rows, m.cols) + 1):
        dk = 0
        for rs in itertools.combinations(range(m.rows), k):
            for cs in itertools.combinations(range(m.cols), k):
                dk = gcd(dk, det(IntMatrix.from_rows([[m[i, j] for j in cs] for i in rs], cols=k)))
        diag.append(dk // prev if dk else 0)
        prev = dk or 1
    entries = (diag[i] if i == j else 0 for i in range(m.rows) for j in range(m.cols))
    return IntMatrix(m.rows, m.cols, tuple(entries))


SMALL_ENTRIES = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(10**6), 10**6))


@st.composite
def small_matrices(draw):
    r, c = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    return IntMatrix(r, c, tuple(draw(st.lists(SMALL_ENTRIES, min_size=r * c, max_size=r * c))))


class TestSnfProperties:
    @PROPERTY
    @given(small_matrices())
    @example(IntMatrix(0, 3, ()))
    @example(IntMatrix(3, 0, ()))
    @example(IntMatrix.from_rows([[2, 4], [3, 6]]))
    @example(IntMatrix.from_rows([[6, 0, 0], [0, 10, 0], [0, 0, 15]]))
    @example(IntMatrix.from_rows([[0, 0, 4], [0, 0, 6], [0, 0, 0]]))
    def test_diagonal_is_determinantal(self, m):
        res = snf(m)
        assert res.d == determinantal_diagonal(m)
        assert res.l @ m @ res.r == res.d
        assert m.rows == 0 or abs(det(res.l)) == 1
        assert m.cols == 0 or abs(det(res.r)) == 1
