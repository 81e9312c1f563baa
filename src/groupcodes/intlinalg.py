"""Exact integer matrices with Hermite and Smith normal forms.

Everything runs on Python's arbitrary-precision integers, so coefficient
growth during the reductions is exact and silent overflow cannot occur.
Matrices are immutable; all operations return new values.

Conventions:
  * hnf is row-style: ``u @ m == h`` with ``u`` unimodular, ``h`` in row
    echelon form, pivots positive, entries above a pivot reduced into
    ``[0, pivot)``, zero rows collected at the bottom.  No routine here
    reads ``u``; ``echelon_lattice`` runs the same row elimination without
    a transform, and ``snf`` alternates it over the matrix and its transpose.
  * echelon_mod gives the same canonical basis for a lattice that holds
    ``orders[j] * e_j`` for every column: it inserts the generators into
    ``diag(orders)`` one at a time with ``insert_mod``, which keeps every
    entry right of a pivot below its column's order, so entries never grow.
    The row HNF of a lattice is unique, so both routes agree exactly.  A
    width above ``MAX_WIDTH`` is refused with ``MemoryError`` up front.
  * kernel_mod reads the solutions of a congruence system off the
    echelon_mod basis of the rows ``(a @ e_j, e_j)``: they are the lattice
    vectors that vanish on the first columns.
  * snf satisfies ``l @ m @ r == d`` with ``d`` diagonal, entries
    non-negative, and each diagonal entry dividing the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, repeat
from math import gcd, lcm
from typing import Iterable, Sequence

# Widest echelon_mod basis; wider square matrices of Python ints exhaust memory.
MAX_WIDTH = 4096


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        if not all(map(isinstance, self.entries, repeat(int))):
            raise ValueError("entries must be integers")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]], cols: int | None = None) -> IntMatrix:
        rows = [tuple(int(x) for x in r) for r in rows]
        if rows:
            width = len(rows[0])
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with row data")
        else:
            if cols is None:
                raise ValueError("column count required for an empty row list")
            width = cols
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), width, flat)

    @classmethod
    def identity(cls, n: int) -> IntMatrix:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> IntMatrix:
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Sequence[int]) -> IntMatrix:
        n = len(diag)
        return cls(n, n, tuple(diag[i] if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError("matrix index out of range")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> IntMatrix:
        flat = tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows))
        return IntMatrix(self.cols, self.rows, flat)

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.rows:
            raise ValueError("inner dimensions do not match")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            out.append([sum(ai[k] * b[k][j] for k in range(self.cols)) for j in range(other.cols)])
        return _from_int_rows(out, other.cols)

    def vstack(self, other: IntMatrix) -> IntMatrix:
        if self.cols != other.cols:
            raise ValueError("column counts differ")
        return IntMatrix(self.rows + other.rows, self.cols, self.entries + other.entries)


@dataclass(frozen=True)
class HnfResult:
    h: IntMatrix
    u: IntMatrix


@dataclass(frozen=True)
class SnfResult:
    d: IntMatrix
    l: IntMatrix
    r: IntMatrix


def hnf(m: IntMatrix) -> HnfResult:
    """Row Hermite normal form with its unimodular transform.

    Returns ``HnfResult(h, u)`` with ``u @ m == h``, ``abs(det(u)) == 1``.
    The result shape equals the input shape; zero rows sink to the bottom.
    """
    a = m.to_rows()
    u = _identity_rows(m.rows)
    _hermite(a, m.cols, u)
    return HnfResult(_from_int_rows(a, m.cols), _from_int_rows(u, m.rows))


def _hermite(a: list[list[int]], cols: int, u: list[list[int]] | None = None) -> int:
    """Reduce the rows of ``a`` in place to row HNF and return the rank.

    Every row operation is applied to ``u`` too when it is given.  Rows
    below the returned rank are zero.
    """
    nrows = len(a)
    piv = 0
    for col in range(cols):
        if piv >= nrows:
            break
        # Reduce the column below piv to a single entry by gcd elimination.
        while True:
            live = [i for i in range(piv, nrows) if a[i][col] != 0]
            if not live:
                break
            pick = min(live, key=lambda i: abs(a[i][col]))
            if pick != piv:
                a[piv], a[pick] = a[pick], a[piv]
                if u is not None:
                    u[piv], u[pick] = u[pick], u[piv]
            if len(live) == 1:
                break
            p = a[piv][col]
            for i in range(piv + 1, nrows):
                if a[i][col]:
                    q = a[i][col] // p
                    if q:
                        _row_sub(a, i, piv, q)
                        if u is not None:
                            _row_sub(u, i, piv, q)
        if a[piv][col] == 0:
            continue
        if a[piv][col] < 0:
            a[piv] = [-x for x in a[piv]]
            if u is not None:
                u[piv] = [-x for x in u[piv]]
        p = a[piv][col]
        for i in range(piv):
            q = a[i][col] // p
            if q:
                _row_sub(a, i, piv, q)
                if u is not None:
                    _row_sub(u, i, piv, q)
        piv += 1
    return piv


def _from_int_rows(rows: Sequence[Sequence[int]], cols: int) -> IntMatrix:
    """Matrix from equal-length rows that already hold ints."""
    return IntMatrix(len(rows), cols, tuple(chain.from_iterable(rows)))


def _identity_rows(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _row_sub(rows: list[list[int]], i: int, j: int, q: int) -> None:
    rj = rows[j]
    ri = rows[i]
    for k in range(len(ri)):
        ri[k] -= q * rj[k]


def snf(m: IntMatrix) -> SnfResult:
    """Smith normal form with both unimodular transforms.

    Returns ``SnfResult(d, l, r)`` with ``l @ m @ r == d``, ``d`` diagonal,
    non-negative, and ``d[i][i]`` dividing ``d[i+1][i+1]``.  Row HNF passes
    over the matrix (into ``l``) and its transpose (into the rows of ``r``'s
    transpose) alternate until it is diagonal (Kannan & Bachem, SIAM J.
    Comput. 8(4), 1979).  While an entry ``d_i`` does not divide a later
    ``d_j``, column ``j`` is added to column ``i`` and the passes go on; a
    row add would only be reduced away by the next row pass.
    """
    a, nr, nc = m.to_rows(), m.rows, m.cols
    l, rt = _identity_rows(nr), _identity_rows(nc)
    while True:
        _hermite(a, nc, l)
        if any(x for i, row in enumerate(a) for j, x in enumerate(row) if i != j):
            a = _transpose(a, nc)
            _hermite(a, nr, rt)
            a = _transpose(a, nr)
            continue
        d = [a[i][i] for i in range(min(nr, nc))]
        bad = next(((i, j) for i in range(len(d)) for j in range(i + 1, len(d)) if d[i] and d[j] % d[i]), None)
        if bad is None:
            return SnfResult(_from_int_rows(a, nc), _from_int_rows(l, nr), _from_int_rows(_transpose(rt, nc), nc))
        i, j = bad
        a[j][i] = d[j]  # column j added to column i; the matrix is diagonal
        rt[i] = [x + y for x, y in zip(rt[i], rt[j])]


def _transpose(rows: list[list[int]], cols: int) -> list[list[int]]:
    return [[row[j] for row in rows] for j in range(cols)]


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    denom = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // denom
            a[i][k] = 0
        denom = a[k][k]
    return sign * a[n - 1][n - 1]


def echelon_lattice(m: IntMatrix) -> IntMatrix:
    """Canonical HNF basis of the lattice generated by the rows, zero rows dropped."""
    a = m.to_rows()
    rank = _hermite(a, m.cols)
    return _from_int_rows(a[:rank], m.cols)


def echelon_mod(gens: IntMatrix, orders: Sequence[int]) -> IntMatrix:
    """Canonical HNF basis of the lattice spanned by the rows of ``gens`` and ``orders[j] * e_j``.

    Equals ``echelon_lattice(gens.vstack(IntMatrix.diagonal(orders)))``
    for positive ``orders``, computed with bounded entries: the basis
    starts as the triangular ``diag(orders)``, each generator is inserted
    by ``insert_mod``, and ``reduce_above_pivots`` reduces the entries above
    each pivot into ``[0, pivot)``.  The row HNF of a lattice is unique, so
    the result is the same matrix the general HNF produces.  A width above
    ``MAX_WIDTH`` raises ``MemoryError`` before the square basis is built.
    """
    n = len(orders)
    if gens.cols != n:
        raise ValueError("generator width does not match the number of orders")
    if n > MAX_WIDTH:
        raise MemoryError(f"a {n}-column echelon form exceeds the {MAX_WIDTH}-column limit")
    basis = [[0] * n for _ in range(n)]
    for k, o in enumerate(orders):
        basis[k][k] = o
    for i in range(gens.rows):
        insert_mod(basis, gens.row(i), orders)
    reduce_above_pivots(basis)
    return _from_int_rows(basis, n)


def reduce_above_pivots(basis: list[list[int]]) -> None:
    """Reduce the entries above each pivot of a square upper triangular ``basis`` into ``[0, pivot)``, in place.

    With positive pivots the result is the row HNF of the same lattice.
    """
    for k in range(len(basis)):
        p = basis[k][k]
        for i in range(k):
            q = basis[i][k] // p
            if q:
                _row_sub(basis, i, k, q)


def insert_mod(basis: list[list[int]], g: Sequence[int], orders: Sequence[int]) -> None:
    """Add ``g`` to the lattice of the square upper triangular ``basis``, in place.

    The lattice must hold every ``orders[j] * e_j``.  ``g`` mod ``orders``
    goes in column by column through a unimodular extended-gcd step with
    that column's pivot row.  Every entry right of a pivot stays reduced mod
    its column's order, as ``orders[j] * e_j`` lies in the span of rows
    ``j..n-1`` of a triangular basis of a full-rank lattice.
    """
    n = len(orders)
    g = [x % o for x, o in zip(g, orders)]
    for k in range(n):
        a = g[k]
        if not a:
            continue
        row = basis[k]
        p = row[k]
        tail = range(k + 1, n)
        if a % p == 0:
            q = a // p
            g = [0] * (k + 1) + [(g[j] - q * row[j]) % orders[j] for j in tail]
            continue
        d, s, t = _xgcd(p, a)
        x, y = p // d, a // d
        basis[k] = [0] * k + [d] + [(s * row[j] + t * g[j]) % orders[j] for j in tail]
        g = [0] * (k + 1) + [(y * row[j] - x * g[j]) % orders[j] for j in tail]


def kernel_mod(a: IntMatrix, moduli: Sequence[int]) -> IntMatrix:
    """Generator rows of the lattice ``{x : a @ x == 0 (mod moduli)}``.

    ``moduli[i]`` applies to row ``i`` of ``a``; every modulus must be
    positive.  The result is in canonical row HNF with zero rows dropped.
    The lattice always contains ``lcm(moduli) * e_j`` for each coordinate,
    so it is ``{x : (0, x) in L}`` for the full-rank lattice ``L`` that
    ``echelon_mod`` spans from the rows ``(a @ e_j, e_j)`` with orders
    ``moduli`` on the first ``r = len(moduli)`` columns and ``lcm(moduli)``
    on the last ``n``.  A triangular basis of a full-rank lattice has the
    suffix property: the rows with pivots past column ``r`` span exactly the
    lattice vectors that vanish on the first ``r`` columns (Cohen, GTM 138,
    §2.4).  So the result is the lower-right ``n``-square block of that
    basis, already in HNF.
    """
    if len(moduli) != a.rows:
        raise ValueError("one modulus per matrix row is required")
    if any(mod < 1 for mod in moduli):
        raise ValueError("moduli must be positive")
    r, n = a.rows, a.cols
    rows = [a.column(j) + tuple(int(k == j) for k in range(n)) for j in range(n)]
    basis = echelon_mod(_from_int_rows(rows, r + n), list(moduli) + [lcm(*moduli)] * n)
    return _from_int_rows([basis.row(i)[r:] for i in range(r, r + n)], n)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """``(d, s, t)`` with ``d == gcd(a, b) == s * a + t * b`` for positive ``a``."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def lattice_member(basis: IntMatrix, vec: Sequence[int]) -> bool:
    """Membership of an integer vector in the row lattice of an echelon basis."""
    coeffs = lattice_coefficients(basis, vec)
    return coeffs is not None


def lattice_coefficients(basis: IntMatrix, vec: Sequence[int]) -> tuple[int, ...] | None:
    """Express ``vec`` as an integer combination of echelon basis rows.

    ``basis`` must be in row echelon form (as produced by echelon_lattice).
    Returns the coefficient vector, or None when ``vec`` is outside the lattice.
    """
    if len(vec) != basis.cols:
        raise ValueError("vector length does not match lattice dimension")
    v = list(vec)
    coeffs = []
    for i in range(basis.rows):
        row = basis.row(i)
        p = next((j for j, x in enumerate(row) if x), None)
        if p is None:
            coeffs.append(0)
            continue
        if v[p] % row[p]:
            return None
        q = v[p] // row[p]
        coeffs.append(q)
        if q:
            for k in range(p, basis.cols):
                v[k] -= q * row[k]
    if any(v):
        return None
    return tuple(coeffs)


__all__ = [
    "IntMatrix",
    "HnfResult",
    "SnfResult",
    "hnf",
    "snf",
    "det",
    "kernel_mod",
    "echelon_lattice",
    "echelon_mod",
    "insert_mod",
    "reduce_above_pivots",
    "MAX_WIDTH",
    "lattice_member",
    "lattice_coefficients",
    "gcd",
]
