"""Exact rational linear algebra for edge-vector row systems.

A row system packages an edge-vector set as a pair of integer matrices:
the row matrix ``R = [q*I_k | C]`` whose columns represent the edge
vectors, and the null matrix ``N = [C / -q*I_{n-k}]`` whose columns span
the null space of ``R``.  Vertex cuts of a Kirchhoff graph must lie in
the row space of ``R``; cycle vectors must lie in its null space.

Everything here is exact: one integer echelon, ``_echelon``, does all
elimination, and ``Fraction``s appear only at input and in ``rref``'s rows.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm


class RowSystemError(ValueError):
    """Base class for invalid edge-vector input."""


class DegenerateShape(RowSystemError):
    """Basis block size k must satisfy 1 < k < n."""


class ParallelColumns(RowSystemError):
    """Some edge vector is a rational multiple of another (or zero)."""


class RankDeficient(RowSystemError):
    """The first k columns do not form a basis."""


class ZeroRowInC(RowSystemError):
    """C has an all-zero row, so no graph could be vector 2-connected."""


def _frac(x) -> Fraction:
    if isinstance(x, (Fraction, int, str)):
        return Fraction(x)
    raise TypeError(f"matrix entries must be int, Fraction or str, got {type(x)!r}")


def _rows(matrix) -> list[list[int]]:
    """``matrix`` as a nonempty rectangular list of integer rows, each
    row scaled by the positive lcm of its denominators; that keeps the
    row space, the RREF and which columns are parallel."""
    rows = [[_frac(x) for x in row] for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged rows")
    scales = [lcm(*(x.denominator for x in row)) for row in rows]
    return [[x.numerator * (d // x.denominator) for x in row] for d, row in zip(scales, rows)]


def _reduce(basis, v) -> list[int]:
    """``v`` reduced against ``basis``, an ``_echelon``; all zero iff v
    lies in the rational span of the basis.  Integer steps only: each
    one scales v by a nonzero pivot and subtracts a multiple of a row,
    then divides out the gcd."""
    for p, row in basis:
        if v[p]:
            a, b = row[p], v[p]
            v = [a * x - b * y for x, y in zip(v, row)]
            d = gcd(*v)
            if d > 1:
                v = [x // d for x in v]
    return v


def _echelon(vectors) -> list[tuple[int, list[int]]]:
    """An integer echelon basis of the rational span of the integer
    ``vectors``: rows (pivot, row), the pivot the row's first nonzero
    column, each row zero at the pivots of the rows before it, so
    ``_reduce`` may take the rows in order."""
    basis = []
    for v in vectors:
        v = _reduce(basis, v)
        if any(v):
            basis.append((next(j for j, x in enumerate(v) if x), v))
    return basis


def rref(M) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...], int]:
    """Reduced row echelon form over the rationals of the nonempty
    matrix ``M``, given as rows: ``(reduced_rows, pivot_columns, rank)``,
    where ``reduced_rows`` is the unique RREF of ``M``.  The rows after
    an ``_echelon`` row are zero at its pivot and left of their own, so
    reducing it against them clears every other pivot column and keeps
    its pivot first; only then is each row divided by its pivot."""
    rows = _rows(M)
    basis = _echelon(rows)
    basis = sorted((p, _reduce(basis[i + 1:], row)) for i, (p, row) in enumerate(basis))
    reduced = [tuple(Fraction(x, row[p]) for x in row) for p, row in basis]
    reduced += [(Fraction(0),) * len(rows[0])] * (len(rows) - len(basis))
    return tuple(reduced), tuple(p for p, _ in basis), len(basis)


def span_rank(vectors) -> int:
    """Rank of the rational span of ``vectors``, whose entries are int,
    Fraction or str; each vector is scaled to integers as ``rref``
    scales its rows, and ragged vectors raise ValueError."""
    vectors = list(vectors)
    return len(_echelon(_rows(vectors))) if vectors else 0


class _Filled(dict):
    """A dict that fills a missing entry with ``fill(key)``; a hit is a
    plain C-level lookup, and a fill that raises stores nothing."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


def _orthogonal(n: int, rows, x) -> bool:
    """True iff x is orthogonal to each of ``rows``; x must have length n."""
    if len(x) != n:
        raise ValueError(f"expected length {n}, got {len(x)}")
    return all(sum(r * xi for r, xi in zip(row, x)) == 0 for row in rows)


class RowSystem:
    """An edge-vector set in normalized ``R = [q*I | C]`` form.

    n        number of edge vectors
    k        rank of the spanning basis block (1 < k < n)
    q        positive integer clearing the denominators of the
             dependency coefficients
    R        k x n integer row matrix; column i represents edge vector i
    C        k x (n-k) integer dependency block, C = q * C'
    N        n x (n-k) integer null matrix [C / -q*I]
    columns  the edge vectors as integer k-tuples (columns of R)

    Systems compare and hash by identity; graph code compares ``R``.
    """

    def __init__(self, n: int, k: int, q: int, R, C, N):
        self.n, self.k, self.q, self.R, self.C, self.N = n, k, q, R, C, N
        self.columns = tuple(zip(*R))

    def contains_in_row_space(self, x) -> bool:
        """True iff x is a rational combination of the rows of R (N^T x = 0)."""
        return _orthogonal(self.n, zip(*self.N), x)

    def syndrome_steps(self, copies: int) -> list[int]:
        """For each vector i, row i of N packed in the balanced base
        B = 2b + 1, b = copies * max|N|: the sum over d of N[i][d] * B^d.
        For integer x with sum |x_i| <= copies, N^T x has digits in [-b, b],
        so sum x_i * step_i, its pack, is 0 iff x lies in Row(R); no step
        is 0.  Built directly, not by a ``vgraph.Radix``: half the cost."""
        base = 2 * copies * max(abs(x) for row in self.N for x in row) + 1
        return [sum(x * base**d for d, x in enumerate(row)) for row in self.N]

    def contains_in_null_space(self, x) -> bool:
        """True iff R x = 0."""
        return _orthogonal(self.n, self.R, x)


def build_row_system(edge_matrix) -> RowSystem:
    """Normalize a k x n edge-vector matrix into a RowSystem.

    The columns of ``edge_matrix`` are the edge vectors; the first k must
    be linearly independent.  An already-formed row matrix ``[q*I | C]``
    is accepted too and normalizes to itself.

    Raises DegenerateShape, ParallelColumns, RankDeficient or ZeroRowInC
    on inputs that cannot carry a vector 2-connected Kirchhoff graph.
    """
    M = _rows(edge_matrix)
    k, n = len(M), len(M[0])
    if k <= 1 or k >= n:
        raise DegenerateShape(f"need 1 < k < n, got k={k}, n={n}")

    cols = list(zip(*M))
    for j, col in enumerate(cols):
        if all(x == 0 for x in col):
            raise ParallelColumns(f"column {j} is zero")
    for a in range(n):
        for b in range(a + 1, n):
            u, v = cols[a], cols[b]
            # Nonzero u, v are parallel iff every 2x2 minor of [u v] vanishes.
            if all(u[i] * v[j] == u[j] * v[i] for i in range(k) for j in range(i + 1, k)):
                raise ParallelColumns(f"columns {a} and {b} are parallel")

    reduced, pivots, rank = rref(M)
    if pivots[:k] != tuple(range(k)) or rank != k:
        raise RankDeficient("first k columns are not a basis of the column space")

    cprime = [[reduced[i][k + j] for j in range(n - k)] for i in range(k)]
    q = lcm(*(x.denominator for row in cprime for x in row))
    C = tuple(tuple(x.numerator * (q // x.denominator) for x in row) for row in cprime)
    for i, row in enumerate(C):
        if all(x == 0 for x in row):
            raise ZeroRowInC(f"row {i} of C is zero")

    R = tuple(
        tuple((q if i == j else 0) for j in range(k)) + C[i] for i in range(k)
    )
    N = C + tuple(
        tuple((-q if j == i else 0) for j in range(n - k)) for i in range(n - k)
    )
    # R N = qC - qC = 0, and the qI blocks give rank R = k, rank N = n - k.
    return RowSystem(n=n, k=k, q=q, R=R, C=C, N=N)


def enumerate_bounded_cuts(sys: RowSystem, bound: int) -> list[tuple[int, ...]]:
    """All integer vectors of the rational row space with sup-norm <= bound.

    An integer member x of Row(R) has x[i] = q*a[i] on the identity
    block, so the rational coefficients a live on the (1/q)-grid inside
    the box [-bound/q, bound/q]^k.  Scanning that finite grid and keeping
    the integer images is exhaustive.  The output includes the zero
    vector and is sorted lexicographically as it is made: ``product``
    yields the first k entries in lex order, and they fix the rest.
    """
    if bound < 1:
        raise ValueError("bound must be >= 1")
    q, k, n = sys.q, sys.k, sys.n
    ccols = [tuple(sys.C[i][j] for i in range(k)) for j in range(n - k)]
    out = []
    for t in product(range(-bound, bound + 1), repeat=k):
        tail = []
        for col in ccols:
            num = sum(ti * ci for ti, ci in zip(t, col))
            v, rem = divmod(num, q)
            if rem or not -bound <= v <= bound:
                break
            tail.append(v)
        else:
            out.append(t + tuple(tail))
    return out
