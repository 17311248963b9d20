"""Exact rational linear algebra for edge-vector row systems.

A row system packages an edge-vector set as a pair of integer matrices:
the row matrix ``R = [q*I_k | C]`` whose columns represent the edge
vectors, and the null matrix ``N = [C / -q*I_{n-k}]`` whose columns span
the null space of ``R``.  Vertex cuts of a Kirchhoff graph must lie in
the row space of ``R``; cycle vectors must lie in its null space.

Everything here is exact: entries are Python ints or
:class:`fractions.Fraction`, never floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm


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
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"matrix entries must be int, Fraction or str, got {type(x)!r}")


def _rows(matrix) -> list[list[Fraction]]:
    """``matrix`` as a nonempty rectangular list of Fraction rows."""
    rows = [[_frac(x) for x in row] for row in matrix]
    if not rows or not rows[0]:
        raise ValueError("matrix must be nonempty")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("ragged rows")
    return rows


def rref(M) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...], int]:
    """Reduced row echelon form over the rationals of the nonempty
    matrix ``M``, given as rows: ``(reduced_rows, pivot_columns, rank)``,
    where ``reduced_rows`` is the unique RREF of ``M``."""
    work = _rows(M)
    nrows, ncols = len(work), len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(map(tuple, work)), tuple(pivots), len(pivots)


def span_rank(vectors) -> int:
    """Rank of the rational span of integer (or rational) vectors."""
    vectors = list(vectors)
    if not vectors:
        return 0
    return rref(vectors)[2]


@dataclass(frozen=True)
class RowSystem:
    """An edge-vector set in normalized ``R = [q*I | C]`` form.

    n        number of edge vectors
    k        rank of the spanning basis block (1 < k < n)
    q        positive integer clearing the denominators of the
             dependency coefficients
    R        k x n integer row matrix; column i represents edge vector i
    C        k x (n-k) integer dependency block, C = q * C'
    N        n x (n-k) integer null matrix [C / -q*I]
    """

    n: int
    k: int
    q: int
    R: tuple[tuple[int, ...], ...]
    C: tuple[tuple[int, ...], ...]
    N: tuple[tuple[int, ...], ...]

    @property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """Edge vectors as integer k-tuples (columns of R)."""
        return self._columns

    def __post_init__(self):
        # Edge vectors, read per edge by the graph code, built once.
        object.__setattr__(self, "_columns", tuple(zip(*self.R)))
        # N columns as rows of N^T, precomputed for the hot membership test.
        object.__setattr__(
            self,
            "_nt",
            tuple(tuple(self.N[i][j] for i in range(self.n)) for j in range(self.n - self.k)),
        )
        object.__setattr__(self, "_in_row", {})  # contains_in_row_space's answers

    def contains_in_row_space(self, x) -> bool:
        """True iff x is a rational combination of the rows of R (N^T x = 0).

        The answer is memoized by ``tuple(x)``: the graphs of one system
        meet few distinct cuts (the 1,295 of triangle m = 4 meet 40), and
        the primality search and the Kirchhoff check ask about the same
        ones again and again.  The memo lives as long as the system and
        holds one entry per distinct cut asked about; it is no dataclass
        field, so equality and hashing ignore it.
        """
        x = tuple(x)
        known = self._in_row.get(x)
        if known is None:
            if len(x) != self.n:
                raise ValueError(f"expected length {self.n}, got {len(x)}")
            known = self._in_row[x] = all(
                sum(c * xi for c, xi in zip(col, x)) == 0 for col in self._nt
            )
        return known

    def contains_in_null_space(self, x) -> bool:
        """True iff R x = 0."""
        if len(x) != self.n:
            raise ValueError(f"expected length {self.n}, got {len(x)}")
        return all(sum(r * xi for r, xi in zip(row, x)) == 0 for row in self.R)


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
    q = lcm(*(x.denominator for row in cprime for x in row)) if n > k else 1
    C = tuple(tuple(int(x * q) for x in row) for row in cprime)
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
    the integer images is exhaustive.  Output is sorted lexicographically
    and includes the zero vector.
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
    out.sort()
    return out
