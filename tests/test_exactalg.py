import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kirchgraph.exactalg import (
    DegenerateShape,
    ParallelColumns,
    RankDeficient,
    RowSystemError,
    ZeroRowInC,
    _Filled,
    build_row_system,
    enumerate_bounded_cuts,
    rref,
    span_rank,
)
from oracles import brute_force_cuts, fraction_rref, solve_membership


def square_system():
    # s1=[2,0], s2=[0,2], s3=[1,1], s4=[1,-1]
    return build_row_system([[2, 0, 1, 1], [0, 2, 1, -1]])


def triangle_system():
    return build_row_system([[1, 0, 1], [0, 1, 1]])


# -- rref ---------------------------------------------------------------


def test_rref_identity():
    m, pivots, rank = rref([[1, 0], [0, 1]])
    assert m == ((1, 0), (0, 1))
    assert pivots == (0, 1)
    assert rank == 2


def test_rref_square_matrix():
    m, _, rank = rref([[2, 0, 1, 1], [0, 2, 1, -1]])
    assert m == (
        (1, 0, Fraction(1, 2), Fraction(1, 2)),
        (0, 1, Fraction(1, 2), Fraction(-1, 2)),
    )
    assert rank == 2


def test_rref_zero_row_keeps_rank():
    base = [[2, 0, 1, 1], [0, 2, 1, -1]]
    _, _, rank = rref(base)
    _, _, rank_padded = rref(base + [[0, 0, 0, 0]])
    assert rank_padded == rank == 2


def test_rref_matches_hand_elimination():
    # 3x3 with a fraction pivot chain, eliminated by hand:
    # [[2,4,6],[1,3,5],[0,1,2]] -> [[1,0,-1],[0,1,2],[0,0,0]]
    m, pivots, rank = rref([[2, 4, 6], [1, 3, 5], [0, 1, 2]])
    assert m == ((1, 0, -1), (0, 1, 2), (0, 0, 0))
    assert pivots == (0, 1)
    assert rank == 2


rationals = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.data())
def test_rref_and_span_rank_match_fraction_elimination(nrows, ncols, data):
    # Appended combinations of drawn rows (a zero row among them when
    # a = b = 0) make rank-deficient cases.
    row = st.lists(rationals, min_size=ncols, max_size=ncols)
    M = data.draw(st.lists(row, min_size=nrows, max_size=nrows))
    for a, b in data.draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), max_size=2)):
        M.append([a * x + b * y for x, y in zip(M[0], M[-1])])
    zero_column = data.draw(st.none() | st.integers(0, ncols - 1))
    if zero_column is not None:
        for r in M:
            r[zero_column] = 0
    expected = fraction_rref(M)
    reduced = rref(M)
    assert reduced == expected
    assert all(type(x) is Fraction for r in reduced[0] for x in r)
    # 60 clears every denominator up to 6
    assert span_rank([[int(x * 60) for x in r] for r in M]) == expected[2]
    assert span_rank(M) == expected[2]


# -- build_row_system ---------------------------------------------------


def test_square_system_matches_printed_matrix():
    sys = square_system()
    assert sys.q == 2
    assert sys.C == ((1, 1), (1, -1))
    assert sys.R == ((2, 0, 1, 1), (0, 2, 1, -1))
    assert sys.N == ((1, 1), (1, -1), (-2, 0), (0, -2))


def test_triangle_system():
    sys = triangle_system()
    assert sys.q == 1
    assert sys.R == ((1, 0, 1), (0, 1, 1))
    assert sys.N == ((1,), (1,), (-1,))


def test_row_matrix_input_normalizes_to_itself():
    sys = build_row_system([[2, 0, 1, 1], [0, 2, 3, 1]])
    assert sys.R == ((2, 0, 1, 1), (0, 2, 3, 1))
    assert build_row_system(sys.R).R == sys.R


def test_parallel_columns_rejected():
    with pytest.raises(ParallelColumns):
        build_row_system([[1, 0, 2], [0, 1, 0]])


def test_zero_column_rejected():
    with pytest.raises(ParallelColumns):
        build_row_system([[1, 0, 0], [0, 1, 0]])


def test_zero_row_in_c_rejected():
    # s3 = [3, 0] is parallel-free vs [1,0]? No: parallel. Use k=3 shape
    # where the dependency truly has a zero row: s4 = s2 + s3 leaves row 1
    # (the s1 coordinate) of C zero.
    with pytest.raises(ZeroRowInC):
        build_row_system([[1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 1]])


def test_rank_deficient_first_block():
    # First three columns are coplanar but pairwise non-parallel.
    with pytest.raises(RankDeficient):
        build_row_system([[1, 0, 1, 0, 1], [0, 1, 1, 0, 1], [0, 0, 0, 1, 1]])


def test_degenerate_shapes():
    with pytest.raises(DegenerateShape):
        build_row_system([[1, 2]])
    with pytest.raises(DegenerateShape):
        build_row_system([[1, 0], [0, 1]])


@pytest.mark.parametrize("func", [build_row_system, rref])
@pytest.mark.parametrize(
    "matrix, error, message",
    [
        ([], ValueError, "matrix must be nonempty"),
        ([[]], ValueError, "matrix must be nonempty"),
        ([[1, 0, 1], [0, 1]], ValueError, "ragged rows"),
        ([[1, 0, 1.5], [0, 1, 1]], TypeError, "matrix entries must be"),
    ],
)
def test_malformed_matrices_are_rejected(func, matrix, error, message):
    with pytest.raises(error, match=message):
        func(matrix)


def test_fractional_input_clears_denominators():
    sys = build_row_system([["1/2", 0, 1], [0, "1/2", 1]])
    # C' = [[2],[2]] so q = 1 and the system is integral already.
    assert sys.q == 1
    assert sys.C == ((2,), (2,))


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 3), st.integers(1, 2), st.data())
def test_built_systems_satisfy_the_row_and_null_invariants(k, extra, data):
    # build_row_system guarantees these by construction: R N = qC - qC = 0,
    # the qI blocks give rank R = k and rank N = n - k, and R keeps the
    # row space of the input.
    n = k + extra
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    M = data.draw(st.lists(row, min_size=k, max_size=k))
    try:
        sys = build_row_system(M)
    except RowSystemError:
        assume(False)
    assert all(
        sum(sys.R[i][t] * sys.N[t][j] for t in range(n)) == 0
        for i in range(k)
        for j in range(n - k)
    )
    assert span_rank(sys.R) == k
    assert span_rank(list(zip(*sys.N))) == n - k
    assert span_rank([*M, *sys.R]) == k


# -- membership ---------------------------------------------------------


def test_row_space_membership_examples():
    sys = square_system()
    assert sys.contains_in_row_space([1, 1, 1, 0])  # a = b = 1/2
    assert sys.contains_in_row_space([0, 0, 0, 0])
    assert not sys.contains_in_row_space([1, 0, 0, 0])


def test_null_space_membership_examples():
    sys = square_system()
    for j in range(sys.n - sys.k):
        col = [sys.N[i][j] for i in range(sys.n)]
        assert sys.contains_in_null_space(col)
    assert sys.contains_in_null_space([-1, 0, 1, 1])
    assert not sys.contains_in_null_space([1, 0, 0, 0])


def test_membership_length_mismatch():
    sys = square_system()
    for _ in range(2):
        # a fill that raises stores nothing, so the cut raises again
        with pytest.raises(ValueError):
            sys.contains_in_row_space([1, 0])
    assert sys.contains_in_row_space([1, 1, 1, 0])
    with pytest.raises(ValueError):
        sys.contains_in_null_space([1, 0])


def test_filled_calls_its_fill_once_per_key():
    calls = []

    def fill(key):
        calls.append(key)
        return key * 2

    table = _Filled(fill)
    assert [table[k] for k in (1, 2, 1, 2, 3)] == [2, 4, 2, 4, 6]
    assert calls == [1, 2, 3]
    assert table == {1: 2, 2: 4, 3: 6}


def test_membership_agrees_with_direct_solve():
    rng = random.Random(20260811)
    for sys in (square_system(), triangle_system(), build_row_system([[2, 0, 1, 1], [0, 2, 3, 1]])):
        ncols = tuple(zip(*sys.N))
        for _ in range(1000):
            x = [rng.randint(-5, 5) for _ in range(sys.n)]
            assert sys.contains_in_row_space(x) == solve_membership(sys.R, x)
            assert sys.contains_in_null_space(x) == solve_membership(ncols, x)


# -- span_rank ----------------------------------------------------------


def test_span_rank_cases():
    assert span_rank([]) == 0
    sys = square_system()
    ncols = [tuple(row[j] for row in sys.N) for j in range(sys.n - sys.k)]
    assert span_rank(ncols) == 2
    assert span_rank([(3, -1, 2), (6, -2, 4)]) == 1


def test_span_rank_scales_rational_vectors_as_rref_does():
    # Every vector is scaled to integers, the first as well as the rest,
    # so Fraction entries give the rank of their rational span.
    assert span_rank([(Fraction(1, 2), 1)]) == 1
    assert span_rank([(Fraction(1, 2), 1), (1, 2)]) == 1
    assert span_rank([(Fraction(1, 2), 1), (Fraction(1, 3), Fraction(2, 3))]) == 1
    assert span_rank([(Fraction(1, 2), 1), ("1/3", 1)]) == 2
    assert span_rank(iter([(1, 0), (0, 1)])) == 2
    with pytest.raises(TypeError):
        span_rank([(0.5, 1), (1, 2)])
    with pytest.raises(ValueError, match="ragged"):
        span_rank([(1, 2), (1, 2, 3)])


# -- enumerate_bounded_cuts ---------------------------------------------


def test_square_system_cuts_bound_2():
    sys = square_system()
    cuts = enumerate_bounded_cuts(sys, 2)
    assert len(cuts) == 13
    # 9 integer-coefficient images plus 4 half-integer ones.
    integral = {
        tuple(2 * a * r1 + 2 * b * r2 for r1, r2 in zip((1, 0), (0, 1)))
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
    }
    assert len(integral) == 9  # sanity on the helper itself
    halves = {(a, b, (a + b) // 2, (a - b) // 2) for a in (-1, 1) for b in (-1, 1)}
    expected = {
        tuple(a * x + b * y for x, y in zip(sys.R[0], sys.R[1]))
        for a in (-1, 0, 1)
        for b in (-1, 0, 1)
    } | {
        tuple(
            int(Fraction(a, 2) * x + Fraction(b, 2) * y)
            for x, y in zip(sys.R[0], sys.R[1])
        )
        for a in (-1, 1)
        for b in (-1, 1)
    }
    assert set(cuts) == expected
    assert halves <= set(cuts)


def test_square_system_cuts_bound_1():
    # Half-integer coefficient pairs still land inside the box at bound 1.
    assert enumerate_bounded_cuts(square_system(), 1) == sorted(
        [(0, 0, 0, 0), (1, 1, 1, 0), (1, -1, 0, 1), (-1, 1, 0, -1), (-1, -1, -1, 0)]
    )


def test_only_zero_fits():
    # Dependency s3 = (5/2)s1 + (1/2)s2: every nonzero integer row-space
    # vector has an entry of magnitude >= 2, so bound 1 admits only zero.
    sys = build_row_system([[1, 0, "5/2"], [0, 1, "1/2"]])
    assert enumerate_bounded_cuts(sys, 1) == [(0, 0, 0)]
    assert brute_force_cuts(sys, 1) == [(0, 0, 0)]


def test_triangle_cuts_bound_1():
    cuts = enumerate_bounded_cuts(triangle_system(), 1)
    expected = sorted(
        (a, b, a + b) for a in (-1, 0, 1) for b in (-1, 0, 1) if abs(a + b) <= 1
    )
    assert cuts == expected
    assert len(cuts) == 7


def test_cuts_match_brute_force():
    for rows in ([[2, 0, 1, 1], [0, 2, 1, -1]], [[1, 0, 1], [0, 1, 1]], [[2, 0, 1, 1], [0, 2, 3, 1]]):
        sys = build_row_system(rows)
        for bound in (1, 2, 3):
            assert enumerate_bounded_cuts(sys, bound) == brute_force_cuts(sys, bound)


def test_cuts_closed_under_negation_and_members():
    sys = build_row_system([[2, 0, 1, 1], [0, 2, 3, 1]])
    cuts = enumerate_bounded_cuts(sys, 3)
    cutset = set(cuts)
    assert all(tuple(-x for x in c) in cutset for c in cuts)
    assert all(sys.contains_in_row_space(c) for c in cuts)
    assert sorted(cuts) == cuts
    for row in sys.R:
        assert row in cutset  # q = 2 <= 3


def test_cuts_monotone_in_bound():
    sys = square_system()
    small = set(enumerate_bounded_cuts(sys, 2))
    large = set(enumerate_bounded_cuts(sys, 3))
    assert small <= large
