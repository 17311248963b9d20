from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff
from kirchgraph.exactalg import build_row_system, span_rank
from kirchgraph.vgraph import KirchhoffVerdict, VectorGraph
from oracles import EdgeInstance, cycle_basis, cycle_vector, translation_keys

SQUARE = [[2, 0, 1, 1], [0, 2, 1, -1]]
TRIANGLE = [[1, 0, 1], [0, 1, 1]]
# Two triangle planes that share no edge vectors.
DECOMPOSABLE = [[1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 1]]


def square_system():
    return build_row_system(SQUARE)


def triangle_system():
    return build_row_system(TRIANGLE)


def triangle_graph(sys=None):
    sys = sys or triangle_system()
    # (0,0) -s1-> (1,0) -s2-> (1,1), closed by s3 from (0,0).
    return VectorGraph(sys, [((0, 0), 0), ((1, 0), 1), ((0, 0), 2)])


# -- construction ---------------------------------------------------------


@pytest.mark.parametrize(
    "edges, message",
    [
        ({((0, 0), 4): 1}, "vec_index 4 out of range"),
        ({((0, 0), -1): 1}, "vec_index -1 out of range"),
        ({((0, 0, 0), 0): 1}, "wrong dimension"),
        ({((0, 0), 0): -1}, "negative edge count"),
        ({((0.5, 0), 0): 1}, "not an integer point"),
        ({((1.0, 0), 0): 1}, "not an integer point"),
        ({((True, 0), 0): 1}, "not an integer point"),
    ],
)
def test_constructor_rejects_malformed_edges(edges, message):
    with pytest.raises(ValueError, match=message):
        VectorGraph(square_system(), edges)


@pytest.mark.parametrize(
    "offset, message",
    [((0.5, 0), "not an integer point"), ((True, 0), "not an integer point"),
     ((1, 0, 0), "wrong dimension")],
)
def test_translate_rejects_an_offset_off_the_lattice(offset, message):
    with pytest.raises(ValueError, match=message):
        triangle_graph().translate(offset)


def test_vertices_are_exactly_endpoints():
    g = VectorGraph(square_system(), [((0, 0), 2), ((1, 1), 3)])
    assert g.vertices == ((0, 0), (1, 1), (2, 0))


def test_empty_graph():
    g = VectorGraph.empty(square_system())
    assert g.is_empty
    assert g.vertices == ()
    assert g.is_kirchhoff().status == "trivial"
    mult = g.multiplicity()
    assert mult.uniform and mult.m == 0


# -- vertex cuts ----------------------------------------------------------


def test_single_edge_cuts():
    g = VectorGraph(square_system(), [((0, 0), 0)])
    assert g.vertex_cut((0, 0)) == (1, 0, 0, 0)
    assert g.vertex_cut((2, 0)) == (-1, 0, 0, 0)
    with pytest.raises(KeyError):
        g.vertex_cut((5, 5))


def test_pass_through_cancels():
    # one s1 entering (0,0), one s1 exiting, one s2 exiting
    g = VectorGraph(square_system(), [((-2, 0), 0), ((0, 0), 0), ((0, 0), 1)])
    assert g.vertex_cut((0, 0)) == (0, 1, 0, 0)


def test_cut_entries_sum_to_zero_vector():
    g = triangle_graph()
    total = [0] * 3
    for v in g.vertices:
        for i, x in enumerate(g.vertex_cut(v)):
            total[i] += x
    assert total == [0, 0, 0]


# -- cycle vectors ----------------------------------------------------------


def test_cycle_vector_square_example():
    sys = square_system()
    g = VectorGraph(sys, [((0, 0), 2), ((1, 1), 3), ((0, 0), 0)])
    walk = [
        (EdgeInstance((0, 0), (1, 1), 2), 1),
        (EdgeInstance((1, 1), (2, 0), 3), 1),
        (EdgeInstance((0, 0), (2, 0), 0), -1),
    ]
    chi = cycle_vector(g, walk)
    assert chi == (-1, 0, 1, 1)
    # geometric closure
    cols = sys.columns
    disp = [sum(chi[i] * cols[i][d] for i in range(sys.n)) for d in range(sys.k)]
    assert disp == [0, 0]
    assert sys.contains_in_null_space(chi)


def test_cycle_vector_forward_then_backward():
    sys = square_system()
    g = VectorGraph(sys, [((0, 0), 0)])
    e = EdgeInstance((0, 0), (2, 0), 0)
    assert cycle_vector(g, [(e, 1), (e, -1)]) == (0, 0, 0, 0)


def test_cycle_vector_triangle():
    g = triangle_graph()
    walk = [
        (EdgeInstance((0, 0), (1, 0), 0), 1),
        (EdgeInstance((1, 0), (1, 1), 1), 1),
        (EdgeInstance((0, 0), (1, 1), 2), -1),
    ]
    assert cycle_vector(g, walk) == (1, 1, -1)


def test_cycle_vector_rejects_broken_walks():
    sys = square_system()
    g = VectorGraph(sys, [((0, 0), 0), ((2, 0), 1)])
    e1 = EdgeInstance((0, 0), (2, 0), 0)
    e2 = EdgeInstance((2, 0), (2, 2), 1)
    with pytest.raises(ValueError, match="not closed"):
        cycle_vector(g, [(e1, 1), (e2, 1)])
    with pytest.raises(ValueError, match="not in graph"):
        cycle_vector(g, [(EdgeInstance((5, 5), (7, 5), 0), 1)])
    with pytest.raises(ValueError, match="breaks"):
        cycle_vector(g, [(e1, 1), (e1, 1)])


def test_cycle_vector_rejects_repeated_vertex():
    # Two triangles sharing vertex (1,1) traversed as one walk.
    sys = triangle_system()
    g = VectorGraph(
        sys,
        [((0, 0), 0), ((1, 0), 1), ((0, 0), 2), ((1, 1), 0), ((2, 1), 1), ((1, 1), 2)],
    )
    walk = [
        (EdgeInstance((0, 0), (1, 0), 0), 1),
        (EdgeInstance((1, 0), (1, 1), 1), 1),
        (EdgeInstance((1, 1), (2, 1), 0), 1),
        (EdgeInstance((2, 1), (2, 2), 1), 1),
        (EdgeInstance((1, 1), (2, 2), 2), -1),
        (EdgeInstance((0, 0), (1, 1), 2), -1),
    ]
    with pytest.raises(ValueError, match="repeats"):
        cycle_vector(g, walk)


# -- cycle basis ------------------------------------------------------------


def test_tree_has_empty_basis():
    g = VectorGraph(square_system(), [((0, 0), 0), ((0, 0), 1)])
    assert cycle_basis(g) == []


def test_triangle_basis_single_cycle():
    g = triangle_graph()
    basis = cycle_basis(g)
    assert len(basis) == 1
    assert cycle_vector(g, basis[0]) in {(1, 1, -1), (-1, -1, 1)}


def test_parallel_copies_give_zero_cycle():
    g = VectorGraph(square_system(), [((0, 0), 0, 2)])
    basis = cycle_basis(g)
    assert len(basis) == 1
    assert cycle_vector(g, basis[0]) == (0, 0, 0, 0)


def test_basis_spans_cycle_space_of_two_triangles():
    sys = triangle_system()
    g = VectorGraph(
        sys,
        [((0, 0), 0), ((1, 0), 1), ((0, 0), 2), ((1, 1), 0), ((2, 1), 1), ((1, 1), 2)],
    )
    basis = cycle_basis(g)
    # 6 edges, 7 vertices? no: vertices {(0,0),(1,0),(1,1),(2,1),(2,2)} = 5, connected
    assert len(basis) == 6 - 5 + 1


def walk_verdict(g):
    """The Kirchhoff verdict read off the walks: the vertex check, then the
    rank of ``cycle_vector`` over ``cycle_basis()``."""
    sys = g.system
    if g.is_empty:
        return KirchhoffVerdict("trivial")
    for v in g.vertices:
        cut = g.vertex_cut(v)
        if not sys.contains_in_row_space(cut):
            return KirchhoffVerdict("bad_vertex", vertex=v, cut=cut)
    walked = [cycle_vector(g, w) for w in cycle_basis(g)]
    assert all(sys.contains_in_null_space(chi) for chi in walked)
    rank, required = span_rank(walked), sys.n - sys.k
    if rank == required:
        return KirchhoffVerdict("ok")
    return KirchhoffVerdict("cycle_space_deficient", rank_found=rank, rank_required=required)


def walk_coverage(g):
    """Vector 2-connectivity read off the walks: every coordinate is
    nonzero in some ``cycle_vector`` over ``cycle_basis()``."""
    covered = {i for w in cycle_basis(g) for i, x in enumerate(cycle_vector(g, w)) if x}
    return len(covered) == g.system.n


def test_edge_vector_count_matches_the_walks_on_every_sub_multiset():
    # The cycle condition is a count once the cuts pass: checked against
    # the walks on every sub-multiset of three censuses, one of them in a
    # decomposable system where the count can fail after the cuts pass.
    # Vector 2-connectivity from tree potentials is checked the same way.
    deficient = 0
    for rows, m_max in ((SQUARE, 2), (TRIANGLE, 3), (DECOMPOSABLE, 1)):
        sys = build_row_system(rows)
        graphs, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=m_max))
        for g in graphs:
            items = g.edge_items()
            for split in product(*(range(c + 1) for _, c in items)):
                part = VectorGraph(sys, {key: c for (key, _), c in zip(items, split) if c})
                verdict = part.is_kirchhoff()
                assert verdict == walk_verdict(part)
                assert part.is_vector_2_connected() == walk_coverage(part)
                deficient += verdict.status == "cycle_space_deficient"
    assert deficient == 32


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["square", "triangle"]), st.data())
def test_edge_vector_count_matches_the_walks_on_random_multisets(which, data):
    # Random edge multisets with parallel copies, in two clusters far
    # enough apart to give disconnected parts.
    sys = square_system() if which == "square" else triangle_system()
    edges = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from([0, 20]),
                st.integers(-2, 2),
                st.integers(-2, 2),
                st.integers(0, sys.n - 1),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=14,
        )
    )
    g = VectorGraph(sys, [((base + x, y), idx, c) for base, x, y, idx, c in edges])
    assert g.is_kirchhoff() == walk_verdict(g)
    assert g.is_vector_2_connected() == walk_coverage(g)


# -- Kirchhoff conditions -----------------------------------------------------


def test_single_edge_fails_at_origin():
    g = VectorGraph(square_system(), [((0, 0), 0)])
    verdict = g.is_kirchhoff()
    assert verdict.status == "bad_vertex"
    assert verdict.vertex == (0, 0)
    assert verdict.cut == (1, 0, 0, 0)


def test_triangle_is_kirchhoff():
    assert triangle_graph().is_kirchhoff().ok


def test_verdict_is_computed_once():
    g = triangle_graph()
    assert g.is_kirchhoff() is g.is_kirchhoff()
    assert g.is_kirchhoff().ok


def test_doubled_edge_alone_is_not_kirchhoff():
    # A doubled copy of one edge has a (zero) cycle but invalid cuts.
    g = VectorGraph(triangle_system(), [((0, 0), 0, 2)])
    verdict = g.is_kirchhoff()
    assert verdict.status == "bad_vertex"
    assert verdict.cut == (2, 0, 0)


def test_orthogonality_of_cuts_and_cycles():
    g = triangle_graph()
    chis = [cycle_vector(g, w) for w in cycle_basis(g)]
    for v in g.vertices:
        lam = g.vertex_cut(v)
        for chi in chis:
            assert sum(a * b for a, b in zip(lam, chi)) == 0


# -- multiplicity -------------------------------------------------------------


def test_multiplicity_counts():
    sys = square_system()
    g = VectorGraph(sys, [((0, 0), 0), ((0, 0), 1)])
    mult = g.multiplicity()
    assert mult.counts == (1, 1, 0, 0)
    assert not mult.uniform
    assert mult.m is None
    assert triangle_graph().multiplicity() == type(mult)((1, 1, 1), True, 1)


# -- vector 2-connectivity ----------------------------------------------------


def test_triangle_is_vector_2_connected():
    assert triangle_graph().is_vector_2_connected()


def test_small_graphs_not_vector_2_connected():
    sys = square_system()
    assert not VectorGraph.empty(sys).is_vector_2_connected()
    assert not VectorGraph(sys, [((0, 0), 0)]).is_vector_2_connected()


# -- chirality and canonical form ---------------------------------------------


def test_chiral_involution_up_to_translation():
    g = triangle_graph()
    assert g.chiral().chiral().equals_up_to_translation(g)
    sq = VectorGraph(square_system(), [((0, 0), 2), ((1, 1), 3), ((0, 0), 0)])
    assert sq.chiral().chiral().equals_up_to_translation(sq)


def test_chiral_empty():
    g = VectorGraph.empty(square_system())
    assert g.chiral().is_empty
    assert_keys_match_the_oracle(g)


def test_chiral_preserves_counts():
    g = triangle_graph()
    assert g.chiral().multiplicity() == g.multiplicity()
    assert len(g.chiral().vertices) == len(g.vertices)


def test_canonical_fixed_point_and_translation_invariance():
    g = triangle_graph()
    assert g.canonical() == g  # lex-min vertex already at origin
    shifted = g.translate((3, -1))
    assert shifted.canonical() == g
    assert shifted.canonical_key() == g.canonical_key()


def assert_keys_match_the_oracle(g):
    canonical, chiral = translation_keys(g)
    assert g.canonical_key() == canonical
    assert g.chiral_key() == chiral
    assert g.chiral().canonical_key() == chiral
    # the copies carry their keys, so read their edges through the oracle
    assert translation_keys(g.chiral())[0] == chiral
    assert g.canonical().edge_items() == list(canonical)
    assert g.is_self_chiral() == (canonical == chiral)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["square", "triangle"]), st.data())
def test_cached_and_chiral_keys_match_the_oracle(which, data):
    # Random multisets with parallel copies (the empty one included), each
    # checked as drawn and under a random translation.
    sys = square_system() if which == "square" else triangle_system()
    edges = data.draw(
        st.lists(
            st.tuples(
                st.integers(-3, 3), st.integers(-3, 3), st.integers(0, sys.n - 1), st.integers(1, 3)
            ),
            max_size=10,
        )
    )
    offset = data.draw(st.tuples(st.integers(-9, 9), st.integers(-9, 9)))
    g = VectorGraph(sys, [((x, y), idx, c) for x, y, idx, c in edges])
    for graph in (g, g.translate(offset)):
        assert_keys_match_the_oracle(graph)
        assert graph.canonical_key() is graph.canonical_key()  # cached
    assert g.translate(offset).canonical_key() == g.canonical_key()


@pytest.mark.parametrize("rows, m_max", [([[2, 0, 1, 1], [0, 2, 3, 1]], 6), (TRIANGLE, 4)])
def test_keys_stored_by_the_search_match_the_oracle(rows, m_max):
    graphs, _ = enumerate_kirchhoff(build_row_system(rows), SearchConfig(m_max=m_max))
    for g in graphs:
        assert vars(g)["_key"] == translation_keys(g)[0]  # stored, not recomputed
        assert_keys_match_the_oracle(g)


def test_equals_up_to_translation():
    g = triangle_graph()
    assert g.equals_up_to_translation(g.translate((5, 7)))
    other = VectorGraph(triangle_system(), [((0, 0), 1), ((0, 1), 0), ((0, 0), 2)])
    assert not g.equals_up_to_translation(other)
    empty = VectorGraph.empty(triangle_system())
    assert empty.equals_up_to_translation(VectorGraph.empty(triangle_system()))


def test_system_mismatch_raises():
    with pytest.raises(ValueError, match="different row systems"):
        triangle_graph().equals_up_to_translation(VectorGraph.empty(square_system()))
