import gc
import pickle
import random
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kirchgraph.tiling as tiling
from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff, min_multiplicity
from kirchgraph.exactalg import build_row_system, enumerate_bounded_cuts
from kirchgraph.tiling import (
    FamilyConstructionError,
    KirchhoffViolation,
    NoEmbeddingAtOffset,
    Placement,
    PrimalityVerdict,
    SpanResult,
    SystemMismatch,
    TilingExpression,
    add,
    build_infinite_prime_family,
    find_embeddings,
    fundamental_sets,
    is_prime,
    span_contains,
    subtract,
)
from kirchgraph.vgraph import KirchhoffVerdict, Multiplicity, VectorGraph

from oracles import brute_force_is_prime, fraction_rref


def square_system():
    return build_row_system([[2, 0, 1, 1], [0, 2, 1, -1]])


def square_pair():
    graphs, _ = enumerate_kirchhoff(square_system(), SearchConfig(m_max=2))
    spread = next(g for g in graphs if all(c == 1 for _, c in g.edge_items()))
    doubled = next(g for g in graphs if any(c > 1 for _, c in g.edge_items()))
    return spread, doubled


def grid_of_four(spread):
    acc = spread
    for off in ((1, -1), (1, 1), (2, 0)):
        acc = add(acc, spread, off)
    return acc


def shear_graphs():
    sys = build_row_system([[1, 0, 2, 1], [0, 1, 1, 2]])
    graphs, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=6))
    return graphs


def triangle_graphs():
    sys = build_row_system([[1, 0, 1], [0, 1, 1]])
    graphs, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=1))
    return graphs


@lru_cache(maxsize=None)
def census(rows, m_max):
    graphs, _ = enumerate_kirchhoff(build_row_system([list(r) for r in rows]), SearchConfig(m_max=m_max))
    return graphs


SQUARE = ((2, 0, 1, 1), (0, 2, 1, -1))
TRIANGLE = ((1, 0, 1), (0, 1, 1))
SHEAR = ((1, 0, 2, 1), (0, 1, 1, 2))
CUBE = ((1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1))
DECOMPOSABLE = ((1, 0, 0, 0, 1, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 0, 1))


def fresh_verdict(g):
    """The verdict of a new graph on g's edges, with nothing cached."""
    return VectorGraph(g.system, dict(g._edges)).is_kirchhoff()


# -- add -------------------------------------------------------------------


def test_sum_at_offset_is_kirchhoff_with_additive_multiplicity():
    f1, f2 = square_pair()
    s = add(f1, f2, (1, 1))
    assert s.is_kirchhoff().ok
    assert s.multiplicity().m == 4


def test_add_empty_is_identity():
    f1, _ = square_pair()
    assert add(f1, VectorGraph.empty(f1.system), (3, 1)) == f1


def test_add_self_doubles_multiplicity():
    f1, _ = square_pair()
    assert add(f1, f1, (0, 0)).multiplicity().m == 4
    assert add(f1, f1, (2, 2)).multiplicity().m == 4


@pytest.mark.parametrize("offset", [(0.5, 0), (1.0, 0), (False, 0)])
def test_placements_reject_an_offset_off_the_lattice(offset):
    # the triangle m=1 graph placed at (0.5, 0) would be a "Kirchhoff"
    # graph with m = 2 and a vertex off the lattice
    g = VectorGraph(build_row_system([[1, 0, 1], [0, 1, 1]]), [((0, 0), 0), ((1, 0), 1), ((0, 0), 2)])
    with pytest.raises(ValueError, match="not an integer point"):
        add(g, g, offset)
    with pytest.raises(ValueError, match="not an integer point"):
        subtract(add(g, g, (0, 0)), g, offset)
    with pytest.raises(ValueError, match="not an integer point"):
        TilingExpression((Placement(g, (0, 0), 1), Placement(g, offset, 1))).evaluate()


def test_add_requires_same_system():
    f1, _ = square_pair()
    with pytest.raises(SystemMismatch):
        add(f1, triangle_graphs()[0], (0, 0))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(SQUARE, 2), (TRIANGLE, 2)]), st.data())
def test_sum_theorem_verdicts_match_a_fresh_check(system, data):
    # Chains of add() over census graphs (verdict "ok" from the search) and
    # the empty graph ("trivial") take their verdicts from the sum theorem;
    # each must equal a fresh check.
    graphs = census(*system)
    pool = [VectorGraph.empty(graphs[0].system)] + list(graphs)
    pick = st.sampled_from(range(len(pool)))
    offset = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
    acc = pool[data.draw(pick)]
    for _ in range(data.draw(st.integers(1, 5))):
        acc = add(acc, pool[data.draw(pick)], data.draw(offset))
        assert acc.is_kirchhoff() == fresh_verdict(acc)
        assert acc.is_kirchhoff().status == ("trivial" if acc.is_empty else "ok")


def test_add_with_a_non_kirchhoff_operand_is_verified():
    f1, _ = square_pair()
    sys = f1.system
    edge = VectorGraph(sys, [((0, 0), 0)])
    with pytest.raises(KirchhoffViolation):
        add(f1, edge, (0, 0))
    with pytest.raises(KirchhoffViolation):
        add(edge, VectorGraph.empty(sys), (0, 0))
    # two halves that are not Kirchhoff alone are checked, and pass, as a sum
    items = f1.edge_items()
    half_a = VectorGraph(sys, dict(items[: len(items) // 2]))
    half_b = VectorGraph(sys, dict(items[len(items) // 2 :]))
    assert not half_a.is_kirchhoff().ok and not half_b.is_kirchhoff().ok
    total = add(half_a, half_b, half_b.vertices[0])
    assert total == f1 and total.is_kirchhoff() == fresh_verdict(f1)


@pytest.mark.parametrize(
    "rows, m_max",
    [
        (SQUARE, 2),
        (((2, 0, 1, 1), (0, 2, 3, 1)), 6),
        (((1, 0, 2, 1), (0, 1, 1, 2)), 6),
        (TRIANGLE, 4),
    ],
    ids=["square-m2", "steep-m6", "shear-m6", "triangle-m4"],
)
def test_kirchhoff_implies_vector_2_connected(rows, m_max):
    # Every row of N = [C; -qI] is nonzero, so cycle vectors spanning
    # Null(R) cover every coordinate: _fold needs no 2-connectivity check.
    for g in census(rows, m_max):
        fresh = VectorGraph(g.system, dict(g._edges))
        assert fresh.is_kirchhoff().ok and fresh.is_vector_2_connected()
        assert g.is_kirchhoff() == fresh.is_kirchhoff()  # carried from the search


def test_random_sums_round_trip():
    f1, f2 = square_pair()
    rng = random.Random(8113)
    pool = [f1, f2]
    for _ in range(200):
        g1, g2 = rng.choice(pool), rng.choice(pool)
        x = (rng.randint(-3, 3), rng.randint(-3, 3))
        total = add(g1, g2, x)
        assert total.is_kirchhoff().ok
        assert total.multiplicity().m == g1.multiplicity().m + g2.multiplicity().m
        assert subtract(total, g2, x).equals_up_to_translation(g1)


# -- find_embeddings ---------------------------------------------------------


def test_self_embedding_contains_zero():
    f1, f2 = square_pair()
    assert (0, 0) in find_embeddings(f1, f1)
    assert (0, 0) in find_embeddings(f2, f2)


def test_grid_contains_the_doubled_graph():
    f1, f2 = square_pair()
    assert find_embeddings(grid_of_four(f1), f2) != []


def test_no_embedding_of_doubled_in_spread():
    f1, f2 = square_pair()
    assert find_embeddings(f1, f2) == []


def test_empty_pattern_rejected():
    f1, _ = square_pair()
    with pytest.raises(ValueError):
        find_embeddings(f1, VectorGraph.empty(f1.system))


# -- subtract ----------------------------------------------------------------


def test_subtract_missing_offset_raises():
    f1, f2 = square_pair()
    with pytest.raises(NoEmbeddingAtOffset):
        subtract(f1, f2, (0, 0))


def test_grid_minus_doubled_is_prime():
    f1, f2 = square_pair()
    grid = grid_of_four(f1)
    offset = find_embeddings(grid, f2)[0]
    residue = subtract(grid, f2, offset)
    assert residue.is_kirchhoff().ok
    assert residue.multiplicity().m == 6
    assert is_prime(residue).status == "prime"


def test_subtract_everything_gives_trivial():
    f1, _ = square_pair()
    assert subtract(f1, f1, (0, 0)).is_empty
    assert subtract(f1, f1, (0, 0)).is_kirchhoff().status == "trivial"


def test_subtract_empty_keeps_the_graph_and_its_verdict():
    # The empty graph is placed like any other graph: a Kirchhoff graph
    # minus it keeps its edges and takes its verdict from the difference
    # theorem, while a bad offset and a non-Kirchhoff operand raise, as
    # they do for add.
    f1, _ = square_pair()
    empty = VectorGraph.empty(f1.system)
    result = subtract(f1, empty, (4, -1))
    assert result.edge_items() == f1.edge_items()
    assert result.is_kirchhoff() == f1.is_kirchhoff() == fresh_verdict(f1)
    edge = VectorGraph(f1.system, [((0, 0), 0)])
    for op in (add, subtract):
        for offset, message in (((1.5, 0), "not an integer point"), ((0,), "wrong dimension")):
            with pytest.raises(ValueError, match=message):
                op(f1, empty, offset)
        with pytest.raises(KirchhoffViolation, match="bad_vertex"):
            op(edge, empty, (0, 0))


def _square_empty():
    return VectorGraph.empty(square_system())


@pytest.mark.parametrize(
    "call, expected",
    [
        pytest.param(lambda: span_contains([], square_pair()[0]), "need at least one generator",
                     id="span_contains without generators"),
        pytest.param(lambda: span_contains([_square_empty()], square_pair()[0]),
                     "generators must be nonempty", id="span_contains empty generator"),
        pytest.param(lambda: span_contains(square_pair(), square_pair()[0], coeff_bound=0),
                     "coeff_bound must be >= 1", id="span_contains coeff_bound 0"),
        pytest.param(lambda: span_contains(square_pair(), _square_empty()),
                     SpanResult("yes", TilingExpression(()), 0), id="span_contains empty target"),
        pytest.param(lambda: fundamental_sets([]), "need at least one graph",
                     id="fundamental_sets without graphs"),
        pytest.param(lambda: fundamental_sets([VectorGraph(square_system(), [((0, 0), 0)])]),
                     "all graphs must be uniform", id="fundamental_sets non-uniform graph"),
        pytest.param(lambda: TilingExpression(()).evaluate(), "empty expression",
                     id="evaluate empty expression"),
        pytest.param(lambda: min_multiplicity(square_system(), 0), "m_limit must be >= 1",
                     id="min_multiplicity limit 0"),
        pytest.param(lambda: enumerate_bounded_cuts(square_system(), 0), "bound must be >= 1",
                     id="enumerate_bounded_cuts bound 0"),
        pytest.param(lambda: _square_empty().bounding_box(), "empty graph has no bounding box",
                     id="bounding_box of the empty graph"),
    ],
)
def test_library_argument_checks(call, expected):
    # a string is the message of the ValueError the call must raise
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            call()
    else:
        assert call() == expected


def record_results(monkeypatch):
    """Patch tiling's add and subtract to collect every result."""
    results = []
    for name in ("add", "subtract"):
        op = getattr(tiling, name)

        def recording(*args, op=op):
            results.append(op(*args))
            return results[-1]

        monkeypatch.setattr(tiling, name, recording)
    return results


def test_difference_theorem_verdicts_match_a_fresh_check(monkeypatch):
    # Every sum and difference of prime family members j = 1, 2, 5 and
    # 48 as left-to-right chains (2j + 2 sums and j differences each,
    # the first sum onto the empty graph) stores the verdict a fresh
    # check gives; so do the members that evaluate() folds from the same
    # expressions, and build_infinite_prime_family returns those.
    tiling._square_family_geometry()  # its own sums stay unrecorded
    results = record_results(monkeypatch)
    members = []
    for j in (1, 2, 5, 48):
        expr = family_expression(j)
        chained(expr)
        members.append(expr.evaluate())
        assert results[-1]._edges == members[-1]._edges
        assert build_infinite_prime_family(j)._edges == members[-1]._edges
    assert members[-1].multiplicity().m == 100
    # evaluate() and build_infinite_prime_family call neither
    assert len(results) == sum(3 * j + 2 for j in (1, 2, 5, 48))
    for g in results + members:
        assert g.is_kirchhoff() == fresh_verdict(g)


def family_expression(j, placements=()):
    """Prime family member j as a left-to-right expression (2j + 2 sums
    of the spread graph, then j differences of the doubled one), then
    ``placements``."""
    return TilingExpression(tiling._prime_family_expression(j).placements + tuple(placements))


def chained(expr):
    """What evaluate() stands for: add and subtract, left to right, from
    the empty graph (looked up on the module, so a patch sees them)."""
    acc = VectorGraph.empty(expr.placements[0].graph.system)
    for p in expr.placements:
        acc = (tiling.add if p.sign > 0 else tiling.subtract)(acc, p.graph, p.offset)
    return acc


def outcome(run, expr):
    """The edges, in order, and verdict of ``run(expr)``, or the type and
    message of the error it raised."""
    try:
        g = run(expr)
    except ValueError as exc:
        return type(exc), str(exc)
    return list(g._edges.items()), g.is_kirchhoff(), fresh_verdict(g)


def test_evaluate_folds_the_chain_of_sums_and_differences():
    _, spread, doubled, t1, t2, emb0 = tiling._square_family_geometry()
    tri = triangle_graphs()[0]
    # the decomposable pair of test_difference_that_loses_an_edge_vector_is_verified
    g = census(DECOMPOSABLE, 1)[0]
    origin, far = (0, 0, 0, 0), (3, 0, 0, 0)
    h = VectorGraph(g.system, [(origin, 0), ((1, 0, 0, 0), 1), (origin, 4)])
    # two copies of the spread graph and one stray edge: not Kirchhoff
    stray = VectorGraph(spread.system, {**add(spread, spread, (0, 10))._edges, ((5, 5), 0): 1})
    half = VectorGraph(spread.system, dict(spread.edge_items()[:5]))
    cases = {
        "family j=48": family_expression(48),
        "no embedding midway": TilingExpression(
            family_expression(3).placements[:8] + (Placement(doubled, (40, 40), -1),)
            + family_expression(3).placements[8:]),
        "other system": family_expression(1, [Placement(tri, (0, 0), 1)]),
        "non-Kirchhoff operand": family_expression(2, [Placement(stray, (0, 0), 1)]),
        "half a graph taken away": TilingExpression(
            (Placement(spread, (0, 0), 1), Placement(spread, (0, 10), 1),
             Placement(half, half.vertices[0], -1))),
        "empty operand": family_expression(1, [Placement(VectorGraph.empty(spread.system), (1, 1), -1)]),
        "deficient operand repaired": TilingExpression((Placement(g, far, 1), Placement(h, origin, 1))),
        "edge vector lost": TilingExpression(
            (Placement(g, far, 1), Placement(h, origin, 1), Placement(g, far, -1))),
        "everything taken away": TilingExpression(
            (Placement(g, far, 1), Placement(h, origin, 1), Placement(h, origin, -1),
             Placement(g, far, -1))),
        "short offset": family_expression(1, [Placement(spread, (3,), 1)]),
        "long offset": family_expression(1, [Placement(spread, (3, 0, 0), 1)]),
        "short offset taken away": family_expression(1, [Placement(doubled, emb0[:1], -1)]),
    }
    for name, expr in cases.items():
        assert outcome(TilingExpression.evaluate, expr) == outcome(chained, expr), name
    errors = [outcome(chained, expr)[0] for expr in cases.values()]
    assert errors.count(NoEmbeddingAtOffset) == 1
    assert errors.count(SystemMismatch) == 1
    assert errors.count(KirchhoffViolation) == 3
    assert errors.count(ValueError) == 3
    assert outcome(chained, cases["everything taken away"])[:2] == ([], KirchhoffVerdict("trivial"))


def test_subtract_with_a_non_kirchhoff_operand_is_verified():
    # Two copies of f1 and one stray edge.  Removing a copy (Kirchhoff)
    # or half of one (not) leaves a bad cut at the stray edge although
    # every edge vector still occurs.
    f1, _ = square_pair()
    sys = f1.system
    items = f1.edge_items()
    stray = ((5, 5), 0)
    host = add(f1, f1, (0, 10))
    host = VectorGraph(sys, {**host._edges, stray: 1})
    with pytest.raises(KirchhoffViolation, match="bad_vertex"):
        subtract(host, f1, (0, 0))
    half = VectorGraph(sys, dict(items[: len(items) // 2]))
    with pytest.raises(KirchhoffViolation, match="bad_vertex"):
        subtract(host, half, half.vertices[0])


def test_difference_that_loses_an_edge_vector_is_verified():
    # h is one lattice triangle of the decomposable system's first plane:
    # its cuts lie in Row(R), but it uses three of the six edge vectors.
    # g + h is Kirchhoff; taking g away again leaves h, which is not.
    g = census(DECOMPOSABLE, 1)[0]
    origin = (0, 0, 0, 0)
    h = VectorGraph(g.system, [(origin, 0), ((1, 0, 0, 0), 1), (origin, 4)])
    both = add(h, g, (3, 0, 0, 0))
    assert both.is_kirchhoff().ok
    with pytest.raises(KirchhoffViolation) as err:
        subtract(both, g, (3, 0, 0, 0))
    assert str(err.value) == (
        "difference produced a non-Kirchhoff graph: KirchhoffVerdict("
        "status='cycle_space_deficient', vertex=None, cut=None, rank_found=1, rank_required=2)"
    )


# -- primality ----------------------------------------------------------------


def test_minimal_graphs_are_prime():
    f1, f2 = square_pair()
    assert is_prime(f1).status == "prime"
    assert is_prime(f2).status == "prime"
    for t in triangle_graphs():
        assert is_prime(t).status == "prime"


def test_whole_minimal_census_is_prime():
    # At the minimal multiplicity every graph is prime: any decomposition
    # part would need fewer copies of some vector than any graph has.
    steep = build_row_system([[2, 0, 1, 1], [0, 2, 3, 1]])
    graphs, _ = enumerate_kirchhoff(steep, SearchConfig(m_max=6))
    assert len(graphs) == 16
    assert all(is_prime(g).status == "prime" for g in graphs)


def test_split_leaves_check_that_each_part_uses_every_vector():
    # Two triangle planes sharing no vectors: each m = 1 graph is two
    # triangles joined at a vertex.  Every cut passes when the triangles
    # are split apart, but neither part uses all six vectors, so the
    # graphs are prime only because the leaves count the vectors.
    graphs = census(DECOMPOSABLE, 1)
    assert len(graphs) == 16
    for g in graphs:
        assert len(g.vertices) == 5
        assert is_prime(g).status == "prime"


def assert_verified_witness(graph, witness):
    """The witness parts are Kirchhoff under a fresh check, not only under
    the verdict they carry, and their edges sum to the graph's."""
    part_a, part_b = witness
    assert fresh_verdict(part_a).ok and fresh_verdict(part_b).ok
    merged = {}
    for part in (part_a, part_b):
        for key, c in part.edge_items():
            merged[key] = merged.get(key, 0) + c
    assert merged == dict(graph.edge_items())


def test_grid_is_composite_with_verified_witness():
    f1, _ = square_pair()
    grid = grid_of_four(f1)
    verdict = is_prime(grid)
    assert verdict.status == "composite"
    assert_verified_witness(grid, verdict.witness)


def test_budget_exhaustion_returns_unknown():
    f1, _ = square_pair()
    verdict = is_prime(grid_of_four(f1), budget=5)
    assert verdict.status == "unknown"
    assert verdict.nodes == 6  # the node over budget stops the search


def assert_census_primality(rows, m_max, total, primes, nodes):
    """Pin the statuses and split-search nodes of is_prime over a census,
    and check every composite witness."""
    graphs = census(rows, m_max)
    verdicts = [is_prime(g) for g in graphs]
    assert len(verdicts) == total
    assert sum(v.status == "prime" for v in verdicts) == primes
    assert sum(v.nodes for v in verdicts) == nodes
    for g, v in zip(graphs, verdicts):
        if v.status == "composite":
            assert_verified_witness(g, v.witness)


def test_primality_reports_its_nodes_over_the_triangle_census():
    assert_census_primality(TRIANGLE, 4, 1295, 58, 15408)


def test_primality_reports_its_nodes_over_the_decomposable_census():
    # each part of a split must use all six vectors, which the leaves count
    assert_census_primality(DECOMPOSABLE, 2, 5527, 1824, 132724)


def test_primality_rejects_bad_inputs():
    f1, _ = square_pair()
    with pytest.raises(ValueError):
        is_prime(VectorGraph.empty(f1.system))
    with pytest.raises(ValueError):
        is_prime(VectorGraph(f1.system, [((0, 0), 0)]))


def test_primality_matches_exhaustive_scan():
    f1, f2 = square_pair()
    cases = [f1, f2, add(f1, f2, (1, 1))] + triangle_graphs()
    for g in cases:
        expected_prime, _ = brute_force_is_prime(g)
        assert (is_prime(g).status == "prime") == expected_prime


def test_chirality_commutes_with_primality():
    f1, f2 = square_pair()
    for g in (f1, f2, add(f1, f2, (1, 1)), build_infinite_prime_family(1)):
        assert is_prime(g).status == is_prime(g.chiral()).status


# -- span ----------------------------------------------------------------------


def test_span_stacked_copies():
    f1, _ = square_pair()
    stacked = add(add(f1, f1, (0, 0)), f1, (0, 0))
    res = span_contains([f1], stacked)
    assert res.contained
    assert len(res.expression.placements) == 3


def test_span_finds_grid_minus_doubled():
    f1, f2 = square_pair()
    p1 = build_infinite_prime_family(1)
    res = span_contains([f1, f2], p1)
    assert res.contained
    placements = res.expression.placements
    assert len(placements) == 5
    signs = sorted((p.sign, p.graph.equals_up_to_translation(f1)) for p in placements)
    assert signs == [(-1, False)] + [(1, True)] * 4  # four copies added, one doubled removed
    assert res.expression.evaluate().equals_up_to_translation(p1)


def test_span_reproduces_both_decompositions_of_the_grid():
    f1, f2 = square_pair()
    grid = grid_of_four(f1)
    p1 = build_infinite_prime_family(1)
    by_spread = span_contains([f1], grid)
    assert by_spread.contained and len(by_spread.expression.placements) == 4
    by_prime = span_contains([p1, f2], grid)
    assert by_prime.contained and len(by_prime.expression.placements) == 2


def test_span_negative_within_bounds():
    f1, f2 = square_pair()
    assert not span_contains([f1], f2).contained


def test_sign_consistency_per_generator():
    # an expression may add copies of a generator or remove them, never both
    f1, f2 = square_pair()
    p1 = build_infinite_prime_family(1)
    res = span_contains([f1, f2], p1)
    for gen in (f1, f2):
        signs = {
            p.sign
            for p in res.expression.placements
            if p.graph.equals_up_to_translation(gen)
        }
        assert len(signs) <= 1


def test_span_search_keeps_its_order_on_shear():
    # Placements as (generator, offset, sign), recorded before span_contains
    # cached its aligned options per key: the search must walk the same
    # tree and so return the same expression.
    g = shear_graphs()
    res = span_contains([g[1], g[2], g[3]], g[0])
    assert res.status == "yes"
    found = [(next(i for i, h in enumerate(g) if h is p.graph), p.offset, p.sign)
             for p in res.expression.placements]
    assert found == [(3, (0, -1), 1), (2, (-1, 0), 1), (1, (-1, 0), -1)]
    assert res.nodes == 74
    res = span_contains([g[2], g[3]], g[0])
    assert res.status == "no_within_bounds" and res.expression is None
    assert res.nodes == 350


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 3).flatmap(lambda n: st.tuples(
        st.lists(st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=4),
        st.tuples(*[st.integers(-4, 6)] * n),
        st.integers(1, 4),
    ))
)
def test_placement_totals_match_brute_force(case):
    # b is allowed when k_g >= 0 copies of each generator, one sign s_g
    # each, make b placements whose count vectors sum to the target's.
    # Small entries make generators that share a count vector common.
    counts, target, bound = case
    found = set()
    for ks in product(range(bound + 1), repeat=len(counts)):
        if not 0 < sum(ks) <= bound:
            continue
        for signs in product((1, -1), repeat=len(counts)):
            net = tuple(sum(s * k * c[i] for s, k, c in zip(signs, ks, counts)) for i in range(len(target)))
            if net == target:
                found.add(sum(ks))
    assert tiling._placement_totals(counts, target, bound) == sorted(found)


def test_span_returns_at_once_when_no_placement_total_fits():
    # A one-copy triangle graph is no signed sum of two-copy graphs, and
    # three one-copy placements exceed a bound of 2: no round is searched.
    g = census(TRIANGLE, 2)
    ones = [x for x in g if x.multiplicity().m == 1]
    twos = [x for x in g if x.multiplicity().m == 2]
    assert span_contains(twos, ones[0]) == SpanResult("no_within_bounds", None, 0)
    stacked = add(add(ones[0], ones[0], (0, 0)), ones[0], (0, 0))
    assert span_contains(ones, stacked, coeff_bound=2) == SpanResult("no_within_bounds", None, 0)
    assert span_contains(ones, stacked, coeff_bound=3).contained


@pytest.mark.parametrize(
    "rows, m_max, work",
    [(SHEAR, 6, (28, 6, 4506)), (CUBE, 1, (186, 42, 5332)), (TRIANGLE, 3, (326, 112, 1552)),
     (SQUARE, 4, (71, 33, 321))],
    ids=["shear m<=6", "cube m<=1", "triangle m<=3", "square m<=4"],
)
def test_allowed_totals_give_the_answers_of_every_budget(monkeypatch, rows, m_max, work):
    # Searching only the placement totals that edge counts allow returns
    # the status and placements of deepening through every budget, for
    # each subset of the minimal tier and each target outside it.  The
    # allowed-total run's (calls, yes answers, nodes) were recorded
    # before alignment worked on packed shifts.
    g = census(rows, m_max)
    tier = [x for x in g if x.multiplicity().m == min(y.multiplicity().m for y in g)]
    pairs = [
        (list(subset), target)
        for size in range(1, len(tier) + 1)
        for subset in combinations(tier, size)
        for target in g
        if target not in subset
    ]
    allowed = [span_contains(gens, target) for gens, target in pairs]
    assert (len(allowed), sum(r.contained for r in allowed), sum(r.nodes for r in allowed)) == work
    monkeypatch.setattr(tiling, "_placement_totals", lambda counts, target, bound: range(1, bound + 1))
    every = [span_contains(gens, target) for gens, target in pairs]
    assert [(r.status, r.expression) for r in allowed] == [(r.status, r.expression) for r in every]
    assert all(a.nodes <= e.nodes for a, e in zip(allowed, every))


def test_tiling_searches_leave_no_cyclic_garbage():
    # span_contains and is_prime recurse through a closure that refers to
    # itself; each breaks that cycle before it returns, so a call leaves
    # nothing for the cyclic collector, whatever its answer.
    g = shear_graphs()
    f1, _ = square_pair()
    grid = grid_of_four(f1)
    calls = [
        (lambda: span_contains([g[1], g[2], g[3]], g[0]), "yes"),
        (lambda: span_contains([g[2], g[3]], g[0]), "no_within_bounds"),
        (lambda: is_prime(f1), "prime"),
        (lambda: is_prime(grid), "composite"),
        (lambda: is_prime(grid, budget=5), "unknown"),
    ]
    gc.disable()
    try:
        for call, status in calls:
            gc.collect()
            assert call().status == status
            assert gc.collect() == 0, status
    finally:
        gc.enable()


def test_span_search_on_the_cube_system_keeps_its_trees():
    # k = 3: the packed keys carry three coordinate digits.  The target
    # needs placements at offsets in all three coordinates, and removals.
    # Status and placements recorded before the keys were packed.
    g = census(CUBE, 1)
    assert len(g) == 6
    expected = [
        (4, (0, 0, 0), 1), (4, (0, 0, 1), 1), (4, (1, 0, 1), 1), (4, (1, 1, 1), 1),
        (0, (0, 0, 1), -1), (5, (1, 0, 1), -1),
    ]
    target = TilingExpression(tuple(Placement(g[i], off, s) for i, off, s in expected)).evaluate()
    res = span_contains(g, target)
    assert res.status == "yes" and res.nodes == 238
    found = [(g.index(p.graph), p.offset, p.sign) for p in res.expression.placements]
    assert found == expected
    res = span_contains([g[0], g[1]], g[2])
    assert res.status == "no_within_bounds" and res.nodes == 23


def test_span_search_with_a_window_that_excludes_the_origin(monkeypatch):
    # The target's keys at the origin lie outside every placed copy's
    # reach, so the packing box must hold the target's tails as well:
    # packed over the placed copies' box alone, a key with y = 0 would
    # take a negative y digit that borrows from x.  Recorded before the
    # keys were packed.  The window is set where span_contains reads it.
    g = shear_graphs()

    def search(gens, target, window):
        monkeypatch.setattr(tiling, "_default_window", lambda *_: window)
        return span_contains(gens, target, 8)

    res = search([g[1], g[2], g[3]], g[0], ((1, 1), (5, 5)))
    assert res.status == "no_within_bounds" and res.nodes == 4
    res = search([g[0], g[2], g[3]], g[1], ((-4, 1), (6, 6)))
    assert res.status == "no_within_bounds" and res.nodes == 4
    res = search([g[0], g[1], g[2]], g[3], ((-4, 1), (6, 6)))
    assert res.status == "yes" and res.nodes == 7
    found = [(g.index(p.graph), p.offset, p.sign) for p in res.expression.placements]
    assert found == [(1, (-1, 1), 1), (0, (0, 1), 1), (2, (-1, 1), -1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(SHEAR, 6), (CUBE, 1)]), st.data())
def test_yes_placements_lie_inside_the_window(system, data):
    # Alignment maps packed shifts to offsets through a memo; an offset
    # outside the window must never pass for one inside it.  So every
    # placement of a yes answer lies in the window the search was given,
    # whatever that window is.  The window is set where span_contains
    # reads it.
    g = census(*system)
    chosen = data.draw(st.lists(st.sampled_from(range(len(g))), min_size=3, unique=True))
    target, gens = g[chosen[0]], [g[i] for i in chosen[1:]]
    # about a quarter of these answer yes; some windows miss the origin
    k = target.system.k
    lo = data.draw(st.tuples(*[st.integers(-2, 0)] * k))
    hi = tuple(a + data.draw(st.integers(1, 4)) for a in lo)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tiling, "_default_window", lambda *_: (lo, hi))
        res = span_contains(gens, target)
    if res.contained:
        for p in res.expression.placements:
            assert all(a <= x <= z for a, x, z in zip(lo, p.offset, hi)), (p.offset, lo, hi)


def test_fundamental_sets_span_calls_keep_their_trees(monkeypatch):
    # Every span_contains call of fundamental_sets on shear m=6 as
    # (generators, target, status, search nodes, placements).  Statuses
    # and placements were recorded before the span search cached its
    # option lists and shifted copies.
    g = shear_graphs()
    calls = []
    span = tiling.span_contains

    def recording(gens, target, *args):
        res = span(gens, target, *args)
        index = [next(i for i, h in enumerate(g) if h is x) for x in gens]
        placements = res.expression and [
            (next(i for i, h in enumerate(g) if h is p.graph), p.offset, p.sign)
            for p in res.expression.placements
        ]
        calls.append((tuple(index), g.index(target), res.status, res.nodes, placements))
        return res

    monkeypatch.setattr(tiling, "span_contains", recording)
    assert fundamental_sets(g) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    # The character test rules out six more calls, all no_within_bounds:
    # (0,)->1, (1,)->0, (2,)->0, (3,)->0, (0, 1)->2 and (2, 3)->0, which
    # spent 24, 40, 32, 32, 770 and 884 nodes when every budget was
    # searched.  Every graph has 6 copies of each vector, so only odd
    # placement totals are searched.
    no = "no_within_bounds"
    assert calls == [
        ((0, 2), 1, no, 305, None),
        ((0, 3), 1, no, 261, None),
        ((1, 2), 0, no, 592, None),
        ((1, 3), 0, no, 648, None),
        ((0, 1, 2), 3, "yes", 18, [(0, (0, 0), 1), (0, (1, 1), 1), (2, (0, 0), -1)]),
        ((0, 1, 3), 2, "yes", 18, [(0, (0, 0), 1), (0, (1, 1), 1), (3, (0, 0), -1)]),
        ((0, 2, 3), 1, "yes", 30, [(2, (0, 0), 1), (3, (1, -1), 1), (0, (1, 0), -1)]),
        ((1, 2, 3), 0, "yes", 74, [(3, (0, -1), 1), (2, (-1, 0), 1), (1, (-1, 0), -1)]),
    ]


def test_expression_evaluation_checks_embeddings():
    f1, f2 = square_pair()
    expr = TilingExpression((Placement(f1, (0, 0), 1), Placement(f2, (0, 0), -1)))
    with pytest.raises(NoEmbeddingAtOffset):
        expr.evaluate()


# -- prime family -----------------------------------------------------------------


def test_family_multiplicity_law():
    for j in range(1, 6):
        fam = build_infinite_prime_family(j)
        assert fam.multiplicity().m == 2 * j + 4
        assert fam.is_kirchhoff().ok


def test_family_smallest_member_is_the_grid_difference():
    f1, f2 = square_pair()
    grid = grid_of_four(f1)
    offset = find_embeddings(grid, f2)[0]
    assert build_infinite_prime_family(1).equals_up_to_translation(
        subtract(grid, f2, offset)
    )


def test_family_rejects_bad_size():
    with pytest.raises(ValueError):
        build_infinite_prime_family(0)


def test_family_without_an_interior_embedding_raises(monkeypatch):
    system, spread, doubled, t1, t2, emb0 = tiling._square_family_geometry()
    far = tuple(a + 40 for a in emb0)
    monkeypatch.setattr(tiling, "_square_family_geometry", lambda: (system, spread, doubled, t1, t2, far))
    with pytest.raises(FamilyConstructionError, match="interior embedding missing"):
        build_infinite_prime_family(2)


def test_family_periods_place_the_doubled_graph_inside_the_grid():
    system, spread, doubled, t1, t2, emb0 = tiling._square_family_geometry()
    assert (spread, doubled) == square_pair()
    grid = spread
    for off in (t1, t2, tuple(a + b for a, b in zip(t1, t2))):
        grid = add(grid, spread, off)
    assert emb0 in find_embeddings(grid, doubled)


# -- fundamental sets ----------------------------------------------------------------


def test_singleton_generates_itself():
    f1, _ = square_pair()
    assert fundamental_sets([f1]) == [(0,)]


def test_square_pair_is_the_fundamental_set():
    f1, f2 = square_pair()
    assert fundamental_sets([f1, f2]) == [(0, 1)]


def test_fundamental_sets_start_at_the_rank_of_the_characters(monkeypatch):
    # A covering subset's Phi_s span every graph's, so no subset smaller
    # than their rank is tried: on shear m <= 6 the rank is 2, and the
    # 3-sets are found at the second size tried.  A one-graph tier under
    # a rank of 2 gives no answer without trying a subset.
    # Only combinations(tier, size) calls are recorded, so another use of
    # combinations inside fundamental_sets does not read as a size tried.
    sizes = []
    tier = []
    real = tiling.combinations

    def recording(pool, size):
        pool = list(pool)
        if pool == tier:
            sizes.append(size)
        return real(pool, size)

    monkeypatch.setattr(tiling, "combinations", recording)
    graphs = shear_graphs()
    tier[:] = range(len(graphs))
    assert {g.multiplicity().m for g in graphs} == {6}
    assert fundamental_sets(graphs) == [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    assert sizes == [2, 3]
    g = census(TRIANGLE, 3)
    one, three = next(x for x in g if x.multiplicity().m == 1), g[0]
    assert three.multiplicity().m == 3
    tier[:] = [0]
    sizes.clear()
    assert fundamental_sets([one, three]) == []
    assert sizes == []


def chi(s, offset):
    """(-1)^(s.offset)."""
    return -1 if sum(a * b for a, b in zip(s, offset)) % 2 else 1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(SQUARE, 2), (TRIANGLE, 2), (CUBE, 1)]), st.data())
def test_characters_flip_under_translation_and_add_over_placements(census_args, data):
    # Phi_s of a placed copy is (-1)^(s.o) times Phi_s of the copy at the
    # origin, and Phi_s of an expression is the signed sum over its
    # placed copies.  Removals take copies embedded in the running graph,
    # not only the copies placed, so the expression is a real difference.
    g = census(*census_args)
    k = g[0].system.k
    offsets = st.tuples(*[st.integers(-3, 3)] * k)
    adds = data.draw(st.lists(st.tuples(st.sampled_from(range(len(g))), offsets), min_size=1, max_size=4))
    placements = [Placement(g[i], off, 1) for i, off in adds]
    host = TilingExpression(tuple(placements)).evaluate()
    for i in data.draw(st.lists(st.sampled_from(range(len(g))), max_size=3)):
        found = find_embeddings(host, g[i])
        if not found:
            continue
        off = data.draw(st.sampled_from(found))
        try:
            host = subtract(host, g[i], off)
        except KirchhoffViolation:
            continue
        placements.append(Placement(g[i], off, -1))
    result = TilingExpression(tuple(placements)).evaluate()
    assert result.edge_items() == host.edge_items()

    def placed(graph, off):
        return tiling._characters(TilingExpression((Placement(graph, off, 1),)).evaluate())

    origin = (0,) * k
    total = [[0] * g[0].system.n for _ in range(2 ** k)]
    for p in placements:
        at_origin, at_offset = placed(p.graph, origin), placed(p.graph, p.offset)
        for si, s in enumerate(product((0, 1), repeat=k)):
            assert at_offset[si] == tuple(chi(s, p.offset) * x for x in at_origin[si])
            total[si] = [a + p.sign * b for a, b in zip(total[si], at_offset[si])]
    assert tiling._characters(result) == [tuple(t) for t in total]


@pytest.mark.parametrize(
    "rows, m_max, ruled_out",
    [(SHEAR, 6, 14), (SQUARE, 2, 2), (TRIANGLE, 2, 770), (CUBE, 1, 138)],
    ids=["shear m<=6", "square m<=2", "triangle m<=2", "cube m<=1"],
)
def test_character_test_never_rules_out_a_span_answer(rows, m_max, ruled_out):
    # A "yes" from span_contains implies the character test of
    # fundamental_sets passes; checked as the contrapositive over every
    # subset of at most three graphs and every target outside it.  The
    # integer echelon agrees with the rank of the Fraction reference.
    def rank(vectors):
        return fraction_rref(vectors)[2]

    g = census(rows, m_max)
    chars = [tiling._characters(x) for x in g]
    failed = 0
    for size in (1, 2, 3):
        for subset in combinations(range(len(g)), size):
            phis = list(zip(*(chars[i] for i in subset)))
            bases = [tiling._echelon(p) for p in phis]
            for j in set(range(len(g))) - set(subset):
                passes = tiling._spanned(bases, chars[j])
                assert passes == all(rank([*p, phi]) == rank(p) for p, phi in zip(phis, chars[j]))
                if not passes:
                    failed += 1
                    assert not span_contains([g[i] for i in subset], g[j]).contained
    assert failed == ruled_out


@pytest.mark.parametrize(
    "rows, m_max, expected, calls, nodes",
    [
        (CUBE, 1, [(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5), (0, 1, 3, 4), (0, 1, 4, 5), (0, 2, 3, 4),
                   (0, 2, 3, 5), (0, 3, 4, 5), (1, 2, 3, 5), (1, 2, 4, 5), (1, 3, 4, 5), (2, 3, 4, 5)],
         21, 330),
        (TRIANGLE, 2, [(4, 7)], 10, 50),
        (TRIANGLE, 3, [], 4, 33),
        (SQUARE, 4, [], 10, 87),
    ],
    ids=["cube m<=1", "triangle m<=2", "triangle m<=3", "square m<=4"],
)
def test_fundamental_sets_skip_the_searches_characters_rule_out(monkeypatch, rows, m_max, expected, calls, nodes):
    # The same sets as without the character test, which spent 71 calls
    # and 5,124 nodes on cube m <= 1, 12 and 105 on triangle m <= 2, 6
    # and 92 on triangle m <= 3, and 13 and 187 on square m <= 4, when
    # every budget and every subset size was searched.  On square m <= 4
    # the size floor also skips the calls of one-graph subsets.  On cube
    # m <= 1 reuse skips six "yes" calls of 4-subsets whose 3-subset had
    # covered that target: 27 calls and 418 nodes before it.
    spent = []
    span = tiling.span_contains

    def recording(*args):
        res = span(*args)
        spent.append(res.nodes)
        return res

    monkeypatch.setattr(tiling, "span_contains", recording)
    assert fundamental_sets(census(rows, m_max)) == expected
    assert (len(spent), sum(spent)) == (calls, nodes)


# -- value records ------------------------------------------------------------

_G = VectorGraph(build_row_system(TRIANGLE), [((0, 0), 0), ((1, 0), 1), ((0, 0), 2)])
_EXPR = TilingExpression((Placement(_G, (0, 0), 1),))


@pytest.mark.parametrize(
    "record, values, defaults",
    [
        (Multiplicity, {"counts": (1, 1, 1), "uniform": True, "m": 1}, {}),
        (
            KirchhoffVerdict,
            {"status": "bad_vertex", "vertex": (0, 0), "cut": (1, 0, 1),
             "rank_found": None, "rank_required": None},
            {"vertex": None, "cut": None, "rank_found": None, "rank_required": None},
        ),
        (Placement, {"graph": _G, "offset": (2, 0), "sign": -1}, {}),
        (TilingExpression, {"placements": _EXPR.placements}, {}),
        (PrimalityVerdict, {"status": "composite", "witness": (_G, _G), "nodes": 7},
         {"witness": None, "nodes": 0}),
        (SpanResult, {"status": "yes", "expression": _EXPR, "nodes": 3},
         {"expression": None, "nodes": 0}),
    ],
    ids=["Multiplicity", "KirchhoffVerdict", "Placement", "TilingExpression",
         "PrimalityVerdict", "SpanResult"],
)
def test_records_are_immutable_values(record, values, defaults):
    names = tuple(values)
    assert record._fields == names
    a = record(*values.values())
    assert a == record(**values) and hash(a) == hash(record(**values))
    required = {k: v for k, v in values.items() if k not in defaults}
    assert record(**required) == record(**required, **defaults)
    assert a != record(**{**values, names[-1]: "other"})
    assert repr(a) == f"{record.__name__}(" + ", ".join(f"{k}={v!r}" for k, v in values.items()) + ")"
    for name in (names[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    copy = pickle.loads(pickle.dumps(a))
    assert type(copy) is record and copy == a
