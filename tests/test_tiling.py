import random

import pytest

from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff
from kirchgraph.exactalg import build_row_system
from kirchgraph.tiling import (
    NoEmbeddingAtOffset,
    Placement,
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
from kirchgraph.vgraph import VectorGraph

from oracles import brute_force_is_prime


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


def test_add_requires_same_system():
    f1, _ = square_pair()
    with pytest.raises(SystemMismatch):
        add(f1, triangle_graphs()[0], (0, 0))


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


def test_grid_is_composite_with_verified_witness():
    f1, _ = square_pair()
    grid = grid_of_four(f1)
    verdict = is_prime(grid)
    assert verdict.status == "composite"
    part_a, part_b = verdict.witness
    assert part_a.is_kirchhoff().ok and part_b.is_kirchhoff().ok
    merged = {}
    for part in (part_a, part_b):
        for key, c in part.edge_items():
            merged[key] = merged.get(key, 0) + c
    assert merged == dict(grid.edge_items())


def test_budget_exhaustion_returns_unknown():
    f1, _ = square_pair()
    assert is_prime(grid_of_four(f1), budget=5).status == "unknown"


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
    res = span_contains([g[2], g[3]], g[0])
    assert res.status == "no_within_bounds" and res.expression is None


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


# -- fundamental sets ----------------------------------------------------------------


def test_singleton_generates_itself():
    f1, _ = square_pair()
    assert fundamental_sets([f1]) == [(0,)]


def test_square_pair_is_the_fundamental_set():
    f1, f2 = square_pair()
    assert fundamental_sets([f1, f2]) == [(0, 1)]
