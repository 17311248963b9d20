"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one ``[criterion N] PASS`` line (visible with ``-s`` or
``-rP``) after its assertions; a failure reads as the criterion number.
Run order matters only for speed: session fixtures share the censuses.
"""

import json
import time

import pytest

from kirchgraph.cli import main
from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff, min_multiplicity
from kirchgraph.exactalg import build_row_system, enumerate_bounded_cuts
from kirchgraph.tiling import (
    add,
    build_infinite_prime_family,
    find_embeddings,
    fundamental_sets,
    is_prime,
    span_contains,
    subtract,
)

from oracles import (
    brute_force_cuts,
    brute_force_is_prime,
    brute_force_kirchhoff_graphs,
    cycle_basis,
    cycle_vector,
)

SQUARE_ROWS = [[2, 0, 1, 1], [0, 2, 1, -1]]
STEEP_ROWS = [[2, 0, 1, 1], [0, 2, 3, 1]]
SHEAR_ROWS = [[1, 0, 2, 1], [0, 1, 1, 2]]
TRIANGLE_ROWS = [[1, 0, 1], [0, 1, 1]]


def report(n, text):
    print(f"[criterion {n}] PASS: {text}")


@pytest.fixture(scope="module")
def square():
    sys = build_row_system(SQUARE_ROWS)
    graphs, stats = enumerate_kirchhoff(sys, SearchConfig(m_max=2))
    return sys, graphs, stats


@pytest.fixture(scope="module")
def steep():
    sys = build_row_system(STEEP_ROWS)
    graphs, stats = enumerate_kirchhoff(sys, SearchConfig(m_max=6))
    return sys, graphs, stats


@pytest.fixture(scope="module")
def shear():
    sys = build_row_system(SHEAR_ROWS)
    graphs, stats = enumerate_kirchhoff(sys, SearchConfig(m_max=6))
    return sys, graphs, stats


@pytest.fixture(scope="module")
def square_pair(square):
    _, graphs, _ = square
    f1 = next(g for g in graphs if all(c == 1 for _, c in g.edge_items()))
    f2 = next(g for g in graphs if any(c > 1 for _, c in g.edge_items()))
    return f1, f2


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    base = tmp_path_factory.mktemp("matrices")
    paths = {}
    for name, rows in (
        ("square", SQUARE_ROWS),
        ("steep", STEEP_ROWS),
        ("shear", SHEAR_ROWS),
    ):
        path = base / f"{name}.txt"
        path.write_text("\n".join(" ".join(str(x) for x in row) for row in rows) + "\n")
        paths[name] = path
    return paths


def test_criterion_1_square_census():
    start = time.monotonic()
    sys = build_row_system(SQUARE_ROWS)
    graphs, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=2))
    assert len(graphs) == 2
    assert all(g.multiplicity().m == 2 for g in graphs)
    assert all(is_prime(g).status == "prime" for g in graphs)
    assert fundamental_sets(graphs) == [(0, 1)]
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(1, f"2 graphs, both m=2, both prime, both fundamental ({elapsed:.1f}s)")


def test_criterion_2_steep_census():
    start = time.monotonic()
    sys = build_row_system(STEEP_ROWS)
    graphs, stats = enumerate_kirchhoff(sys, SearchConfig(m_max=6))
    assert stats.complete
    assert len(graphs) == 16
    self_chiral = [g for g in graphs if g.is_self_chiral()]
    assert len(self_chiral) == 8
    others = {g.canonical_key(): g for g in graphs if not g.is_self_chiral()}
    pairs = set()
    for key, g in others.items():
        partner = g.chiral().canonical_key()
        assert partner in others and partner != key
        pairs.add(frozenset((key, partner)))
    assert len(pairs) == 4
    empty, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=5))
    assert empty == []
    assert min_multiplicity(sys, 6) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    report(2, f"16 graphs, 8 self-chiral, 4 chiral pairs, none below m=6 ({elapsed:.1f}s)")


def test_criterion_3_shear_primes(shear):
    _, graphs, stats = shear
    assert stats.complete
    verdicts = [is_prime(g).status for g in graphs]
    primes = [g for g, v in zip(graphs, verdicts) if v == "prime"]
    assert len(primes) == 4
    prime_self = [g for g in primes if g.is_self_chiral()]
    assert len(prime_self) == 2
    paired = [g for g in primes if not g.is_self_chiral()]
    assert len(paired) == 2
    assert paired[0].chiral().canonical_key() == paired[1].canonical_key()
    total = len(graphs)  # recorded, not asserted
    power_of_two = total & (total - 1) == 0
    report(
        3,
        f"4 primes (2 self-chiral + 1 chiral pair); total recorded: {total} "
        f"(power of two: {power_of_two})",
    )


def test_criterion_4_tiling_reproduction(square_pair):
    f1, f2 = square_pair
    s = add(f1, f2, (1, 1))
    assert s.is_kirchhoff().ok and s.multiplicity().m == 4

    grid = f1
    for off in ((1, -1), (1, 1), (2, 0)):
        grid = add(grid, f1, off)
    assert is_prime(grid).status == "composite"

    offset = find_embeddings(grid, f2)[0]
    residue = subtract(grid, f2, offset)
    assert is_prime(residue).status == "prime"

    by_spread = span_contains([f1], grid)
    assert by_spread.contained
    assert len(by_spread.expression.placements) == 4
    by_prime = span_contains([residue, f2], grid)
    assert by_prime.contained
    assert len(by_prime.expression.placements) == 2
    report(4, "sum m=4 ok; grid composite; grid minus doubled prime; both decompositions found")


def test_criterion_5_prime_family(square_pair):
    f1, f2 = square_pair
    timings = []
    for j in (1, 2, 3):
        start = time.monotonic()
        fam = build_infinite_prime_family(j)
        assert fam.is_kirchhoff().ok
        assert fam.multiplicity().m == 2 * j + 4
        assert is_prime(fam).status == "prime"
        elapsed = time.monotonic() - start
        assert elapsed < 300
        timings.append(f"j={j}:{elapsed:.1f}s")
    # j = 2 is the six-plus-two construction: six spread copies, two removals
    res = span_contains([f1, f2], build_infinite_prime_family(2))
    assert res.contained
    placements = res.expression.placements
    n_add = sum(1 for p in placements if p.sign > 0)
    n_sub = sum(1 for p in placements if p.sign < 0)
    assert (n_add, n_sub) == (6, 2)
    assert all(p.graph.equals_up_to_translation(f1) for p in placements if p.sign > 0)
    assert all(p.graph.equals_up_to_translation(f2) for p in placements if p.sign < 0)
    report(5, f"family prime with m=2j+4 for j=1..3 ({', '.join(timings)}); j=2 is 6 adds - 2 removals")


def test_criterion_6_property_suites(square, steep, shear):
    checked = 0
    for sys, graphs, _ in (square, steep, shear):
        keys = {g.canonical_key() for g in graphs}
        for g in graphs:
            assert g.is_kirchhoff().ok
            if g.is_vector_2_connected():
                assert g.multiplicity().uniform
            chis = [cycle_vector(g, w) for w in cycle_basis(g)]
            for v in g.vertices:
                lam = g.vertex_cut(v)
                for chi in chis:
                    assert sum(a * b for a, b in zip(lam, chi)) == 0
            assert g.chiral().canonical_key() in keys
            assert g.chiral().chiral().equals_up_to_translation(g)
            checked += 1
    report(6, f"all {checked} enumerated graphs pass the property suite")


def test_criterion_7_oracle_equivalence(square_pair):
    for rows in (SQUARE_ROWS, STEEP_ROWS, SHEAR_ROWS, TRIANGLE_ROWS):
        sys = build_row_system(rows)
        for bound in (1, 2, 3):
            assert enumerate_bounded_cuts(sys, bound) == brute_force_cuts(sys, bound)

    f1, f2 = square_pair
    prime_cases = [f1, f2, add(f1, f2, (1, 1))]
    tri = build_row_system(TRIANGLE_ROWS)
    tri_graphs, _ = enumerate_kirchhoff(tri, SearchConfig(m_max=1))
    prime_cases += tri_graphs
    for g in prime_cases:
        assert g.total_edge_instances() <= 16
        expected_prime, _ = brute_force_is_prime(g)
        assert (is_prime(g).status == "prime") == expected_prime

    window = [(x, y) for x in (0, 1) for y in (0, 1)]
    oracle = brute_force_kirchhoff_graphs(tri, 1, window)
    assert sorted(oracle) == sorted(g.canonical_key() for g in tri_graphs)
    report(7, "cut scan, bipartition scan and window scan all agree")


def test_criterion_8_fundamental_sets(square, shear):
    _, square_graphs, _ = square
    assert fundamental_sets(square_graphs) == [(0, 1)]
    _, shear_graphs, _ = shear
    assert fundamental_sets(shear_graphs) == [
        (0, 1, 2),
        (0, 1, 3),
        (0, 2, 3),
        (1, 2, 3),
    ]
    report(8, "minimum generating subsets: the pair, and all four triples")


def test_criterion_9_determinism_across_workers(matrix_files, tmp_path):
    docs = []
    for workers in ("1", "2"):
        out = tmp_path / f"steep-w{workers}.json"
        code = main(
            [
                "enumerate",
                "--matrix",
                str(matrix_files["steep"]),
                "--m-max",
                "6",
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )
        assert code == 0
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
    summary = json.loads(docs[0])["summary"]
    assert summary["total"] == 16
    report(9, "byte-identical documents at 1 and 2 workers")
