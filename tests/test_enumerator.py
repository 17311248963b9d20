import gc
import json
import weakref
from functools import lru_cache
from itertools import product
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kirchgraph.enumerator as enumerator
from kirchgraph.cli import main
from kirchgraph.enumerator import (
    Search,
    SearchConfig,
    SearchStats,
    enumerate_kirchhoff,
    min_multiplicity,
)
from kirchgraph.exactalg import build_row_system
from kirchgraph.tiling import is_prime
from kirchgraph.vgraph import Radix, VectorGraph

from oracles import brute_force_kirchhoff_graphs, connected_kirchhoff_scan

SQUARE = [[2, 0, 1, 1], [0, 2, 1, -1]]
STEEP = [[2, 0, 1, 1], [0, 2, 3, 1]]
SHEAR = [[1, 0, 2, 1], [0, 1, 1, 2]]
TRIANGLE = [[1, 0, 1], [0, 1, 1]]
REVERSED = [[1, 0, -1], [0, 1, -1]]  # the triangle with its third vector reversed
CUBE = [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]
DECOMPOSABLE = [[1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 1]]


def square_system():
    return build_row_system([[2, 0, 1, 1], [0, 2, 1, -1]])


def triangle_system():
    return build_row_system([[1, 0, 1], [0, 1, 1]])


def keys(graphs):
    return sorted(g.canonical_key() for g in graphs)


# -- cut list -------------------------------------------------------------


def test_cut_list_keeps_zero_and_sorts():
    sys = square_system()
    lam = Search(sys, SearchConfig(m_max=2)).lam
    assert (0, 0, 0, 0) in lam
    assert lam == sorted(lam)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(m_max=0)
    with pytest.raises(ValueError):
        SearchConfig(m_max=1, workers=0)


# -- packing -------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.data())
def test_radix_round_trips_and_keeps_lex_order(width, data):
    # Per-digit bounds with lo != -hi, as in the span search's box; the
    # census search's balanced boxes are among them.
    lo = data.draw(st.lists(st.integers(-6, 3), min_size=width, max_size=width))
    hi = [a + data.draw(st.integers(0, 6)) for a in lo]
    radix = Radix(lo, hi)
    point = st.tuples(*(st.integers(a, z) for a, z in zip(lo, hi)))
    xs = data.draw(st.lists(point, min_size=1, max_size=12))
    for x in xs:
        assert radix.unpack(radix.pack(x)) == x
    assert sorted(xs, key=radix.pack) == sorted(xs)
    for x, y in zip(xs, xs[1:]):
        assert radix.pack(x) - radix.pack(y) == radix.pack(tuple(map(sub, x, y)))


@pytest.mark.parametrize("rows, m_max", [
    ([[2, 0, 1, 1], [0, 2, 3, 1]], 6),
    ([[1, 0, 1], [0, 1, 1]], 4),
    ([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]], 2),
])
def test_vertex_packing_at_the_corners_of_the_box(rows, m_max):
    # Every coordinate a search meets lies in [-L, L]; at the corners of
    # that box, and one step inside them, packing is one to one and int
    # order is lex order.
    s = Search(build_row_system(rows), SearchConfig(m_max=m_max))
    L = s.n * m_max * max(abs(x) for col in s.sys.columns for x in col)
    assert s.vertex.lo == (-L,) * s.sys.k
    corners = list(product((-L, 1 - L, 0, L - 1, L), repeat=s.sys.k))
    codes = [s.vertex.pack(x) for x in corners]
    assert [s.vertex.unpack(c) for c in codes] == corners
    assert sorted(corners, key=s.vertex.pack) == sorted(corners)
    assert len(set(codes)) == len(corners)


# -- single assignments ---------------------------------------------------


def fresh_search(sys, m_max=2, **options):
    return Search(sys, SearchConfig(m_max=m_max, **options))


def apply(s, v, target, rest=()):
    """``_apply`` on unpacked vertices and cuts; the child to-do list
    comes back unpacked."""
    child = s._apply(s.vertex.pack(v), s.cut.pack(target), [s.vertex.pack(w) for w in rest])
    return None if child is None else [s.vertex.unpack(w) for w in child]


def cuts_of(s):
    return {s.vertex.unpack(v): s.cut.unpack(c) for v, c in s.cuts.items()}


def edges_of(s):
    out = {}
    for code, c in s.edges.items():
        tail, i = divmod(code, s.n)
        out[s.vertex.unpack(tail), i] = c
    return out


def test_assign_full_row_cut_at_anchor():
    sys = square_system()
    s = fresh_search(sys)
    todo = apply(s, (0, 0), (2, 0, 1, 1))
    assert todo is not None
    # four edge copies leave the origin; the doubled s1 copies share a head
    assert edges_of(s) == {((0, 0), 0): 2, ((0, 0), 2): 1, ((0, 0), 3): 1}
    assert s.counts == [2, 0, 1, 1]
    assert sorted(todo) == [(1, -1), (1, 1), (2, 0)]
    assert cuts_of(s)[(0, 0)] == (2, 0, 1, 1)
    assert cuts_of(s)[(2, 0)] == (-2, 0, 0, 0)


def test_assign_negative_sum_prunes_new_vertex():
    # The prune is a mask over lam: the origin, at zero cut and sum 0,
    # never moves to a target of _negative[0, 0], and run counts it once.
    sys = square_system()
    s = fresh_search(sys)
    before = s.stats.prunes_negative_sum
    # cut (-1,-1,-1,0) needs s1, s2, s3 copies entering the origin, putting
    # tails at negative coordinate sums
    target = s.cut.pack((-1, -1, -1, 0))
    assert s._negative[0, 0] >> s._targets.index(target) & 1
    s.run([s.anchor_cuts.index(target)])
    assert s.stats.prunes_negative_sum == before + 1
    assert s.stats.nodes_expanded == 0
    assert (s.cuts, s._applied) == ({0: 0}, [])


def test_undo_restores_state():
    sys = square_system()
    s = fresh_search(sys)
    apply(s, (0, 0), (1, 1, 1, 0))
    assert edges_of(s)
    s._undo()
    assert edges_of(s) == {}
    assert s.counts == [0, 0, 0, 0]
    assert cuts_of(s) == {(0, 0): (0, 0, 0, 0)}


def test_search_and_system_die_with_their_last_reference():
    # The lazily filled tables close over codecs and tables, not over the
    # Search or the RowSystem that owns them, so no reference cycle keeps
    # either alive until a cyclic collection.
    gc.disable()
    try:
        sys = square_system()
        assert sys.contains_in_row_space([0, 0, 0, 0])
        search = Search(sys, SearchConfig(m_max=2))
        search.run(range(len(search.anchor_cuts)))
        assert search.found
        # every anchor's search is undone back to the bare anchor
        assert (search.cuts, search.counts) == ({0: 0}, [0] * sys.n)
        refs = weakref.ref(search), weakref.ref(sys)
        del search, sys
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["square", "triangle"]), st.integers(1, 4), st.data())
def test_child_todo_lists_every_live_vertex(which, m_max, data):
    # Random paths down the search tree: each child to-do list holds every
    # live vertex once, the parent's pending ones that stay live first and
    # in their order, as when _visit filtered the satisfied ones out.  The
    # anchor moves to a cut of anchor_cuts and every later vertex to one
    # of its _box_mask, as in run and _visit.
    sys = square_system() if which == "square" else triangle_system()
    s = fresh_search(sys, m_max, prune_negative_sum=data.draw(st.booleans()))
    lam = s.lam
    todo = [(0,) * sys.k]
    for step in range(data.draw(st.integers(1, 8))):
        v, rest = todo[0], todo[1:]
        if step == 0:
            options = [s.cut.unpack(c) for c in s.anchor_cuts]
        else:
            mask = s._box_mask(s.cut.pack(cuts_of(s)[v]))
            options = [t for j, t in enumerate(lam) if mask >> j & 1]
        if not options:
            break
        todo = apply(s, v, data.draw(st.sampled_from(options)), rest)
        if todo is None:
            break
        cuts = cuts_of(s)
        live = [w for w in cuts if cuts[w] not in lam]
        kept = [w for w in rest if cuts[w] not in lam]
        assert sorted(todo) == sorted(live)
        assert todo[: len(kept)] == kept
        if not todo:
            break


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["square", "triangle"]), st.integers(1, 4), st.data())
def test_box_mask_yields_the_cuts_within_the_cap(which, m_max, data):
    # Random valid _apply sequences; at every state the mask of each live
    # vertex must list exactly the cuts the multiplicity cap admits, in
    # list order.
    sys = square_system() if which == "square" else triangle_system()
    s = fresh_search(sys, m_max, prune_negative_sum=data.draw(st.booleans()))
    lam, n = s.lam, sys.n

    def within_cap(cur):
        return [
            t for t in lam
            if t != cur and all(s.counts[i] + abs(t[i] - cur[i]) <= m_max for i in range(n))
        ]

    for _ in range(data.draw(st.integers(1, 8))):
        cuts = cuts_of(s)
        v = data.draw(st.sampled_from(sorted(cuts)))
        options = within_cap(cuts[v])
        if not options:
            break
        apply(s, v, data.draw(st.sampled_from(options)))
        for cur in cuts_of(s).values():
            if cur not in lam:
                mask = s._box_mask(s.cut.pack(cur))
                assert [t for j, t in enumerate(lam) if mask >> j & 1] == within_cap(cur)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([SQUARE, TRIANGLE, STEEP, REVERSED]), st.integers(1, 6), st.data())
def test_negative_sum_mask_is_the_per_step_rule(rows, m_max, data):
    # Random paths down the pruned tree, the anchor moving to an anchor
    # cut and each later front vertex to a target of its live mask, as in
    # run and _visit.  Every vertex keeps a coordinate sum >= 0, and at the
    # front vertex the mask drops exactly the targets of its box that the
    # per-step rule rejects: some step of the move reaches a negative sum
    # at a point that is not a vertex yet.  REVERSED has a column of
    # negative sum, so copies leaving a vertex can step down too.
    s = fresh_search(build_row_system(rows), m_max)
    lam, cols = s.lam, s.sys.columns
    todo = [(0,) * s.sys.k]
    for step in range(data.draw(st.integers(0, 10))):
        cuts = cuts_of(s)
        assert all(sum(x) >= 0 for x in cuts)
        v = todo[0]
        cur, total = cuts[v], sum(v)
        if step == 0:
            box = [s.cut.unpack(c) for c in s.anchor_cuts]
        else:
            mask = s._box_mask(s.cut.pack(cur))
            box = [t for j, t in enumerate(lam) if mask >> j & 1]

        def rejected(t):
            for col, d in zip(cols, map(sub, t, cur)):
                sign = (d > 0) - (d < 0)
                w = tuple(x + sign * y for x, y in zip(v, col))
                if d and total + sign * sum(col) < 0 and w not in cuts:
                    return True
            return False

        pruned = s._negative[s.cut.pack(cur), total] if total < s._low_sum else 0
        masked = [t for t in box if pruned >> lam.index(t) & 1]
        assert masked == [t for t in box if rejected(t)]
        options = [t for t in box if t not in masked]
        if not options:
            break
        todo = apply(s, v, data.draw(st.sampled_from(options)), todo[1:])
        if not todo:
            break


@pytest.mark.parametrize("which", ["square", "triangle"])
@pytest.mark.parametrize("m_max", [1, 2, 4])
def test_anchor_cuts_are_nonzero_moves_within_the_cap(which, m_max):
    # run hands _apply the anchor at zero counts and zero cut, so each
    # anchor cut must be a move _apply accepts: inside _box_mask(0) and
    # not the zero cut itself.
    sys = square_system() if which == "square" else triangle_system()
    s = fresh_search(sys, m_max)
    mask = s._box_mask(0)
    targets = s._targets
    assert s.anchor_cuts
    for c in s.anchor_cuts:
        assert c != 0
        assert mask >> targets.index(c) & 1


# -- full runs -------------------------------------------------------------


def test_square_system_census():
    graphs, stats = enumerate_kirchhoff(square_system(), SearchConfig(m_max=2))
    assert len(graphs) == 2
    assert stats.graphs_found == 2
    assert stats.complete
    for g in graphs:
        assert g.is_kirchhoff().ok
        assert g.multiplicity() == type(g.multiplicity())((2, 2, 2, 2), True, 2)
        assert g.canonical_key() == g.canonical().canonical_key()
    spread = [g for g in graphs if all(c == 1 for _, c in g.edge_items())]
    doubled = [g for g in graphs if any(c > 1 for _, c in g.edge_items())]
    assert len(spread) == 1 and len(doubled) == 1
    assert len(spread[0].vertices) == 5
    assert len(doubled[0].vertices) == 4


def test_square_system_empty_below_minimum():
    graphs, _ = enumerate_kirchhoff(square_system(), SearchConfig(m_max=1))
    assert graphs == []


def test_triangle_matches_brute_force_window_scan():
    sys = triangle_system()
    graphs, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=1))
    window = [(x, y) for x in (0, 1) for y in (0, 1)]
    oracle = brute_force_kirchhoff_graphs(sys, 1, window)
    assert keys(graphs) == sorted(oracle)
    assert len(graphs) == 2


def test_triangle_graphs_form_a_chiral_pair():
    graphs, _ = enumerate_kirchhoff(triangle_system(), SearchConfig(m_max=1))
    a, b = graphs
    assert not a.is_self_chiral()
    assert a.chiral().canonical_key() == b.canonical_key()


@pytest.mark.parametrize(
    "rows, m_max",
    [
        pytest.param(SQUARE, 2, id="square m<=2"),
        pytest.param(TRIANGLE, 1, id="triangle m<=1"),
        pytest.param(STEEP, 6, id="steep m<=6"),
        pytest.param(SHEAR, 6, id="shear m<=6"),
        *(
            pytest.param(rows, m_max, id=name, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1"))
            for rows, m_max, name in (
                (TRIANGLE, 4, "triangle m<=4"),
                (SQUARE, 5, "square m<=5"),
                (CUBE, 2, "cube m<=2"),
                (DECOMPOSABLE, 1, "decomposable m=1"),
            )
        ),
    ],
)
def test_chiral_closure_of_output(rows, m_max):
    # A complete census holds the mirror of each of its graphs.  Today's
    # census misses the mirror of 398 of its 1,295 triangle m <= 4
    # graphs, 2 of 25 on square m <= 5, 33 of 270 on cube m <= 2 and 12
    # of 16 on decomposable m = 1; ROADMAP item 1 removes those marks.
    graphs, _ = enumerate_kirchhoff(build_row_system(rows), SearchConfig(m_max=m_max))
    ks = set(keys(graphs))
    assert sum(g.chiral().canonical_key() not in ks for g in graphs) == 0


def test_monotone_in_m_max():
    sys = triangle_system()
    small, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=1))
    large, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=2))
    assert set(keys(small)) <= set(keys(large))


def test_negative_sum_prune_exact_at_minimal_multiplicity():
    for sys, m in ((triangle_system(), 1), (square_system(), 2)):
        pruned, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=m))
        free, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=m, prune_negative_sum=False))
        assert keys(pruned) == keys(free)


def test_negative_sum_prune_exact_at_paper_scale_censuses():
    # The costlier empirical probe: the full m* censuses of both larger
    # systems come out identical with the prune disabled (~5s).  The
    # search counters are pinned too: a faster search core must walk the
    # same tree.  Each tuple is (nodes, multiplicity prunes, negative-sum
    # prunes, candidates, graphs), pruned run first.
    expected = (
        ([[2, 0, 1, 1], [0, 2, 3, 1]],  # steep
         (10512, 584989, 1915, 32, 16),
         (177120, 9908630, 0, 178, 16)),
        ([[1, 0, 2, 1], [0, 1, 1, 2]],  # shear
         (7505, 417417, 2520, 7, 4),
         (153294, 8582012, 0, 44, 4)),
    )
    for rows, pruned_stats, free_stats in expected:
        sys = build_row_system(rows)
        pruned, stats = enumerate_kirchhoff(sys, SearchConfig(m_max=6))
        assert stats == SearchStats(*pruned_stats)
        free, stats = enumerate_kirchhoff(sys, SearchConfig(m_max=6, prune_negative_sum=False))
        assert stats == SearchStats(*free_stats)
        assert keys(pruned) == keys(free)


@pytest.mark.parametrize(
    "rows, m_max, expected",
    [
        pytest.param([[2, 0, 1, 1], [0, 2, 1, -1]], 5, (28956, 1726703, 5837, 80, 25), id="square m=5"),
        pytest.param([[1, 0, 1], [0, 1, 1]], 4, (23635, 1095738, 2172, 5250, 1295), id="triangle m=4"),
    ],
)
def test_bench_census_stats_are_pinned(rows, m_max, expected):
    # The two censuses the benchmark checks against bench/reference/: a
    # faster search core must walk the same tree here too.
    _, stats = enumerate_kirchhoff(build_row_system(rows), SearchConfig(m_max=m_max))
    assert stats == SearchStats(*expected)


@pytest.mark.parametrize(
    "m_max, expected",
    [(1, (52, 1320, 48, 24, 16)), (2, (40099, 10530806, 3867, 10807, 5527))],
)
def test_four_dimensional_search_stats_are_pinned(m_max, expected):
    # k = 4, n = 6: the decomposable system, two triangle planes sharing
    # no edge vector, packs vertices in four digits and cuts in six.
    rows = [[1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 1]]
    _, stats = enumerate_kirchhoff(build_row_system(rows), SearchConfig(m_max=m_max))
    assert stats == SearchStats(*expected)


def test_above_minimal_multiplicity_prune_can_cost_answers():
    # Known behavior, probed by the toggle: pairs of triangles sharing a
    # vertex stall the anchored construction from their minimum-sum
    # anchor; other anchorings recover them only when negative-sum
    # intermediates are allowed.  The pruned run stays a subset, and the
    # chiral closure still holds on the unpruned output.
    sys = triangle_system()
    pruned, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=2))
    free, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=2, prune_negative_sum=False))
    kp, kf = set(keys(pruned)), set(keys(free))
    assert kp < kf
    assert len(kf - kp) == 5
    for g in free:
        assert g.chiral().canonical_key() in kf


# The connected scans: decomposable m = 1 over the {0,1}^4 box, triangle
# m <= 2 over x in [0, 2], y in [-2, 2].
SCANS = {
    "decomposable m=1": (DECOMPOSABLE, 1, list(product((0, 1), repeat=4))),
    "triangle m<=2": (TRIANGLE, 2, list(product(range(3), range(-2, 3)))),
}


@lru_cache(maxsize=None)
def scanned(name):
    rows, m_max, window = SCANS[name]
    return set(connected_kirchhoff_scan(build_row_system(rows), m_max, window))


@pytest.mark.parametrize(
    "name, sizes", [("decomposable m=1", (16, 36, 36)), ("triangle m<=2", (12, 17, 18))]
)
def test_census_lies_inside_the_connected_scan(name, sizes):
    # The census, with and without the negative-sum prune, against a scan
    # that never runs the search: (pruned, unpruned, scan) graph counts.
    rows, m_max, _ = SCANS[name]
    sys = build_row_system(rows)
    pruned, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=m_max))
    free, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=m_max, prune_negative_sum=False))
    assert (len(pruned), len(free), len(scanned(name))) == sizes
    assert set(keys(pruned)) <= scanned(name)
    assert set(keys(free)) <= scanned(name)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("name", sorted(SCANS))
def test_census_equals_the_connected_scan(name):
    rows, m_max, _ = SCANS[name]
    graphs, _ = enumerate_kirchhoff(build_row_system(rows), SearchConfig(m_max=m_max))
    assert set(keys(graphs)) == scanned(name)


def test_deterministic_across_runs_and_workers():
    sys = square_system()
    ref = keys(enumerate_kirchhoff(sys, SearchConfig(m_max=2))[0])
    again = keys(enumerate_kirchhoff(sys, SearchConfig(m_max=2))[0])
    parallel = keys(enumerate_kirchhoff(sys, SearchConfig(m_max=2, workers=2))[0])
    assert ref == again == parallel


CENSUSES = [(TRIANGLE, 4, True), (SQUARE, 5, False)]


@pytest.mark.parametrize("rows, m_max, classify", CENSUSES)
def test_census_is_the_same_at_every_worker_count(tmp_path, rows, m_max, classify):
    # --workers is accepted and changes nothing: graphs, counters,
    # primality statuses and document bytes
    system = build_row_system(rows)
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    runs = []
    for workers in (1, 2, 3):
        graphs, stats = enumerate_kirchhoff(system, SearchConfig(m_max=m_max, workers=workers))
        out = tmp_path / f"w{workers}.json"
        argv = ["enumerate", "--matrix", str(matrix), "--m-max", str(m_max)]
        argv += ["--workers", str(workers), "--out", str(out)]
        assert main(argv + ["--classify-prime"] * classify) == 0
        text = out.read_text()
        primes = [entry["prime"] for entry in json.loads(text)["graphs"]]
        runs.append(([g.canonical_key() for g in graphs], stats, primes, text))
    assert runs[0] == runs[1] == runs[2]
    if classify:
        # the document numbers the graphs in census order
        graphs = enumerate_kirchhoff(system, SearchConfig(m_max=m_max))[0]
        assert runs[0][2] == [is_prime(g).status for g in graphs]
        assert "prime" in runs[0][2] and "composite" in runs[0][2]


@pytest.mark.parametrize("rows, m_max, _", CENSUSES)
def test_anchor_tasks_partition_the_search(rows, m_max, _):
    # One run per anchor cut, as the bench tracer makes: the per-anchor
    # searches add up to the whole one, node for node and graph for graph.
    system = build_row_system(rows)
    config = SearchConfig(m_max=m_max)
    graphs, stats = enumerate_kirchhoff(system, config)
    nodes, found = 0, set()
    for i in range(len(Search(system, config).anchor_cuts)):
        search = Search(system, config)
        search.run([i])
        nodes += search.stats.nodes_expanded
        found |= search.found
    assert nodes == stats.nodes_expanded
    assert len(found) == len(graphs) == stats.graphs_found


def test_sorted_packed_keys_unpack_in_tuple_key_order():
    system = build_row_system(TRIANGLE)
    search = Search(system, SearchConfig(m_max=4))
    search.run(range(len(search.anchor_cuts)))
    assert len(search.found) == 1295
    unpacked = [search.unpack_key(key) for key in sorted(search.found)]
    assert unpacked == sorted(unpacked)
    # each unpacks to the canonical key that a checked graph computes
    for key in unpacked:
        assert VectorGraph(system, dict(key)).canonical_key() == key


def test_node_limit_flags_incomplete():
    graphs, stats = enumerate_kirchhoff(square_system(), SearchConfig(m_max=2, node_limit=3))
    assert not stats.complete
    full = set(keys(enumerate_kirchhoff(square_system(), SearchConfig(m_max=2))[0]))
    assert set(keys(graphs)) <= full
    # A truncated run counts only the multiplicity prunes of the cuts it
    # reached before the limit.
    _, stats = enumerate_kirchhoff(square_system(), SearchConfig(m_max=4, node_limit=1500))
    assert stats == SearchStats(1501, 57507, 371, 50, 23, complete=False)


@pytest.mark.parametrize(
    "rows, m_max, limit, prune, expected",
    [
        (SQUARE, 4, 50, True, (51, 1854, 31, 1, 1)),
        (SQUARE, 4, 300, True, (301, 11075, 82, 18, 13)),
        (SQUARE, 4, 300, False, (301, 11647, 0, 8, 8)),
        (SQUARE, 4, 1500, True, (1501, 57507, 371, 50, 23)),
        (STEEP, 6, 500, True, (501, 27456, 101, 6, 6)),
        (STEEP, 6, 2000, True, (2001, 110938, 388, 10, 9)),
        (STEEP, 6, 2000, False, (2001, 111687, 0, 4, 4)),
        (STEEP, 6, 5000, True, (5001, 278412, 772, 13, 11)),
    ],
)
def test_truncated_search_stats_are_pinned(rows, m_max, limit, prune, expected):
    # A truncated run counts only the prunes of the targets it reached
    # before the limit, in list order at every node on the path to the
    # last node counted.  The square limit of 300 is the CI smoke step's.
    config = SearchConfig(m_max=m_max, node_limit=limit, prune_negative_sum=prune)
    _, stats = enumerate_kirchhoff(build_row_system(rows), config)
    assert stats == SearchStats(*expected, complete=False)


@pytest.mark.parametrize("rows, m_max", [(TRIANGLE, 4), (CUBE, 2), (DECOMPOSABLE, 1)])
def test_census_graphs_carry_the_verdict_and_key_of_a_fresh_graph(rows, m_max):
    # The census graphs are built unchecked, carrying the verdict and the
    # canonical key that the search proved.
    graphs, _ = enumerate_kirchhoff(build_row_system(rows), SearchConfig(m_max=m_max))
    for g in graphs:
        fresh = VectorGraph(g.system, dict(g._edges))
        assert g.is_kirchhoff() == fresh.is_kirchhoff()
        assert g.canonical_key() == fresh.canonical_key()


def test_min_multiplicity():
    assert min_multiplicity(triangle_system(), 3) == 1
    assert min_multiplicity(square_system(), 2) == 2
    assert min_multiplicity(square_system(), 1) is None


@pytest.mark.parametrize(
    "rows, m_star, nodes",
    [
        ([[2, 0, 1, 1], [0, 2, 1, -1]], 2, 4),
        (TRIANGLE, 1, 2),
        (CUBE, 1, 5),
        (DECOMPOSABLE, 1, 10),
        ([[2, 0, 1, 1], [0, 2, 3, 1]], 6, 1916),
        ([[1, 0, 2, 1], [0, 1, 1, 2]], 6, 5050),
    ],
)
def test_min_multiplicity_stops_at_the_first_graph(monkeypatch, rows, m_star, nodes):
    # Each m's search stops at the first anchor cut that yields a graph:
    # full censuses up to steep m = 6 expand 11,966 nodes, not 1,916.
    searches = []

    class Recorded(enumerator.Search):
        def __init__(self, *args):
            super().__init__(*args)
            searches.append(self)

    monkeypatch.setattr(enumerator, "Search", Recorded)
    assert min_multiplicity(build_row_system(rows), 6) == m_star
    assert sum(s.stats.nodes_expanded for s in searches) == nodes


def test_square_census_matches_flow_oracle():
    # Independent completeness witness: place the diagonal-vector copies,
    # solve the axis flows they force, keep the Kirchhoff results.
    from oracles import flow_oracle_square_m2

    sys = square_system()
    graphs, _ = enumerate_kirchhoff(sys, SearchConfig(m_max=2))
    oracle = flow_oracle_square_m2(sys)
    assert sorted(oracle) == keys(graphs)


def test_three_dimensional_census_matches_window_oracle():
    # k = 3: one dependent vector closing a three-segment chain.  The six
    # segment orderings give six graphs, three chiral pairs.
    from itertools import product

    from oracles import brute_force_kirchhoff_graphs

    cube = build_row_system([[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    graphs, _ = enumerate_kirchhoff(cube, SearchConfig(m_max=1))
    assert len(graphs) == 6
    assert sum(g.is_self_chiral() for g in graphs) == 0
    ks = set(keys(graphs))
    assert all(g.chiral().canonical_key() in ks for g in graphs)
    oracle = brute_force_kirchhoff_graphs(cube, 1, list(product((0, 1), repeat=3)))
    assert sorted(oracle) == keys(graphs)
