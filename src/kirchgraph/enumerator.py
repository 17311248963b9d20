"""Backtracking exhaustive search for uniform Kirchhoff graphs.

The search anchors a vertex at the origin and tries to assign it every
cut from the bounded cut list.  Assigning a cut adds exactly the missing
net edge copies at that vertex; the far endpoints join a FIFO to-do list
when their own accumulated cuts fall outside the row space.  A pending
vertex whose cut has meanwhile become a row-space member is skipped;
otherwise every cut from the list that fits the multiplicity box (see
``Search``) is tried in list order, and exhausting them backtracks.
When nothing is pending, the accumulated edges form a candidate graph;
candidates with uniform per-vector counts are collected, deduplicated up
to translation.

A uniform candidate is Kirchhoff without a check.  Every vertex cut lies
in the cut list, hence in Row(R), or the vertex would still be pending.
Given that, the cycle vectors span Null(R) iff every edge vector occurs
(the argument is in ``VectorGraph.is_kirchhoff``), and uniform counts
with m >= 1 use every vector.

Two prunes keep the tree finite and small: no per-vector edge count may
exceed ``m_max``, and (on by default) no vertex may be created at
coordinates with negative sum.  Every graph has a translate anchored at
a minimum-coordinate-sum vertex, so the second prune is sound whenever
the search can realize that particular anchoring; it is a config toggle
so tests can probe that empirically.

Scope and completeness:

* Only connected graphs are enumerated; growth starts at the anchor, so
  disconnected unions (which exist in unbounded families, one per
  relative offset of their components) never arise.
* The discipline of skipping satisfied vertices can miss graphs that
  strictly contain a complete Kirchhoff subgraph attached through an
  already-satisfied junction: once the inner graph closes, nothing is
  pending and the branch stops.  The smallest example is a pair of
  lattice triangles sharing one zero-cut vertex.  Disabling the
  negative-sum prune recovers some of these (the stall may be
  anchoring-specific) but not all.
* This can happen at the minimal multiplicity m* too.  For the four
  planar test systems (square, steep, shear, triangle) the census at m*
  is exact, corroborated by brute-force window scans, a flow-solving
  oracle and the paper's censuses.  The decomposable k = 4 system, two
  triangle planes sharing no edge vectors, has m* = 1, and there the
  search finds 16 of the 36 graphs (two triangles joined at a vertex)
  that a scan of the {0,1}^4 box finds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from kirchgraph.exactalg import RowSystem, enumerate_bounded_cuts
from kirchgraph.vgraph import KirchhoffVerdict, VectorGraph

Coord = tuple[int, ...]


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and toggles for one enumeration run."""

    m_max: int
    prune_negative_sum: bool = True
    node_limit: int | None = None
    workers: int = 1

    def __post_init__(self):
        if self.m_max < 1:
            raise ValueError("m_max must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    prunes_multiplicity: int = 0
    prunes_negative_sum: int = 0
    candidates: int = 0
    graphs_found: int = 0
    backtracks: int = 0
    complete: bool = True

    def merge(self, other: "SearchStats") -> None:
        self.nodes_expanded += other.nodes_expanded
        self.prunes_multiplicity += other.prunes_multiplicity
        self.prunes_negative_sum += other.prunes_negative_sum
        self.candidates += other.candidates
        self.backtracks += other.backtracks
        self.complete = self.complete and other.complete


class Search:
    """Incremental search state: the partial graph plus its to-do list.

    ``cuts`` maps each live vertex to its accumulated cut, ``edges`` holds
    the partial edge multiset, ``counts`` the per-vector totals.  ``_apply``
    performs one cut assignment (returning an undo log), ``_visit`` drives
    the recursion, ``run`` iterates anchor cuts.  Useful directly when a
    test wants to poke one assignment at a time; ``enumerate_kirchhoff``
    is the high-level entry point.

    Moving vertex v from cut ``cur`` to target t adds |t_i - cur_i| copies
    of vector i, so with r_i = m_max - counts[i] the targets within the
    multiplicity cap form a box: cur_i - r_i <= t_i <= cur_i + r_i for
    every i.  ``_le[i][x + m_max]`` and ``_ge[i][x + m_max]`` are bitmasks
    over ``lam`` (bit j for ``lam[j]``) of the cuts with t_i <= x and
    t_i >= x; ``_box_mask`` ANDs them, so ``_visit`` hands ``_apply`` only
    the cuts inside the box, in list order.
    """

    def __init__(self, sys: RowSystem, config: SearchConfig):
        self.sys = sys
        self.config = config
        self.n = sys.n
        self.cols = sys.columns
        self.neg_cols = tuple(tuple(-x for x in col) for col in sys.columns)
        self.m_max = config.m_max
        self.lam = enumerate_bounded_cuts(sys, config.m_max)
        # The zero cut stays on the assignment list: assigning it to a
        # pending vertex adds the net edges that cancel the cut accumulated
        # there, which is how pass-through vertices (nonzero degree, zero
        # cut) get built.  Only the anchor skips it, since a zero anchor
        # cut stalls on the empty graph.
        self.anchor_cuts = [c for c in self.lam if any(c)]
        self.rowset = frozenset(self.lam)
        # every cut entry lies in [-m_max, m_max]
        values = range(-self.m_max, self.m_max + 1)
        self._all = (1 << len(self.lam)) - 1
        self._le = [
            [sum(1 << j for j, t in enumerate(self.lam) if t[i] <= x) for x in values]
            for i in range(self.n)
        ]
        self._ge = [
            [sum(1 << j for j, t in enumerate(self.lam) if t[i] >= x) for x in values]
            for i in range(self.n)
        ]
        self.stats = SearchStats()
        self.truncated = False
        self.found: dict[tuple, dict] = {}
        # mutable search state
        self.cuts: dict[Coord, tuple[int, ...]] = {}
        self.edges: dict[tuple[Coord, int], int] = {}
        self.counts = [0] * self.n

    def run(self, anchor_indices) -> None:
        origin = (0,) * self.sys.k
        zero = (0,) * self.n
        for li in anchor_indices:
            if self.truncated:
                break
            self.cuts = {origin: zero}
            self.edges = {}
            self.counts = [0] * self.n
            applied = self._apply(origin, self.anchor_cuts[li], ())
            if applied is None:
                continue
            todo, undo = applied
            self._visit(todo)
            self._undo(undo)

    # -- search core --------------------------------------------------

    def _visit(self, todo) -> None:
        if self.truncated:
            return
        self.stats.nodes_expanded += 1
        limit = self.config.node_limit
        if limit is not None and self.stats.nodes_expanded > limit:
            self.truncated = True
            return
        rowset = self.rowset
        cuts = self.cuts
        live = [v for v in todo if cuts[v] not in rowset]
        if not live:
            self._emit()
            return
        v = live[0]
        rest = live[1:]
        lam = self.lam
        stats = self.stats
        mask = self._box_mask(cuts[v])
        # A live cut is not in lam, so every cut outside the box is one
        # that would have failed _apply's multiplicity check.
        stats.prunes_multiplicity += len(lam) - mask.bit_count()
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            applied = self._apply(v, lam[j], rest)
            if applied is None:
                continue
            child, undo = applied
            self._visit(child)
            self._undo(undo)
            if self.truncated:
                # a truncated search never tries the cuts after lam[j]
                stats.prunes_multiplicity -= len(lam) - 1 - j - mask.bit_count()
                return
        stats.backtracks += 1

    def _box_mask(self, cur) -> int:
        """Bitmask over ``lam`` of the cuts a vertex with cut ``cur`` can
        move to without any per-vector count exceeding ``m_max``.

        |cur_i| <= counts[i], so both box bounds lie in [-m_max, m_max].
        """
        m = self.m_max
        mask = self._all
        for i, (c, k) in enumerate(zip(cur, self.counts)):
            r = m - k
            if c - r > -m:
                mask &= self._ge[i][c - r + m]
            if c + r < m:
                mask &= self._le[i][c + r + m]
        return mask

    def _apply(self, v: Coord, target, rest):
        """Add the net edges turning v's cut into target.

        Returns (child_todo, undo_log), or None when the assignment would
        break the multiplicity cap or create a negative-sum vertex.
        """
        cuts = self.cuts
        counts = self.counts
        cur = cuts[v]
        deltas = [(i, t - c) for i, (t, c) in enumerate(zip(target, cur)) if t != c]
        if not deltas:
            return None
        for i, d in deltas:
            if counts[i] + (d if d > 0 else -d) > self.m_max:
                self.stats.prunes_multiplicity += 1
                return None
        check_sum = self.config.prune_negative_sum
        neighbors = []
        for i, d in deltas:
            col = self.cols[i] if d > 0 else self.neg_cols[i]
            w = tuple(a + b for a, b in zip(v, col))
            if check_sum and w not in cuts and sum(w) < 0:
                self.stats.prunes_negative_sum += 1
                return None
            neighbors.append(w)

        edges = self.edges
        undo_cuts = []
        undo_edges = []
        appended = []
        rowset = self.rowset
        for (i, d), w in zip(deltas, neighbors):
            ad = d if d > 0 else -d
            counts[i] += ad
            key = (v, i) if d > 0 else (w, i)
            edges[key] = edges.get(key, 0) + ad
            undo_edges.append((key, ad))
            old = cuts.get(w)
            cl = [0] * self.n if old is None else list(old)
            cl[i] -= d
            neww = tuple(cl)
            cuts[w] = neww
            undo_cuts.append((w, old))
            if neww not in rowset and w not in rest and w not in appended:
                appended.append(w)
        undo_cuts.append((v, cur))
        cuts[v] = target
        return list(rest) + appended, (undo_edges, undo_cuts)

    def _undo(self, undo) -> None:
        undo_edges, undo_cuts = undo
        edges = self.edges
        counts = self.counts
        for key, ad in undo_edges:
            left = edges[key] - ad
            if left:
                edges[key] = left
            else:
                del edges[key]
            counts[key[1]] -= ad
        cuts = self.cuts
        for w, old in reversed(undo_cuts):
            if old is None:
                del cuts[w]
            else:
                cuts[w] = old

    # -- candidate handling -------------------------------------------

    def _emit(self) -> None:
        self.stats.candidates += 1
        if len(set(self.counts)) != 1:
            return
        # The live vertices are exactly the graph's vertices, so this is
        # the graph's canonical_key().
        shift = min(self.cuts)
        key = tuple(
            sorted(
                ((tuple(a - b for a, b in zip(tail, shift)), i), c)
                for (tail, i), c in self.edges.items()
            )
        )
        self.found[key] = dict(key)


def _run_slice(args):
    sys, config, indices = args
    searcher = Search(sys, config)
    searcher.run(indices)
    return searcher.found, searcher.stats, searcher.truncated


def enumerate_kirchhoff(
    sys: RowSystem, config: SearchConfig
) -> tuple[list[VectorGraph], SearchStats]:
    """All nonempty connected uniform Kirchhoff graphs with m <= m_max,
    up to translation, subject to the completeness notes in the module
    docstring: exact at the minimal multiplicity for the four planar test
    systems, but not in general.

    Returns the graphs in canonical form, sorted by canonical edge list,
    plus run statistics.  ``stats.complete`` is False when a node limit
    truncated the search, in which case the result may be missing graphs.
    Worker counts beyond 1 split the anchor cuts across processes; the
    result is identical for every worker count.
    """
    searcher = Search(sys, config)
    indices = range(len(searcher.anchor_cuts))
    stats = SearchStats()
    found: dict[tuple, dict] = {}
    truncated = False
    if config.workers == 1 or len(searcher.anchor_cuts) <= 1:
        searcher.run(indices)
        found, stats, truncated = searcher.found, searcher.stats, searcher.truncated
    else:
        import multiprocessing as mp

        slices = [
            (sys, replace(config, workers=1), list(indices)[w :: config.workers])
            for w in range(config.workers)
        ]
        with mp.Pool(config.workers) as pool:
            for part_found, part_stats, part_trunc in pool.map(_run_slice, slices):
                found.update(part_found)
                stats.merge(part_stats)
                truncated = truncated or part_trunc
    graphs = []
    for key in sorted(found):
        graph = VectorGraph(sys, found[key])
        graph._verdict = KirchhoffVerdict("ok")  # by the theorem in Search._emit
        graph._key = key  # canonical_key(), as Search._emit built it
        graphs.append(graph)
    stats.graphs_found = len(graphs)
    stats.complete = not truncated
    return graphs, stats


def min_multiplicity(sys: RowSystem, m_limit: int, **config_kwargs) -> int | None:
    """Smallest m <= m_limit with a nonempty enumeration, or None."""
    if m_limit < 1:
        raise ValueError("m_limit must be >= 1")
    for m in range(1, m_limit + 1):
        graphs, stats = enumerate_kirchhoff(sys, SearchConfig(m_max=m, **config_kwargs))
        if graphs:
            return m
        if not stats.complete:
            raise RuntimeError("search truncated before reaching a conclusion")
    return None
