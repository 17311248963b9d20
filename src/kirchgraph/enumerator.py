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
from functools import reduce
from operator import add, and_, getitem, sub

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
    complete: bool = True

    def merge(self, other: "SearchStats") -> None:
        self.nodes_expanded += other.nodes_expanded
        self.prunes_multiplicity += other.prunes_multiplicity
        self.prunes_negative_sum += other.prunes_negative_sum
        self.candidates += other.candidates
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
    of vector i, so the targets within the multiplicity cap form a box:
    |t_i - cur_i| <= m_max - counts[i] for every i.  ``_box[i][c][k]`` is
    the bitmask over ``lam`` (bit j for ``lam[j]``) of the cuts t with
    |t_i - c| <= m_max - k; ``_box_mask`` ANDs one entry per vector, so
    ``_visit`` hands ``_apply`` only the cuts inside the box, in list
    order.  ``_apply`` still checks the cap, as callers may pass any cut.
    """

    def __init__(self, sys: RowSystem, config: SearchConfig):
        self.sys = sys
        self.config = config
        self.n = n = sys.n
        self.cols = sys.columns
        self.colsums = tuple(map(sum, sys.columns))
        self.m_max = m = config.m_max
        self.lam = enumerate_bounded_cuts(sys, m)
        # The zero cut stays on the assignment list: assigning it to a
        # pending vertex adds the net edges that cancel the cut accumulated
        # there, which is how pass-through vertices (nonzero degree, zero
        # cut) get built.  Only the anchor skips it, since a zero anchor
        # cut stalls on the empty graph.
        self.anchor_cuts = [c for c in self.lam if any(c)]
        self.rowset = frozenset(self.lam)
        # Cut entries, live cut entries (|cur_i| <= counts[i]) and steps d
        # all lie in [-m, m].  A table over that range keeps the entry for
        # x at x mod (2m + 1), so x indexes it directly.
        span = range(-m, m + 1)

        def by_value(entries):
            return entries[m:] + entries[:m]

        self._box = []
        for i in range(n):
            at = dict.fromkeys(span, 0)  # the cuts with t_i == x
            for j, t in enumerate(self.lam):
                at[t[i]] |= 1 << j
            self._box.append(by_value([
                [sum(at[x] for x in span if abs(x - c) <= m - k) for k in range(m + 1)]
                for c in span
            ]))
        # _unit[i][d]: the cut -d e_i of a vertex created by a step d on vector i
        self._unit = [
            by_value([tuple(-d if h == i else 0 for h in range(n)) for d in span])
            for i in range(n)
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

    def _box_mask(self, cur) -> int:
        """Bitmask over ``lam`` of the cuts a vertex with cut ``cur`` can
        move to without any per-vector count exceeding ``m_max``."""
        return reduce(and_, map(getitem, map(getitem, self._box, cur), self.counts))

    def _apply(self, v: Coord, target, rest):
        """Add the net edges turning v's cut into target.

        Returns (child_todo, undo_log), or None when the assignment would
        break the multiplicity cap or create a negative-sum vertex.
        """
        cuts = self.cuts
        counts = self.counts
        m = self.m_max
        cur = cuts[v]
        deltas = []
        for i, d in enumerate(map(sub, target, cur)):
            if d:
                ad = d if d > 0 else -d
                if counts[i] + ad > m:
                    self.stats.prunes_multiplicity += 1
                    return None
                deltas.append((i, d, ad))
        if not deltas:
            return None
        cols = self.cols
        if self.config.prune_negative_sum:
            colsums = self.colsums
            total = sum(v)
            for i, d, _ in deltas:
                if (total + colsums[i] if d > 0 else total - colsums[i]) < 0:
                    if tuple(map(add if d > 0 else sub, v, cols[i])) not in cuts:
                        self.stats.prunes_negative_sum += 1
                        return None

        edges = self.edges
        unit = self._unit
        rowset = self.rowset
        log = []
        appended = []
        # The edge vectors are pairwise non-parallel, so the neighbours are
        # distinct and none is v: a new vertex is in neither ``rest`` nor
        # ``appended``, and ``_undo`` may restore them in any order.
        for i, d, ad in deltas:
            if d > 0:
                w = tuple(map(add, v, cols[i]))
                key = (v, i)
            else:
                w = tuple(map(sub, v, cols[i]))
                key = (w, i)
            counts[i] += ad
            edges[key] = edges.get(key, 0) + ad
            old = cuts.get(w)
            if old is None:
                cuts[w] = new = unit[i][d]
                if new not in rowset:
                    appended.append(w)
            else:
                cl = list(old)
                cl[i] -= d
                cuts[w] = new = tuple(cl)
                if new not in rowset and w not in rest:
                    appended.append(w)
            log.append((key, ad, w, old))
        cuts[v] = target
        return [*rest, *appended], (v, cur, log)

    def _undo(self, undo) -> None:
        v, cur, log = undo
        edges = self.edges
        counts = self.counts
        cuts = self.cuts
        for key, ad, w, old in log:
            left = edges[key] - ad
            if left:
                edges[key] = left
            else:
                del edges[key]
            counts[key[1]] -= ad
            if old is None:
                del cuts[w]
            else:
                cuts[w] = old
        cuts[v] = cur

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
