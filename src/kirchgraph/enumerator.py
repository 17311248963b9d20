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
so tests can probe that empirically.  The anchor's sum is 0 and the
prune keeps every vertex's sum >= 0, so a step to a negative sum always
makes a new vertex: the targets the prune rules out depend only on the
moving vertex's cut and sum, and ``Search`` drops them as one bitmask.

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

Packed state.  Inside the search a vertex and a cut are each one int,
packed by ``vgraph.Radix``, the codec the span search in ``tiling``
shares.  Let L = n * m_max * max|column entry|.  A vertex x packs over
the box [-L, L]^k to sum(x[d] * B**(k-1-d)) with B = 2L + 1, most
significant coordinate first.  Every coordinate the search meets
lies in [-L, L], and so does every coordinate difference of two vertices
of one partial graph: the graph grows from the anchor by adding edges
at vertices it already has, so it is connected, and it holds at most
n * m_max edge copies, so a path of at most n * m_max edges, each moving
a coordinate by at most max|column entry|, joins any two of its
vertices, the anchor at the origin included.  On that box packing is
linear and one to one, int order is lex order, and the neighbour of v
along vector i is v + step[i] or v - step[i].  A cut packs the same way,
over the box [-m_max, m_max]^n: a live cut entry is a net count of
copies of one vector, at most counts[i] <= m_max in size, so changing a
vertex's cut by d e_i subtracts d * place[i].  ``Search._emit`` keeps
each graph's canonical key packed, and ``Search.unpack_key`` unpacks it
once per distinct graph.
"""

from __future__ import annotations

# kept for SearchConfig, which callers copy with dataclasses.replace, and the mutable SearchStats
from dataclasses import dataclass
from functools import partial, reduce
from operator import and_, getitem

from kirchgraph.exactalg import RowSystem, _Filled, enumerate_bounded_cuts
from kirchgraph.vgraph import KirchhoffVerdict, Radix, VectorGraph


@dataclass(frozen=True)
class SearchConfig:
    """Bounds and toggles for one enumeration run.  ``workers`` (>= 1) is
    accepted and ignored: the search runs in one process."""

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


class _NodeLimit(Exception):
    """Raised past ``SearchConfig.node_limit``; ``Search.run`` catches it."""


class Search:
    """Incremental search state: the partial graph plus its to-do list.

    ``cuts`` maps each vertex of the partial graph to its accumulated cut
    and ``counts`` holds the per-vector edge totals; vertices and cuts
    are packed ints (``vertex`` and ``cut`` pack and unpack them, see the
    module docstring).  ``_apply`` performs one cut assignment and pushes it,
    ``_undo`` takes the last one back, ``_visit`` drives the recursion and
    ``run`` visits the root, whose targets are anchor cuts.  Useful
    directly when a test wants to poke one assignment at a time;
    ``enumerate_kirchhoff`` is the high-level entry point.  A node is
    counted by its parent, with all of its prunes, right after the move
    that makes it, so the counters only grow as the search goes on; the
    parent emits a leaf in place and calls ``_visit`` only for a node
    with a target left to try.

    Moving vertex v from cut ``cur`` to target t adds |t_i - cur_i| copies
    of vector i, so the targets within the multiplicity cap form a box:
    |t_i - cur_i| <= m_max - counts[i] for every i.  ``box[i][c][k]`` is
    the bitmask over ``lam`` (bit j for ``lam[j]``) of the cuts t with
    |t_i - c| <= m_max - k; ``_box_mask`` ANDs one entry per vector, so
    ``_visit`` hands ``_apply`` only the cuts inside the box, in list
    order, and ``_apply`` relies on that.  ``_negative[cur, total]`` masks
    the targets whose move steps from a vertex of cut ``cur`` and sum
    ``total`` to a negative sum; they leave the box too.

    The box rows of a cut, the negative-sum targets, the steps of a move
    and a vertex's coordinates and sum are ``exactalg._Filled`` tables,
    since a search meets few of the cuts and vertices its bounds allow.
    """

    def __init__(self, sys: RowSystem, config: SearchConfig):
        self.sys = sys
        self.config = config
        self.n = n = sys.n
        m = config.m_max
        self.lam = enumerate_bounded_cuts(sys, m)
        # the boxes are proved in the module docstring
        L = n * m * max(abs(x) for col in sys.columns for x in col)
        self.vertex = Radix((-L,) * sys.k, (L,) * sys.k)
        self.cut = cut = Radix((-m,) * n, (m,) * n)
        self._targets = [cut.pack(t) for t in self.lam]
        # The zero cut stays on the assignment list: assigning it to a
        # pending vertex adds the net edges that cancel the cut accumulated
        # there, which is how pass-through vertices (nonzero degree, zero
        # cut) get built.  Only the anchor skips it, since a zero anchor
        # cut stalls on the empty graph.
        self.anchor_cuts = [c for c in self._targets if c]
        self.rowset = frozenset(self._targets)
        # Cut entries, live cut entries (|cur_i| <= counts[i]) and steps d
        # all lie in [-m, m].  A table over that range keeps the entry for
        # x at x mod (2m + 1), so x indexes it directly.
        span = range(-m, m + 1)

        def by_value(entries):
            return entries[m:] + entries[:m]

        box = []
        sides = []  # per vector: (the cuts with t_i < c, those with t_i > c)
        for i in range(n):
            at = dict.fromkeys(span, 0)  # the cuts with t_i == x
            for j, t in enumerate(self.lam):
                at[t[i]] |= 1 << j
            box.append(by_value([
                [sum(at[x] for x in span if abs(x - c) <= m - k) for k in range(m + 1)]
                for c in span
            ]))
            sides.append(by_value([
                (sum(at[x] for x in span if x < c), sum(at[x] for x in span if x > c))
                for c in span
            ]))
        vsteps = [self.vertex.pack(col) for col in sys.columns]
        colsums = [sum(col) for col in sys.columns]
        # only a vertex of sum below max|column sum| can step to a negative
        # sum; with the prune off, no vertex sum is below -kL
        self._low_sum = max(map(abs, colsums)) if config.prune_negative_sum else -sys.k * L

        def steps(cur: int, target: int) -> tuple:
            """The steps that move a vertex's cut from ``cur`` to ``target``:
            one (i, |d|, step, dcut) per vector i with
            d = target_i - cur_i != 0.  The move adds |d| copies of vector
            i between v and its neighbour w = v + step, leaving v if d > 0
            and entering it if d < 0, and w's cut loses dcut (the packed
            d e_i, of the sign of d)."""
            out = []
            for i, (c, t) in enumerate(zip(cut.unpack(cur), cut.unpack(target))):
                d = t - c
                if d > 0:  # copies leave v
                    out.append((i, d, vsteps[i], d * cut.place[i]))
                elif d < 0:  # copies enter v, with their tail at w
                    out.append((i, -d, -vsteps[i], d * cut.place[i]))
            return tuple(out)

        def negative(key) -> int:
            cur, total = key
            mask = 0
            for (below, above), colsum in zip(map(getitem, sides, cut.unpack(cur)), colsums):
                if total + colsum < 0:  # targets with t_i > c step along +column i
                    mask |= above
                if total - colsum < 0:
                    mask |= below
            return mask

        # the fills hold no reference to the search, so no cycle outlives it
        self._rows = _Filled(lambda cur: tuple(map(getitem, box, cut.unpack(cur))))
        self._negative = _Filled(negative)
        self._moves = _Filled(lambda cur: _Filled(partial(steps, cur)))
        self._coords = coords = _Filled(self.vertex.unpack)
        self._sums = _Filled(lambda v: sum(coords[v]))
        self.stats = SearchStats()
        self.found: set[tuple] = set()  # packed canonical keys, see _emit
        # mutable search state, which ``_undo`` restores after each anchor
        self.cuts = {0: 0}  # the anchor: the origin, zero cut
        self.counts = [0] * n
        self._applied: list[tuple] = []

    def run(self, anchor_indices) -> None:
        """Search the subtrees of the anchor cuts ``anchor_indices`` (into
        ``anchor_cuts``).  The root, the anchor at zero cut and sum, has
        all of ``lam`` in its box and takes its tasks' cuts in list order,
        as any node takes its targets.  The node past ``config.node_limit``
        is counted and unwinds the search, which sets ``stats.complete``
        False and is spent: its partial graph stays as the limit left it."""
        targets = self._targets
        mask = 0
        for li in anchor_indices:
            mask |= 1 << targets.index(self.anchor_cuts[li])
        pruned = mask & self._negative[0, 0] if 0 < self._low_sum else 0
        self.stats.prunes_negative_sum += pruned.bit_count()
        try:
            self._visit(0, (), mask ^ pruned)
        except _NodeLimit:
            self.stats.complete = False

    @property
    def edges(self) -> dict[int, int]:
        """The partial edge multiset, (tail, i) packed as tail * n + i."""
        n = self.n
        edges: dict[int, int] = {}
        for v, _, steps, _ in self._applied:
            for i, ad, step, dcut in steps:
                key = (v if dcut > 0 else v + step) * n + i
                edges[key] = edges.get(key, 0) + ad
        return edges

    # -- search core --------------------------------------------------

    def _visit(self, v: int, rest, mask: int) -> None:
        """Move the front vertex v, to-do list ``rest`` after it, to each
        target of ``mask`` in list order; count, emit or expand each child."""
        stats = self.stats
        limit = self.config.node_limit
        targets = self._targets
        size = len(targets)
        cuts = self.cuts
        sums = self._sums
        low_sum = self._low_sum
        while mask:
            low = mask & -mask
            mask ^= low
            child = self._apply(v, targets[low.bit_length() - 1], rest)
            stats.nodes_expanded += 1
            if limit is not None and stats.nodes_expanded > limit:
                raise _NodeLimit
            if not child:
                self._emit()
            else:
                w = child[0]
                cur = cuts[w]
                cbox = self._box_mask(cur)
                total = sums[w]
                cpruned = cbox & self._negative[cur, total] if total < low_sum else 0
                # A live cut is not in lam, so every cut outside the box is
                # a move that would break the multiplicity cap.
                stats.prunes_multiplicity += size - cbox.bit_count()
                stats.prunes_negative_sum += cpruned.bit_count()
                if cbox != cpruned:
                    self._visit(w, child[1:], cbox ^ cpruned)
            self._undo()

    def _box_mask(self, cur: int) -> int:
        """Bitmask over ``lam`` of the cuts a vertex with cut ``cur`` can
        move to without any per-vector count exceeding ``m_max``."""
        return reduce(and_, map(getitem, self._rows[cur], self.counts))

    def _apply(self, v: int, target: int, rest) -> list:
        """Add the net edges turning v's cut into ``target``; ``rest`` is
        the rest of v's to-do list.

        ``target`` must differ from v's cut and keep every count within
        ``m_max``: ``_visit`` takes it from v's ``_box_mask``, which lacks
        v's live cut (not in ``lam``), and ``run`` has the anchor, at zero
        counts and cut, take a nonzero cut of ``lam`` (entries <= m_max).

        Returns the child to-do list: ``rest`` less the vertices this move
        satisfied, then the ones it made live, so a to-do list holds only
        live vertices.  The move is kept for ``_undo``.
        """
        cuts = self.cuts
        cur = cuts[v]
        steps = self._moves[cur][target]
        rowset = self.rowset
        counts = self.counts
        made = []
        appended = []
        done = []
        # The edge vectors are pairwise non-parallel, so the neighbours are
        # distinct and none is v: each is touched once, a new vertex is in
        # neither ``rest`` nor ``appended``, and ``_undo`` may restore them
        # in any order.
        for i, ad, step, dcut in steps:
            w = v + step
            counts[i] += ad
            old = cuts.get(w)
            if old is None:
                cuts[w] = new = -dcut
                made.append(w)
                if new not in rowset:
                    appended.append(w)
            else:
                cuts[w] = new = old - dcut
                if new in rowset:
                    done.append(w)
                elif w not in rest:
                    appended.append(w)
        cuts[v] = target
        self._applied.append((v, cur, steps, made))
        if done:
            rest = [w for w in rest if w not in done]
        return [*rest, *appended]

    def _undo(self) -> None:
        """Take back the last assignment ``_apply`` made."""
        v, cur, steps, made = self._applied.pop()
        counts = self.counts
        cuts = self.cuts
        for i, ad, step, dcut in steps:
            counts[i] -= ad
            cuts[v + step] += dcut
        for w in made:
            del cuts[w]
        cuts[v] = cur

    # -- candidate handling -------------------------------------------

    def _emit(self) -> None:
        self.stats.candidates += 1
        if len(set(self.counts)) != 1:
            return
        # The vertices in ``cuts`` are exactly the graph's vertices, so
        # shifting every tail by the least gives the graph's canonical key,
        # kept packed: (tail - least) * n + i per edge key.  A difference of
        # two vertices packs exactly and int order is lex order, so sorted
        # packed keys unpack (``unpack_key``) in the order of the sorted
        # tuple keys.
        shift = min(self.cuts) * self.n
        self.found.add(tuple(sorted((code - shift, c) for code, c in self.edges.items())))

    def unpack_key(self, packed: tuple) -> tuple:
        """The canonical key ``((tail, i), count), ...`` that ``_emit``
        stored packed."""
        n, coords = self.n, self._coords
        return tuple(((coords[code // n], code % n), c) for code, c in packed)


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

    The search runs in this process; ``config.workers`` changes nothing.
    """
    searcher = Search(sys, config)
    searcher.run(range(len(searcher.anchor_cuts)))
    # the module docstring proves every emitted graph Kirchhoff
    ok = KirchhoffVerdict("ok")
    graphs = [
        VectorGraph._built(sys, dict(key), key, ok)
        for key in map(searcher.unpack_key, sorted(searcher.found))
    ]
    stats = searcher.stats
    stats.graphs_found = len(graphs)
    return graphs, stats


def min_multiplicity(sys: RowSystem, m_limit: int) -> int | None:
    """Smallest m <= m_limit with a nonempty enumeration, or None.  Each
    m's search stops at the first anchor cut that yields a graph."""
    if m_limit < 1:
        raise ValueError("m_limit must be >= 1")
    for m in range(1, m_limit + 1):
        searcher = Search(sys, SearchConfig(m_max=m))
        for i in range(len(searcher.anchor_cuts)):
            searcher.run([i])
            if searcher.found:
                return m
    return None
