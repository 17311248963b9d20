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

Parallel search.  The anchor cuts root disjoint subtrees, so with
``workers`` > 1 a pool of processes, each holding its own ``Search``,
takes them one task at a time, in list order, and the parent merges the
packed keys and the counters.  The subtrees are far from even (two of the
triangle m = 4 anchors hold 21,253 of its 23,635 nodes), so a free worker
taking the next cut keeps both busy where a fixed split would not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, getitem

from kirchgraph.exactalg import RowSystem, enumerate_bounded_cuts
from kirchgraph.vgraph import KirchhoffVerdict, Radix, VectorGraph


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

    ``cuts`` maps each vertex of the partial graph to its accumulated cut
    and ``counts`` holds the per-vector edge totals; vertices and cuts
    are packed ints (``vertex`` and ``cut`` pack and unpack them, see the
    module docstring).  ``_apply`` performs one cut assignment and pushes it,
    ``_undo`` takes the last one back, ``_visit`` drives the recursion and
    ``run`` iterates anchor cuts (``anchor_cuts``, packed).  Useful
    directly when a test wants to poke one assignment at a time;
    ``enumerate_kirchhoff`` is the high-level entry point.

    Moving vertex v from cut ``cur`` to target t adds |t_i - cur_i| copies
    of vector i, so the targets within the multiplicity cap form a box:
    |t_i - cur_i| <= m_max - counts[i] for every i.  ``_box[i][c][k]`` is
    the bitmask over ``lam`` (bit j for ``lam[j]``) of the cuts t with
    |t_i - c| <= m_max - k; ``_box_mask`` ANDs one entry per vector, so
    ``_visit`` hands ``_apply`` only the cuts inside the box, in list
    order, and ``_apply`` relies on that.

    Three tables fill on first use, since a search meets few of the cuts
    and vertices its bounds allow: per live cut its ``_box`` row, per
    (cut, target) pair the steps of the move (``_steps``), and per vertex
    (or difference of two) its coordinates, which the negative-sum prune
    and ``unpack_key`` read.
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
        self.cut = Radix((-m,) * n, (m,) * n)
        self._step = [self.vertex.pack(col) for col in sys.columns]
        self._colsums = [sum(col) for col in sys.columns]
        self._targets = [self.cut.pack(t) for t in self.lam]
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

        self._box = []
        for i in range(n):
            at = dict.fromkeys(span, 0)  # the cuts with t_i == x
            for j, t in enumerate(self.lam):
                at[t[i]] |= 1 << j
            self._box.append(by_value([
                [sum(at[x] for x in span if abs(x - c) <= m - k) for k in range(m + 1)]
                for c in span
            ]))
        self._rows: dict[int, tuple] = {}
        self._moves: dict[int, dict[int, tuple]] = {}
        self._coords: dict[int, tuple] = {}
        self.stats = SearchStats()
        self.found: set[tuple] = set()  # packed canonical keys, see _emit
        # mutable search state
        self.cuts: dict[int, int] = {}
        self.counts = [0] * n
        self._applied: list[tuple] = []

    def run(self, anchor_indices) -> None:
        for li in anchor_indices:
            if not self.stats.complete:
                break
            self.cuts = {0: 0}  # the anchor: the origin, zero cut
            self.counts = [0] * self.n
            child = self._apply(0, self.anchor_cuts[li], ())
            if child is None:
                continue
            self._visit(child)
            self._undo()

    @property
    def edges(self) -> dict[int, int]:
        """The partial edge multiset, (tail, i) packed as tail * n + i."""
        n = self.n
        edges: dict[int, int] = {}
        for v, _, steps, _ in self._applied:
            base = v * n
            for _, ad, _, _, _, key in steps:
                key += base
                edges[key] = edges.get(key, 0) + ad
        return edges

    # -- search core --------------------------------------------------

    def _visit(self, todo) -> None:
        stats = self.stats
        stats.nodes_expanded += 1
        limit = self.config.node_limit
        if limit is not None and stats.nodes_expanded > limit:
            stats.complete = False
            return
        if not todo:
            self._emit()
            return
        v = todo[0]
        rest = todo[1:]
        targets = self._targets
        mask = self._box_mask(self.cuts[v])
        # A live cut is not in lam, so every cut outside the box is a move
        # that would break the multiplicity cap.
        stats.prunes_multiplicity += len(targets) - mask.bit_count()
        while mask:
            low = mask & -mask
            mask ^= low
            j = low.bit_length() - 1
            child = self._apply(v, targets[j], rest)
            if child is None:
                continue
            self._visit(child)
            self._undo()
            if not stats.complete:
                # a truncated search never tries the cuts after lam[j]
                stats.prunes_multiplicity -= len(targets) - 1 - j - mask.bit_count()
                return

    def _box_mask(self, cur: int) -> int:
        """Bitmask over ``lam`` of the cuts a vertex with cut ``cur`` can
        move to without any per-vector count exceeding ``m_max``."""
        row = self._rows.get(cur)
        if row is None:
            row = self._rows[cur] = tuple(map(getitem, self._box, self.cut.unpack(cur)))
        return reduce(and_, map(getitem, row, self.counts))

    def _steps(self, cur: int, target: int) -> tuple:
        """The steps that move a vertex's cut from ``cur`` to ``target``:
        one (i, |d|, step, dsum, dcut, key) per vector i with
        d = target_i - cur_i != 0.  The move adds |d| copies of vector i
        between v and its neighbour w = v + step; w's coordinate sum is
        v's plus dsum, w's cut loses dcut (the packed d e_i), and the
        copies' edge key is v * n + key."""
        n = self.n
        steps = []
        for i, (c, t) in enumerate(zip(self.cut.unpack(cur), self.cut.unpack(target))):
            d = t - c
            if d > 0:  # copies leave v
                steps.append((i, d, self._step[i], self._colsums[i], d * self.cut.place[i], i))
            elif d < 0:  # copies enter v, with their tail at w
                step = -self._step[i]
                steps.append((i, -d, step, -self._colsums[i], d * self.cut.place[i], step * n + i))
        return tuple(steps)

    def _apply(self, v: int, target: int, rest):
        """Add the net edges turning v's cut into ``target``; ``rest`` is
        the rest of v's to-do list.

        ``target`` must differ from v's cut and keep every count within
        ``m_max``: ``_visit`` takes it from v's ``_box_mask``, which lacks
        v's live cut (not in ``lam``), and ``run`` moves an anchor at zero
        counts and cut to a nonzero cut of ``lam`` (entries <= m_max).

        Returns the child to-do list: ``rest`` less the vertices this move
        satisfied, then the ones it made live, so a to-do list holds only
        live vertices.  Returns None when the assignment would create a
        negative-sum vertex.  An assignment made is kept for ``_undo``.
        """
        cuts = self.cuts
        cur = cuts[v]
        moves = self._moves.get(cur)
        if moves is None:
            moves = self._moves[cur] = {}
        steps = moves.get(target)
        if steps is None:
            steps = moves[target] = self._steps(cur, target)
        if self.config.prune_negative_sum:
            x = self._coords.get(v)
            if x is None:
                x = self._coords[v] = self.vertex.unpack(v)
            total = sum(x)
            for _, _, step, dsum, _, _ in steps:
                if total + dsum < 0 and v + step not in cuts:
                    self.stats.prunes_negative_sum += 1
                    return None

        rowset = self.rowset
        counts = self.counts
        olds = []
        appended = []
        done = []
        # The edge vectors are pairwise non-parallel, so the neighbours are
        # distinct and none is v: each is touched once, a new vertex is in
        # neither ``rest`` nor ``appended``, and ``_undo`` may restore them
        # in any order.
        for i, ad, step, _, dcut, _ in steps:
            w = v + step
            counts[i] += ad
            old = cuts.get(w)
            if old is None:
                cuts[w] = new = -dcut
                if new not in rowset:
                    appended.append(w)
            else:
                cuts[w] = new = old - dcut
                if new in rowset:
                    done.append(w)
                elif w not in rest:
                    appended.append(w)
            olds.append(old)
        cuts[v] = target
        self._applied.append((v, cur, steps, olds))
        if done:
            rest = [w for w in rest if w not in done]
        return [*rest, *appended]

    def _undo(self) -> None:
        """Take back the last assignment ``_apply`` made."""
        v, cur, steps, olds = self._applied.pop()
        counts = self.counts
        cuts = self.cuts
        for (i, ad, step, _, _, _), old in zip(steps, olds):
            counts[i] -= ad
            if old is None:
                del cuts[v + step]
            else:
                cuts[v + step] = old
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
        n = self.n
        coords = self._coords
        items = []
        for code, c in packed:
            tail, i = divmod(code, n)
            x = coords.get(tail)
            if x is None:
                x = coords[tail] = self.vertex.unpack(tail)
            items.append(((x, i), c))
        return tuple(items)


# -- the worker pool --------------------------------------------------------
#
# Each pool worker holds one Search in ``_worker``, built by the pool's
# initializer in the worker process, and searches one anchor cut per task.
# It builds that state from the pickled system and config, so every start
# method gives the same result; the package starts no thread, so ``fork``
# (the Linux default up to Python 3.13) is safe, and it costs far less than
# ``spawn``, which adds about 0.16 s to a two-worker triangle m = 4 run.

_worker: Search | None = None


def _start_worker(sys: RowSystem, config: SearchConfig) -> None:
    global _worker
    _worker = Search(sys, config)


def _search_anchor(li: int) -> tuple[set, SearchStats]:
    """The packed keys and the counters of the search from anchor cut
    ``li`` alone."""
    _worker.found = set()
    _worker.stats = SearchStats()
    _worker.run([li])
    return _worker.found, _worker.stats


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

    With ``workers`` > 1 a pool of that many processes takes the anchor
    cuts one per task, in list order, whichever worker is free taking the
    next, and this process merges the packed keys and the counters each
    task returns.  Graphs, their order and every counter are the same for
    every worker count.  A search with a node limit runs in this process
    whatever ``workers`` says, so it truncates at the same node of the
    serial order, and ``multiprocessing`` is imported only for a pool.
    """
    searcher = Search(sys, config)
    indices = range(len(searcher.anchor_cuts))
    if config.workers == 1 or len(indices) <= 1 or config.node_limit is not None:
        searcher.run(indices)
    else:
        import multiprocessing

        with multiprocessing.Pool(config.workers, _start_worker, (sys, config)) as pool:
            for found, stats in pool.imap_unordered(_search_anchor, indices, chunksize=1):
                searcher.found |= found
                searcher.stats.merge(stats)
    # the module docstring proves every emitted graph Kirchhoff
    ok = KirchhoffVerdict("ok")
    graphs = [
        VectorGraph._built(sys, dict(key), key, ok)
        for key in map(searcher.unpack_key, sorted(searcher.found))
    ]
    stats = searcher.stats
    stats.graphs_found = len(graphs)
    return graphs, stats


def min_multiplicity(sys: RowSystem, m_limit: int, **config_kwargs) -> int | None:
    """Smallest m <= m_limit with a nonempty enumeration, or None.  Each
    m's search stops at the first anchor cut that yields a graph."""
    if m_limit < 1:
        raise ValueError("m_limit must be >= 1")
    for m in range(1, m_limit + 1):
        searcher = Search(sys, SearchConfig(m_max=m, **config_kwargs))
        for i in range(len(searcher.anchor_cuts)):
            searcher.run([i])
            if searcher.found:
                return m
            if not searcher.stats.complete:
                raise RuntimeError("search truncated before reaching a conclusion")
    return None
