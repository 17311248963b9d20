"""Vector graphs on the integer lattice.

A vector graph is a finite multiset of directed edges, each labeled by
one of the system's edge vectors and embedded so that head - tail equals
that vector (column ``vec_index`` of R).  Vertices are exactly the edge
endpoints.  Graphs are immutable; all operations return new values.

Graph identity throughout this package is "equal up to lattice
translation": two graphs are the same iff translating each so its
lexicographically smallest vertex sits at the origin yields identical
edge multisets.  Rotations and reflections do *not* identify graphs;
in particular a graph and its chiral image may be distinct.

Coordinates, vertex cuts and cycle vectors are plain integer tuples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from operator import add, sub

from kirchgraph.exactalg import RowSystem, span_rank

Coord = tuple[int, ...]
EdgeKey = tuple[Coord, int]  # (tail, vec_index); head is determined
Step = tuple["EdgeInstance", int]  # (edge, +1 forward / -1 backward)


@dataclass(frozen=True)
class EdgeInstance:
    tail: Coord
    head: Coord
    vec_index: int


@dataclass(frozen=True)
class Multiplicity:
    counts: tuple[int, ...]
    uniform: bool
    m: int | None


@dataclass(frozen=True)
class KirchhoffVerdict:
    """Outcome of the two Kirchhoff conditions.

    status is one of "ok", "trivial", "bad_vertex",
    "cycle_space_deficient"; the remaining fields carry the offending
    vertex and cut or the rank shortfall.
    """

    status: str
    vertex: Coord | None = None
    cut: tuple[int, ...] | None = None
    rank_found: int | None = None
    rank_required: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _add(a: Coord, b: Coord) -> Coord:
    return tuple(x + y for x, y in zip(a, b))


def _neg(a: Coord) -> Coord:
    return tuple(-x for x in a)


class VectorGraph:
    """Immutable lattice multigraph with vector-labeled directed edges."""

    def __init__(self, system: RowSystem, edges=()):
        self.system = system
        cols = system.columns
        counts: dict[EdgeKey, int] = {}
        if hasattr(edges, "items"):
            items = [(tuple(tail), idx, c) for (tail, idx), c in edges.items()]
        else:
            items = []
            for item in edges:
                if isinstance(item, EdgeInstance):
                    expected = _add(item.tail, cols[item.vec_index])
                    if item.head != expected:
                        raise ValueError(
                            f"edge head {item.head} inconsistent with vector "
                            f"{item.vec_index} at tail {item.tail}"
                        )
                    items.append((item.tail, item.vec_index, 1))
                elif isinstance(item[0], EdgeInstance):
                    edge, count = item
                    items.append((edge.tail, edge.vec_index, count))
                elif len(item) == 2:
                    items.append((tuple(item[0]), item[1], 1))
                else:
                    items.append((tuple(item[0]), item[1], item[2]))
        for tail, idx, count in items:
            if not 0 <= idx < system.n:
                raise ValueError(f"vec_index {idx} out of range")
            if len(tail) != system.k:
                raise ValueError(f"vertex {tail} has wrong dimension")
            if count < 0:
                raise ValueError("negative edge count")
            if count:
                key = (tail, idx)
                counts[key] = counts.get(key, 0) + count
        self._edges = counts

    # -- basic structure --------------------------------------------

    @classmethod
    def empty(cls, system: RowSystem) -> "VectorGraph":
        return cls(system)

    @property
    def is_empty(self) -> bool:
        return not self._edges

    def edge_items(self) -> list[tuple[EdgeKey, int]]:
        """Edge multiset as ((tail, vec_index), count), sorted."""
        return sorted(self._edges.items())

    def edges(self) -> list[tuple[EdgeInstance, int]]:
        heads = self._heads
        return [
            (EdgeInstance(tail, heads[tail, idx], idx), count)
            for (tail, idx), count in self.edge_items()
        ]

    def total_edge_instances(self) -> int:
        return sum(self._edges.values())

    @cached_property
    def _heads(self) -> dict[EdgeKey, Coord]:
        """Head of every edge key, computed once and shared by the
        structural properties below."""
        cols = self.system.columns
        return {key: tuple(map(add, key[0], cols[key[1]])) for key in self._edges}

    @cached_property
    def vertices(self) -> tuple[Coord, ...]:
        seen = {tail for tail, _ in self._edges}
        seen.update(self._heads.values())
        return tuple(sorted(seen))

    def __contains__(self, edge: EdgeInstance) -> bool:
        return self._edges.get((edge.tail, edge.vec_index), 0) > 0

    def __eq__(self, other):
        return (
            isinstance(other, VectorGraph)
            and self.system.R == other.system.R
            and self._edges == other._edges
        )

    def __hash__(self):
        return hash((self.system.R, tuple(sorted(self._edges.items()))))

    def __repr__(self):
        return f"VectorGraph({len(self.vertices)}v, {self.total_edge_instances()}e)"

    # -- cuts and multiplicity --------------------------------------

    @cached_property
    def _cuts(self) -> dict[Coord, tuple[int, ...]]:
        n = self.system.n
        heads = self._heads
        cuts: dict[Coord, list[int]] = {v: [0] * n for v in self.vertices}
        for key, count in self._edges.items():
            tail, idx = key
            cuts[tail][idx] += count
            cuts[heads[key]][idx] -= count
        return {v: tuple(c) for v, c in cuts.items()}

    def vertex_cut(self, v: Coord) -> tuple[int, ...]:
        """Net exit count per edge vector at v (exits minus entries)."""
        v = tuple(v)
        if v not in self._cuts:
            raise KeyError(f"{v} is not a vertex of this graph")
        return self._cuts[v]

    def multiplicity(self) -> Multiplicity:
        counts = [0] * self.system.n
        for (_, idx), count in self._edges.items():
            counts[idx] += count
        uniform = len(set(counts)) == 1
        return Multiplicity(tuple(counts), uniform, counts[0] if uniform else None)

    # -- cycles -------------------------------------------------------
    #
    # ``cycle_basis`` and ``cycle_vector`` give the fundamental cycles as
    # closed walks; they are public API and the tests' reference.  The
    # Kirchhoff check needs no cycles at all (see ``is_kirchhoff``).

    @cached_property
    def _forest(self):
        """Deterministic BFS spanning forest: parent links plus tree keys."""
        heads = self._heads
        adj: dict[Coord, list[tuple[Coord, EdgeKey]]] = {v: [] for v in self.vertices}
        for key in sorted(self._edges):
            tail = key[0]
            head = heads[key]
            adj[tail].append((head, key))
            adj[head].append((tail, key))
        for lst in adj.values():
            lst.sort()
        parent: dict[Coord, tuple[Coord, EdgeKey] | None] = {}
        depth: dict[Coord, int] = {}
        tree_keys: set[EdgeKey] = set()
        for root in self.vertices:
            if root in parent:
                continue
            parent[root] = None
            depth[root] = 0
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w, key in adj[u]:
                    if w in parent:
                        continue
                    parent[w] = (u, key)
                    depth[w] = depth[u] + 1
                    tree_keys.add(key)
                    queue.append(w)
        return parent, depth, tree_keys

    def _step_to_parent(self, v: Coord) -> tuple[Step, Coord]:
        parent, _, _ = self._forest
        u, key = parent[v]
        tail, idx = key
        edge = EdgeInstance(tail, self._heads[key], idx)
        direction = 1 if tail == v else -1
        return (edge, direction), u

    def _tree_path(self, start: Coord, goal: Coord) -> list[Step]:
        """Walk start -> goal inside the spanning forest."""
        _, depth, _ = self._forest
        up_from_start: list[Step] = []
        up_from_goal: list[Step] = []
        a, b = start, goal
        while depth[a] > depth[b]:
            step, a = self._step_to_parent(a)
            up_from_start.append(step)
        while depth[b] > depth[a]:
            step, b = self._step_to_parent(b)
            up_from_goal.append(step)
        while a != b:
            step, a = self._step_to_parent(a)
            up_from_start.append(step)
            step, b = self._step_to_parent(b)
            up_from_goal.append(step)
        down_to_goal = [(edge, -d) for edge, d in reversed(up_from_goal)]
        return up_from_start + down_to_goal

    def cycle_basis(self) -> list[list[Step]]:
        """Fundamental cycles of the spanning forest, one per non-tree copy.

        Each cycle is a closed walk given as (edge, direction) steps; the
        walks span the cycle space of the underlying multigraph.  Extra
        parallel copies of a tree edge yield two-step cycles whose cycle
        vector is zero.
        """
        _, _, tree_keys = self._forest
        cycles = []
        for key, count in self.edge_items():
            surplus = count - (1 if key in tree_keys else 0)
            if surplus <= 0:
                continue
            tail, idx = key
            head = self._heads[key]
            edge = EdgeInstance(tail, head, idx)
            walk = [(edge, 1)] + self._tree_path(head, tail)
            cycles.extend([list(walk)] * surplus)
        return cycles

    def cycle_vector(self, walk: list[Step]) -> tuple[int, ...]:
        """Net signed traversal count per edge vector along a closed cycle.

        The walk must consist of edges of this graph, chain end to end,
        return to its start, and repeat no vertex other than first = last.
        """
        if not walk:
            raise ValueError("empty walk")
        visited = []
        pos = None
        for edge, direction in walk:
            if (edge.tail, edge.vec_index) not in self._edges:
                raise ValueError(f"edge {edge} not in graph")
            start, end = (edge.tail, edge.head) if direction == 1 else (edge.head, edge.tail)
            if pos is None:
                visited.append(start)
            elif start != pos:
                raise ValueError(f"walk breaks at {pos}: next step starts at {start}")
            visited.append(end)
            pos = end
        if visited[0] != visited[-1]:
            raise ValueError("walk is not closed")
        interior = visited[1:-1]
        if len(set(interior)) != len(interior) or visited[0] in interior:
            raise ValueError("walk repeats a vertex; not a cycle")
        chi = [0] * self.system.n
        for edge, direction in walk:
            chi[edge.vec_index] += direction
        return tuple(chi)

    # -- the Kirchhoff conditions ------------------------------------

    def is_kirchhoff(self) -> KirchhoffVerdict:
        """Check both conditions: every vertex cut in Row(R), and the
        cycle vectors spanning all of Null(R).

        Given the first, the second is a count.  Let phi send each edge
        to e_i, i its vector's index, and let S = phi(edge space), the
        span of the e_i whose vector occurs.  The edge space is the cycle
        space plus the span of the vertex stars, so S = phi(cycles) +
        span(cuts).  Every edge has head - tail = column i of R, so
        R chi = 0 for each closed walk: phi(cycles) lies in Null(R), the
        cuts lie in Row(R), and the two meet only in 0, so phi(cycles) is
        the intersection of S with Null(R).  No coordinate vanishes on
        all of Null(R) (no row of N = [C; -qI] is zero), so the cycle
        vectors span Null(R) iff every edge vector occurs.  Otherwise
        their rank is the dimension of that intersection: the number of
        vectors present minus the rank of their columns.

        The graph is immutable, so the verdict is computed once and
        cached.  Code that has established it otherwise (the enumerator's
        candidate check, the sum theorem in ``tiling.add``) stores it in
        ``_verdict`` up front.
        """
        return self._verdict

    @cached_property
    def _verdict(self) -> KirchhoffVerdict:
        if self.is_empty:
            return KirchhoffVerdict("trivial")
        sysm = self.system
        for v in self.vertices:
            cut = self._cuts[v]
            if not sysm.contains_in_row_space(cut):
                return KirchhoffVerdict("bad_vertex", vertex=v, cut=cut)
        present = sorted({idx for _, idx in self._edges})
        if len(present) == sysm.n:
            return KirchhoffVerdict("ok")
        rank = len(present) - span_rank([sysm.columns[i] for i in present])
        return KirchhoffVerdict(
            "cycle_space_deficient", rank_found=rank, rank_required=sysm.n - sysm.k
        )

    def is_vector_2_connected(self) -> bool:
        """True iff every pair of edge-vector indices is jointly hit by
        some cycle vector.

        Tested on the rational span of the fundamental cycle vectors: a
        subspace is never the union of two proper subspaces, so the pair
        (i, j) is covered iff some spanning vector is nonzero at i and
        some (possibly different) one is nonzero at j.
        """
        if self.system.n < 2:
            return True
        covered = set()
        for walk in self.cycle_basis():
            covered.update(i for i, x in enumerate(self.cycle_vector(walk)) if x)
        return len(covered) == self.system.n

    # -- geometry ------------------------------------------------------

    def translate(self, offset: Coord) -> "VectorGraph":
        offset = tuple(offset)
        return VectorGraph(
            self.system,
            {(_add(tail, offset), idx): c for (tail, idx), c in self._edges.items()},
        )

    def canonical(self) -> "VectorGraph":
        """Translate so the lexicographically smallest vertex is the origin."""
        if self.is_empty:
            return self
        shift = _neg(self.vertices[0])
        if all(x == 0 for x in shift):
            return self
        return self.translate(shift)

    def canonical_key(self):
        """Hashable translation-invariant identity: the canonical edge list.

        Computed once and cached, like the verdict; ``enumerate_kirchhoff``
        stores the key its search already built.
        """
        return self._key

    @cached_property
    def _key(self):
        if self.is_empty:
            return ()
        shift = _neg(self.vertices[0])
        return tuple(sorted(((_add(t, shift), i), c) for (t, i), c in self._edges.items()))

    def equals_up_to_translation(self, other: "VectorGraph") -> bool:
        if self.system.R != other.system.R:
            raise ValueError("graphs belong to different row systems")
        return self.canonical_key() == other.canonical_key()

    def chiral(self) -> "VectorGraph":
        """Point-reflect through the origin and reverse every edge.

        The image of edge (u, v, i) is (-v, -u, i), which preserves the
        geometric consistency invariant; the result is canonicalized.
        """
        heads = self._heads
        flipped = {(_neg(heads[key]), key[1]): c for key, c in self._edges.items()}
        return VectorGraph(self.system, flipped).canonical()

    def chiral_key(self):
        """``chiral().canonical_key()`` without building the image.

        Reflection sends the lexicographically greatest vertex ``top`` to
        the least one, so the canonical image of edge (u, v, i) has its
        tail at top - v.
        """
        if self.is_empty:
            return ()
        top = self.vertices[-1]
        heads = self._heads
        return tuple(
            sorted(((tuple(map(sub, top, heads[key])), key[1]), c) for key, c in self._edges.items())
        )

    def is_self_chiral(self) -> bool:
        return self.canonical_key() == self.chiral_key()

    def bounding_box(self) -> tuple[Coord, Coord]:
        """(min corner, max corner) over all vertices."""
        if self.is_empty:
            raise ValueError("empty graph has no bounding box")
        k = self.system.k
        los = tuple(min(v[i] for v in self.vertices) for i in range(k))
        his = tuple(max(v[i] for v in self.vertices) for i in range(k))
        return los, his
