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

The edge multiset is held in one form, a mapping (tail, vec_index) ->
count; the head of each key is determined.  Coordinates and vertex cuts
are plain integer tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from operator import add, mul, sub

from kirchgraph.exactalg import RowSystem, span_rank

Coord = tuple[int, ...]
EdgeKey = tuple[Coord, int]  # (tail, vec_index); head is determined


class Radix:
    """Integer tuples in the box lo <= x <= hi (entrywise) as single ints.

    ``pack`` is the dot product with the place values of the mixed radix
    whose digit d takes hi[d] - lo[d] + 1 values, most significant entry
    first.  So it is linear, and on the box it is one to one and int order
    is lex order; ``unpack`` inverts it there, digit by digit from lo.
    """

    def __init__(self, lo, hi):
        self.lo = tuple(lo)
        sizes = [z - a + 1 for a, z in zip(lo, hi)]
        self.place = tuple(prod(sizes[d + 1:]) for d in range(len(sizes)))
        self._origin = self.pack(self.lo)

    def pack(self, x) -> int:
        return sum(map(mul, x, self.place))

    def unpack(self, code: int) -> Coord:
        code -= self._origin  # every digit counted from its lo
        out = []
        for a, place in zip(self.lo, self.place):
            digit, code = divmod(code, place)
            out.append(a + digit)
        return tuple(out)


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


def _check_point(x: Coord, k: int, what: str) -> None:
    """Raise ValueError unless x is a point of the lattice Z^k.
    ``type(c) is int`` rejects floats such as 1.0 and bools, as
    ``parse_document`` does."""
    if len(x) != k:
        raise ValueError(f"{what} {x} has wrong dimension")
    if not all(type(c) is int for c in x):
        raise ValueError(f"{what} {x} is not an integer point")


class VectorGraph:
    """Immutable lattice multigraph with vector-labeled directed edges."""

    def __init__(self, system: RowSystem, edges=()):
        """``edges`` maps (tail, vec_index) to a count, or lists
        (tail, vec_index) or (tail, vec_index, count) tuples; counts of
        a repeated key add up and zero counts are dropped."""
        self.system = system
        counts: dict[EdgeKey, int] = {}
        if hasattr(edges, "items"):
            items = [(tuple(tail), idx, c) for (tail, idx), c in edges.items()]
        else:
            items = [(tuple(item[0]), item[1], item[2] if len(item) > 2 else 1) for item in edges]
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
        # one pass over every coordinate: a check per tail would cost
        # parse_document a function call per edge
        if not all(type(c) is int for tail, _ in counts for c in tail):
            bad = next(t for t, _ in counts if not all(type(c) is int for c in t))
            raise ValueError(f"vertex {bad} is not an integer point")
        self._edges = counts

    @classmethod
    def _built(cls, system: RowSystem, edges: dict, key=None, verdict=None) -> "VectorGraph":
        """The graph on ``edges``, a dict that this package built from the
        keys of valid graphs: tuple tails of dimension k, indices in range,
        positive counts.  It is used unchecked and uncopied.  ``key`` and
        ``verdict``, when given, are the canonical key and the Kirchhoff
        verdict that the builder proved; they are stored, not recomputed."""
        graph = cls.__new__(cls)
        graph.system = system
        graph._edges = edges
        if key is not None:
            graph._key = key
        if verdict is not None:
            graph._verdict = verdict
        return graph

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
        cached.  A graph that this package derived by a theorem (the
        enumerator's candidates, the sums and differences of ``tiling``,
        the parts of a primality witness) is built by ``_built`` carrying
        the verdict its builder proved.
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

        The fundamental cycle vectors come from potentials on a spanning
        forest, without walking a cycle: p(root) = 0 and p(w) = p(u) +/- e_i
        along each tree edge, so the cycle that closes edge (tail, i)
        through the forest has vector e_i + p(tail) - p(head).  It is zero
        on tree edges and on parallel copies of them.
        """
        n = self.system.n
        heads = self._heads
        adj: dict[Coord, list[tuple[Coord, int, int]]] = {v: [] for v in self.vertices}
        for key, head in heads.items():
            tail, idx = key
            adj[tail].append((head, idx, 1))
            adj[head].append((tail, idx, -1))
        potential: dict[Coord, list[int]] = {}
        for root in self.vertices:
            if root in potential:
                continue
            potential[root] = [0] * n
            stack = [root]
            while stack:
                u = stack.pop()
                for w, idx, sign in adj[u]:
                    if w not in potential:
                        p = potential[w] = potential[u].copy()
                        p[idx] += sign
                        stack.append(w)
        covered = set()
        for (tail, idx), head in heads.items():
            chi = list(map(sub, potential[tail], potential[head]))
            chi[idx] += 1
            covered.update(i for i, x in enumerate(chi) if x)
        return len(covered) == n

    # -- geometry ------------------------------------------------------

    def translate(self, offset: Coord) -> "VectorGraph":
        offset = tuple(offset)
        _check_point(offset, self.system.k, "offset")
        return VectorGraph(
            self.system,
            {(_add(tail, offset), idx): c for (tail, idx), c in self._edges.items()},
        )

    def canonical(self) -> "VectorGraph":
        """Translate so the lexicographically smallest vertex is the origin:
        the graph ``canonical_key()`` lists, carrying that key."""
        if self.is_empty or not any(self.vertices[0]):
            return self
        key = self._key
        return VectorGraph._built(self.system, dict(key), key)

    def canonical_key(self):
        """Hashable translation-invariant identity: the canonical edge list.

        Computed once and cached, like the verdict; a graph built by
        ``_built`` (the census, canonical and chiral copies) carries the key
        its builder already had.
        """
        return self._key

    @cached_property
    def _key(self):
        if self.is_empty:
            return ()
        low = self.vertices[0]
        return tuple(sorted(((tuple(map(sub, t, low)), i), c) for (t, i), c in self._edges.items()))

    def equals_up_to_translation(self, other: "VectorGraph") -> bool:
        if self.system.R != other.system.R:
            raise ValueError("graphs belong to different row systems")
        return self.canonical_key() == other.canonical_key()

    def chiral(self) -> "VectorGraph":
        """Point-reflect through the origin and reverse every edge.

        The image of edge (u, v, i) is (-v, -u, i), which preserves the
        geometric consistency invariant; the result is canonicalized,
        built from ``chiral_key()`` and carrying it.
        """
        key = self.chiral_key()
        return VectorGraph._built(self.system, dict(key), key)

    def chiral_key(self):
        """The canonical key of the chiral image, from this graph's edges.

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
