"""Independent brute-force oracles shared by the unit and acceptance suites.

Each oracle deliberately avoids the code path it checks: row reduction
is Gauss-Jordan in Fractions rather than the integer echelon; cut
enumeration scans the full integer box, graph enumeration scans all edge
multisets in a lattice window (connected uniform graphs: one tail
multiset per vector), primality scans every bipartition of the edge
multiset, translation keys recompute every endpoint from the edge
multiset, and cycle vectors are read off closed walks through a spanning
forest built from those recomputed endpoints.
"""

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from kirchgraph.vgraph import VectorGraph


def fraction_rref(M):
    """``(reduced_rows, pivot_columns, rank)`` of the nonempty matrix
    ``M``, given as rows of ints or Fractions, by Gauss-Jordan
    elimination in Fractions: the reference for ``exactalg.rref``."""
    work = [[Fraction(x) for x in row] for row in M]
    nrows, ncols = len(work), len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = 1 / work[r][c]
        work[r] = [x * inv for x in work[r]]
        for i in range(nrows):
            if i != r and work[i][c] != 0:
                factor = work[i][c]
                work[i] = [a - factor * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(map(tuple, work)), tuple(pivots), len(pivots)


def solve_membership(rows, x):
    """Row-space membership via a direct rational solve:
    ``fraction_rref([rows^T | x])`` is consistent iff the augmented
    column is not a pivot."""
    k, n = len(rows), len(rows[0])
    aug = [[rows[i][j] for i in range(k)] + [x[j]] for j in range(n)]
    _, pivots, _ = fraction_rref(aug)
    return k not in pivots


def brute_force_cuts(sys, bound):
    """All integer row-space vectors in the box, by full scan."""
    return sorted(
        v
        for v in product(range(-bound, bound + 1), repeat=sys.n)
        if solve_membership(sys.R, v)
    )


def translation_keys(graph):
    """(canonical key, chiral key) of a graph from its edge multiset alone.

    The canonical key shifts the lexicographically least endpoint to the
    origin and sorts the ((tail, vec_index), count) items; the chiral key
    is the canonical key of the image that sends each edge (u, v, i) to
    (-v, -u, i).
    """
    cols = graph.system.columns

    def key(items):
        if not items:
            return ()
        ends = [t for (t, _), _ in items]
        ends += [tuple(a + b for a, b in zip(t, cols[i])) for (t, i), _ in items]
        low = min(ends)
        return tuple(sorted(((tuple(a - b for a, b in zip(t, low)), i), c) for (t, i), c in items))

    items = graph.edge_items()
    reflected = [((tuple(-(a + b) for a, b in zip(t, cols[i])), i), c) for (t, i), c in items]
    return key(items), key(reflected)


@dataclass(frozen=True)
class EdgeInstance:
    tail: tuple
    head: tuple
    vec_index: int


Step = tuple[EdgeInstance, int]  # (edge, +1 forward / -1 backward)


def _instance(graph, key):
    tail, idx = key
    return EdgeInstance(tail, tuple(a + b for a, b in zip(tail, graph.system.columns[idx])), idx)


def _forest(graph):
    """Deterministic BFS spanning forest: parent links, depths, tree keys."""
    instances = [_instance(graph, key) for key, _ in graph.edge_items()]
    vertices = sorted({e.tail for e in instances} | {e.head for e in instances})
    adj = {v: [] for v in vertices}
    for edge in instances:
        adj[edge.tail].append((edge.head, edge))
        adj[edge.head].append((edge.tail, edge))
    for lst in adj.values():
        lst.sort(key=lambda item: (item[0], item[1].tail, item[1].vec_index))
    parent, depth, tree_keys = {}, {}, set()
    for root in vertices:
        if root in parent:
            continue
        parent[root] = None
        depth[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w, edge in adj[u]:
                if w in parent:
                    continue
                parent[w] = (u, edge)
                depth[w] = depth[u] + 1
                tree_keys.add((edge.tail, edge.vec_index))
                queue.append(w)
    return parent, depth, tree_keys


def _step_to_parent(forest, v) -> tuple[Step, tuple]:
    parent, _, _ = forest
    u, edge = parent[v]
    return (edge, 1 if edge.tail == v else -1), u


def _tree_path(forest, start, goal) -> list[Step]:
    """Walk start -> goal inside the spanning forest."""
    _, depth, _ = forest
    up_from_start: list[Step] = []
    up_from_goal: list[Step] = []
    a, b = start, goal
    while depth[a] > depth[b]:
        step, a = _step_to_parent(forest, a)
        up_from_start.append(step)
    while depth[b] > depth[a]:
        step, b = _step_to_parent(forest, b)
        up_from_goal.append(step)
    while a != b:
        step, a = _step_to_parent(forest, a)
        up_from_start.append(step)
        step, b = _step_to_parent(forest, b)
        up_from_goal.append(step)
    down_to_goal = [(edge, -d) for edge, d in reversed(up_from_goal)]
    return up_from_start + down_to_goal


def cycle_basis(graph) -> list[list[Step]]:
    """Fundamental cycles of the spanning forest, one per non-tree copy.

    Each cycle is a closed walk given as (edge, direction) steps; the
    walks span the cycle space of the underlying multigraph.  Extra
    parallel copies of a tree edge yield two-step cycles whose cycle
    vector is zero.
    """
    forest = _forest(graph)
    tree_keys = forest[2]
    cycles = []
    for key, count in graph.edge_items():
        surplus = count - (1 if key in tree_keys else 0)
        if surplus <= 0:
            continue
        edge = _instance(graph, key)
        walk = [(edge, 1)] + _tree_path(forest, edge.head, edge.tail)
        cycles.extend([list(walk)] * surplus)
    return cycles


def cycle_vector(graph, walk: list[Step]) -> tuple[int, ...]:
    """Net signed traversal count per edge vector along a closed cycle.

    The walk must consist of edges of the graph, chain end to end,
    return to its start, and repeat no vertex other than first = last.
    """
    if not walk:
        raise ValueError("empty walk")
    present = {key for key, _ in graph.edge_items()}
    visited = []
    pos = None
    for edge, direction in walk:
        if (edge.tail, edge.vec_index) not in present:
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
    chi = [0] * graph.system.n
    for edge, direction in walk:
        chi[edge.vec_index] += direction
    return tuple(chi)


def window_instances(sys, window):
    """Edge instances with both endpoints inside the vertex window."""
    wset = set(window)
    out = []
    for v in sorted(wset):
        for i, col in enumerate(sys.columns):
            if tuple(a + b for a, b in zip(v, col)) in wset:
                out.append((v, i))
    return out


def brute_force_kirchhoff_graphs(sys, m_max, window):
    """Canonical keys of every nonempty uniform Kirchhoff graph whose
    vertices fit in the window, by scanning all edge multisets."""
    instances = window_instances(sys, window)
    found = {}
    for counts in product(range(m_max + 1), repeat=len(instances)):
        if not any(counts):
            continue
        per_vec = [0] * sys.n
        for (v, i), c in zip(instances, counts):
            per_vec[i] += c
        if any(c > m_max for c in per_vec):
            continue
        g = VectorGraph(sys, {inst: c for inst, c in zip(instances, counts) if c})
        key = g.canonical_key()
        if key in found:
            continue
        if g.is_kirchhoff().ok and g.multiplicity().uniform:
            found[key] = g
    return found


def connected_kirchhoff_scan(sys, m_max, window):
    """Canonical keys of every connected uniform Kirchhoff graph with
    multiplicity at most ``m_max`` whose vertices fit in the window.

    A uniform graph of multiplicity m places each vector's m copies at a
    multiset of tails, so the scan runs over one tail multiset per vector.
    A choice survives only if every vertex cut lies in the row space (a
    direct rational solve, memoized per cut) and its edges connect every
    vertex; only then is a VectorGraph built and checked.
    """
    from itertools import combinations_with_replacement

    instances = window_instances(sys, window)
    tails = [[v for v, j in instances if j == i] for i in range(sys.n)]
    cols = sys.columns
    memo = {}

    def in_row(cut):
        if cut not in memo:
            memo[cut] = solve_membership(sys.R, cut)
        return memo[cut]

    found = {}
    for m in range(1, m_max + 1):
        choices = [list(combinations_with_replacement(ts, m)) for ts in tails]
        for pick in product(*choices):
            edges = [(t, tuple(a + b for a, b in zip(t, cols[i])), i)
                     for i, ts in enumerate(pick) for t in ts]
            cuts = {}
            for t, h, i in edges:
                cuts.setdefault(t, [0] * sys.n)[i] += 1
                cuts.setdefault(h, [0] * sys.n)[i] -= 1
            if not all(in_row(tuple(c)) for c in cuts.values()):
                continue
            adj = {v: [] for v in cuts}
            for t, h, _ in edges:
                adj[t].append(h)
                adj[h].append(t)
            seen, stack = set(), [edges[0][0]]
            while stack:
                v = stack.pop()
                if v not in seen:
                    seen.add(v)
                    stack.extend(adj[v])
            if len(seen) < len(adj):
                continue
            counts = {}
            for t, _, i in edges:
                counts[t, i] = counts.get((t, i), 0) + 1
            g = VectorGraph(sys, counts)
            key = translation_keys(g)[0]
            if key not in found and g.is_kirchhoff().ok:
                found[key] = g
    return found


def _line_flows(lam, step, line_id, coord):
    """Nonnegative integer flows along one lattice direction with
    prescribed net jumps; unique when solvable, None otherwise."""
    from collections import defaultdict

    lines = defaultdict(list)
    for v, d in lam.items():
        if d:
            lines[line_id(v)].append((coord(v), v, d))
    flows = {}
    for items in lines.values():
        items.sort()
        if sum(d for _, _, d in items) != 0:
            return None
        run = 0
        for idx, (_, v, d) in enumerate(items):
            run += d
            if run < 0:
                return None
            if run > 0:
                nxt = items[idx + 1][1]
                span = (nxt[0] - v[0]) // step[0] if step[0] else (nxt[1] - v[1]) // step[1]
                for j in range(span):
                    tail = (v[0] + j * step[0], v[1] + j * step[1])
                    flows[tail] = flows.get(tail, 0) + run
    return flows


def flow_oracle_square_m2(sys):
    """Canonical keys of all uniform m=2 Kirchhoff graphs for the square
    system, connected or not, by placing the two diagonal-vector copies
    and solving the axis-vector flows they force.

    The row-space constraints pin the axis cuts pointwise: at every
    vertex the two axis-vector nets are the sum and the difference of
    the diagonal-vector nets.
    """
    from collections import defaultdict
    from itertools import combinations_with_replacement

    from kirchgraph.vgraph import VectorGraph

    window = [(x, y) for x in range(0, 4) for y in range(-3, 4)]
    pairs = list(combinations_with_replacement(window, 2))
    found = {}
    for t3 in pairs:
        for t4 in pairs:
            lam3, lam4 = defaultdict(int), defaultdict(int)
            for t in t3:
                lam3[t] += 1
                lam3[(t[0] + 1, t[1] + 1)] -= 1
            for t in t4:
                lam4[t] += 1
                lam4[(t[0] + 1, t[1] - 1)] -= 1
            verts = set(lam3) | set(lam4)
            lam1 = {v: lam3[v] + lam4[v] for v in verts}
            lam2 = {v: lam3[v] - lam4[v] for v in verts}
            f1 = _line_flows(lam1, (2, 0), lambda v: (v[0] % 2, v[1]), lambda v: (v[0], v[1]))
            if f1 is None or sum(f1.values()) != 2:
                continue
            f2 = _line_flows(lam2, (0, 2), lambda v: (v[0], v[1] % 2), lambda v: (v[1], v[0]))
            if f2 is None or sum(f2.values()) != 2:
                continue
            edges = {}
            for t in t3:
                edges[(t, 2)] = edges.get((t, 2), 0) + 1
            for t in t4:
                edges[(t, 3)] = edges.get((t, 3), 0) + 1
            for t, c in f1.items():
                edges[(t, 0)] = c
            for t, c in f2.items():
                edges[(t, 1)] = c
            g = VectorGraph(sys, edges)
            key = g.canonical_key()
            if key not in found and g.is_kirchhoff().ok and g.multiplicity().uniform:
                found[key] = g
    return found


def brute_force_is_prime(graph):
    """Primality by exhaustive bipartition scan (multiset splits)."""
    items = graph.edge_items()
    ranges = [range(c + 1) for _, c in items]
    total = sum(c for _, c in items)
    for split in product(*ranges):
        taken = sum(split)
        if taken == 0 or taken == total:
            continue
        part_a = VectorGraph(graph.system, {k: c for (k, _), c in zip(items, split) if c})
        if not part_a.is_kirchhoff().ok:
            continue
        part_b = VectorGraph(
            graph.system,
            {k: full - c for (k, full), c in zip(items, split) if full - c},
        )
        if part_b.is_kirchhoff().ok:
            return False, (part_a, part_b)
    return True, None
