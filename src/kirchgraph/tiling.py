"""Tiling algebra over Kirchhoff graphs.

Sums place a second graph's anchor (its canonical-form origin) at a
lattice offset and merge edge multisets; differences remove an embedded
translate.  The sum of two Kirchhoff graphs is Kirchhoff (the sum
theorem): each vertex cut of the sum is the sum of the operands' cuts,
so it stays in Row(R), and the sum's cycle space contains both
operands' cycle spaces, so its cycle vectors still span Null(R).  The
difference theorem is weaker: each vertex cut of g1 - g2 is a
difference of Row(R) members, so it stays in Row(R), and by the
edge-vector count (``VectorGraph.is_kirchhoff``) the difference is
Kirchhoff iff every edge vector still occurs.  An operation on verified
operands therefore takes its verdict from the theorem; one with an
unverified operand, and a difference that lost an edge vector, is
checked (the check raises with the exact verdict).

On top of those two moves sit: subgraph-embedding search,
primality (no bipartition of the edges into two Kirchhoff parts),
bounded span membership ("can the target be tiled from these
generators?"), the arbitrarily-large prime family built from the two
minimal square-system graphs, and fundamental generating sets.

Span membership is a bounded semi-decision: spans are infinite, so a
negative answer only means "not within the given coefficient and offset
bounds".

Fundamental-set search skips the span searches that a character
test, which costs no search, rules out (``fundamental_sets``).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product
from operator import sub

from kirchgraph.exactalg import _Filled, _echelon, _reduce, build_row_system
from kirchgraph.vgraph import Coord, KirchhoffVerdict, Radix, VectorGraph, _check_point

DEFAULT_COEFF_BOUND = 8
DEFAULT_PRIME_BUDGET = 2_000_000


class TilingError(ValueError):
    pass


class SystemMismatch(TilingError):
    pass


class NoEmbeddingAtOffset(TilingError):
    pass


class KirchhoffViolation(TilingError):
    """A sum or difference produced a non-Kirchhoff result."""


class FamilyConstructionError(TilingError):
    """An expected interior embedding was absent while growing the family."""


Placement = namedtuple("Placement", "graph offset sign")
Placement.__doc__ = """One signed copy of ``graph``, its anchor at ``offset``;
``sign`` is +1 (added) or -1 (removed)."""


class TilingExpression(namedtuple("TilingExpression", "placements")):
    """Signed placements, a tuple of Placement, evaluated left to right.

    Every subtraction must embed at its point in the sequence; evaluate()
    raises NoEmbeddingAtOffset otherwise.
    """

    __slots__ = ()

    def evaluate(self) -> VectorGraph:
        """The graph that ``add`` and ``subtract``, chained over the
        placements from the empty graph, return: the same edges and
        verdict, and the same exception at the same placement, since
        ``_fold`` is that chain."""
        if not self.placements:
            raise ValueError("empty expression")
        return _fold(VectorGraph.empty(self.placements[0].graph.system), self.placements)


PrimalityVerdict = namedtuple("PrimalityVerdict", "status witness nodes", defaults=(None, 0))
PrimalityVerdict.__doc__ = """Outcome of ``is_prime``.

status   "prime", "composite" or "unknown" (over budget)
witness  for "composite", the two Kirchhoff parts; else None
nodes    split-search nodes spent, the one over budget included
"""


def _require_same_system(g1: VectorGraph, g2: VectorGraph) -> None:
    if g1.system.R != g2.system.R:
        raise SystemMismatch("graphs belong to different row systems")


_KIRCHHOFF = ("ok", "trivial")


def _place(edges: dict, copies: list[int], g: VectorGraph, offset: Coord, sign: int,
           verified: bool) -> bool:
    """Add (``sign`` 1) or remove (``sign`` -1) g's canonical form, its
    anchor at ``offset``, to or from the edge multiset ``edges``;
    ``copies`` counts the edges of each vector in it and moves along.
    A removal raises NoEmbeddingAtOffset at the first edge it misses.

    Return True when a theorem gives the verdict: ``verified`` (the
    multiset before the move is Kirchhoff or empty), g's verdict is "ok"
    or "trivial", and the move is a sum, or a difference that left
    nothing or kept every edge vector.  The verdict is then "trivial" if
    nothing is left, else "ok".
    """
    off = tuple(offset)
    _check_point(off, g.system.k, "offset")
    for (t, i), c in g.canonical_key():
        key = (tuple(a + b for a, b in zip(t, off)), i)
        have = edges.get(key, 0) + sign * c
        if have < 0:
            raise NoEmbeddingAtOffset(f"no copy at offset {off}: missing {key}")
        if have:
            edges[key] = have
        else:
            del edges[key]
        copies[i] += sign * c
    return (
        verified
        and g.is_kirchhoff().status in _KIRCHHOFF
        and (sign > 0 or not edges or all(copies))
    )


def _fold(start: VectorGraph, placements) -> VectorGraph:
    """``start`` with each placement added or removed in turn.

    The running multiset folds into one edge dict through ``_place``.  A
    graph is built, on a copy of the dict, and checked only where
    ``_place`` finds no theorem for the verdict, and the check raises
    KirchhoffViolation unless the graph is Kirchhoff or empty; so after
    the first placement the running graph is Kirchhoff or empty.
    An "ok" verdict implies vector 2-connectivity: every row of
    N = [C; -qI] is nonzero (no zero row of C), so cycle vectors that
    span Null(R) cover every coordinate.
    """
    system = start.system
    edges = dict(start._edges)
    copies = list(start.multiplicity().counts)
    verified = start.is_kirchhoff().status in _KIRCHHOFF
    result = start
    for p in placements:
        _require_same_system(start, p.graph)
        sign = 1 if p.sign > 0 else -1
        result = None
        if not _place(edges, copies, p.graph, p.offset, sign, verified):
            result = VectorGraph._built(system, dict(edges))
            verdict = result.is_kirchhoff()
            if verdict.status not in _KIRCHHOFF:
                context = "sum" if sign > 0 else "difference"
                raise KirchhoffViolation(f"{context} produced a non-Kirchhoff graph: {verdict}")
        verified = True
    if result is None:
        verdict = KirchhoffVerdict("ok" if edges else "trivial")
        result = VectorGraph._built(system, edges, verdict=verdict)
    return result


def add(g1: VectorGraph, g2: VectorGraph, offset: Coord) -> VectorGraph:
    """Union of g1, as positioned, with g2's anchor placed at ``offset``.

    g2 is re-anchored to its canonical origin before translating; g1 is
    used in place so that chains of placements share one absolute frame
    (pass g1.canonical() for the anchored-at-origin reading).
    Multiplicity is additive; the result is Kirchhoff or KirchhoffViolation
    is raised.  When both operands' (cached) verdicts are "ok" or
    "trivial", the sum theorem gives the result's verdict without a
    check: "trivial" if both are, else "ok".  Otherwise the sum is
    verified.
    """
    return _fold(g1, [Placement(g2, offset, 1)])


def find_embeddings(host: VectorGraph, pattern: VectorGraph) -> list[Coord]:
    """All offsets x with pattern's canonical form, translated by x, a
    sub-multiset of host.  Empty for no embeddings; the pattern must be
    nonempty (an empty pattern embeds everywhere)."""
    _require_same_system(host, pattern)
    if pattern.is_empty:
        raise ValueError("empty pattern embeds at every offset")
    pat = pattern.canonical_key()
    host_edges = host._edges
    (p0, i0), c0 = pat[0]
    offsets = []
    for (t, i), c in host_edges.items():
        if i != i0 or c < c0:
            continue
        off = tuple(a - b for a, b in zip(t, p0))
        if all(
            host_edges.get((tuple(a + b for a, b in zip(pt, off)), pi), 0) >= pc
            for (pt, pi), pc in pat
        ):
            offsets.append(off)
    return sorted(offsets)


def subtract(g1: VectorGraph, g2: VectorGraph, offset: Coord) -> VectorGraph:
    """Remove the copy of g2 embedded at ``offset`` from g1.

    Raises NoEmbeddingAtOffset if no such copy is there, and
    KirchhoffViolation if the result is not Kirchhoff.  When both
    operands' (cached) verdicts are "ok" or "trivial", the difference
    theorem gives the verdict: "trivial" if nothing is left, "ok" if
    every edge vector occurs.  A difference that lost an edge vector, or
    has an operand of any other verdict, is verified.
    """
    return _fold(g1, [Placement(g2, offset, -1)])


# -- primality ----------------------------------------------------------


def is_prime(graph: VectorGraph, budget: int = DEFAULT_PRIME_BUDGET) -> PrimalityVerdict:
    """Decide whether the edge multiset splits into two nonempty parts
    that each satisfy both Kirchhoff conditions.

    Depth-first split with propagation: edges are assigned part by part
    in vertex order, and as soon as a vertex has all incident edges
    assigned, both parts' cuts there must lie in the row space or the
    branch dies.  The graph's own cut lies there and is the sum of the
    parts' cuts, so only part A's cut is tested.  At a leaf every vertex
    has passed that test, so a part is Kirchhoff iff it uses every edge
    vector (see ``VectorGraph.is_kirchhoff``).  A running count of part
    A's copies of each vector decides that: both parts are Kirchhoff iff
    every vector is in A and every vector is left over for B, which also
    makes both parts nonempty.  Parts are built only for the witness.
    The first edge is pinned to part A to break the A/B symmetry.
    Exhausting the tree proves primality; ``budget`` caps the node count,
    returning "unknown" when exceeded.  The verdict reports the nodes
    spent.
    """
    if graph.is_empty:
        raise ValueError("primality is defined for nonempty graphs")
    if not graph.is_kirchhoff().ok:
        raise ValueError("primality is defined for Kirchhoff graphs")

    system = graph.system
    n = system.n
    keys = graph.edge_items()
    vertices = list(graph.vertices)
    vindex = {v: i for i, v in enumerate(vertices)}
    heads = graph._heads
    # the (tail, head) vertex indices of each key
    key_ends = [(vindex[key[0]], vindex[heads[key]]) for key, _ in keys]

    # the last key touching each vertex: its cuts are final after it
    last_key_at: dict[int, int] = {}
    for ki, ends in enumerate(key_ends):
        for vi in ends:
            last_key_at[vi] = ki

    totals = graph.multiplicity().counts
    copies_a = [0] * n  # part A's copies of each vector
    cuts_a = [[0] * n for _ in vertices]
    assigned: list[int] = [0] * len(keys)
    nodes = 0

    in_row = system.contains_in_row_space

    def search(ki: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise _BudgetExhausted
        if ki == len(keys):
            return all(0 < a < t for a, t in zip(copies_a, totals))
        (_, idx), count = keys[ki]
        ends = key_ends[ki]
        low = 1 if ki == 0 else 0  # pin a copy of the first edge into part A
        for a in range(low, count + 1):
            assigned[ki] = a
            if a:
                cuts_a[ends[0]][idx] += a
                cuts_a[ends[1]][idx] -= a
                copies_a[idx] += a
            # part B's cut is the graph's (in Row(R)) minus part A's, so it
            # lies in Row(R) exactly when part A's does
            if all(last_key_at[vi] != ki or in_row(tuple(cuts_a[vi])) for vi in ends):
                if search(ki + 1):
                    return True
            if a:
                cuts_a[ends[0]][idx] -= a
                cuts_a[ends[1]][idx] += a
                copies_a[idx] -= a
        return False

    try:
        found = search(0)
    except _BudgetExhausted:
        return PrimalityVerdict("unknown", nodes=nodes)
    finally:
        del search  # it refers to itself; break the cycle
    if not found:
        return PrimalityVerdict("prime", nodes=nodes)
    # the search returned from the witness leaf, so ``assigned`` holds it
    witness = tuple(
        VectorGraph._built(
            system, {key: c for (key, _), c in zip(keys, part) if c}, verdict=KirchhoffVerdict("ok")
        )
        for part in (assigned, [c - a for (_, c), a in zip(keys, assigned)])
    )
    return PrimalityVerdict("composite", witness, nodes)


class _BudgetExhausted(Exception):
    pass


# -- span membership ------------------------------------------------------


class SpanResult(namedtuple("SpanResult", "status expression nodes", defaults=(None, 0))):
    """Outcome of ``span_contains``.

    status      "yes" or "no_within_bounds"
    expression  for "yes", a TilingExpression equal to the target up to
                translation; else None
    nodes       search nodes spent, over the deepening rounds run
    """

    __slots__ = ()

    @property
    def contained(self) -> bool:
        return self.status == "yes"


def _default_window(target: VectorGraph, generators) -> tuple[Coord, Coord]:
    lo, hi = target.bounding_box()
    k = target.system.k
    dilate = [0] * k
    for g in generators:
        glo, ghi = g.bounding_box()
        for d in range(k):
            dilate[d] = max(dilate[d], ghi[d] - glo[d])
    return (
        tuple(lo[d] - dilate[d] for d in range(k)),
        tuple(hi[d] + dilate[d] for d in range(k)),
    )


def _placement_totals(counts, target, bound: int) -> list[int]:
    """The placement totals b in [1, ``bound``] that edge counts allow,
    ascending.  b is one when copies k_g >= 0 of the generators, whose
    count vectors are ``counts``, with one sign s_g each, have
    sum k_g = b and sum s_g * k_g * counts[g] = ``target``.  A DP over
    the generators on the reachable (net count vector, total) pairs.
    Each count vector enters at most twice: two generators that share
    one already reach any p added and q removed copies of it (one takes
    the added copies, the other the removed), so a third adds nothing."""
    counts = sorted(counts)
    counts = [c for i, c in enumerate(counts) if i < 2 or c != counts[i - 2]]
    reach = {((0,) * len(target), 0)}
    for c in counts:
        # (+-k * c, k) for k = 1, 2, ...; each move's negation is a move
        # too, so net - move ranges over the same sums as net + move
        moves = [(tuple(sk * x for x in c), k) for k in range(1, bound + 1) for sk in (k, -k)]
        step = set(reach)
        for net, total in reach:
            for move, k in moves[: 2 * (bound - total)]:
                step.add((tuple(map(sub, net, move)), total + k))
        reach = step
    return sorted(b for net, b in reach if b and net == target)


def span_contains(
    generators,
    target: VectorGraph,
    coeff_bound: int = DEFAULT_COEFF_BOUND,
) -> SpanResult:
    """Search for a tiling expression over ``generators`` equal to
    ``target`` up to translation, using at most ``coeff_bound`` placements
    with offsets inside ``_default_window``: the bounding box of the
    target's canonical form, dilated in each coordinate by the widest
    generator's extent.

    An expression carries one integer coefficient per generator, so all
    placements of a given generator share one sign: copies of it are
    either added or removed, never both.

    The search works on the signed demand target - sum(placements): a
    mismatched edge instance must be covered by adding (deficit) or
    removing (surplus) a generator copy aligned to it, which keeps the
    branching factor at the number of generator edges.  ``pick_mismatch``
    always covers the most constrained key first, so two orders of the
    same placements rarely meet again and no state is memoized (on shear
    m=6 a memo of (demand, signs, budget) answered 38 of 2,796 lookups).
    Placements found this way always reorder into a valid
    add-then-subtract sequence: postponing subtractions only enlarges the
    intermediate multisets their embeddings are checked against.

    The search deepens iteratively, fewest placements first, over only
    the totals that edge counts allow (``_placement_totals``): each copy
    of generator g adds or removes exactly g's count vector c(g), so an
    expression with k_g copies of each g, of sign s_g, has
    sum k_g placements and sum s_g * k_g * c(g) = c(target).  A skipped
    round would have failed.  Let b be the least budget at which a round
    succeeds.  A round succeeds if its tree holds a solution of at most
    its budget placements: the options at a node do not depend on the
    budget, and the gap prune never cuts the path to such a solution,
    since a placement lowers the gap by at most the largest generator
    size.  So the solution found at b has exactly b placements, else a
    lower round would have succeeded, and b is an allowed total.  The
    first round run that succeeds is therefore round b, with the same
    placements.  On shear m <= 6 every graph has c = (6, 6, 6, 6), so
    only odd totals are tried.

    Inside the search an edge key is one integer.  Every key it can meet
    has its tail in one coordinate box: the target's tails and the
    generators' tails shifted by the offsets of the window.  The key
    (tail, vec_index) packs as the tuple (*tail, vec_index) with
    ``vgraph.Radix``, the codec the census search shares, over that box
    and [0, n).  So int order is the lex order of (tail, vec_index), which
    breaks ties between equally constrained keys, and a copy translated
    by an offset has every key moved by pack((*offset, 0)).  The
    placements returned carry their offsets as tuples.

    Alignment works on packed shifts, with no tuple arithmetic per
    option.  A generator edge (pt, i) with packed key gk lies over a
    demand key K of the same vec_index (K's last digit) at the offset
    whose shift pack((*offset, 0)) is K - gk, since pack is linear.  A
    memo maps each shift to its offset, or to None outside the window;
    it is filled on first sight, from one unpacking of K.  It never
    takes one offset for another.  Every demand key lies in the box, and
    the box has lows <= min gen tail + lo and highs >= max gen tail + hi.
    So an offset K's tail - pt and an in-window offset o differ by
    K's tail - (pt + o), two points of the box: less than the digit size
    in each coordinate.  Mixed-radix digits that small pack to 0 only
    when all are 0, so no other offset shares an in-window offset's
    shift.  The memo fills lazily: the whole window has the product of
    its widths as its size.

    A node keeps only ``demand`` up to date as it places a copy.  It
    snapshots ``demand`` before its options and restores the snapshot
    after each failed child; dict order does not matter, since
    ``pick_mismatch`` breaks ties by key and keys are unique.  The gap,
    sum |demand|, is summed only where the prune tests it, once the node
    has options and budget left.

    A "no_within_bounds" answer is not a proof of non-membership.
    """
    generators = list(generators)
    if not generators:
        raise ValueError("need at least one generator")
    for g in generators:
        _require_same_system(g, target)
        if g.is_empty:
            raise ValueError("generators must be nonempty")
    if coeff_bound < 1:
        raise ValueError("coeff_bound must be >= 1")
    if target.is_empty:
        return SpanResult("yes", TilingExpression(()))
    budgets = _placement_totals(
        [g.multiplicity().counts for g in generators], target.multiplicity().counts, coeff_bound
    )
    if not budgets:
        return SpanResult("no_within_bounds")

    target = target.canonical()
    lo, hi = _default_window(target, generators)
    n = target.system.n

    gen_items = [g.canonical_key() for g in generators]
    max_size = max(sum(c for _, c in items) for items in gen_items)

    # the box of reachable keys: reachable tails, then vec_index
    tails = zip(*(t for t, _ in target._edges))
    gen_tails = zip(*(t for items in gen_items for (t, _), _ in items))
    lows, highs = zip(*(
        (min(min(ts), min(gs) + a), max(max(ts), max(gs) + z))
        for ts, gs, a, z in zip(tails, gen_tails, lo, hi)
    ))
    box = Radix((*lows, 0), (*highs, n - 1))

    # pack is linear: a generator key at offset 0 may fall outside the
    # box, but the key of its copy at an in-window offset,
    # pack((*pt, pi)) + pack((*offset, 0)), falls inside
    gen_keys = [[(box.pack((*pt, pi)), pc) for (pt, pi), pc in items] for items in gen_items]
    # generator edges (gi, tail, packed key) by vec_index, in generator
    # order then item order
    by_index: dict[int, list[tuple[int, Coord, int]]] = {}
    for gi, items in enumerate(gen_items):
        for (pt, pi), _ in items:
            by_index.setdefault(pi, []).append((gi, pt, box.pack((*pt, pi))))
    # a key's vec_index is its last digit, counted from the box's corner
    corner = box.pack((*lows, 0))
    # offset shift pack((*offset, 0)) -> the offset, None outside the window
    offsets: dict[int, Coord | None] = {}
    # (generator, offset shift) -> the placed copy's keys with counts
    shifted = _Filled(lambda gs: [(pk + gs[1], pc) for pk, pc in gen_keys[gs[0]]])

    def alignments(key):
        """In-window placements (gi, offset, placed keys) of a generator
        edge over ``key``."""
        tail = None
        found = []
        for gi, pt, gk in by_index.get((key - corner) % n, ()):
            shift = key - gk
            if shift not in offsets:
                if tail is None:
                    *tail, _ = box.unpack(key)
                off = tuple(map(sub, tail, pt))
                offsets[shift] = off if all(a <= x <= z for a, x, z in zip(lo, off, hi)) else None
            off = offsets[shift]
            if off is not None:
                found.append((gi, off, shifted[gi, shift]))
        return found

    aligned = _Filled(alignments)

    def ranking(signs):
        """The ``pick_mismatch`` table under the sign commitments
        ``signs``: demand item (key, count) -> (max(#options, 1), key,
        options), the aligned placements that the commitments allow."""

        def rank(item):
            key, count = item
            sign = 1 if count > 0 else -1
            opts = [a for a in aligned[key] if signs[a[0]] != -sign]
            return len(opts) or 1, key, opts

        return _Filled(rank)

    tables = _Filled(ranking)

    # demand: packed edge key -> target count minus placed count (may be
    # negative)
    demand = {box.pack((*t, i)): c for (t, i), c in target._edges.items()}
    committed = [0] * len(generators)  # per-generator sign, 0 while unused
    nodes = 0

    def apply_gen(placed, sign):
        for key, pc in placed:
            left = demand.get(key, 0) - sign * pc
            if left:
                demand[key] = left
            else:
                del demand[key]

    def search(budget, placements):
        nonlocal nodes
        nodes += 1
        if not demand:
            return list(placements)
        # pick_mismatch: the most constrained pending key, the least
        # (max(#options, 1), key): the first key in lex order with at
        # most one option, else the fewest options with ties lex
        _, key, opts = min(map(tables[tuple(committed)].__getitem__, demand.items()))
        if budget == 0 or not opts:
            return None
        if sum(map(abs, demand.values())) > budget * max_size:
            return None
        sign = 1 if demand[key] > 0 else -1
        saved = demand.copy()
        for gi, off, placed in opts:
            prev = committed[gi]
            committed[gi] = sign
            apply_gen(placed, sign)
            placements.append((gi, off, sign))
            res = search(budget - 1, placements)
            if res is not None:
                return res
            placements.pop()
            demand.clear()
            demand.update(saved)
            committed[gi] = prev
        return None

    # iterative deepening over the allowed totals, fewest first
    solution = None
    for budget in budgets:
        solution = search(budget, [])
        if solution is not None:
            break
    del search  # it refers to itself; break the cycle
    if solution is None:
        return SpanResult("no_within_bounds", nodes=nodes)
    adds = [p for p in solution if p[2] > 0]
    subs = [p for p in solution if p[2] < 0]
    expr = TilingExpression(
        tuple(
            Placement(generators[gi], off, sign)
            for gi, off, sign in adds + subs
        )
    )
    built = expr.evaluate()
    if not built.equals_up_to_translation(target):
        raise AssertionError("span search returned a non-matching expression")
    return SpanResult("yes", expr, nodes)


# -- the arbitrarily-large prime family ----------------------------------


@lru_cache(maxsize=1)
def _square_family_geometry():
    """The two minimal square-system graphs plus the grid periods t1, t2
    and the offset emb0: the spread graph at 0, t1, t2 and t1 + t2 holds
    a copy of the doubled graph at emb0, in its interior; a family member
    that misses such a copy raises FamilyConstructionError."""
    from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff

    system = build_row_system([[2, 0, 1, 1], [0, 2, 1, -1]])
    graphs, _ = enumerate_kirchhoff(system, SearchConfig(m_max=2))
    spread = next(g for g in graphs if all(c == 1 for _, c in g.edge_items()))
    doubled = next(g for g in graphs if any(c > 1 for _, c in g.edge_items()))
    return system, spread, doubled, (-1, -1), (-1, 1), (-1, 1)


def _prime_family_expression(j: int) -> TilingExpression:
    """Family member j as a left-to-right expression: the 2j + 2 copies
    of the spread graph, row by row, then the j interior copies of the
    doubled graph taken away."""
    _, spread, doubled, t1, t2, emb0 = _square_family_geometry()
    adds = [
        Placement(spread, tuple(row * b + c for b, c in zip(t2, col)), 1)
        for row in range(j + 1)
        for col in ((0, 0), t1)
    ]
    subs = [Placement(doubled, tuple(a + row * b for a, b in zip(emb0, t2)), -1) for row in range(j)]
    return TilingExpression(tuple(adds + subs))


def build_infinite_prime_family(j: int) -> VectorGraph:
    """The j-th member of the arbitrarily-large prime family for the
    square system: (2j+2) copies of the spread graph in a 2-by-(j+1)
    grid, minus the j interior copies of the doubled graph.

    Multiplicity is 2(2j+2) - 2j = 2j + 4.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    try:
        return _prime_family_expression(j).evaluate()
    except NoEmbeddingAtOffset as exc:
        raise FamilyConstructionError(f"interior embedding missing: {exc}") from exc


# -- fundamental sets ------------------------------------------------------


def _characters(graph: VectorGraph) -> list[tuple[int, ...]]:
    """The character vectors of ``graph``, one for each s in {0,1}^k in
    ``itertools.product`` order: Phi_s = the sum over edges (t, i) with
    count c of (-1)^(s.t) * c * e_i, an integer n-vector.  A translate by
    o multiplies Phi_s by (-1)^(s.o)."""
    n, k = graph.system.n, graph.system.k
    items = graph.edge_items()
    chars = []
    for s in product((0, 1), repeat=k):
        phi = [0] * n
        for (t, i), c in items:
            phi[i] += -c if sum(a * b for a, b in zip(s, t)) % 2 else c
        chars.append(tuple(phi))
    return chars


def _spanned(bases, vectors) -> bool:
    """True iff each vector lies in the rational span of its basis, an
    ``_echelon``, the two paired in order."""
    return not any(any(_reduce(b, v)) for b, v in zip(bases, vectors))


def fundamental_sets(graphs, coeff_bound: int = DEFAULT_COEFF_BOUND) -> list[tuple[int, ...]]:
    """All minimum-cardinality generating subsets, as index tuples.

    Candidate generators are restricted to the minimal-multiplicity tier
    first; among those, subsets are tried in increasing cardinality and
    every subset whose bounded span covers all inputs at the first
    feasible size is returned.  Results are relative to the bounds.

    Before a span search, the character test may rule the (subset,
    target) pair out.  For s in {0,1}^k the character vector Phi_s(G) is
    the sum over edges (t, i) with count c of (-1)^(s.t) * c * e_i.  A
    placement at offset o multiplies Phi_s by (-1)^(s.o), and Phi_s is
    additive over the placements of an expression, so a target tiled by
    the subset, under any signs and bounds, has each Phi_s in the
    rational span of the subset's Phi_s.  A target that fails this for
    some s has no expression at all, and the subset fails without a
    search.  The test is necessary, not sufficient, so it cannot change
    an answer; it only skips searches that would answer
    no_within_bounds.  Each subset's Phi_s are echeloned once, in
    integers, and each target is reduced against them.  The same test
    bounds the size: a covering subset's Phi_s span every graph's, so
    sizes below the largest rank over s of all the graphs' Phi_s are
    skipped, and a tier smaller than that rank gives [] at once.  A
    subset covers what its subsets cover (its window and allowed totals
    only grow, signs are per generator), so it skips the targets that a
    subset one smaller covered.  Neither the test nor the floor bounds
    the search: decomposable k = 4 at m = 1 makes 26,768 span calls
    (6,314,319 nodes) to its 4,096 sets of seven, 220 s in-process
    (2 vCPUs, Python 3.11).
    """
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    mults = [g.multiplicity().m for g in graphs]
    if any(m is None for m in mults):
        raise ValueError("all graphs must be uniform")
    tier = [i for i, m in enumerate(mults) if m == min(mults)]
    chars = [_characters(g) for g in graphs]

    def covers(subset, smaller, covered) -> bool:
        gens = [graphs[i] for i in subset]
        bases = [_echelon(phis) for phis in zip(*(chars[i] for i in subset))]
        got = covered[subset] = set(subset).union(
            *(smaller.get(subset[:k] + subset[k + 1:], ()) for k in range(len(subset)))
        )
        for i in range(len(graphs)):
            if i not in got:
                if not (_spanned(bases, chars[i]) and span_contains(gens, graphs[i], coeff_bound).contained):
                    return False
                got.add(i)
        return True

    # a covering subset's Phi_s span those of every graph, so it has at
    # least as many members as the largest of their ranks
    floor = max(1, *(len(_echelon(phis)) for phis in zip(*chars)))
    covered = {}
    for size in range(floor, len(tier) + 1):
        smaller, covered = covered, {}
        hits = [combo for combo in combinations(tier, size) if covers(combo, smaller, covered)]
        if hits:
            return hits
    return []
