"""Deterministic JSON documents for enumeration results (schema kg-doc/1).

A document echoes the row system, lists each graph with lexicographically
sorted vertices and edges, and annotates chirality pairing and (when
computed) primality.  Graph ids follow canonical-form order, so they are
stable across runs, platforms and worker counts; identical inputs and
flags produce byte-identical output.
"""

from __future__ import annotations

import json
from operator import add, itemgetter

from kirchgraph.exactalg import RowSystem, build_row_system
from kirchgraph.vgraph import VectorGraph

SCHEMA = "kg-doc/1"


def build_document(
    system: RowSystem,
    graphs: list[VectorGraph],
    m_max: int | None = None,
    complete: bool = True,
    primality: dict[int, str] | None = None,
) -> dict:
    """Assemble the document dict for canonical graphs.

    ``primality`` maps graph positions to "prime"/"composite"/"unknown";
    unannotated graphs carry null.
    """
    order = sorted(range(len(graphs)), key=lambda i: graphs[i].canonical_key())
    canon = [graphs[i].canonical() for i in order]
    keys = [graphs[i].canonical_key() for i in order]
    ids = {key: f"G{pos}" for pos, key in enumerate(keys)}

    entries = []
    self_chiral_count = 0
    paired = 0
    for pos, (g, key) in enumerate(zip(canon, keys)):
        verts = g.vertices
        vid = {v: i for i, v in enumerate(verts)}
        heads = g._heads
        # g is canonical, so its key is its sorted edge list
        edges = [
            {"tail": vid[tail], "head": vid[heads[tail, idx]], "vec_index": idx, "count": count}
            for (tail, idx), count in key
        ]
        chiral_key = g.chiral_key()
        self_chiral = chiral_key == key
        if self_chiral:
            self_chiral_count += 1
            chiral_of = None
        else:
            chiral_of = ids.get(chiral_key)
            if chiral_of is not None:
                paired += 1
        source = order[pos] if primality else None
        entries.append(
            {
                "id": f"G{pos}",
                "vertices": [list(v) for v in verts],
                "edges": edges,
                "multiplicity": g.multiplicity().m,
                "self_chiral": self_chiral,
                "chiral_of": chiral_of,
                "prime": primality.get(source) if primality else None,
            }
        )

    prime_count = sum(1 for e in entries if e["prime"] == "prime") if primality else None
    return {
        "schema": SCHEMA,
        "system": {
            "n": system.n,
            "k": system.k,
            "q": system.q,
            "R": [list(row) for row in system.R],
            "C": [list(row) for row in system.C],
            "N": [list(row) for row in system.N],
        },
        "m_max": m_max,
        "complete": complete,
        "graphs": entries,
        "summary": {
            "total": len(entries),
            "self_chiral": self_chiral_count,
            "chiral_pairs": paired // 2,
            "primes": prime_count,
        },
    }


def _layout(items: list[str], indent: int, brackets: str = "[]") -> str:
    """Encoded items as a JSON array (or object) opened at ``indent``,
    laid out as ``json.dumps(indent=2)`` lays them out."""
    if not items:
        return brackets
    pad = "\n" + " " * (indent + 2)
    return brackets[0] + pad + ("," + pad).join(items) + "\n" + " " * indent + brackets[1]


def _object(fields: tuple[str, ...], indent: int, leaf: str = "%s") -> str:
    """A %-template for an object with these keys, in this order."""
    return _layout([f'"{name}": {leaf}' for name in fields], indent, "{}")


# the templates of a graph entry, the part of the document that grows
# with the census
_ENTRY = _object(
    ("id", "vertices", "edges", "multiplicity", "self_chiral", "chiral_of", "prime"), 4
)
_EDGE_FIELDS = ("tail", "head", "vec_index", "count")
_EDGE = _object(_EDGE_FIELDS, 8, "%d")
_edge_values = itemgetter(*_EDGE_FIELDS)
# where the graph array goes in the frame that json.dumps writes
_SLOT = json.dumps("\0")


def document_to_json(doc: dict) -> str:
    """The document as ``json.dumps(doc, indent=2) + "\\n"`` writes it.

    ``doc`` has the shape ``build_document`` gives (and ``parse_document``
    returns).  ``json.dumps`` writes the frame, everything but the graph
    array, with a placeholder string in the array's place.  Each graph
    entry is a fixed template whose leaves ``json.dumps`` (the C encoder,
    for scalars) or ``%d`` write, so no entry passes through ``json``'s
    pure-Python indenting encoder.  The frame's head, each entry with the
    separator before it, and the frame's tail are joined once, so the
    entries and the result are the only copies of the document's text:
    its peak is about twice the result's length.
    """
    dumps = json.dumps
    head, tail = dumps({**doc, "graphs": "\0"}, indent=2).split(_SLOT)
    vertex = _layout(["%d"] * doc["system"]["k"], 8)
    pieces = [head]
    # the graph array, laid out as _layout(entries, 2) lays it out
    sep = "[\n    "
    for e in doc["graphs"]:
        pieces.append(sep)
        pieces.append(
            _ENTRY
            % (
                dumps(e["id"]),
                _layout([vertex % tuple(v) for v in e["vertices"]], 6),
                _layout([_EDGE % _edge_values(d) for d in e["edges"]], 6),
                dumps(e["multiplicity"]),
                dumps(e["self_chiral"]),
                dumps(e["chiral_of"]),
                dumps(e["prime"]),
            )
        )
        sep = ",\n    "
    pieces += ("\n  ]" if doc["graphs"] else "[]", tail, "\n")
    return "".join(pieces)


def parse_document(text: str) -> tuple[RowSystem, list[VectorGraph], dict]:
    """Rebuild the system and graphs from document JSON.

    Returns (system, graphs keyed in document order, raw document dict).
    Raises ValueError unless the echo is what ``build_document`` writes for
    the system ``R`` rebuilds and entry i has the id ``G<i>``.
    """
    doc = json.loads(text)
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != SCHEMA:
        raise ValueError(f"unsupported schema {schema!r}")
    system = build_row_system(doc["system"]["R"])
    # compared as JSON text, so true does not pass for 1
    echo = json.dumps(build_document(system, [])["system"], sort_keys=True)
    if json.dumps(doc["system"], sort_keys=True) != echo:
        raise ValueError("stored system echo disagrees with the row matrix")
    cols = system.columns
    graphs = []
    for i, entry in enumerate(doc["graphs"]):
        # a graph's id names its output files, so only build_document's
        # G<position> passes
        if entry["id"] != f"G{i}":
            raise ValueError(f"graph {i} has id {entry['id']!r}, not 'G{i}'")
        verts = [tuple(v) for v in entry["vertices"]]
        # type(x) is int rejects floats such as 1.0 and 1.5, and bools
        if not all(type(x) is int for v in verts for x in v):
            raise ValueError(f"graph {entry['id']} has a non-integer vertex coordinate")
        # the constructor checks each vec_index and count; the tail and
        # head must index the vertex list
        items = []
        ends = []
        for e in entry["edges"]:
            tail, head = e["tail"], e["head"]
            if not (type(tail) is type(head) is int
                    and 0 <= tail < len(verts) and 0 <= head < len(verts)):
                raise ValueError(f"edge {e} indexes past the vertex list")
            items.append((verts[tail], e["vec_index"], e["count"]))
            ends.append(verts[head])
        graph = VectorGraph(system, items)
        heads = graph._heads  # a zero-count edge is dropped and has no entry
        for (tail, idx, _), head in zip(items, ends):
            if (heads.get((tail, idx)) or tuple(map(add, tail, cols[idx]))) != head:
                raise ValueError(f"edge {tail} -> {head} along {idx} is geometrically inconsistent")
        graphs.append(graph)
    return system, graphs, doc
