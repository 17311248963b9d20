"""Byte pins for the document and render path.

``document_to_json`` lets ``json.dumps`` write the frame of a document
and fixed templates write its graph entries, and must give exactly
``json.dumps(doc, indent=2)``.  The digests below are the
bytes written before the templated writer, the cached canonical keys and
the one-pass SVG layout: documents, renderings and graph ids must not
change.
"""

import hashlib
import json
import tracemalloc
from functools import cache
from pathlib import Path

import pytest

from kirchgraph.cli import main
from kirchgraph.document import build_document, document_to_json
from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff
from kirchgraph.exactalg import build_row_system
from kirchgraph.tiling import is_prime
from kirchgraph.vgraph import VectorGraph

SYSTEMS = {
    "square": [[2, 0, 1, 1], [0, 2, 1, -1]],
    "steep": [[2, 0, 1, 1], [0, 2, 3, 1]],
    "triangle": [[1, 0, 1], [0, 1, 1]],
    "cube": [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    # two triangle planes that share no edge vectors
    "decomposable": [
        [1, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 1, 0],
        [0, 0, 1, 0, 0, 1],
        [0, 0, 0, 1, 0, 1],
    ],
}


def census(name, m_max, prime=False, node_limit=None):
    """The document ``enumerate`` writes for this census."""
    system = build_row_system(SYSTEMS[name])
    graphs, stats = enumerate_kirchhoff(system, SearchConfig(m_max=m_max, node_limit=node_limit))
    primality = {i: is_prime(g).status for i, g in enumerate(graphs)} if prime else None
    return build_document(
        system, graphs, m_max=m_max, complete=stats.complete, primality=primality
    )


def empty_tile():
    """The document ``tile --out`` writes for an empty result (G0 - G0)."""
    system = build_row_system(SYSTEMS["square"])
    return build_document(system, [VectorGraph.empty(system)])


def unknown_prime():
    system = build_row_system(SYSTEMS["square"])
    graphs, _ = enumerate_kirchhoff(system, SearchConfig(m_max=2))
    return build_document(system, graphs, m_max=2, primality={0: "unknown", 1: "composite"})


# name -> (document, SHA-256 of its JSON bytes, or None where only the
# writer is checked)
DOCUMENTS = {
    "square m=2": (
        lambda: census("square", 2),
        "8866f90e13ebdb90403283687adff23ccc5158c29720edb2bcc68a9a18cdb92d",
    ),
    "square m=5": (
        lambda: census("square", 5),
        "931b78b894f80c4419287f784ad759f4d279103c7fbdd7bade7b55dd78bb9349",
    ),
    "steep m=6 prime": (
        lambda: census("steep", 6, prime=True),
        "2148f4e8a4b354fa7c71e35b82640bcb9b0272f297affaf49b6b10899ac53028",
    ),
    "triangle m=4 prime": (
        lambda: census("triangle", 4, prime=True),
        "cf7b14ba8e38b181fd708a312d288f161bbd9d77bd9588f52a425656503d4b64",
    ),
    "decomposable m=1": (
        lambda: census("decomposable", 1),
        "9b3df7a281616f85ff9cacd4e363046bd5d37b558cd48b02a3e94b8c454009af",
    ),
    "cube m=1": (
        lambda: census("cube", 1),
        "29697fcb899403d8584cabca1fb0fe4a329ed581cbc21343c59bc4267d7c1b35",
    ),
    "node limit": (
        lambda: census("square", 4, node_limit=1500),
        "998e732ef9d08157aec4f17c2067cfcdb0e81c1434e265a62de602afed295d1a",
    ),
    "zero graphs": (
        lambda: census("square", 1),
        "aa0770f3f16ea2f848a37dbb6cfb91f774e01ae20ef58c7c387da8dfde72da63",
    ),
    "empty tile": (
        empty_tile,
        "4ddc24e491de05be18a4656b82e98907fcee992c61b2f16587477b0d877fe19a",
    ),
    "unknown prime": (unknown_prime, None),
}


@cache
def document(name):
    return DOCUMENTS[name][0]()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_the_documents_cover_the_edge_cases():
    assert document("node limit")["complete"] is False
    assert document("zero graphs")["graphs"] == []
    assert document("empty tile")["graphs"][0]["vertices"] == []
    assert document("empty tile")["graphs"][0]["edges"] == []
    assert [e["prime"] for e in document("unknown prime")["graphs"]] == ["unknown", "composite"]
    assert any(e["count"] > 1 for g in document("square m=2")["graphs"] for e in g["edges"])
    assert document("cube m=1")["system"]["k"] == 3


@pytest.mark.parametrize("name", DOCUMENTS)
def test_writer_equals_json_dumps(name):
    doc = document(name)
    assert document_to_json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("name", [name for name, (_, digest) in DOCUMENTS.items() if digest])
def test_document_bytes_are_pinned(name):
    assert sha256(document_to_json(document(name)).encode()) == DOCUMENTS[name][1]


def test_writer_holds_the_text_about_twice():
    # The entries and the joined result are the only copies of the text:
    # a writer that joins the entries, then formats that into the
    # document and appends the newline peaks at about 3.3 times its
    # length here.
    doc = document("triangle m=4 prime")
    tracemalloc.start()
    try:
        text = document_to_json(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) >= 1 << 20
    assert peak < 2.5 * len(text)


def test_zero_graphs_write_an_empty_array():
    text = document_to_json(document("zero graphs"))
    assert '\n  "graphs": [],\n  "summary": {' in text
    assert text.endswith("\n}\n")


# (document, format, files written, SHA-256 of the files concatenated in
# id order).  The triangle census has 1,295 graphs; the cube system
# (k = 3) is projected; the square m=2 graph G1 has doubled edges, whose
# count labels are placed at edge midpoints.
RENDERS = [
    ("triangle m=4 prime", "svg", 1295,
     "c65475ee777e2b6a53603c4c427a9c97ca1b6430ccf141f982cfb8da946978de"),
    ("cube m=1", "svg", 6, "98c29c1d5e6e8c6463b51974d2f7d440688e6440e1524c776ea69fcaedf50117"),
    ("square m=2", "svg", 2, "e16ea18d7fae1e7fea421734a40717bab820721a761614ab32ef8528bc41a032"),
    ("square m=2", "dot", 2, "483e91a0f28c10e64c50ab55d5c004a419eac2c4b0ca68a0c4be67739c7cd2f8"),
    ("square m=2", "json", 2, "ae80800970d2606e5f7c9ab7b553db21a5f0ef8013e46b304eb310f445161dcd"),
]


@pytest.mark.parametrize("name, fmt, count, digest", RENDERS)
def test_render_bytes_are_pinned(tmp_path, capsys, name, fmt, count, digest):
    doc = tmp_path / "doc.json"
    doc.write_text(document_to_json(document(name)))
    outdir = tmp_path / "out"
    assert main(["render", "--doc", str(doc), "--format", fmt, "--out-dir", str(outdir)]) == 0
    paths = capsys.readouterr().out.split()
    assert paths == [str(outdir / f"G{i}.{fmt}") for i in range(count)]
    assert sha256(b"".join(Path(p).read_bytes() for p in paths)) == digest
