"""The traced benchmark run wraps library functions by name, so removing or
renaming one of them breaks the bench.  This test only reads files under
``bench/``."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    from trace_layers import VGRAPH_METHODS, Tracer

    import kirchgraph.cli as cli
    from kirchgraph.vgraph import VectorGraph

    before = {m: VectorGraph.__dict__[m] for m in VGRAPH_METHODS}
    main = cli.main
    matrix = tmp_path / "triangle.txt"
    matrix.write_text("1 0 1\n0 1 1\n")
    doc = tmp_path / "doc.json"
    tracer = Tracer()
    try:
        tracer.install()
        assert all(VectorGraph.__dict__[m] is not before[m] for m in VGRAPH_METHODS)
        argv = ["enumerate", "--matrix", str(matrix), "--m-max", "2", "--classify-prime"]
        assert cli.main([*argv, "--out", str(doc)]) == 0
        assert cli.main(["verify", "--doc", str(doc)]) == 0
        graph = cli.parse_document(doc.read_text())[1][0]
        assert graph.is_vector_2_connected()
        assert graph.chiral().is_kirchhoff().ok
    finally:
        tracer.uninstall()
    assert {m: VectorGraph.__dict__[m] for m in VGRAPH_METHODS} == before
    assert cli.main is main
    calls, _ = tracer.layer_times()
    for name in (
        "cli.main",
        "exactalg.build_row_system",
        "enumerator.search",
        "tiling.is_prime",
        "document.build_document",
        "document.document_to_json",
        "document.parse_document",
        *(f"vgraph.{m}" for m in VGRAPH_METHODS),
    ):
        assert calls[name] > 0, name
    assert tracer.counts["enumerator.graphs"] > 0
