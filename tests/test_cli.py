import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kirchgraph.cli import EXIT_BROKEN_PIPE, _SLICE, _write, main, parse_matrix_text, CliError
from kirchgraph.document import build_document, document_to_json, parse_document
from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff
from kirchgraph.exactalg import build_row_system
from kirchgraph.render import render_dot, render_svg
from kirchgraph.vgraph import VectorGraph

SQUARE = "2 0 1 1\n0 2 1 -1\n"


@pytest.fixture
def square_matrix(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text("# axis pair plus diagonals\n" + SQUARE)
    return path


@pytest.fixture
def square_doc(tmp_path, square_matrix):
    out = tmp_path / "doc.json"
    code = main(
        ["enumerate", "--matrix", str(square_matrix), "--m-max", "2", "--out", str(out)]
    )
    assert code == 0
    return out


# -- matrix parsing -------------------------------------------------------


def test_matrix_parsing_with_comments_and_fractions():
    rows = parse_matrix_text("# heading\n1/2 0 1\n0 1/2 1  # trailing\n")
    assert rows[0][0] == rows[1][1]
    assert str(rows[0][0]) == "1/2"


def test_matrix_parse_errors():
    with pytest.raises(CliError) as err:
        parse_matrix_text("1 x 2\n")
    assert err.value.code == 2
    with pytest.raises(CliError):
        parse_matrix_text("# nothing here\n")


def test_matrix_tokens_are_integers_or_p_over_q(tmp_path, capsys):
    # Fraction also reads decimals, exponents and underscores, and an
    # exponent such as 1e999999999 never finishes; these exit 2 first.
    assert parse_matrix_text("-5/2 +3 0\n") == [[Fraction(-5, 2), 3, 0]]
    for tok in ["1e3", "0.5", "1_0"]:
        matrix = tmp_path / "matrix.txt"
        matrix.write_text(f"2 0 1 1\n0 2 1 {tok}\n")
        assert main(["enumerate", "--matrix", str(matrix), "--m-max", "1"]) == 2
        assert f"bad rational {tok!r}" in capsys.readouterr().err


def test_degenerate_matrix_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 2\n0 1 0\n")  # third column parallel to the first
    assert main(["enumerate", "--matrix", str(bad), "--m-max", "2"]) == 3


def test_ragged_matrix_exit_code(tmp_path, capsys):
    bad = tmp_path / "ragged.txt"
    bad.write_text("1 0 1 1\n0 1 1\n")
    assert main(["enumerate", "--matrix", str(bad), "--m-max", "2"]) == 2


# -- enumerate ----------------------------------------------------------------


def test_enumerate_summary_and_document(square_doc, capsys):
    doc = json.loads(square_doc.read_text())
    assert doc["schema"] == "kg-doc/1"
    assert doc["summary"] == {
        "total": 2,
        "self_chiral": 2,
        "chiral_pairs": 0,
        "primes": None,
    }
    ids = [g["id"] for g in doc["graphs"]]
    assert ids == ["G0", "G1"]
    assert all(g["multiplicity"] == 2 for g in doc["graphs"])


def test_enumerate_classify_prime(tmp_path, square_matrix, capsys):
    out = tmp_path / "p.json"
    code = main(
        [
            "enumerate",
            "--matrix",
            str(square_matrix),
            "--m-max",
            "2",
            "--classify-prime",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert "2 prime" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert [g["prime"] for g in doc["graphs"]] == ["prime", "prime"]


def test_enumerate_zero_graphs_is_success(tmp_path, square_matrix, capsys):
    code = main(["enumerate", "--matrix", str(square_matrix), "--m-max", "1"])
    assert code == 0
    assert capsys.readouterr().out.startswith("0 graphs")


def test_enumerate_without_negative_sum_prune(tmp_path, capsys):
    # Without the prune the search recovers some of the graphs that its
    # skipping discipline misses (see the enumerator's module docstring).
    matrix = tmp_path / "triangle.txt"
    matrix.write_text("1 0 1\n0 1 1\n")
    argv = ["enumerate", "--matrix", str(matrix), "--m-max", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "12 graphs; 4 self-chiral; 3 chiral pairs\n"
    assert main(argv + ["--no-negative-sum-prune"]) == 0
    assert capsys.readouterr().out == "17 graphs; 5 self-chiral; 6 chiral pairs\n"


def test_enumerate_node_limit_exit_code(tmp_path, square_matrix, capsys):
    code = main(
        [
            "enumerate",
            "--matrix",
            str(square_matrix),
            "--m-max",
            "2",
            "--node-limit",
            "3",
        ]
    )
    assert code == 4
    assert "INCOMPLETE" in capsys.readouterr().out


def test_byte_identical_output_across_runs_and_workers(tmp_path, square_matrix):
    outs = []
    for i, workers in enumerate(("1", "2", "1")):
        out = tmp_path / f"run{i}.json"
        main(
            [
                "enumerate",
                "--matrix",
                str(square_matrix),
                "--m-max",
                "2",
                "--workers",
                workers,
                "--out",
                str(out),
            ]
        )
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


def test_node_limit_truncates_alike_at_every_worker_count(tmp_path, square_matrix):
    # A node-limited search runs in one process, so the limit falls on the
    # same node of the serial order whatever --workers says.
    docs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.json"
        args = ["enumerate", "--matrix", str(square_matrix), "--m-max", "4"]
        args += ["--node-limit", "300", "--workers", str(workers), "--out", str(out)]
        assert main(args) == 4
        docs.append(out.read_bytes())
        config = SearchConfig(m_max=4, node_limit=300, workers=workers)
        _, stats = enumerate_kirchhoff(build_row_system(parse_matrix_text(SQUARE)), config)
        assert stats.nodes_expanded == 301
    assert docs[0] == docs[1]


# -- document round trip ----------------------------------------------------------


def test_document_round_trip(square_doc):
    text = square_doc.read_text()
    system, graphs, doc = parse_document(text)
    rebuilt = document_to_json(doc)
    assert rebuilt == text
    for entry, graph in zip(doc["graphs"], graphs):
        assert graph.is_kirchhoff().ok
        assert graph.multiplicity().m == entry["multiplicity"]


def test_parse_document_drops_zero_count_edges(square_doc):
    # A zero-count edge adds no vertex: the graph equals the one without it.
    doc = json.loads(square_doc.read_text())
    _, graphs, _ = parse_document(json.dumps(doc))
    entry = doc["graphs"][0]
    n = len(entry["vertices"])
    entry["vertices"] += [[9, 9], [11, 9]]
    entry["edges"].append({"tail": n, "head": n + 1, "vec_index": 0, "count": 0})
    _, padded, _ = parse_document(json.dumps(doc))
    assert padded[0] == graphs[0]
    assert padded[0].vertices == graphs[0].vertices


def test_parse_document_rejects_bad_schema():
    from kirchgraph.document import parse_document as pd

    with pytest.raises(ValueError):
        pd(json.dumps({"schema": "other/9"}))


def _set(field, value):
    return lambda graph: graph["edges"][0].update({field: value})


def _alias(field, period=None):
    """Shift an index down by one period, so Python indexing would still
    land on the same item: the check, not the geometry, must reject it."""

    def mangle(graph):
        graph["edges"][0][field] -= period or len(graph["vertices"])

    return mangle


def _float_vertex(graph):
    """Write one coordinate as a float of the same value, e.g. 0.0."""
    vertex = graph["vertices"][0]
    vertex[0] = float(vertex[0])


def _set_head_to_tail(graph):
    edge = graph["edges"][0]
    edge["head"] = edge["tail"]


@pytest.mark.parametrize(
    "mangle",
    [
        pytest.param(_set("vec_index", 4), id="vec_index past n"),
        pytest.param(_alias("vec_index", 4), id="negative vec_index"),
        pytest.param(_set("tail", 99), id="tail past vertices"),
        pytest.param(_set("head", 99), id="head past vertices"),
        pytest.param(_alias("tail"), id="negative tail"),
        pytest.param(_alias("head"), id="negative head"),
        pytest.param(_set("count", "2"), id="string count"),
        pytest.param(_set("count", 1.5), id="fractional count"),
        pytest.param(_set("count", True), id="bool count"),
        pytest.param(_float_vertex, id="float vertex"),
        # only the geometric check can reject this one
        pytest.param(_set_head_to_tail, id="head at tail"),
        pytest.param(lambda graph: graph.update(edges=5), id="non-list edges"),
        pytest.param(lambda graph: graph.update(id="../escaped"), id="path id"),
        pytest.param(lambda graph: graph.update(id="G1"), id="duplicate id"),
        pytest.param(lambda graph: graph.update(id="X"), id="non-positional id"),
        pytest.param(lambda graph: "[" * 200000, id="deep nesting"),
    ],
)
def test_malformed_document_exits_2(tmp_path, square_doc, capsys, mangle):
    # a mangle that returns text replaces the whole document with it
    doc = json.loads(square_doc.read_text())
    text = mangle(doc["graphs"][0])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc) if text is None else text)
    assert main(["verify", "--doc", str(bad)]) == 2
    assert "bad document:" in capsys.readouterr().err


def _bool_r(system):
    system["R"][0][2] = True  # equal to 1 in Python, not in JSON


@pytest.mark.parametrize(
    "mangle",
    [
        pytest.param(lambda s: s.update(R=[[2 * x for x in r] for r in s["R"]]), id="doubled R"),
        pytest.param(lambda s: s.update(R=[[str(x) for x in r] for r in s["R"]]), id="string R"),
        pytest.param(_bool_r, id="bool R"),
        pytest.param(lambda s: s.update(C=[[9, 9], [9, 9]], q=7, n=99), id="foreign C, q and n"),
    ],
)
def test_system_echo_must_match_the_rebuilt_system(tmp_path, square_doc, capsys, mangle):
    # R normalizes and accepts string and bool entries, so each of these
    # rebuilds the square system; the echo must still be the one it writes.
    doc = json.loads(square_doc.read_text())
    mangle(doc["system"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--doc", str(bad)]) == 2
    assert "bad document: stored system echo" in capsys.readouterr().err


# -- verify ----------------------------------------------------------------------


def test_verify_ok_document(square_doc, capsys):
    assert main(["verify", "--doc", str(square_doc)]) == 0
    out = capsys.readouterr().out
    assert out.count(": ok") == 2


def test_verify_detects_broken_graph(tmp_path, square_doc, capsys):
    doc = json.loads(square_doc.read_text())
    del doc["graphs"][0]["edges"][0]
    mangled = tmp_path / "broken.json"
    mangled.write_text(json.dumps(doc, indent=2) + "\n")
    assert main(["verify", "--doc", str(mangled)]) == 1
    out = capsys.readouterr().out
    assert "bad_vertex" in out
    assert "at vertex" in out


def test_verify_into_a_closed_pipe_exits_141_quietly(tmp_path):
    # `verify --doc triangle-m4.json | head -n 1`: the reader takes one
    # line of the 1,295 and closes the pipe.  The pipe is shrunk to one
    # page, so the writer is still blocked on it when it closes.
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe size cannot be set here")
    matrix = tmp_path / "triangle.txt"
    matrix.write_text("1 0 1\n0 1 1\n")
    doc = tmp_path / "triangle-m4.json"
    assert main(["enumerate", "--matrix", str(matrix), "--m-max", "4", "--out", str(doc)]) == 0
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    r, w = os.pipe()
    fcntl.fcntl(r, fcntl.F_SETPIPE_SZ, 4096)
    proc = subprocess.Popen(
        [sys.executable, "-m", "kirchgraph.cli", "verify", "--doc", str(doc)],
        stdout=w, stderr=subprocess.PIPE, env=env,
    )
    os.close(w)
    head = b""
    while b"\n" not in head:
        chunk = os.read(r, 64)
        assert chunk, "verify printed no line"
        head += chunk
    os.close(r)
    _, err = proc.communicate(timeout=60)
    assert head.split(b"\n")[0] == b"G0: ok"
    assert (proc.returncode, err) == (EXIT_BROKEN_PIPE, b"")


def test_verify_trivial_empty_graph(tmp_path, square_doc, capsys):
    doc = json.loads(square_doc.read_text())
    doc["graphs"] = [
        {
            "id": "G0",
            "vertices": [],
            "edges": [],
            "multiplicity": 0,
            "self_chiral": True,
            "chiral_of": None,
            "prime": None,
        }
    ]
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", "--doc", str(path)]) == 0
    assert "trivial" in capsys.readouterr().out



def test_verify_reports_a_deficient_cycle_space(tmp_path, capsys):
    # Two triangle planes sharing no vectors: a triangle in the first plane
    # passes the vertex check but misses the second plane's vectors.
    system = build_row_system(
        [[1, 0, 0, 0, 1, 0], [0, 1, 0, 0, 1, 0], [0, 0, 1, 0, 0, 1], [0, 0, 0, 1, 0, 1]]
    )
    origin = (0, 0, 0, 0)
    triangle = VectorGraph(system, [(origin, 0), ((1, 0, 0, 0), 1), (origin, 4)])
    path = tmp_path / "deficient.json"
    path.write_text(document_to_json(build_document(system, [triangle])))
    assert main(["verify", "--doc", str(path)]) == 1
    assert capsys.readouterr().out == "G0: cycle_space_deficient (rank 1 of 2)\n"


# -- tile ----------------------------------------------------------------------------


def test_tile_sum(square_doc, tmp_path, capsys):
    out = tmp_path / "sum.json"
    code = main(
        [
            "tile",
            "--doc",
            str(square_doc),
            "1*G0@(0,0) + 1*G1@(1,1)",
            "--out",
            str(out),
            "--check-prime",
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "ok; m = 4" in printed
    assert "composite" in printed
    doc = json.loads(out.read_text())
    assert doc["graphs"][0]["multiplicity"] == 4


def test_tile_coefficient_stacks_copies(square_doc, capsys):
    assert main(["tile", "--doc", str(square_doc), "3*G0@(0,0)"]) == 0
    assert "m = 6" in capsys.readouterr().out


def test_tile_bad_offset_exits_5(square_doc, capsys):
    code = main(["tile", "--doc", str(square_doc), "1*G0@(0,0) - 1*G1@(0,0)"])
    assert code == 5


def test_tile_non_kirchhoff_operand_exits_5(square_doc, tmp_path, capsys):
    doc = json.loads(square_doc.read_text())
    doc["graphs"][0]["edges"].pop()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--doc", str(bad)]) == 1
    assert capsys.readouterr().out.startswith("G0: bad_vertex")
    assert main(["tile", "--doc", str(bad), "1*G0"]) == 5
    assert "tile failed: sum produced a non-Kirchhoff graph" in capsys.readouterr().err


def test_tile_parse_errors(square_doc, capsys):
    assert main(["tile", "--doc", str(square_doc), "1*G9@(0,0)"]) == 2
    assert main(["tile", "--doc", str(square_doc), "- 1*G0@(0,0)"]) == 2
    assert main(["tile", "--doc", str(square_doc), "1*G0@(0,0) 1*G1"]) == 2
    assert main(["tile", "--doc", str(square_doc), "1*G0@(1,2,3)"]) == 2
    capsys.readouterr()
    for expression, message in [
        ("1*G0 +", "cannot parse expression at: '+'"),
        ("", "empty expression"),
    ]:
        assert main(["tile", "--doc", str(square_doc), expression]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


# -- render ----------------------------------------------------------------------------


def test_render_dot_parse_back(square_doc, tmp_path):
    outdir = tmp_path / "dots"
    assert (
        main(["render", "--doc", str(square_doc), "--format", "dot", "--out-dir", str(outdir)])
        == 0
    )
    system, graphs, doc = parse_document(square_doc.read_text())
    for entry, graph in zip(doc["graphs"], graphs):
        text = (outdir / f"{entry['id']}.dot").read_text()
        nodes = re.findall(r"^\s*v\d+ \[pos=", text, re.M)
        edges = re.findall(r"v\d+ -> v\d+", text)
        assert len(nodes) == len(graph.vertices)
        assert len(edges) == len(graph.edge_items())


def test_render_svg_marks_parallel_copies(square_doc, tmp_path):
    outdir = tmp_path / "svgs"
    assert (
        main(["render", "--doc", str(square_doc), "--format", "svg", "--out-dir", str(outdir)])
        == 0
    )
    system, graphs, doc = parse_document(square_doc.read_text())
    doubled_id = next(
        e["id"]
        for e, g in zip(doc["graphs"], graphs)
        if any(c > 1 for _, c in g.edge_items())
    )
    svg = (outdir / f"{doubled_id}.svg").read_text()
    assert ">2</text>" in svg
    assert svg.count("<line") > 0


def test_render_empty_selection_writes_nothing(square_doc, tmp_path):
    outdir = tmp_path / "none"
    assert (
        main(
            [
                "render",
                "--doc",
                str(square_doc),
                "--format",
                "svg",
                "--out-dir",
                str(outdir),
                "--ids",
                "",
            ]
        )
        == 0
    )
    assert list(outdir.iterdir()) == []


def test_render_repeated_ids_write_each_file_once(square_doc, tmp_path, capsys):
    outdir = tmp_path / "repeated"
    argv = ["render", "--doc", str(square_doc), "--out-dir", str(outdir), "--ids", "G1,G0,G1,,G0"]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [str(outdir / "G1.svg"), str(outdir / "G0.svg")]
    assert sorted(p.name for p in outdir.iterdir()) == ["G0.svg", "G1.svg"]


def test_render_writes_nothing_outside_the_out_dir(square_doc, tmp_path, capsys):
    # A graph's id names its file, so an id that is a path is refused
    # before anything is written.
    doc = json.loads(square_doc.read_text())
    doc["graphs"][0]["id"] = "../escaped"
    bad = tmp_path / "escaped.json"
    bad.write_text(json.dumps(doc))
    before = sorted(tmp_path.rglob("*"))
    assert main(["render", "--doc", str(bad), "--out-dir", str(tmp_path / "out")]) == 2
    assert sorted(tmp_path.rglob("*")) == before
    assert not (tmp_path / "escaped.svg").exists()


def test_render_unknown_id_makes_no_out_dir(square_doc, tmp_path, capsys):
    # every --ids entry is looked up before the out dir is made
    outdir = tmp_path / "newdir"
    assert main(["render", "--doc", str(square_doc), "--ids", "G9", "--out-dir", str(outdir)]) == 2
    assert "unknown graph id G9" in capsys.readouterr().err
    assert not outdir.exists()


def test_render_the_empty_tile_result(square_doc, tmp_path, capsys):
    # G0 - G0 leaves the empty graph, which both renderers draw without a
    # vertex.
    doc = tmp_path / "empty.json"
    assert main(["tile", "--doc", str(square_doc), "1*G0 - 1*G0", "--out", str(doc)]) == 0
    for fmt in ("svg", "dot"):
        argv = ["render", "--doc", str(doc), "--format", fmt, "--out-dir", str(tmp_path)]
        assert main(argv) == 0
    svg = (tmp_path / "G0.svg").read_bytes()
    assert b"empty graph</text>" in svg
    assert hashlib.sha256(svg).hexdigest() == (
        "31cabc432fa19fa9b2905a0f69a80902d8342ed21d6316a61f64c533022dcc8a"
    )
    dot = (tmp_path / "G0.dot").read_text()
    assert dot == 'digraph "G0" {\n  node [shape=point, width=0.08];\n}\n'


def test_render_deterministic_bytes(square_doc, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        main(["render", "--doc", str(square_doc), "--format", "svg", "--out-dir", str(d)])
    assert (a / "G0.svg").read_bytes() == (b / "G0.svg").read_bytes()


def test_rendered_svg_is_well_formed_xml(square_doc, tmp_path):
    import xml.etree.ElementTree as ET

    outdir = tmp_path / "xmlcheck"
    main(["render", "--doc", str(square_doc), "--format", "svg", "--out-dir", str(outdir)])
    for path in sorted(outdir.iterdir()):
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")


def test_render_functions_reject_nothing_but_stay_pure(square_doc):
    system, graphs, _ = parse_document(square_doc.read_text())
    g = graphs[0]
    assert render_dot(g, "X") == render_dot(g, "X")
    assert render_svg(g, "X") == render_svg(g, "X")


def test_render_projects_higher_dimensions_with_warning(tmp_path, capsys):
    mat = tmp_path / "cube.txt"
    mat.write_text("1 0 0 1\n0 1 0 1\n0 0 1 1\n")
    doc = tmp_path / "cube.json"
    assert main(["enumerate", "--matrix", str(mat), "--m-max", "1", "--out", str(doc)]) == 0
    outdir = tmp_path / "proj"
    code = main(
        ["render", "--doc", str(doc), "--format", "svg", "--out-dir", str(outdir), "--ids", "G0"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "projecting onto the first two coordinates" in captured.err
    assert (outdir / "G0.svg").exists()


# -- fundamental / min-multiplicity -----------------------------------------------------


def test_fundamental_command(square_matrix, capsys):
    assert main(["fundamental", "--matrix", str(square_matrix), "--m-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "{G0, G1}" in out
    assert "bound-relative" in out


def test_fundamental_names_are_the_document_ids(tmp_path, capsys):
    # The command names graph i G{i}; the document of the same census
    # gives the graphs of each printed set those ids.
    from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff
    from kirchgraph.tiling import fundamental_sets

    matrix = tmp_path / "shear.txt"
    matrix.write_text("1 0 2 1\n0 1 1 2\n")
    assert main(["fundamental", "--matrix", str(matrix), "--m-max", "6"]) == 0
    printed = re.findall(r"\{(.*)\}", capsys.readouterr().out)
    system = build_row_system([[1, 0, 2, 1], [0, 1, 1, 2]])
    graphs, _ = enumerate_kirchhoff(system, SearchConfig(m_max=6))
    doc = build_document(system, graphs, m_max=6)
    by_doc = [", ".join(doc["graphs"][i]["id"] for i in subset) for subset in fundamental_sets(graphs)]
    assert printed == by_doc == ["G0, G1, G2", "G0, G1, G3", "G0, G2, G3", "G1, G2, G3"]


def test_fundamental_without_graphs_is_success(square_matrix, capsys):
    # the square system has no graph below m = 2
    assert main(["fundamental", "--matrix", str(square_matrix), "--m-max", "1"]) == 0
    assert capsys.readouterr().out == "no graphs to generate\n"


def test_missing_matrix_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.txt"
    assert main(["enumerate", "--matrix", str(missing), "--m-max", "1"]) == 2
    assert "No such file or directory" in capsys.readouterr().err


def test_min_multiplicity_command(square_matrix, capsys):
    assert main(["min-multiplicity", "--matrix", str(square_matrix), "--m-limit", "2"]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_min_multiplicity_none(tmp_path, capsys):
    mat = tmp_path / "m.txt"
    mat.write_text(SQUARE)
    assert main(["min-multiplicity", "--matrix", str(mat), "--m-limit", "1"]) == 0
    assert capsys.readouterr().out.strip() == "none"


@pytest.mark.parametrize("command", ["min-multiplicity", "fundamental"])
def test_min_multiplicity_takes_no_workers(square_matrix, command):
    # min-multiplicity and fundamental search in one process; only
    # enumerate takes --workers.
    bound = "--m-limit" if command == "min-multiplicity" else "--m-max"
    with pytest.raises(SystemExit) as err:
        main([command, "--matrix", str(square_matrix), bound, "2", "--workers", "2"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "command, flag",
    [
        ("enumerate", "--m-max"),
        ("enumerate", "--workers"),
        ("enumerate", "--node-limit"),
        ("fundamental", "--m-max"),
        ("fundamental", "--coeff-bound"),
        ("min-multiplicity", "--m-limit"),
    ],
)
@pytest.mark.parametrize("value", ["0", "-1"])
def test_numeric_flags_below_one_exit_2(square_matrix, capsys, command, flag, value):
    # argparse converts every occurrence of a flag, so the value is
    # rejected even after a valid one.
    bound = "--m-limit" if command == "min-multiplicity" else "--m-max"
    with pytest.raises(SystemExit) as err:
        main([command, "--matrix", str(square_matrix), bound, "2", flag, value])
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert f"argument {flag}: expected an integer >= 1" in stderr
    assert "Traceback" not in stderr


# -- output paths --------------------------------------------------------------


def test_write_in_slices_gives_the_bytes_of_write_text(tmp_path):
    text = "".join(f"{i},\n" for i in range(3 * _SLICE // 4))
    assert len(text) > 2 * _SLICE
    _write(tmp_path / "sliced.txt", text)
    (tmp_path / "whole.txt").write_text(text)
    assert (tmp_path / "sliced.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()
    _write(tmp_path / "empty.txt", "")
    assert (tmp_path / "empty.txt").read_bytes() == b""


def test_write_onto_a_directory_exits_2(tmp_path, square_doc, capsys):
    with pytest.raises(CliError) as err:
        _write(tmp_path, "{}")
    assert err.value.code == 2
    # render --format json reaches _write with a directory at G0.json
    (tmp_path / "out" / "G0.json").mkdir(parents=True)
    argv = ["render", "--doc", str(square_doc), "--format", "json", "--out-dir"]
    assert main([*argv, str(tmp_path / "out")]) == 2
    assert f"cannot write {tmp_path / 'out' / 'G0.json'}: " in capsys.readouterr().err


@pytest.mark.parametrize("case", ["enumerate", "tile", "render", "enumerate onto a directory"])
def test_unwritable_output_path_exits_2(tmp_path, square_matrix, square_doc, capsys, case):
    # enumerate and tile write into a directory that does not exist, or
    # onto one that exists; render's out dir is an existing file.
    missing = tmp_path / "missing" / "x.json"
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    enumerate_argv = ["enumerate", "--matrix", str(square_matrix), "--m-max", "2", "--out"]
    argv, bad = {
        "enumerate": (enumerate_argv, missing),
        "enumerate onto a directory": (enumerate_argv, tmp_path),
        "tile": (["tile", "--doc", str(square_doc), "1*G0", "--out"], missing),
        "render": (["render", "--doc", str(square_doc), "--out-dir"], blocker),
    }[case]
    assert main([*argv, str(bad)]) == 2
    out, err = capsys.readouterr()
    assert f"error: cannot write {bad}: " in err
    assert "Traceback" not in err
    # every path is checked before any work, so no summary or result line
    assert out == ""
