"""The parallel search gives what the serial one gives.

A pool hands out the anchor cuts one per task, so graphs, counters,
primality statuses and document bytes must not depend on the worker
count or on the start method.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kirchgraph.cli import main
from kirchgraph.enumerator import Search, SearchConfig, enumerate_kirchhoff
from kirchgraph.exactalg import build_row_system
from kirchgraph.tiling import is_prime
from kirchgraph.vgraph import VectorGraph

SRC = Path(__file__).resolve().parent.parent / "src"
TRIANGLE = [[1, 0, 1], [0, 1, 1]]
SQUARE = [[2, 0, 1, 1], [0, 2, 1, -1]]
CENSUSES = [(TRIANGLE, 4, True), (SQUARE, 5, False)]


def write_matrix(path: Path, rows) -> Path:
    path.write_text("".join(" ".join(map(str, row)) + "\n" for row in rows))
    return path


@pytest.mark.parametrize("rows, m_max, classify", CENSUSES)
def test_parallel_search_equals_serial(tmp_path, rows, m_max, classify):
    system = build_row_system(rows)
    matrix = write_matrix(tmp_path / "matrix.txt", rows)
    runs = []
    for workers in (1, 2, 3):
        graphs, stats = enumerate_kirchhoff(system, SearchConfig(m_max=m_max, workers=workers))
        out = tmp_path / f"w{workers}.json"
        argv = ["enumerate", "--matrix", str(matrix), "--m-max", str(m_max)]
        argv += ["--workers", str(workers), "--out", str(out)]
        assert main(argv + ["--classify-prime"] * classify) == 0
        text = out.read_text()
        primes = [entry["prime"] for entry in json.loads(text)["graphs"]]
        runs.append(([g.canonical_key() for g in graphs], stats, primes, text))
    assert runs[0] == runs[1] == runs[2]
    if classify:
        # the document numbers the graphs in census order
        graphs = enumerate_kirchhoff(system, SearchConfig(m_max=m_max))[0]
        assert runs[0][2] == [is_prime(g).status for g in graphs]
        assert "prime" in runs[0][2] and "composite" in runs[0][2]


@pytest.mark.parametrize("rows, m_max, _", CENSUSES)
def test_anchor_tasks_partition_the_search(rows, m_max, _):
    # One task per anchor cut: the per-anchor searches add up to the serial
    # one, node for node and graph for graph.
    system = build_row_system(rows)
    config = SearchConfig(m_max=m_max)
    graphs, stats = enumerate_kirchhoff(system, config)
    nodes, found = 0, set()
    for i in range(len(Search(system, config).anchor_cuts)):
        search = Search(system, config)
        search.run([i])
        nodes += search.stats.nodes_expanded
        found |= search.found
    assert nodes == stats.nodes_expanded
    assert len(found) == len(graphs) == stats.graphs_found


@pytest.mark.parametrize("rows, cuts", [(SQUARE, 4), (TRIANGLE, 6)], ids=["square", "triangle"])
def test_pool_never_outnumbers_the_anchor_cuts(monkeypatch, rows, cuts):
    # at m = 1 square has 4 anchor cuts and triangle 6, so 8 workers ask
    # for a pool of 4 or 6 processes
    import multiprocessing

    from kirchgraph import enumerator

    asked = []

    class FakePool:
        """Records the process count and runs the initializer and the
        tasks in this process."""

        def __init__(self, processes, initializer, initargs):
            asked.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, func, tasks, chunksize=1):
            return map(func, tasks)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)
    monkeypatch.setattr(enumerator, "_worker", None)
    system = build_row_system(rows)
    assert len(Search(system, SearchConfig(m_max=1)).anchor_cuts) == cuts
    serial, serial_stats = enumerate_kirchhoff(system, SearchConfig(m_max=1))
    graphs, stats = enumerate_kirchhoff(system, SearchConfig(m_max=1, workers=8))
    assert asked == [cuts]
    assert [g.canonical_key() for g in graphs] == [g.canonical_key() for g in serial]
    assert stats == serial_stats


def test_sorted_packed_keys_unpack_in_tuple_key_order():
    system = build_row_system(TRIANGLE)
    search = Search(system, SearchConfig(m_max=4))
    search.run(range(len(search.anchor_cuts)))
    assert len(search.found) == 1295
    unpacked = [search.unpack_key(key) for key in sorted(search.found)]
    assert unpacked == sorted(unpacked)
    # each unpacks to the canonical key that a checked graph computes
    for key in unpacked:
        assert VectorGraph(system, dict(key)).canonical_key() == key


def test_spawned_workers_write_the_serial_bytes(tmp_path):
    # Python 3.14 starts pool workers with forkserver on Linux, and macOS
    # and Windows with spawn: a worker must rebuild its state from what the
    # pool pickles, not from a forked copy of the parent.
    matrix = write_matrix(tmp_path / "triangle.txt", TRIANGLE)
    docs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}.json"
        argv = ["enumerate", "--matrix", str(matrix), "--m-max", "3", "--classify-prime",
                "--workers", str(workers), "--out", str(out)]
        code = (
            "import multiprocessing; multiprocessing.set_start_method('spawn'); "
            f"from kirchgraph.cli import main; raise SystemExit(main({argv!r}))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        subprocess.run([sys.executable, "-c", code], env=env, timeout=120, check=True,
                       capture_output=True)
        docs.append(out.read_bytes())
    assert docs[0] == docs[1]
