"""The parallel search gives what the serial one gives.

Forked workers take the anchor cuts one per task, so graphs, counters,
primality statuses and document bytes must not depend on the worker
count, and a failing worker must fail the run and leave no process
behind.
"""

import json
import os
import time
from pathlib import Path

import pytest

from kirchgraph.cli import main
from kirchgraph.enumerator import Search, SearchConfig, enumerate_kirchhoff
from kirchgraph.exactalg import build_row_system
from kirchgraph.tiling import is_prime
from kirchgraph.vgraph import VectorGraph

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
    # at m = 1 square has 4 anchor cuts and triangle 6, so 8 workers are
    # this process and 3 or 5 forked ones
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    system = build_row_system(rows)
    assert len(Search(system, SearchConfig(m_max=1)).anchor_cuts) == cuts
    serial, serial_stats = enumerate_kirchhoff(system, SearchConfig(m_max=1))
    assert forks == []
    graphs, stats = enumerate_kirchhoff(system, SearchConfig(m_max=1, workers=8))
    assert forks == [os.getpid()] * (cuts - 1)
    assert [g.canonical_key() for g in graphs] == [g.canonical_key() for g in serial]
    assert stats == serial_stats


def assert_no_worker_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_failing_worker_fails_the_run(monkeypatch, capfd):
    parent = os.getpid()
    run = Search.run

    def run_or_fail(self, indices):
        if os.getpid() != parent:
            raise ValueError("worker failed")
        # wait, without reaping it, until the worker has exited, so that it
        # takes a task whatever the order the two processes run in
        deadline = time.monotonic() + 60
        while not os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT | os.WNOHANG):
            assert time.monotonic() < deadline, "the worker never exited"
            time.sleep(0.01)
        run(self, indices)

    monkeypatch.setattr(Search, "run", run_or_fail)
    with pytest.raises(RuntimeError, match="exited with status 1"):
        enumerate_kirchhoff(build_row_system(TRIANGLE), SearchConfig(m_max=2, workers=2))
    assert_no_worker_left()
    err = capfd.readouterr().err
    assert "Traceback" in err and "ValueError: worker failed" in err


def test_a_failing_parent_leaves_no_worker(monkeypatch):
    parent = os.getpid()
    run = Search.run

    def run_or_fail(self, indices):
        if os.getpid() == parent:
            raise ValueError("parent failed")
        run(self, indices)

    monkeypatch.setattr(Search, "run", run_or_fail)
    with pytest.raises(ValueError, match="parent failed"):
        enumerate_kirchhoff(build_row_system(SQUARE), SearchConfig(m_max=5, workers=3))
    assert_no_worker_left()


def test_one_process_where_fork_is_missing(monkeypatch):
    monkeypatch.delattr(os, "fork")
    system = build_row_system(TRIANGLE)
    runs = []
    for workers in (1, 2):
        graphs, stats = enumerate_kirchhoff(system, SearchConfig(m_max=2, workers=workers))
        runs.append(([g.canonical_key() for g in graphs], stats))
    assert runs[0] == runs[1]


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
