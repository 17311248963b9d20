"""Start-up footprint: each entry point imports only the layers it calls.

Where byte code is not cached, every module a process imports is compiled
first, so a layer that ``--help`` or a subcommand imports without using
costs start-up time.  Each probe runs in a fresh interpreter and reports
the ``kirchgraph.*`` modules in ``sys.modules`` when it is done.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kirchgraph

SRC = Path(__file__).resolve().parent.parent / "src"
REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True
    )


def loaded_modules(code: str) -> set[str]:
    return set(json.loads(fresh(f"{code}\n{REPORT}").stdout.splitlines()[-1]))


def loaded_layers(code: str) -> set[str]:
    return {
        name.removeprefix("kirchgraph.")
        for name in loaded_modules(code)
        if name.startswith("kirchgraph.")
    }


def run_cli(argv) -> str:
    return f"from kirchgraph.cli import main; assert main({[str(a) for a in argv]!r}) == 0"


def test_importing_the_cli_loads_no_layer():
    assert loaded_layers("import kirchgraph.cli") == {"cli"}


def test_subcommands_load_only_their_layers(tmp_path):
    matrix = tmp_path / "square.txt"
    matrix.write_text("2 0 1 1\n0 2 1 -1\n")
    doc = tmp_path / "doc.json"
    layers = loaded_layers(run_cli(["enumerate", "--matrix", matrix, "--m-max", "2", "--out", doc]))
    assert {"enumerator", "document"} <= layers
    assert not layers & {"tiling", "render"}
    layers = loaded_layers(run_cli(["verify", "--doc", doc]))
    assert "document" in layers
    assert not layers & {"enumerator", "tiling", "render"}
    layers = loaded_layers(run_cli(["fundamental", "--matrix", matrix, "--m-max", "2"]))
    assert {"tiling", "enumerator"} <= layers
    assert not layers & {"document", "render"}


def test_document_and_tiling_commands_do_not_load_dataclasses(tmp_path):
    # dataclasses imports inspect (with ast, dis and tokenize); of the
    # layers, only the search still uses it
    matrix = tmp_path / "square.txt"
    matrix.write_text("2 0 1 1\n0 2 1 -1\n")
    doc = tmp_path / "doc.json"
    assert "dataclasses" in loaded_modules(
        run_cli(["enumerate", "--matrix", matrix, "--m-max", "2", "--out", doc])
    )
    for argv in (
        ["verify", "--doc", doc],
        ["render", "--doc", doc, "--out-dir", tmp_path / "svg"],
        ["tile", "--doc", doc, "1*G0 + 1*G0@(2,0)", "--check-prime"],
    ):
        assert not loaded_modules(run_cli(argv)) & {"dataclasses", "inspect"}


def test_no_run_loads_multiprocessing(tmp_path):
    # the search runs in this process at any --workers, with or without a node limit
    matrix = tmp_path / "triangle.txt"
    matrix.write_text("1 0 1\n0 1 1\n")
    doc = tmp_path / "doc.json"
    enumerate_args = ["enumerate", "--matrix", matrix, "--m-max", "2", "--classify-prime"]
    for argv in (
        enumerate_args + ["--out", doc],
        enumerate_args + ["--workers", "2", "--node-limit", "1000"],
        ["verify", "--doc", doc],
        enumerate_args + ["--workers", "2"],
    ):
        assert "multiprocessing" not in loaded_modules(run_cli(argv))


# Registered before the CLI is imported, so it runs after the CLI's own
# exit hook (atexit is last in, first out).
AT_EXIT = "import atexit, gc; atexit.register(lambda: print('exit', gc.get_freeze_count()))"


def freeze_counts(code: str) -> dict[str, int]:
    """``gc.get_freeze_count()`` in a fresh interpreter running ``code``:
    under ``now`` where ``code`` prints ``now <n>``, and under ``exit``
    after every exit hook the code registers has run."""
    done = fresh(f"{AT_EXIT}\n{code}")
    assert done.stderr == ""
    lines = (line.split() for line in done.stdout.splitlines())
    return {line[0]: int(line[1]) for line in lines if line[:1] in (["now"], ["exit"])}


def test_only_a_cli_process_freezes_the_collector_at_exit(tmp_path):
    matrix = tmp_path / "square.txt"
    matrix.write_text("2 0 1 1\n0 2 1 -1\n")
    # `python -m kirchgraph.cli --help`, which exits inside parse_args
    help_run = "import runpy, sys; sys.argv[1:] = ['--help']; runpy.run_module('kirchgraph.cli', run_name='__main__')"
    assert freeze_counts(help_run)["exit"] > 0
    # what the console script runs
    argv = ["enumerate", "--matrix", str(matrix), "--m-max", "2"]
    assert freeze_counts(f"import sys; from kirchgraph.cli import main; sys.exit(main({argv!r}))")["exit"] > 0
    # an in-process caller keeps a live collector until its own exit
    counts = freeze_counts(
        f"from kirchgraph.cli import main; assert main({argv!r}) == 0\n"
        "import gc; print('now', gc.get_freeze_count())"
    )
    assert counts["now"] == 0 and counts["exit"] > 0
    # the library alone never freezes
    library = (
        "from kirchgraph.enumerator import SearchConfig, enumerate_kirchhoff\n"
        "from kirchgraph.exactalg import build_row_system\n"
        "graphs, _ = enumerate_kirchhoff(build_row_system([[2, 0, 1, 1], [0, 2, 1, -1]]), SearchConfig(m_max=2))\n"
        "assert len(graphs) == 2"
    )
    assert freeze_counts(library) == {"exit": 0}


def test_public_names_resolve_on_first_access():
    star = "from kirchgraph import *\nimport kirchgraph\nassert set(kirchgraph.__all__) <= set(globals())"
    assert loaded_layers(star) == {"exactalg", "vgraph", "enumerator", "tiling", "document"}
    for name in kirchgraph.__all__:
        assert getattr(kirchgraph, name).__name__ == name
        assert name in dir(kirchgraph)
    with pytest.raises(AttributeError, match="no_such_name"):
        kirchgraph.no_such_name
