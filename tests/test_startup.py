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


def loaded_modules(code: str) -> set[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{REPORT}"],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


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


def test_serial_runs_do_not_load_multiprocessing(tmp_path):
    # a pool is opened only for --workers > 1 without a node limit
    matrix = tmp_path / "triangle.txt"
    matrix.write_text("1 0 1\n0 1 1\n")
    doc = tmp_path / "doc.json"
    enumerate_args = ["enumerate", "--matrix", matrix, "--m-max", "2", "--classify-prime"]
    for argv in (
        enumerate_args + ["--out", doc],
        enumerate_args + ["--workers", "2", "--node-limit", "1000"],
        ["verify", "--doc", doc],
    ):
        assert "multiprocessing" not in loaded_modules(run_cli(argv))
    assert "multiprocessing" in loaded_modules(run_cli(enumerate_args + ["--workers", "2"]))


def test_public_names_resolve_on_first_access():
    star = "from kirchgraph import *\nimport kirchgraph\nassert set(kirchgraph.__all__) <= set(globals())"
    assert loaded_layers(star) == {"exactalg", "vgraph", "enumerator", "tiling", "document"}
    for name in kirchgraph.__all__:
        assert getattr(kirchgraph, name).__name__ == name
        assert name in dir(kirchgraph)
    with pytest.raises(AttributeError, match="no_such_name"):
        kirchgraph.no_such_name
