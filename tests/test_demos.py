"""Smoke test: the demo scripts run to completion against the package."""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ["01_row_systems.py", "02_census.py", "03_tiling_and_primes.py", "04_fundamental_sets.py"]


def run_demo(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    run_demo(script)


def test_figures_demo_writes_into_the_given_directory(tmp_path):
    # one SVG and one DOT file per graph: 2, 16 and 4 graphs
    run_demo("05_figures.py", str(tmp_path / "figures"))
    files = Counter(path.name.split("-")[0] for path in (tmp_path / "figures").iterdir())
    assert files == {"square": 4, "steep": 32, "shear": 8}
