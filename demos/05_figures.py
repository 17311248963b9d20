#!/usr/bin/env python3
"""Write SVG and DOT renderings for the census graphs.

Usage: python3 demos/05_figures.py [OUT_DIR]   (default: demos/figures/)

The SVGs place vertices on the lattice, color edges per vector with an
arrowhead legend, and annotate coincident parallel copies with their
count.  DOT files carry pinned positions for neato-style layouts.
"""

import sys
from pathlib import Path

from kirchgraph import SearchConfig, build_row_system, enumerate_kirchhoff
from kirchgraph.render import render_dot, render_svg

OUT = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent / "figures"
OUT.mkdir(parents=True, exist_ok=True)

for label, rows, m_max in (
    ("square", [[2, 0, 1, 1], [0, 2, 1, -1]], 2),
    ("steep", [[2, 0, 1, 1], [0, 2, 3, 1]], 6),
    ("shear", [[1, 0, 2, 1], [0, 1, 1, 2]], 6),
):
    system = build_row_system(rows)
    graphs, _ = enumerate_kirchhoff(system, SearchConfig(m_max=m_max))
    for i, graph in enumerate(graphs):
        name = f"{label}-G{i}"
        (OUT / f"{name}.svg").write_text(render_svg(graph, name))
        (OUT / f"{name}.dot").write_text(render_dot(graph, name))
    print(f"{label}: wrote {2 * len(graphs)} files")

print("figures in", OUT)
