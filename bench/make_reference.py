"""Write the reference censuses the benchmark checks documents against.

Run from the root of a source checkout, at the commit whose census is the
reference:

    python3 bench/make_reference.py

Each file lists one digest per graph (see workloads.graph_digests) of the
census above the minimal multiplicity, where a later, more complete search
may find more graphs but must not lose any.
"""

import sys

sys.dont_write_bytecode = True

from harness import SRC
from workloads import HERE, SQUARE, TRIANGLE, graph_digests

sys.path.insert(0, str(SRC))

from kirchgraph import SearchConfig, build_document, build_row_system, enumerate_kirchhoff

for name, rows, m_max in (("square-m5", SQUARE, 5), ("triangle-m4", TRIANGLE, 4)):
    system = build_row_system(rows)
    graphs, _ = enumerate_kirchhoff(system, SearchConfig(m_max=m_max))
    digests = sorted(graph_digests(build_document(system, graphs, m_max=m_max)))
    (HERE / "reference" / f"{name}.txt").write_text("\n".join(digests) + "\n")
    print(f"{name}: {len(digests)} graphs")
