"""Workloads of the kirchgraph benchmark: seeded inputs, jobs and output checks.

A workload is a fixed list of CLI jobs (one pass).  Its inputs come from
the seed, but never change the work:

* every matrix file is the edge-vector matrix multiplied on the left by a
  unimodular integer matrix, which normalizes to the same row system
  R = [qI | C], so the search and the output bytes are unchanged;
* every offset of the tile expression is moved by one lattice vector,
  which translates the result and leaves its canonical document unchanged.

Each pass draws fresh inputs from (seed, pass index), and every output
document must be byte-identical from pass to pass, so each run also
checks that the inputs do not change the outputs.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

SQUARE = [[2, 0, 1, 1], [0, 2, 1, -1]]
STEEP = [[2, 0, 1, 1], [0, 2, 3, 1]]
SHEAR = [[1, 0, 2, 1], [0, 1, 1, 2]]
TRIANGLE = [[1, 0, 1], [0, 1, 1]]

# Grid periods and the first interior embedding of the square-system prime
# family, as kirchgraph.tiling._square_family_geometry derives them: member j
# is 2(j+1) copies of the spread graph at row*T2 + (0 or T1), minus j copies
# of the doubled graph at EMB0 + row*T2.  Its multiplicity is 2j + 4.
FAMILY_T1 = (-1, -1)
FAMILY_T2 = (-1, 1)
FAMILY_EMB0 = (-1, 1)
FAMILY_J = 48


def unimodular(rng: random.Random, k: int) -> list[list[int]]:
    """A random k x k integer matrix of determinant +-1 with small entries."""
    u = [[int(i == j) for j in range(k)] for i in range(k)]
    for _ in range(3):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        if rng.random() < 0.5:
            u[i], u[j] = u[j], u[i]
    return u


def write_matrix(path: Path, rows, rng: random.Random) -> None:
    u = unimodular(rng, len(rows))
    mixed = [
        [sum(u[i][t] * rows[t][j] for t in range(len(rows))) for j in range(len(rows[0]))]
        for i in range(len(rows))
    ]
    path.write_text("\n".join(" ".join(map(str, row)) for row in mixed) + "\n")


def family_expression(spread: str, doubled: str, shift) -> str:
    """The tile expression of prime-family member FAMILY_J, every offset
    moved by ``shift``."""

    def at(off):
        return "@(" + ",".join(str(a + s) for a, s in zip(off, shift)) + ")"

    terms = []
    for row in range(FAMILY_J + 1):
        base = tuple(row * x for x in FAMILY_T2)
        for col in ((0, 0), FAMILY_T1):
            off = tuple(a + b for a, b in zip(base, col))
            terms.append(f"1*{spread}{at(off)}")
    adds = " + ".join(terms)
    subs = "".join(
        f" - 1*{doubled}{at(tuple(a + row * b for a, b in zip(FAMILY_EMB0, FAMILY_T2)))}"
        for row in range(FAMILY_J)
    )
    return adds + subs


# -- checks ---------------------------------------------------------------------


def graph_digests(doc: dict) -> list[str]:
    """A digest of each graph's translation-invariant edge list."""
    out = []
    for entry in doc["graphs"]:
        verts = entry["vertices"]
        low = min(verts)
        edges = sorted(
            ([a - b for a, b in zip(verts[e["tail"]], low)], e["vec_index"], e["count"])
            for e in entry["edges"]
        )
        out.append(hashlib.sha256(json.dumps(edges).encode()).hexdigest()[:16])
    return out


def reference_digests(name: str) -> set[str]:
    return set((HERE / "reference" / f"{name}.txt").read_text().split())


def expect_line(expected: str) -> Callable[[str], str | None]:
    def check(stdout: str):
        return None if stdout.strip() == expected else f"expected {expected!r}"

    return check


def expect_prefix(prefix: str) -> Callable[[str], str | None]:
    def check(stdout: str):
        return None if stdout.startswith(prefix) else f"expected {prefix!r}..."

    return check


SUMMARY_RE = re.compile(r"^(\d+) graphs; \d+ self-chiral; \d+ chiral pairs")


def expect_census(path: Path, reference: str, m_max: int) -> Callable[[str], str | None]:
    """The document holds every graph of the reference census; any graph
    beyond it must verify as a uniform Kirchhoff graph with m <= m_max.

    Above the minimal multiplicity the reference census is known to be
    incomplete, so a completeness fix passes and a lost graph fails.
    """

    def check(stdout: str):
        match = SUMMARY_RE.match(stdout)
        text = path.read_text()
        doc = json.loads(text)
        if not match or int(match.group(1)) != len(doc["graphs"]):
            return "the summary line disagrees with the document"
        digests = graph_digests(doc)
        known = reference_digests(reference)
        missing = known - set(digests)
        if missing:
            return f"{len(missing)} graphs of the reference census are missing"
        if len(set(digests)) != len(digests):
            return "duplicate graphs in the document"
        extra = [i for i, d in enumerate(digests) if d not in known]
        if extra:
            from kirchgraph.document import parse_document

            _, graphs, _ = parse_document(text)
            for i in extra:
                mult = graphs[i].multiplicity()
                if not (graphs[i].is_kirchhoff().ok and mult.uniform and mult.m <= m_max):
                    return f"{doc['graphs'][i]['id']} is not a uniform Kirchhoff graph"
        return None

    return check


def expect_verify(doc: Path) -> Callable[[str], str | None]:
    def check(stdout: str):
        ids = [e["id"] for e in json.loads(doc.read_text())["graphs"]]
        if stdout.splitlines() != [f"{gid}: ok" for gid in ids]:
            return "not every graph verifies"
        return None

    return check


def expect_render(doc: Path, outdir: Path) -> Callable[[str], str | None]:
    def check(stdout: str):
        ids = [e["id"] for e in json.loads(doc.read_text())["graphs"]]
        if stdout.splitlines() != [str(outdir / f"{gid}.svg") for gid in ids]:
            return "rendered files disagree with the document"
        for gid in ids:
            svg = (outdir / f"{gid}.svg").read_text()
            if not (svg.startswith("<svg ") and svg.endswith("</svg>\n")):
                return f"{gid}.svg is not a complete SVG"
        return None

    return check


FUNDAMENTAL_SETS = {
    frozenset(s)
    for s in (("G0", "G1", "G2"), ("G0", "G1", "G3"), ("G0", "G2", "G3"), ("G1", "G2", "G3"))
}


def expect_fundamental(stdout: str) -> str | None:
    sets = {
        frozenset(x.strip() for x in m.group(1).split(","))
        for m in re.finditer(r"^\s+\{(.*)\}$", stdout, re.M)
    }
    return None if sets == FUNDAMENTAL_SETS else "wrong fundamental sets"


# -- workloads ------------------------------------------------------------------


@dataclass
class Job:
    """One CLI invocation and the check of its standard output.

    ``outputs`` are files whose bytes must not change from pass to pass.
    """

    label: str
    argv: list[str]
    check: Callable[[str], str | None]
    outputs: list[Path] = field(default_factory=list)


@dataclass
class SearchSpec:
    """An enumeration a workload runs, for the enumerator layer metrics."""

    rows: list[list[int]]
    m_max: int


class Workload:
    name = ""
    searches: list[SearchSpec] = []

    def prepare(self, work: Path, seed: int, run) -> str | None:
        """Make inputs shared by every pass; returns an error or None."""
        return None

    def jobs(self, work: Path, seed: int, index: int) -> list[Job]:
        raise NotImplementedError


def pass_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"kirchgraph-bench/{seed}/{index}")


class Census(Workload):
    """Search core only: three serial enumerations, no --out beyond the
    one document the completeness check needs."""

    name = "census"
    searches = [SearchSpec(STEEP, 6), SearchSpec(SHEAR, 6), SearchSpec(SQUARE, 5)]

    def jobs(self, work, seed, index):
        rng = pass_rng(seed, index)
        for name, rows in (("steep", STEEP), ("shear", SHEAR), ("square", SQUARE)):
            write_matrix(work / f"{name}.txt", rows, rng)
        doc = work / "square-m5.json"
        return [
            Job(
                "enumerate steep m=6",
                ["enumerate", "--matrix", str(work / "steep.txt"), "--m-max", "6", "--workers", "1"],
                expect_line("16 graphs; 8 self-chiral; 4 chiral pairs"),
            ),
            Job(
                "enumerate shear m=6",
                ["enumerate", "--matrix", str(work / "shear.txt"), "--m-max", "6", "--workers", "1"],
                expect_prefix("4 graphs;"),
            ),
            Job(
                "enumerate square m=5",
                ["enumerate", "--matrix", str(work / "square.txt"), "--m-max", "5",
                 "--workers", "1", "--out", str(doc)],
                expect_census(doc, "square-m5", 5),
                [doc],
            ),
        ]


class Dense(Workload):
    """Many graphs: parallel search, verification, primality, a large
    document written once and read twice, and SVG rendering."""

    name = "dense"
    searches = [SearchSpec(TRIANGLE, 4)]

    def jobs(self, work, seed, index):
        write_matrix(work / "triangle.txt", TRIANGLE, pass_rng(seed, index))
        doc = work / "triangle-m4.json"
        svg = work / "svg"
        return [
            Job(
                "enumerate triangle m=4",
                ["enumerate", "--matrix", str(work / "triangle.txt"), "--m-max", "4",
                 "--classify-prime", "--workers", "2", "--out", str(doc)],
                expect_census(doc, "triangle-m4", 4),
                [doc],
            ),
            Job("verify", ["verify", "--doc", str(doc)], expect_verify(doc)),
            Job(
                "render svg",
                ["render", "--doc", str(doc), "--format", "svg", "--out-dir", str(svg)],
                expect_render(doc, svg),
            ),
        ]


class Algebra(Workload):
    """Tiling algebra: span search for fundamental sets, then a 146-term
    sum and difference building prime-family member j = 48 (m = 100)."""

    name = "algebra"
    searches = [SearchSpec(SHEAR, 6)]

    def prepare(self, work, seed, run):
        write_matrix(work / "square-m2.txt", SQUARE, pass_rng(seed, -1))
        doc = work / "square.json"
        error = run(
            Job(
                "enumerate square m=2",
                ["enumerate", "--matrix", str(work / "square-m2.txt"), "--m-max", "2",
                 "--out", str(doc)],
                expect_prefix("2 graphs;"),
            )
        )
        if error:
            return error
        counts = [{e["count"] for e in g["edges"]} for g in json.loads(doc.read_text())["graphs"]]
        if counts != [{1}, {1, 2}]:
            return "square.json does not list the spread graph as G0 and the doubled one as G1"
        return None

    def jobs(self, work, seed, index):
        rng = pass_rng(seed, index)
        write_matrix(work / "shear.txt", SHEAR, rng)
        shift = (rng.randint(-50, 50), rng.randint(-50, 50))
        out = work / "tile.json"
        return [
            Job(
                "fundamental shear m=6",
                ["fundamental", "--matrix", str(work / "shear.txt"), "--m-max", "6"],
                expect_fundamental,
            ),
            Job(
                "tile prime family j=48",
                ["tile", "--doc", str(work / "square.json"),
                 family_expression("G0", "G1", shift), "--check-prime", "--out", str(out)],
                expect_line("result: ok; m = 100; prime"),
                [out],
            ),
        ]


WORKLOADS = {w.name: w for w in (Census(), Dense(), Algebra())}
