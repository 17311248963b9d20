"""The traced run: per-layer metrics measured from outside each layer.

The workload's jobs run in this process through ``kirchgraph.cli.main``,
at ``--workers 1`` because pool workers cannot report spans back.  For the
traced runs, wrappers replace the public functions of each layer where
their callers look them up: the names ``kirchgraph.cli`` imported, the
module globals that ``tiling``, ``document`` and ``enumerator`` call
through, and the ``VectorGraph`` methods, so calls made from the search's
``_emit`` and the tiling's ``_verify`` are caught too.  Each call records
a span (name, start, end, parent span, job); spans stay in memory and are
written to ``.bench_work/traces/`` at the end.  A layer's self time is the
duration of its spans minus the time their child spans cover.

The run also makes:

* per enumeration of the workload, one ``Search.run([i])`` per anchor cut
  (the node counts must sum to ``nodes_expanded``), and two rounds of one
  ``enumerate_kirchhoff`` call each at 1 and 2 workers, which must agree;
* for each job run with several workers, one untraced run with the
  workload's own arguments, whose documents must equal the serial ones
  byte for byte;
* an untraced run of each job just before and just after its traced run;
  their mean is what the traced run is compared with (``trace.overhead_s``).
"""

from __future__ import annotations

import gc
import io
import json
import statistics
import sys
import traceback
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path
from time import perf_counter

from harness import WORK, Outcomes, child_env, log, result, spawn
from workloads import Job, Workload

IMPORT_LAUNCHES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import kirchgraph.cli; "
    "print(time.perf_counter() - t)"
)
PARALLEL_WORKERS = 2
PARALLEL_REPEATS = 2

VGRAPH_METHODS = ("is_kirchhoff", "is_vector_2_connected", "canonical_key", "chiral")
TIMED_LAYERS = (
    "exactalg.build_row_system",
    "enumerator.search",
    *(f"vgraph.{m}" for m in VGRAPH_METHODS),
    "tiling.add",
    "tiling.subtract",
    "tiling.is_prime",
    "tiling.span_contains",
    "tiling.fundamental_sets",
    "document.build_document",
    "document.document_to_json",
    "document.parse_document",
    "render.render_svg",
)
COUNTED_LAYERS = (
    *(f"vgraph.{m}" for m in VGRAPH_METHODS),
    "tiling.add",
    "tiling.subtract",
    "tiling.is_prime",
    "tiling.span_contains",
    "render.render_svg",
)


class Tracer:
    """Spans and counters recorded by wrappers around layer functions."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job)
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def wrap(self, name: str, sites, after=None) -> None:
        """Replace the function at each (owner, attribute) site with one
        wrapper that records a span named ``name`` per call and passes the
        result to ``after``."""
        owner, attr = sites[0]
        original = owner.__dict__[attr]
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                value = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job)
            if after is not None:
                after(value)
            return value

        for owner, attr in sites:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def install(self) -> None:
        import kirchgraph.cli as cli
        import kirchgraph.document as document
        import kirchgraph.enumerator as enumerator
        import kirchgraph.tiling as tiling
        from kirchgraph.vgraph import VectorGraph

        counts = self.counts

        def search_done(value):
            stats = value[1]
            counts["enumerator.nodes"] += stats.nodes_expanded
            counts["enumerator.prunes_multiplicity"] += stats.prunes_multiplicity
            counts["enumerator.prunes_negative_sum"] += stats.prunes_negative_sum
            counts["enumerator.candidates"] += stats.candidates
            counts["enumerator.graphs"] += stats.graphs_found

        def count(key, measure):
            def after(value):
                counts[key] += measure(value)

            return after

        self.wrap("cli.main", [(cli, "main")])
        self.wrap(
            "exactalg.build_row_system",
            [(cli, "build_row_system"), (document, "build_row_system")],
        )
        self.wrap(
            "exactalg.enumerate_bounded_cuts",
            [(enumerator, "enumerate_bounded_cuts")],
            count("exactalg.cuts", len),
        )
        self.wrap("enumerator.search", [(cli, "enumerate_kirchhoff")], search_done)
        for method in VGRAPH_METHODS:
            self.wrap(f"vgraph.{method}", [(VectorGraph, method)])
        self.wrap("tiling.add", [(tiling, "add")])
        self.wrap("tiling.subtract", [(tiling, "subtract")])
        self.wrap("tiling.is_prime", [(cli, "is_prime")],
                  count("tiling.primes", lambda v: v.status == "prime"))
        self.wrap("tiling.span_contains", [(tiling, "span_contains")],
                  count("tiling.span_yes", lambda v: v.status == "yes"))
        self.wrap("tiling.fundamental_sets", [(cli, "fundamental_sets")])
        self.wrap("document.build_document", [(cli, "build_document")])
        self.wrap("document.document_to_json", [(cli, "document_to_json")],
                  count("document.json_bytes", lambda v: len(v.encode())))
        self.wrap("document.parse_document", [(cli, "parse_document")])
        self.wrap("render.render_svg", [(cli, "render_svg")],
                  count("render.svg_bytes", lambda v: len(v.encode())))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def layer_times(self) -> tuple[Counter, Counter]:
        """Calls and self time per span name."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        calls, self_s = Counter(), Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i]
        return calls, self_s

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            [{"name": n, "start": s, "end": e, "parent": p, "job": j} for n, s, e, p, j in self.spans]
        ))


def serial(argv: list[str]) -> list[str]:
    argv = list(argv)
    if "--workers" in argv:
        argv[argv.index("--workers") + 1] = "1"
    return argv


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def import_seconds(work: Path) -> float:
    """Median time to import kirchgraph.cli in a fresh interpreter."""
    env = child_env()
    times = []
    for _ in range(IMPORT_LAUNCHES + 1):
        done = spawn([sys.executable, "-c", IMPORT_PROBE], work / "out.txt", work / "err.txt", env)
        times.append(float(done.stdout))
    return statistics.median(times[1:])


def run_traced(workload: Workload, seed: int, work: Path) -> dict:
    import kirchgraph.cli as cli
    from kirchgraph.enumerator import Search, SearchConfig, enumerate_kirchhoff
    from kirchgraph.exactalg import build_row_system

    outcomes = Outcomes()
    tracer = Tracer()

    def run_job(job: Job, argv=None) -> tuple[float, str | None]:
        tracer.job = job.label
        out = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = cli.main(argv or job.argv)
        except Exception:
            log(traceback.format_exc())
            code = -1
        elapsed = perf_counter() - start
        return elapsed, outcomes.record(job, code, out.getvalue())

    import_s = import_seconds(work)

    # Enumerator: anchor split and parallel speed-up, measured first, while
    # the process is fresh, because forked pool workers inherit its heap.
    consistent = True
    nodes = largest_anchor = 0
    t1 = t2 = 0.0
    for spec in workload.searches:
        system = build_row_system(spec.rows)
        config = SearchConfig(m_max=spec.m_max)
        per_anchor = []
        for i in range(len(Search(system, config).anchor_cuts)):
            search = Search(system, config)
            search.run([i])
            per_anchor.append(search.stats.nodes_expanded)
        keys = set()
        for _ in range(PARALLEL_REPEATS):
            for workers in (1, PARALLEL_WORKERS):
                gc.collect()
                start = perf_counter()
                graphs, stats = enumerate_kirchhoff(system, replace(config, workers=workers))
                elapsed = (perf_counter() - start) / PARALLEL_REPEATS
                if workers == 1:
                    t1 += elapsed
                else:
                    t2 += elapsed
                keys.add((stats.nodes_expanded, tuple(g.canonical_key() for g in graphs)))
        nodes += stats.nodes_expanded
        largest_anchor += max(per_anchor)
        split = [sum(per_anchor[w::PARALLEL_WORKERS]) for w in range(PARALLEL_WORKERS)]
        log(f"search m={spec.m_max} {spec.rows}: {stats.nodes_expanded} nodes, "
            f"{len(per_anchor)} anchors, largest {max(per_anchor)}, static split {split}")
        if len(keys) != 1 or sum(per_anchor) != stats.nodes_expanded:
            log("FAILED: per-anchor nodes, serial and parallel searches disagree")
            consistent = False

    if workload.prepare(work, seed, lambda job: run_job(job)[1]) is not None:
        return result(outcomes, False, {})
    jobs = workload.jobs(work, seed, 0)
    for job in jobs:
        if serial(job.argv) != job.argv:
            run_job(job)
    # Each job runs untraced, traced, and untraced again, so that the
    # machine's speed drifts as little as possible within one comparison.
    untraced_s = traced_s = 0.0
    for job in jobs:
        argv = serial(job.argv)
        gc.collect()
        untraced_s += run_job(job, argv)[0] / 2
        tracer.install()
        try:
            traced_s += run_job(job, argv)[0]
        finally:
            tracer.uninstall()
        untraced_s += run_job(job, argv)[0] / 2
    tracer.write(WORK / "traces" / f"{workload.name}-seed{seed}.json")
    calls, self_s = tracer.layer_times()
    counts = tracer.counts
    outcomes.log_digests()
    if counts["enumerator.nodes"] != nodes:
        log(f"FAILED: traced jobs expanded {counts['enumerator.nodes']} nodes, serial search {nodes}")
        consistent = False

    metrics = {
        "cli.import_s": (import_s, "s"),
        "exactalg.cuts": (counts["exactalg.cuts"], "count"),
        "enumerator.nodes": (counts["enumerator.nodes"], "count"),
        "enumerator.prunes_multiplicity": (counts["enumerator.prunes_multiplicity"], "count"),
        "enumerator.prunes_negative_sum": (counts["enumerator.prunes_negative_sum"], "count"),
        "enumerator.candidates": (counts["enumerator.candidates"], "count"),
        "enumerator.graphs": (counts["enumerator.graphs"], "count"),
        "enumerator.graphs_per_candidate": (
            ratio(counts["enumerator.graphs"], counts["enumerator.candidates"]), "ratio"),
        "enumerator.nodes_per_s": (ratio(nodes, t1), "1/s"),
        "enumerator.anchor_max_share": (ratio(largest_anchor, nodes), "ratio"),
        "enumerator.parallel_efficiency": (ratio(t1, PARALLEL_WORKERS * t2), "ratio"),
        "tiling.is_prime.prime_ratio": (
            ratio(counts["tiling.primes"], calls["tiling.is_prime"]), "ratio"),
        "tiling.span_contains.yes_ratio": (
            ratio(counts["tiling.span_yes"], calls["tiling.span_contains"]), "ratio"),
        "document.json_bytes": (counts["document.json_bytes"], "bytes"),
        "render.svg_bytes": (counts["render.svg_bytes"], "bytes"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }
    for name in COUNTED_LAYERS:
        metrics[f"{name}.calls"] = (calls[name], "count")
    for name in TIMED_LAYERS:
        metrics[f"{name}.self_s"] = (float(self_s[name]), "s")
    log(f"untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, {len(tracer.spans)} spans")
    return result(outcomes, consistent, metrics)
