"""End-to-end benchmark of the kirchgraph CLI.

Run from the root of a source checkout:

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the workload's jobs run as fresh ``kirchgraph``
processes, one at a time (a closed loop with one client), pass after pass
for about ``--seconds`` seconds.  Each job's output is checked.  The run
prints the end-to-end metrics: set-up time, the median pass's wall time
and CPU time (pool workers included), all three rescaled by the speed
probe of ``harness.py`` to the reference machine's speed, and the largest
per-job peak RSS.

With ``--trace 1`` the same jobs run once inside this process through
``kirchgraph.cli.main``, with wrappers around each layer's public
functions, and the run prints the per-layer metrics (see ``trace_layers.py``).

Diagnostics go to standard error; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The benchmark reads and writes only inside the checkout,
under ``.bench_work/``.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import os
import shutil
import signal
import statistics
from pathlib import Path
from time import perf_counter

from harness import (
    PROBED_LAUNCHER,
    SRC,
    WORK,
    Finished,
    Outcomes,
    child_env,
    log,
    probe_speed,
    result,
    spawn,
)
from workloads import WORKLOADS, Job, Workload

SETUP_LAUNCHES_PER_PASS = 3


def run_timed(workload: Workload, seed: int, seconds: float, work: Path) -> dict:
    env = child_env()
    outcomes = Outcomes()

    probes = work / "probe.txt"

    def launch(args: list[str]) -> tuple[Finished, float]:
        """Run ``kirchgraph <args>``; returns how it ended and its probed speed."""
        done = spawn([sys.executable, "-c", PROBED_LAUNCHER, str(probes), *args],
                     work / "out.txt", work / "err.txt", env)
        return done, probe_speed(probes)

    def run_job(job: Job) -> str | None:
        done, _ = launch(job.argv)
        return outcomes.record(job, done.code, done.stdout)

    # The first launch compiles the byte code, as installing the package does.
    if launch(["--help"])[0].code != 0:
        log("kirchgraph --help failed:", (work / "err.txt").read_text())
        return result(outcomes, False, {})

    error = workload.prepare(work, seed, run_job)
    if error:
        log(f"FAILED preparing {workload.name}: {error}")
        return result(outcomes, False, {})

    setup = []
    passes = []  # per pass: wall and cpu at reference speed, largest peak RSS, raw wall and cpu
    by_job: dict[str, list[float]] = {}
    speeds = []
    start = perf_counter()
    while True:
        # Set-up samples spread over the run, so a slow moment of the
        # machine weighs on setup_s no more than on the passes.
        for _ in range(SETUP_LAUNCHES_PER_PASS):
            done, speed = launch(["--help"])
            setup.append(done.wall_s * speed)
        wall = cpu = rss = raw_wall = raw_cpu = 0.0
        for job in workload.jobs(work, seed, len(passes)):
            done, speed = launch(job.argv)
            outcomes.record(job, done.code, done.stdout)
            wall += done.wall_s * speed
            cpu += done.cpu_s * speed
            rss = max(rss, done.peak_rss_mb)
            raw_wall += done.wall_s
            raw_cpu += done.cpu_s
            speeds.append(speed)
            by_job.setdefault(job.label, []).append(done.wall_s * speed)
        passes.append((wall, cpu, rss, raw_wall, raw_cpu))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    walls = sorted(p[0] for p in passes)
    log(f"{workload.name}: {len(passes)} passes in {elapsed:.1f} s; pass wall s at reference speed: "
        + " ".join(f"{w:.3f}" for w in walls))
    log(f"raw pass wall s: median {statistics.median(p[3] for p in passes):.3f}, cpu s: median "
        f"{statistics.median(p[4] for p in passes):.3f}; probed speed: median "
        f"{statistics.median(speeds):.3f}, range {min(speeds):.3f}-{max(speeds):.3f}")
    log("median s per job at reference speed: " + ", ".join(
        f"{label} {statistics.median(ts):.3f}" for label, ts in by_job.items()))
    log("job times s at reference speed: " + json.dumps(by_job))
    outcomes.log_digests()
    return result(outcomes, True, {
        "setup_s": (statistics.median(setup), "s"),
        "wall_ref_s": (statistics.median(walls), "s"),
        "cpu_ref_s": (statistics.median(p[1] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p[2] for p in passes), "MB"),
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn termination into an exception, so the running job is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # Pool workers forked by the traced run keep the default action, which
    # Pool.terminate relies on: an exception raised inside a worker can
    # leave it waiting forever on a lock of the pool's queues.
    os.register_at_fork(after_in_child=lambda: signal.signal(signal.SIGTERM, signal.SIG_DFL))
    if not (SRC / "kirchgraph" / "cli.py").is_file():
        log(f"error: no kirchgraph sources under {SRC}")
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            from trace_layers import run_traced

            outcome = run_traced(workload, args.seed, work)
        else:
            outcome = run_timed(workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
