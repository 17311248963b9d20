"""Process launching, output bookkeeping and the result line shared by the
timed and the traced runs of the benchmark."""

from __future__ import annotations

import hashlib
import os
import signal
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import Job

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# What the installed ``kirchgraph`` console script runs.
LAUNCHER = "import sys; from kirchgraph.cli import main; sys.exit(main())"
JOB_TIMEOUT_S = 120

# The speed probe.  A vCPU of a shared host runs the same Python code up to
# 1.6 times slower while a neighbour loads its core, and switches between
# such levels every few seconds, so raw times of the same job spread by
# ~20 %.  Jobs therefore run under PROBED_LAUNCHER: after every
# PROBE_INTERVAL_S of CPU time (SIGPROF, so a waiting parent takes no
# samples and each pool worker, re-armed after fork, takes its own), it
# times a fixed loop of dict and integer work and appends that time to a
# log.  The probe costs about 1 % of a job's CPU time.
PROBE_INTERVAL_S = 0.02
PROBE_LOOPS = 1000
# The probe's time on an uncontended core of the reference machine (Intel
# Xeon at 2.1 GHz, Python 3.11.7); times rescaled by probe_speed read as
# seconds on that machine.
PROBE_REF_S = 250e-6
PROBED_LAUNCHER = f"""
import atexit, os, signal, sys
from time import perf_counter

_log = os.open(sys.argv.pop(1), os.O_WRONLY | os.O_CREAT | os.O_TRUNC | os.O_APPEND, 0o644)

def _probe(*_):
    start = perf_counter()
    acc = {{}}
    for i in range({PROBE_LOOPS}):
        key = (i & 63, i % 5)
        acc[key] = acc.get(key, 0) + i * i % 7
    os.write(_log, b"%.9f\\n" % (perf_counter() - start))

def _arm():
    signal.signal(signal.SIGPROF, _probe)
    signal.setitimer(signal.ITIMER_PROF, {PROBE_INTERVAL_S}, {PROBE_INTERVAL_S})

_probe()
_arm()
os.register_at_fork(after_in_child=_arm)
# Interpreter shutdown restores SIGPROF's default action, which kills.
atexit.register(signal.setitimer, signal.ITIMER_PROF, 0)
{LAUNCHER}
"""


def log(*parts) -> None:
    print(*parts, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Finished:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


class JobTimeout(Exception):
    pass


def _time_out(signum, frame):
    raise JobTimeout


def spawn(args: list[str], out: Path, err: Path, env: dict) -> Finished:
    """Run one process to completion and reap it with wait4, which gives
    this child's own rusage: its CPU time includes the pool workers it
    waited for, and its peak RSS is its own, not a running maximum over
    every child this benchmark started.

    A job still running after JOB_TIMEOUT_S is killed with its pool
    workers.  The timeout is an alarm signal, not a timer thread, because
    the traced run forks pool workers and a process with threads must not
    fork.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = perf_counter()
    pid = os.posix_spawn(args[0], args, env, file_actions=actions, setpgroup=0)
    previous = signal.signal(signal.SIGALRM, _time_out)
    signal.alarm(JOB_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException as exc:
        os.killpg(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        if not isinstance(exc, JobTimeout):
            raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    wall = perf_counter() - start
    return Finished(
        code=os.waitstatus_to_exitcode(status),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024,
        stdout=out.read_text(),
    )


def probe_speed(log_path: Path) -> float:
    """The speed a job ran at, relative to the reference machine, from the
    probe times its processes logged: the mean of PROBE_REF_S / time, as
    the samples are evenly spaced in CPU time.  A job's wall or CPU time
    times this speed is its time on the reference machine."""
    times = [float(t) for t in log_path.read_text().split()]
    return sum(PROBE_REF_S / t for t in times) / len(times)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


class Outcomes:
    """Job outcomes of one run: attempts, failures, and the output bytes
    that must not change between passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}

    def record(self, job: Job, code: int, stdout: str) -> str | None:
        self.attempted += 1
        error = f"exit code {code}" if code != 0 else None
        if error is None:
            try:
                error = job.check(stdout)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc!r}"
        for path in job.outputs if error is None else ():
            value = digest(path)
            if self.digests.setdefault(path.name, value) != value:
                error = f"{path.name} changed bytes between passes"
        if error:
            self.failed += 1
            log(f"FAILED {job.label}: {error}")
        return error

    def log_digests(self) -> None:
        for name, value in sorted(self.digests.items()):
            log(f"output {name} sha256:{value}")


def result(outcomes: Outcomes, correct: bool, metrics: dict) -> dict:
    return {
        "correct": correct and outcomes.failed == 0 and outcomes.attempted > 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
