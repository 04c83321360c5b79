"""Shared plumbing of the benchmark: environment, child processes, statistics.

The benchmark runs from the root of a source checkout and measures the
program in ``src/`` only through its public entry points (the ``repro``
CLI, the HTTP daemon and the library's public functions).  Everything it
writes goes under ``.bench_tmp/`` in the checkout.
"""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, aggregate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
BENCH_DIR = Path(__file__).resolve().parent

#: Environment variables that change what the program does (fault injection,
#: auth, dispatch coordinates); no child process of the benchmark sees them.
SCRUBBED_PREFIXES = ("REPRO_DISPATCH_",)
SCRUBBED = ("REPRO_CHAOS", "REPRO_SERVE_TOKEN", "REPRO_HEARTBEAT_FILE")

#: The paper's headline claims: (system, power fraction, quoted reduction %).
PAPER_CLAIMS = (
    ("d695_leon", None, 28.0),
    ("p93791_leon", None, 44.0),
    ("p93791_leon", 0.5, 37.0),
)

#: Per-layer spans; each reports `.calls`, `_ms` (mean busy time per call)
#: and `_self_ms` (mean self time per call).
SPAN_LAYERS = (
    "system.build",
    "noc.characterize",
    "schedule.plan",
    "schedule.interfaces",
    "schedule.greedy",
    "schedule.fastest_completion",
    "schedule.validate",
    "runner.serial_execute",
    "runner.pool_execute",
    "runner.orchestrate",
    "runner.dispatch.worker",
    "runner.db.commit",
    "runner.db.records",
    "runner.db.export",
    "runner.db.history",
    "runner.db.merge",
    "serve.plan",
    "serve.history",
    "serve.submit",
    "serve.job_wait",
    "serve.job_run",
)

#: Per-layer values that are not span aggregates, with their units.
EXTRA_LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.sweep_s": "s",
    "cli.resume_s": "s",
    "cli.sweep_pool_s": "s",
    "cli.orchestrate_s": "s",
    "schedule.assignments": "count",
    "runner.cache.system_hit_ratio": "ratio",
    "runner.cache.characterization_hit_ratio": "ratio",
    "serve.server_ms": "ms",
    "serve.http_ms": "ms",
    "serve.plan_cache_hit_ratio": "ratio",
    "serve.read_cache_hit_ratio": "ratio",
    "trace.overhead_pct": "%",
    "trace.test_time_cycles": "cycles",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer in SPAN_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}_ms"] = "ms"
        units[f"{layer}_self_ms"] = "ms"
    units.update(EXTRA_LAYER_METRICS)
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "request_p50_ms": "ms",
    "request_tail_ms": "ms",
    "secondary_p50_ms": "ms",
    "points_per_s": "1/s",
    "test_time_cycles": "cycles",
    "paper_gap_pp": "pp",
}


@dataclass
class Outcome:
    """What one workload run reports: checks, counters and metric values."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    raw: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        """Count one output check; a failing one counts as a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def require_program() -> None:
    """Exit non-zero, printing no result, when the checkout has no program."""
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no program under {SRC}; run from a source checkout", file=sys.stderr)
        sys.exit(2)


def scrub_environment() -> None:
    """Remove behaviour-changing variables from this process's environment."""
    for name in list(os.environ):
        if name in SCRUBBED or name.startswith(SCRUBBED_PREFIXES):
            del os.environ[name]
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)


def child_env(tmpdir: Path) -> dict[str, str]:
    """The environment of every child process: scrubbed, pointed at ``src/``."""
    env = {
        name: value
        for name, value in os.environ.items()
        if name not in SCRUBBED and not name.startswith(SCRUBBED_PREFIXES)
    }
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def make_workdir() -> Path:
    """A fresh directory for one run, under the checkout's ``.bench_tmp``."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


def warm_bytecode(env: dict[str, str]) -> None:
    """Compile ``src/`` once so no timed child pays for writing ``.pyc`` files."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        env=env,
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )


#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 11


def cold_import_seconds(env: dict[str, str], cwd: Path, repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter that imports ``repro.cli``.

    Output is captured so ``run`` returns when the pipes close; waiting
    with a timeout and no pipes polls at up to 50 ms steps.
    """
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env,
            cwd=cwd,
            check=True,
            capture_output=True,
            timeout=60,
        )
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def import_breakdown(env: dict[str, str], cwd: Path, top: int = 15) -> list[dict]:
    """The slowest modules (cumulative) of ``-X importtime`` for ``repro.cli``."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        env=env,
        cwd=cwd,
        check=True,
        capture_output=True,
        text=True,
        timeout=60,
    )
    rows = []
    for line in completed.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        rows.append(
            {"module": parts[2].rstrip(), "self_us": int(parts[0].split(":")[-1]),
             "cumulative_us": int(parts[1])}
        )
    rows.sort(key=lambda row: row["cumulative_us"], reverse=True)
    return rows[:top]


#: Seconds one ``calibration_work()`` takes at the reference host speed (its
#: median alone on an idle 2-vCPU x86-64 cloud VM under CPython 3.11).
REFERENCE_PACE_S = 0.00055
#: How far request times follow the task's time: part of a request is spent
#: waiting on the kernel (loopback wake-ups, scheduling), which a slow spell
#: of the host stretches less than it stretches pure Python.  Over ten 50 s
#: runs the spread of every request metric was least for exponents of
#: 0.7-0.8 (with 1, the host's drift was over-corrected).
PACE_ELASTICITY = 0.75


def calibration_work() -> int:
    """A fixed pure-Python task (tuple keys, dict updates, ``str``, a keyed
    sort: the kind of work the planner does) whose time tracks host speed."""
    table: dict[tuple[int, int], int] = {}
    total = 0
    for i in range(1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    ordered = sorted(table.items(), key=lambda item: item[1])
    return total + ordered[0][1]


class Pace:
    """How fast the shared host runs, relative to a reference.

    On a shared machine the speed of plain Python moves by ±20 % over tens
    of seconds, for every process alike, with no steal time to show it.  A
    workload calls ``tick()`` between timed operations, while the program
    is idle, and multiplies wall times by a factor: the reference time of
    ``calibration_work()`` over its measured time, raised to
    ``PACE_ELASTICITY``.  ``factor`` uses the median of the latest
    ``window`` ticks, ``run_factor`` the mean of every tick so far.  The
    result reads as time at the reference speed: the program's own cost
    survives it, the host's drift does not.  Unscaled medians are printed
    beside the scaled ones.
    """

    def __init__(self, window: int = 25):
        self.recent: deque[float] = deque(maxlen=window)
        self.total = 0.0
        self.ticks = 0
        for _ in range(window):
            self.tick()

    def tick(self) -> None:
        started = time.perf_counter()
        calibration_work()
        seconds = time.perf_counter() - started
        self.recent.append(seconds)
        self.total += seconds
        self.ticks += 1

    @property
    def factor(self) -> float:
        return (REFERENCE_PACE_S / statistics.median(self.recent)) ** PACE_ELASTICITY

    @property
    def run_speed(self) -> float:
        """Reference time over the mean tick time of the whole run."""
        return REFERENCE_PACE_S / (self.total / self.ticks)

    @property
    def run_factor(self) -> float:
        return self.run_speed**PACE_ELASTICITY


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in 0..1)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
    return ordered[rank]


def p99(values: list[float]) -> float:
    """The 99th percentile, refused unless at least ten samples lie beyond it.

    Always p99, never a higher percentile when more samples arrive, so a
    faster program is compared on the same statistic.
    """
    if len(values) < 1000:
        raise ValueError(f"{len(values)} samples leave fewer than ten beyond the p99")
    return percentile(values, 0.99)


def peak_rss_mb() -> float:
    """Peak resident set size of the largest waited-for child process, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def best_reduction(makespans: dict[int, int]) -> float:
    """Largest reduction vs. no reuse, as ``experiments/headline.py`` computes it."""
    baseline = makespans[0]
    if baseline == 0:
        return 0.0
    return 100.0 * (baseline - min(makespans.values())) / baseline


def paper_gap(makespan_of) -> float:
    """Mean |paper − measured| reduction over the claims T1–T3.

    ``makespan_of(system, count, fraction)`` returns the greedy makespan of
    one Figure 1 point.
    """
    from repro.experiments.figure1 import PAPER_PROCESSOR_COUNTS
    from repro.system.presets import PAPER_SYSTEMS

    measured = []
    for system, fraction, _ in PAPER_CLAIMS:
        counts = PAPER_PROCESSOR_COUNTS[PAPER_SYSTEMS[system].benchmark]
        measured.append(
            best_reduction({count: makespan_of(system, count, fraction) for count in counts})
        )
    return statistics.fmean(
        abs(paper - value) for (_, _, paper), value in zip(PAPER_CLAIMS, measured)
    )


def layer_metrics(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric: span aggregates plus the workload's extras.

    A layer the workload never reaches reports zero calls and zero time —
    the measured form of the prediction that the workload does not use it.
    """
    layers = aggregate(tracer)
    values: dict[str, float] = {}
    for name in SPAN_LAYERS:
        layer = layers.get(name)
        calls = layer["count"] if layer else 0
        values[f"{name}.calls"] = calls
        values[f"{name}_ms"] = 1000.0 * layer["busy"] / calls if calls else 0.0
        values[f"{name}_self_ms"] = 1000.0 * layer["self"] / calls if calls else 0.0
    values["schedule.assignments"] = tracer.events.get("schedule.assignments", 0.0)
    for cache in ("system", "characterization"):
        lookups = tracer.events.get(f"runner.cache.{cache}_lookups", 0.0)
        built = layers.get("system.build" if cache == "system" else "noc.characterize")
        misses = built["count"] if built else 0
        values[f"runner.cache.{cache}_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
    for name in EXTRA_LAYER_METRICS:
        values.setdefault(name, 0.0)
    values.update(extra)
    return values


def write_trace(tracer: Tracer, name: str, details: dict) -> None:
    """Write the run's spans and details under ``.bench_tmp/traces``."""
    directory = SCRATCH / "traces"
    directory.mkdir(parents=True, exist_ok=True)
    tracer.dump(directory / f"{name}.json", details)
