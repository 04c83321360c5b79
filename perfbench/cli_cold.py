"""``cli-cold``: the ``repro`` CLI as a user runs it, cold, on the paper grid.

Each iteration runs four sequential commands in a fresh directory over the
paper's Figure 1 grid (6 systems, 56 points, NoC characterisation on):

1. ``repro sweep --store A.db --out A.json`` — a cold serial sweep;
2. ``repro sweep --store A.db --resume`` — which must execute nothing;
3. ``repro sweep --backend pool --jobs 2 --store B.db --out B.json``;
4. ``repro orchestrate --workers 2 --store C.db --export-json C.json``.

The serial, pool and orchestrated exports must be byte-identical, and
identical across iterations.  The seed permutes the order in which the six
systems are named on the command line.  Every command is a fresh
interpreter, so interpreter start and ``import repro.cli`` are part of
what is measured, as they are for a user.
"""

from __future__ import annotations

import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    SETUP_REPEATS,
    Outcome,
    Pace,
    child_env,
    cold_import_seconds,
    import_breakdown,
    layer_metrics,
    make_workdir,
    paper_gap,
    peak_rss_mb,
    remove_workdir,
    warm_bytecode,
    write_trace,
)
from spans import Tracer

GRID_POINTS = 56
#: The no-op resume is the shortest and noisiest command; it runs this many
#: times per iteration so its median rests on as many samples.
RESUME_REPEATS = 3
#: Host-pace ticks after each command (about 5 ms).  A command's own time
#: does not follow the pace taken just around it (the host's speed flips
#: within a command), so the whole run's mean pace scales the run's medians.
PACE_TICKS = 10


def commands(systems: list[str]) -> list[tuple[str, list[str]]]:
    """The commands of one iteration, as ``repro`` arguments."""
    return [
        ("sweep", ["sweep", *systems, "--store", "A.db", "--out", "A.json"]),
        *[("resume", ["sweep", *systems, "--store", "A.db", "--resume"])] * RESUME_REPEATS,
        (
            "pool",
            ["sweep", *systems, "--backend", "pool", "--jobs", "2", "--store", "B.db",
             "--out", "B.json"],
        ),
        (
            "orchestrate",
            ["orchestrate", *systems, "--workers", "2", "--store", "C.db", "--workdir",
             "work", "--export-json", "C.json"],
        ),
    ]


def iterate(
    systems,
    env,
    workdir: Path,
    number: int,
    outcome: Outcome,
    pace: Pace,
    trace_dir: Path | None = None,
) -> tuple[dict[str, list[float]], bytes]:
    """Run one iteration; returns wall seconds per command and the serial export."""
    directory = workdir / f"iteration-{number}"
    directory.mkdir()
    timings: dict[str, list[float]] = {}
    for step, (label, argv) in enumerate(commands(systems)):
        if trace_dir is None:
            launch = [sys.executable, "-m", "repro.cli", *argv]
        else:
            trace_out = trace_dir / f"{number}-{step}-{label}.json"
            launch = [sys.executable, str(BENCH_DIR / "traced_main.py"), str(trace_out), *argv]
        started = time.perf_counter()
        completed = subprocess.run(
            launch, cwd=directory, env=env, capture_output=True, text=True, timeout=120
        )
        timings.setdefault(label, []).append(time.perf_counter() - started)
        for _ in range(PACE_TICKS):
            pace.tick()
        outcome.check(
            completed.returncode == 0,
            f"{label} exited {completed.returncode}: {completed.stderr.strip()[-300:]}",
        )
        if label == "resume":
            outcome.check(
                f"0 executed, {GRID_POINTS} skipped" in completed.stdout,
                f"resume did not skip every point: {completed.stdout.strip()[-200:]}",
            )
    exports = [(directory / name).read_bytes() for name in ("A.json", "B.json", "C.json")]
    outcome.check(exports[1] == exports[0], "pool export differs from the serial export")
    outcome.check(exports[2] == exports[0], "orchestrated export differs from the serial export")
    return timings, exports[0]


def timing_slots(medians: dict[str, float]) -> dict[str, float]:
    """The end-to-end timing metrics from per-command median seconds."""
    return {
        "request_p50_ms": 1000.0 * medians["sweep"],
        "request_tail_ms": 1000.0 * medians["orchestrate"],
        "secondary_p50_ms": 1000.0 * medians["resume"],
        "points_per_s": GRID_POINTS / medians["pool"],
    }


def export_facts(document: bytes) -> tuple[int, float]:
    """Sum of makespans and the paper gap of a serial sweep export."""
    records = [record for sweep in json.loads(document)["sweeps"] for record in sweep["records"]]
    greedy = {
        (r["system"], r["reused_processors"], r["power_limit_fraction"]): r["makespan"]
        for r in records
        if r["scheduler"] == "greedy"
    }
    gap = paper_gap(lambda system, count, fraction: greedy[(system, count, fraction)])
    return sum(int(r["makespan"]) for r in records), gap


def headline_gap() -> float:
    """The same gap from ``run_headline_claims()``, for a one-off cross-check."""
    from repro.experiments.headline import run_headline_claims

    claims = run_headline_claims()
    return statistics.fmean(claim.absolute_error for claim in claims)


def run(*, seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.system.presets import PAPER_SYSTEMS

    outcome = Outcome()
    systems = sorted(PAPER_SYSTEMS)
    random.Random(seed).shuffle(systems)
    workdir = make_workdir()
    try:
        env = child_env(workdir)
        warm_bytecode(env)
        import_s = cold_import_seconds(env, workdir)
        pace = Pace()

        budget = seconds / 2 if trace else seconds
        samples: dict[str, list[float]] = {label: [] for label, _ in commands(systems)}
        first_export = None
        started = time.perf_counter()
        number = 0
        while number == 0 or time.perf_counter() - started < budget:
            timings, export = iterate(systems, env, workdir, number, outcome, pace)
            for label, values in timings.items():
                samples[label].extend(values)
            if first_export is None:
                first_export = export
            outcome.check(export == first_export, f"iteration {number} export differs")
            number += 1
        cycles, gap = export_facts(first_export)
        outcome.check(
            abs(gap - headline_gap()) < 1e-9, "paper gap disagrees with run_headline_claims()"
        )
        raw = {label: statistics.median(values) for label, values in samples.items()}
        medians = {label: value * pace.run_factor for label, value in raw.items()}

        if not trace:
            outcome.raw = timing_slots(raw)
            outcome.metrics = {
                "setup_s": import_s,
                "peak_rss_mb": peak_rss_mb(),
                **timing_slots(medians),
                "test_time_cycles": float(cycles),
                "paper_gap_pp": gap,
            }
            outcome.samples = {
                "setup_s": SETUP_REPEATS,
                "request_p50_ms": len(samples["sweep"]),
                "request_tail_ms": len(samples["orchestrate"]),
                "secondary_p50_ms": len(samples["resume"]),
                "points_per_s": len(samples["pool"]),
            }
            print(f"cli-cold: {number} iterations, host pace {pace.run_speed:.4f} of reference")
            return outcome

        # Traced pass: one iteration with every command under traced_main.
        tracer = Tracer()
        trace_dir = workdir / "traces"
        trace_dir.mkdir()
        traced, traced_export = iterate(systems, env, workdir, number, outcome, pace, trace_dir)
        for path in sorted(trace_dir.glob("*.json")):
            tracer.load(path)
        traced_cycles, _ = export_facts(traced_export)
        untraced_total = sum(medians.values())
        traced_total = pace.run_factor * sum(statistics.median(values) for values in traced.values())
        outcome.metrics = layer_metrics(
            tracer,
            {
                "cli.import_s": import_s,
                "cli.sweep_s": medians["sweep"],
                "cli.resume_s": medians["resume"],
                "cli.sweep_pool_s": medians["pool"],
                "cli.orchestrate_s": medians["orchestrate"],
                "trace.overhead_pct": 100.0 * (traced_total - untraced_total) / untraced_total,
                "trace.test_time_cycles": float(traced_cycles),
            },
        )
        write_trace(
            tracer,
            f"cli-cold-{seed}",
            {
                "systems": systems,
                "untraced_iterations": number,
                "traced_command_s": traced,
                "import_breakdown": import_breakdown(env, workdir),
            },
        )
        return outcome
    finally:
        remove_workdir(workdir)
