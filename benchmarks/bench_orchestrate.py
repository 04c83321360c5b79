"""Orchestration benchmark: shard-worker fan-out vs an in-process stored run.

Times the d695 Figure 1 grid executed in-process through
``SweepRunner.run_stored`` (the single-host baseline) and orchestrated over
3 local ``repro sweep --shard-index`` subprocess workers through
``SweepRunner.orchestrate`` (spawn + monitor + history-carrying merge), then
a two-system batch (d695_leon + d695_plasma) orchestrated in one dispatch
round on the same 3 workers.  The gap to the baseline is the orchestration
overhead a distributed run pays on top of the planning work itself —
dominated by interpreter start-up per worker, which a batch pays once, not
once per grid.  Every path is asserted to produce the serial run's current
records, pinning the byte-identity invariant inside the benchmark.
"""

from __future__ import annotations

from itertools import count

from repro.experiments.figure1 import figure1_spec
from repro.runner.backends import ShardWorkerBackend
from repro.runner.db import SweepDatabase
from repro.runner.engine import SweepRunner

from conftest import emit

#: Shard workers for the orchestrated run (matches CI's orchestrate-smoke).
WORKER_COUNT = 3


def test_orchestrate_baseline_stored_run(benchmark, tmp_path):
    """Single-host baseline: the grid executed in-process into a fresh store."""
    spec = figure1_spec("d695_leon")
    fresh = count()

    def run_stored():
        with SweepDatabase(tmp_path / f"baseline-{next(fresh)}.db") as db:
            return SweepRunner(jobs=1).run_stored(spec, db)

    report = benchmark.pedantic(run_stored, rounds=3, iterations=1)
    emit(
        "Orchestration benchmark: in-process baseline",
        f"executed {report.executed_count} of {spec.point_count} points",
    )
    assert report.executed_count == spec.point_count


def orchestrate_rounds(benchmark, tmp_path, specs):
    """Benchmark orchestrating ``specs`` over the shard workers; returns the
    last round's report and the merged store's records per spec."""
    backend = ShardWorkerBackend(workers=WORKER_COUNT)
    fresh = count()

    def run_orchestrated():
        round_index = next(fresh)
        with SweepDatabase(tmp_path / f"merged-{round_index}.db") as db:
            report = SweepRunner(backend=backend).orchestrate(
                specs, db, workdir=tmp_path / f"work-{round_index}"
            )
            return report, [db.records(key) for key in report.spec_keys]

    report, merged_records = benchmark.pedantic(run_orchestrated, rounds=3, iterations=1)
    assert len(report.workers) == WORKER_COUNT
    assert report.record_count == sum(spec.point_count for spec in specs)
    assert report.run_count == WORKER_COUNT * len(specs)
    # The orchestrated store must hold exactly the serial run's records.
    serial = SweepRunner(jobs=1)
    assert merged_records == [
        [outcome.record() for outcome in serial.run(spec)] for spec in specs
    ]
    return report


def test_orchestrate_shard_workers(benchmark, tmp_path):
    """The d695_leon grid fanned out over 3 local shard workers and merged."""
    report = orchestrate_rounds(benchmark, tmp_path, [figure1_spec("d695_leon")])
    emit(
        "Orchestration benchmark: 3 shard workers",
        f"{report.record_count} records, {report.run_count} shard runs merged "
        f"({len(report.workers)} workers)",
    )


def test_orchestrate_two_system_batch(benchmark, tmp_path):
    """d695_leon + d695_plasma in one dispatch round on the same 3 workers."""
    specs = [figure1_spec("d695_leon"), figure1_spec("d695_plasma")]
    report = orchestrate_rounds(benchmark, tmp_path, specs)
    emit(
        "Orchestration benchmark: 2-system batch on 3 shard workers",
        f"{report.record_count} records, {report.run_count} shard runs merged "
        f"({len(report.workers)} workers, one dispatch round)",
    )
