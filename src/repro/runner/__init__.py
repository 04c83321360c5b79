"""Parallel experiment-sweep engine with result caching.

The runner package is the orchestration layer above the planner: declare a
grid with :class:`SweepSpec`, execute it with :class:`SweepRunner` on a
pluggable :class:`ExecutionBackend` (in-process, process pool, or fanned
out over shard-worker subprocesses — always in deterministic point order),
and persist the outcome as schema-versioned JSON with :func:`save_sweeps` /
:func:`load_sweeps` or durably in a :class:`SweepDatabase` sqlite store
(crash-safe, accumulates across runs, and enables incremental re-runs via
:meth:`SweepRunner.run_stored`).  Grids also execute sharded: each
deterministic shard of the point order (:meth:`SweepSpec.shard`) runs
anywhere via :meth:`SweepRunner.run_shard` into its own store, and
:meth:`SweepDatabase.merge` folds the shard stores back into one database
record-identical to a single-host run — :meth:`SweepRunner.orchestrate`
(backend ``shard-workers``) automates that dispatch-monitor-merge cycle
locally, with a worker-command hook for remote fan-out.  The paper's
experiment drivers
(:mod:`repro.experiments`) and the ``repro sweep`` CLI are thin layers over
this package.

Quickstart::

    from repro.runner import SweepRunner, SweepSpec

    spec = SweepSpec(
        name="d695-demo",
        systems=("d695_leon",),
        processor_counts=(0, 2, 4, 6),
        power_limits={"no power limit": None, "50% power limit": 0.5},
    )
    outcomes = SweepRunner(jobs=4, characterize=True).run(spec)
    for outcome in outcomes:
        print(outcome.point.label, outcome.makespan)

The names below are imported on first use (PEP 562): importing one runner
module, such as :mod:`repro.runner.db`, does not load the others.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.runner.atomic": ("atomic_write_text",),
        "repro.runner.backends": (
            "BACKEND_FACTORIES",
            "ExecutionBackend",
            "OrchestrationReport",
            "ProcessPoolBackend",
            "SerialBackend",
            "ShardWorkerBackend",
            "WorkerOutcome",
            "WorkerPlan",
            "make_backend",
        ),
        "repro.runner.cache": (
            "CacheStats",
            "CharacterizationCache",
            "SystemCache",
            "build_point_system",
            "content_key",
        ),
        "repro.runner.db": ("DB_SCHEMA_VERSION", "MergeReport", "RunInfo", "SweepDatabase"),
        "repro.runner.engine": (
            "StoreRunReport",
            "SweepOutcome",
            "SweepRunner",
            "execute_point",
        ),
        "repro.runner.spec": (
            "SCHEDULER_FACTORIES",
            "SweepPoint",
            "SweepSpec",
            "canonical_scheduler_name",
            "make_scheduler",
            "power_series_label",
            "scheduler_spec_name",
        ),
        "repro.runner.store": (
            "SCHEMA_VERSION",
            "StoredSweep",
            "dump_stored_sweeps",
            "dump_sweep",
            "dump_sweeps",
            "load_sweeps",
            "save_stored_sweeps",
            "save_sweeps",
            "sweeps_document",
        ),
    },
)
