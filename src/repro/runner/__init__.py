"""Experiment-sweep engine with result caching.

The runner package is the orchestration layer above the planner: declare a
grid with :class:`SweepSpec`, execute it in-process with
:class:`SweepRunner` (always in deterministic point order), and persist the
outcome as schema-versioned JSON with :func:`save_sweeps` /
:func:`load_sweeps` or durably in a :class:`SweepDatabase` sqlite store
(crash-safe, accumulates across runs, and enables incremental re-runs via
:meth:`SweepRunner.run_stored`).  Grids also execute sharded: any list of
point indices runs anywhere via :meth:`SweepRunner.run_points` into its own
store, and :meth:`SweepDatabase.merge_all` folds the shard stores back into
one database record-identical to a single-host run —
:meth:`ShardWorkerBackend.orchestrate` (``repro orchestrate`` on the
command line) automates that dispatch-monitor-merge cycle for a whole batch
of grids in one round of subprocess workers, with a launcher hook for
remote fan-out; it is the one way to plan on several processes.  The
paper's experiment drivers (:mod:`repro.experiments`) and the ``repro
sweep``/``repro orchestrate`` CLI are thin layers over this package.

Quickstart::

    from repro.runner import SweepRunner, SweepSpec

    spec = SweepSpec(
        name="d695-demo",
        systems=("d695_leon",),
        processor_counts=(0, 2, 4, 6),
        power_limits={"no power limit": None, "50% power limit": 0.5},
    )
    outcomes = SweepRunner(characterize=True).run(spec)
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
            "OrchestrationReport",
            "SerialBackend",
            "ShardWorkerBackend",
            "WorkerPlan",
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
        ),
        "repro.runner.schedulers": (
            "SCHEDULER_FACTORIES",
            "make_scheduler",
            "scheduler_spec_name",
        ),
        "repro.runner.spec": (
            "SweepPoint",
            "SweepSpec",
            "canonical_scheduler_name",
            "power_series_label",
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
