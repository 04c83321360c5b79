"""Analysis and reporting helpers for test schedules.

* :mod:`repro.analysis.metrics` — test-time reduction, interface utilisation,
  parallelism profile: the quantities the paper's Section 3 discusses.
* :mod:`repro.analysis.gantt` — ASCII Gantt chart of a schedule.
* :mod:`repro.analysis.report` — plain-text tables for sweeps and schedules.
* :mod:`repro.analysis.export` — CSV / JSON export of schedules and sweeps.
* :mod:`repro.analysis.sweeps` — loading and rendering of stored sweep
  results (the JSON documents the sweep engine writes).
* :mod:`repro.analysis.history` — cross-run queries over a sqlite sweep
  store (scheduler win-rates, makespan over time).

The names below are imported on first use (PEP 562), so a caller that
needs one report loads only its module.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "repro.analysis.bounds": (
            "MakespanBounds",
            "bound_report",
            "makespan_lower_bounds",
            "schedule_efficiency",
        ),
        "repro.analysis.metrics": (
            "ScheduleMetrics",
            "compute_metrics",
            "compare_schedules",
            "reduction_table",
        ),
        "repro.analysis.gantt": ("gantt_chart",),
        "repro.analysis.report": ("schedule_report", "sweep_table"),
        "repro.analysis.export": ("schedule_to_rows", "schedule_to_json", "sweep_to_csv"),
        "repro.analysis.sweeps": (
            "load_sweep_records",
            "records_table",
            "stored_sweep_summary",
        ),
        "repro.analysis.history": (
            "TrajectoryRow",
            "WinRateRow",
            "history_report",
            "makespan_trajectory",
            "scheduler_win_rates",
            "trajectory_table",
            "win_rate_table",
        ),
    },
)
