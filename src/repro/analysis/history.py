"""Cross-run queries over a sqlite sweep store.

The sqlite store (:mod:`repro.runner.db`) accumulates results across runs;
this module asks the questions that only make sense over that accumulated
history:

* **scheduler win-rates** — at every grid coordinate where two or more
  scheduler policies were tried on the same system, which policy produced
  the shorter makespan, aggregated per system;
* **makespan over time** — the per-run trajectory of each system's best and
  mean makespan, ordered by the store's run sequence (the perf record of the
  workload, analogous to CI's ``BENCH_*.json`` artifacts).

Both questions exist in two forms: the pure-Python reducers
(:func:`scheduler_win_rates`, :func:`makespan_trajectory`) that work on any
iterable of records — loaded JSON documents included — and their SQL twins
(:func:`scheduler_win_rates_sql`, :func:`makespan_trajectory_sql`) that
aggregate *inside* the sqlite store over the indexed headline columns and
return exactly the same rows (the equality is pinned by tests; perfbench's
serve-mixed workload times the history reads).  ``repro history``
renders the SQL side as plain-text tables via :func:`history_report`, so its
cost no longer scales with loading every record's JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.runner.db import SweepDatabase
from repro.analysis.sweeps import sweep_summary


@dataclass(frozen=True)
class WinRateRow:
    """Per-system contest record of one scheduler policy.

    A *contest* is a grid coordinate (system, reuse level, power series,
    flit width, pattern penalty) at which at least two scheduler policies
    have stored records; the policy (or tied policies) with the smallest
    makespan wins it.
    """

    system: str
    scheduler: str
    contests: int
    wins: int
    ties: int

    @property
    def win_rate(self) -> float:
        """Fraction of contests won (ties count as wins for every winner)."""
        return self.wins / self.contests if self.contests else 0.0


def _coordinate(record: Mapping) -> tuple:
    return (
        record.get("system"),
        record.get("reused_processors"),
        record.get("power_label"),
        record.get("flit_width"),
        record.get("pattern_penalty"),
    )


def scheduler_win_rates(records: Iterable[Mapping]) -> list[WinRateRow]:
    """Aggregate per-system scheduler win-rates over stored records.

    Records from different sweeps may cover the same coordinate; per
    (coordinate, scheduler) the best (smallest) stored makespan competes.
    Coordinates seen under a single scheduler are not contests and are
    ignored.  Rows come back sorted by system, then descending win rate.
    """
    best: dict[tuple, dict[str, int]] = {}
    for record in records:
        scheduler = record.get("scheduler")
        makespan = record.get("makespan")
        if scheduler is None or not isinstance(makespan, int):
            continue
        entry = best.setdefault(_coordinate(record), {})
        previous = entry.get(scheduler)
        if previous is None or makespan < previous:
            entry[scheduler] = makespan

    rows: dict[tuple[str, str], dict[str, int]] = {}
    for coordinate, by_scheduler in best.items():
        if len(by_scheduler) < 2:
            continue
        system = coordinate[0]
        winning = min(by_scheduler.values())
        winners = [name for name, span in by_scheduler.items() if span == winning]
        for scheduler, makespan in by_scheduler.items():
            counters = rows.setdefault(
                (system, scheduler), {"contests": 0, "wins": 0, "ties": 0}
            )
            counters["contests"] += 1
            if makespan == winning:
                counters["wins"] += 1
                if len(winners) > 1:
                    counters["ties"] += 1
    return sorted(
        (
            WinRateRow(system=system, scheduler=scheduler, **counters)
            for (system, scheduler), counters in rows.items()
        ),
        key=lambda row: (row.system, -row.win_rate, row.scheduler),
    )


def scheduler_win_rates_sql(
    db: SweepDatabase, *, system: str | None = None
) -> list[WinRateRow]:
    """SQL-side :func:`scheduler_win_rates` over a store's current records.

    Equal — row for row — to running :func:`scheduler_win_rates` on the
    flattened records of ``db.stored_sweeps()``, but the aggregation happens
    inside sqlite (:meth:`~repro.runner.db.SweepDatabase.win_rate_rows`), so
    no record JSON is loaded into Python.
    """
    return [WinRateRow(**row) for row in db.win_rate_rows(system=system)]


@dataclass(frozen=True)
class TrajectoryRow:
    """One system's makespan summary within one run (the time axis)."""

    run_id: int
    created_at: str
    sweep_name: str
    system: str
    record_count: int
    best_makespan: int
    mean_makespan: float


def makespan_trajectory(history_rows: Iterable[Mapping]) -> list[TrajectoryRow]:
    """Per-run, per-system makespan summaries from ``SweepDatabase.history_rows``.

    Ordered by run id (the store's monotonically increasing run sequence),
    so consecutive rows of one system trace its makespans over time.
    """
    grouped: dict[tuple[int, str, str, str], list[int]] = {}
    for row in history_rows:
        record = row["record"]
        key = (row["run_id"], row["created_at"], row["sweep_name"], record["system"])
        grouped.setdefault(key, []).append(int(record["makespan"]))
    return [
        TrajectoryRow(
            run_id=run_id,
            created_at=created_at,
            sweep_name=sweep_name,
            system=system,
            record_count=len(spans),
            best_makespan=min(spans),
            mean_makespan=sum(spans) / len(spans),
        )
        for (run_id, created_at, sweep_name, system), spans in sorted(grouped.items())
    ]


def makespan_trajectory_sql(
    db: SweepDatabase, *, system: str | None = None
) -> list[TrajectoryRow]:
    """SQL-side :func:`makespan_trajectory` over a store's full run history.

    Equal — row for row — to feeding ``db.history_rows()`` through
    :func:`makespan_trajectory`, but grouped and reduced inside sqlite
    (:meth:`~repro.runner.db.SweepDatabase.trajectory_rows`).  The mean is
    computed here from the SQL sum and count, with the same integer-exact
    division as the pure-Python path.
    """
    return [
        TrajectoryRow(
            run_id=row["run_id"],
            created_at=row["created_at"],
            sweep_name=row["sweep_name"],
            system=row["system"],
            record_count=row["record_count"],
            best_makespan=row["best_makespan"],
            mean_makespan=row["total_makespan"] / row["record_count"],
        )
        for row in db.trajectory_rows(system=system)
    ]


def _table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(header.ljust(width) for header, width in zip(headers, widths)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)


def win_rate_table(rows: Sequence[WinRateRow]) -> str:
    """Render win-rate rows as a plain-text table."""
    if not rows:
        return "(no scheduler contests: no coordinate has records from two policies)"
    return _table(
        ["system", "scheduler", "contests", "wins", "ties", "win rate"],
        [
            [
                row.system,
                row.scheduler,
                str(row.contests),
                str(row.wins),
                str(row.ties),
                f"{row.win_rate:6.1%}",
            ]
            for row in rows
        ],
    )


def trajectory_table(rows: Sequence[TrajectoryRow]) -> str:
    """Render trajectory rows as a plain-text table."""
    if not rows:
        return "(no stored runs)"
    return _table(
        ["run", "recorded (UTC)", "sweep", "system", "points", "best", "mean"],
        [
            [
                str(row.run_id),
                row.created_at,
                row.sweep_name,
                row.system,
                str(row.record_count),
                str(row.best_makespan),
                f"{row.mean_makespan:.1f}",
            ]
            for row in rows
        ],
    )


def history_report(db: SweepDatabase, *, system: str | None = None) -> str:
    """The full ``repro history`` report for one store.

    Every section is served from SQL aggregates — sweep summaries from spec
    rows plus counts, win-rates and the trajectory from the pushed-down
    queries — so the report never loads record JSON, no matter how large
    the store has grown.

    Args:
        db: an open sweep database.
        system: restrict win-rates and the trajectory to one paper system.
    """
    wanted = system.lower() if system is not None else None
    summaries = db.sweep_summaries()

    sections = [f"Sweep store: {db.path} ({db.record_count()} records)"]
    if summaries:
        sections.append(
            "\n".join(
                sweep_summary(spec, spec_key, count)
                for spec, spec_key, count in summaries
            )
        )
    sections.append(
        "Scheduler win-rates (best makespan per shared grid coordinate):\n"
        + win_rate_table(scheduler_win_rates_sql(db, system=wanted))
    )
    sections.append(
        "Makespan over runs:\n"
        + trajectory_table(makespan_trajectory_sql(db, system=wanted))
    )
    return "\n\n".join(sections)
