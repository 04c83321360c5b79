"""Tests of the cross-run history queries over the sqlite sweep store."""

import pytest

from repro.analysis.history import (
    history_report,
    makespan_trajectory,
    makespan_trajectory_sql,
    scheduler_win_rates,
    scheduler_win_rates_sql,
    trajectory_table,
    win_rate_table,
)
from repro.runner.db import SweepDatabase
from repro.runner.engine import SweepRunner
from repro.runner.spec import SweepSpec


def _record(system, scheduler, makespan, *, index=0, reuse=2, power="no power limit"):
    return {
        "index": index,
        "system": system,
        "scheduler": scheduler,
        "makespan": makespan,
        "reused_processors": reuse,
        "power_label": power,
        "flit_width": 32,
        "pattern_penalty": None,
    }


class TestWinRates:
    def test_single_scheduler_has_no_contests(self):
        records = [_record("d695_leon", "greedy", 100, index=i) for i in range(3)]
        assert scheduler_win_rates(records) == []

    def test_faster_scheduler_wins_the_coordinate(self):
        records = [
            _record("d695_leon", "greedy", 120),
            _record("d695_leon", "fastest-completion", 100),
        ]
        by_name = {row.scheduler: row for row in scheduler_win_rates(records)}
        assert by_name["fastest-completion"].wins == 1
        assert by_name["fastest-completion"].win_rate == 1.0
        assert by_name["greedy"].wins == 0
        assert by_name["greedy"].contests == 1

    def test_tie_counts_as_shared_win(self):
        records = [
            _record("d695_leon", "greedy", 100),
            _record("d695_leon", "fastest-completion", 100),
        ]
        rows = scheduler_win_rates(records)
        assert all(row.wins == 1 and row.ties == 1 for row in rows)

    def test_coordinates_keep_contests_apart(self):
        """Different reuse levels are different contests; win rates aggregate
        across them per system."""
        records = [
            _record("d695_leon", "greedy", 100, reuse=0),
            _record("d695_leon", "fastest-completion", 110, reuse=0),
            _record("d695_leon", "greedy", 120, reuse=4),
            _record("d695_leon", "fastest-completion", 90, reuse=4),
        ]
        by_name = {row.scheduler: row for row in scheduler_win_rates(records)}
        assert by_name["greedy"].contests == 2
        assert by_name["greedy"].wins == 1
        assert by_name["greedy"].win_rate == 0.5

    def test_duplicate_coordinate_takes_best_makespan(self):
        """The same coordinate stored by several sweeps competes with its
        best stored makespan, not one row per sweep."""
        records = [
            _record("d695_leon", "greedy", 150),
            _record("d695_leon", "greedy", 100),
            _record("d695_leon", "fastest-completion", 120),
        ]
        by_name = {row.scheduler: row for row in scheduler_win_rates(records)}
        assert by_name["greedy"].contests == 1
        assert by_name["greedy"].wins == 1

    def test_table_renders(self):
        records = [
            _record("d695_leon", "greedy", 120),
            _record("d695_leon", "fastest-completion", 100),
        ]
        table = win_rate_table(scheduler_win_rates(records))
        assert "fastest-completion" in table
        assert "100.0%" in table
        assert "(no scheduler contests" in win_rate_table([])


class TestTrajectory:
    def test_groups_by_run_and_system(self):
        rows = [
            {
                "run_id": 1,
                "created_at": "t1",
                "sweep_name": "s",
                "record": {"system": "d695_leon", "makespan": 100},
            },
            {
                "run_id": 1,
                "created_at": "t1",
                "sweep_name": "s",
                "record": {"system": "d695_leon", "makespan": 200},
            },
            {
                "run_id": 2,
                "created_at": "t2",
                "sweep_name": "s",
                "record": {"system": "d695_leon", "makespan": 90},
            },
        ]
        first, second = makespan_trajectory(rows)
        assert (first.run_id, first.record_count) == (1, 2)
        assert first.best_makespan == 100
        assert first.mean_makespan == pytest.approx(150.0)
        assert (second.run_id, second.best_makespan) == (2, 90)
        assert "90" in trajectory_table([first, second])


class TestHistoryReport:
    @pytest.fixture(scope="class")
    def populated(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("history") / "sweeps.db"
        spec = SweepSpec(
            name="history-grid",
            systems=("d695_plasma",),
            processor_counts=(0, 6),
            power_limits={"no power limit": None},
            schedulers=("greedy", "fastest-completion"),
        )
        db = SweepDatabase(path)
        SweepRunner().run_stored(spec, db)
        yield db
        db.close()

    def test_report_sections(self, populated):
        report = history_report(populated)
        assert "Sweep store" in report
        assert "history-grid" in report
        assert "Scheduler win-rates" in report
        assert "Makespan over runs" in report
        assert "d695_plasma" in report

    def test_system_filter(self, populated):
        report = history_report(populated, system="d695_leon")
        assert "(no scheduler contests" in report
        assert "(no stored runs)" in report


class TestSqlAggregation:
    """The SQL push-down must match the pure-Python aggregation exactly."""

    @pytest.fixture(scope="class")
    def populated(self, tmp_path_factory):
        """A store with history depth: two runs of a two-scheduler grid plus
        a second sweep overlapping the same coordinates."""
        path = tmp_path_factory.mktemp("sql-history") / "sweeps.db"
        contested = SweepSpec(
            name="sql-grid",
            systems=("d695_plasma",),
            processor_counts=(0, 2, 6),
            power_limits={"no power limit": None, "50% power limit": 0.5},
            schedulers=("greedy", "fastest-completion"),
        )
        overlapping = SweepSpec(
            name="sql-overlap",
            systems=("d695_plasma", "d695_leon"),
            processor_counts=(0, 2),
            schedulers=("greedy",),
        )
        runner = SweepRunner()
        db = SweepDatabase(path)
        runner.run_stored(contested, db)
        runner.run_stored(contested, db)
        runner.run_stored(overlapping, db)
        yield db
        db.close()

    @staticmethod
    def _flat_records(db):
        return [record for sweep in db.stored_sweeps() for record in sweep.records]

    def test_win_rates_sql_equals_python(self, populated):
        expected = scheduler_win_rates(self._flat_records(populated))
        assert expected  # the grid produces real contests
        assert scheduler_win_rates_sql(populated) == expected

    def test_win_rates_sql_system_filter(self, populated):
        records = [
            r for r in self._flat_records(populated) if r.get("system") == "d695_leon"
        ]
        assert scheduler_win_rates_sql(populated, system="d695_leon") == (
            scheduler_win_rates(records)
        )

    def test_trajectory_sql_equals_python(self, populated):
        expected = makespan_trajectory(populated.history_rows())
        assert len(expected) >= 3  # two runs of sweep 1, one run over two systems
        assert makespan_trajectory_sql(populated) == expected

    def test_trajectory_sql_system_filter(self, populated):
        rows = [
            row
            for row in populated.history_rows()
            if row["record"].get("system") == "d695_plasma"
        ]
        assert makespan_trajectory_sql(populated, system="d695_plasma") == (
            makespan_trajectory(rows)
        )

    def test_trajectory_means_are_bit_identical(self, populated):
        """The SQL path must reproduce the Python float mean exactly, not
        merely approximately — the report output is diffed byte-for-byte."""
        python_means = [
            row.mean_makespan for row in makespan_trajectory(populated.history_rows())
        ]
        sql_means = [row.mean_makespan for row in makespan_trajectory_sql(populated)]
        assert sql_means == python_means  # exact ==, no pytest.approx

    def test_report_uses_sql_aggregates(self, populated):
        """history_report renders the same tables the Python reducers would."""
        report = history_report(populated)
        assert win_rate_table(
            scheduler_win_rates(self._flat_records(populated))
        ) in report
        assert trajectory_table(
            makespan_trajectory(populated.history_rows())
        ) in report
