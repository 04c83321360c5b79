"""Tests of the service layer: validation, planning parity, cached history."""

import threading

import pytest

from repro.errors import ApiError
from repro.runner.db import SweepDatabase
from repro.runner.spec import make_scheduler
from repro.schedule.planner import TestPlanner
from repro.serve.service import PlanningService
from repro.system.presets import build_paper_system


@pytest.fixture
def service(tmp_path):
    service = PlanningService(tmp_path / "serve.db", cache_ttl=60.0, characterize=False)
    yield service
    service.close()


def run_small_sweep(
    service, name="service-grid", schedulers=("greedy",), systems=("d695_plasma",)
):
    """Submit a small grid and block until its job reaches a terminal state."""
    done = threading.Event()
    service.jobs._on_finished = lambda job: done.set()
    snapshot = service.submit_sweep(
        {
            "spec": {
                "name": name,
                "systems": list(systems),
                "processor_counts": [0, 2],
                "power_limits": [["no power limit", None]],
                "schedulers": list(schedulers),
            }
        }
    )
    assert done.wait(120), "sweep job did not finish"
    return snapshot


class TestPlan:
    def test_matches_direct_planner(self, service):
        response = service.plan(
            {"system": "d695_plasma", "reused_processors": 2, "power_limit_fraction": 0.5}
        )
        system = build_paper_system("d695_plasma")
        expected = TestPlanner(system, scheduler=make_scheduler("greedy")).plan(
            reused_processors=2, power_limit_fraction=0.5
        )
        assert response["makespan"] == expected.makespan
        assert response["test_count"] == expected.test_count
        assert response["peak_power"] == round(expected.peak_power(), 6)
        assert response["power_label"] == "50% power limit"
        assert response["elapsed_ms"] >= 0

    def test_assignments_included_on_request(self, service):
        response = service.plan(
            {"system": "d695_plasma", "reused_processors": 0, "include_assignments": True}
        )
        assert len(response["assignments"]) == response["test_count"]
        first = response["assignments"][0]
        assert {"core", "interface", "start", "end", "power"} <= set(first)

    def test_scheduler_aliases_are_canonicalised(self, service):
        response = service.plan({"system": "d695_plasma", "scheduler": "lookahead"})
        assert response["scheduler"] == "fastest-completion"

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({}, "system"),
            ({"system": "atlantis"}, "paper system"),
            ({"system": "d695_plasma", "bogus": 1}, "unknown plan field"),
            ({"system": "d695_plasma", "reused_processors": -1}, "non-negative"),
            ({"system": "d695_plasma", "reused_processors": True}, "non-negative"),
            ({"system": "d695_plasma", "reused_processors": "two"}, "integer"),
            ({"system": "d695_plasma", "power_limit_fraction": 0}, "positive"),
            ({"system": "d695_plasma", "power_limit_fraction": "half"}, "number"),
            ({"system": "d695_plasma", "flit_width": 0}, "flit_width"),
            ({"system": "d695_plasma", "scheduler": "magic"}, "scheduler"),
        ],
    )
    def test_invalid_payloads_are_400(self, service, payload, fragment):
        with pytest.raises(ApiError) as excinfo:
            service.plan(payload)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    def test_infeasible_plan_is_client_error(self, service):
        with pytest.raises(ApiError) as excinfo:
            service.plan({"system": "d695_plasma", "power_limit_fraction": 1e-9})
        assert excinfo.value.status == 400
        assert "planning failed" in str(excinfo.value)


class TestSubmitSweep:
    def test_snapshot_carries_polling_url(self, service):
        snapshot = run_small_sweep(service)
        assert snapshot["url"] == f"/sweeps/{snapshot['job_id']}"
        assert snapshot["point_count"] == 2

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ({}, "spec"),
            ({"spec": "d695_plasma"}, "sweep-spec object"),
            ({"spec": {"name": "x"}}, "invalid sweep spec"),
            ({"spec": {"name": "x", "systems": ["nowhere"]}}, "invalid sweep spec"),
            (
                {"spec": {"name": "x", "systems": ["d695_plasma"]}, "extra": 1},
                "unknown sweep field",
            ),
            (
                {"spec": {"name": "x", "systems": ["d695_plasma"]}, "backend": 3},
                "backend",
            ),
            (
                {"spec": {"name": "x", "systems": ["d695_plasma"]}, "jobs": -1},
                "jobs",
            ),
            (
                {"spec": {"name": "x", "systems": ["d695_plasma"]}, "resume": "yes"},
                "boolean",
            ),
        ],
    )
    def test_invalid_payloads_are_400(self, service, payload, fragment):
        with pytest.raises(ApiError) as excinfo:
            service.submit_sweep(payload)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    def test_status_reports_store_progress(self, service):
        snapshot = run_small_sweep(service)
        status = service.sweep_status(snapshot["job_id"])
        assert status["job"]["status"] == "finished"
        assert status["progress"]["stored_records"] == 2
        assert status["progress"]["fraction"] == 1.0
        assert status["progress"]["run_count"] == 1


class TestHistory:
    def test_rows_equal_library_sql(self, service, tmp_path):
        run_small_sweep(service, schedulers=("greedy", "fastest-completion"))
        with SweepDatabase(tmp_path / "serve.db") as db:
            expected_win = db.win_rate_rows()
            expected_traj = db.trajectory_rows()
        win = service.win_rates()
        trajectory = service.trajectory()
        assert win["rows"] == expected_win
        assert [
            {key: value for key, value in row.items() if key != "mean_makespan"}
            for row in trajectory["rows"]
        ] == expected_traj
        for row in trajectory["rows"]:
            assert row["mean_makespan"] == row["total_makespan"] / row["record_count"]

    def test_second_read_is_cached(self, service):
        run_small_sweep(service)
        first = service.win_rates()
        second = service.win_rates()
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["rows"] == first["rows"]

    def test_new_data_invalidates_the_cache(self, service):
        run_small_sweep(service, name="before")
        before = service.trajectory()
        run_small_sweep(service, name="after")
        after = service.trajectory()
        assert after["cached"] is False
        assert after["store_version"] != before["store_version"]
        assert len(after["rows"]) > len(before["rows"])

    def test_filtered_rows_equal_library_sql_filtered(self, service, tmp_path):
        """A filtered read takes its system's rows from the cached rows over
        every system; they must be what the store's filtered read returns."""
        run_small_sweep(
            service,
            schedulers=("greedy", "fastest-completion"),
            systems=("d695_plasma", "d695_leon"),
        )
        run_small_sweep(service, name="second", systems=("d695_leon",))
        assert service.win_rates()["cached"] is False
        assert service.trajectory()["cached"] is False
        with SweepDatabase(tmp_path / "serve.db") as db:
            for system in ("d695_plasma", "d695_leon", "p22810_leon"):
                win = service.win_rates(system=system)
                trajectory = service.trajectory(system=system)
                assert win["cached"] is trajectory["cached"] is True
                assert win["system"] == trajectory["system"] == system
                assert win["rows"] == db.win_rate_rows(system=system)
                assert [
                    {key: value for key, value in row.items() if key != "mean_makespan"}
                    for row in trajectory["rows"]
                ] == db.trajectory_rows(system=system)

    def test_a_new_store_version_drops_the_older_entries(self, service):
        run_small_sweep(service, name="before")
        service.win_rates()
        service.trajectory()
        assert len(service.read_cache) == 2
        run_small_sweep(service, name="after")
        service.trajectory(system="d695_plasma")
        assert len(service.read_cache) == 1

    def test_system_filter_validated(self, service):
        with pytest.raises(ApiError) as excinfo:
            service.win_rates(system="atlantis")
        assert excinfo.value.status == 400


class TestHealth:
    def test_health_reports_store_and_cache(self, service):
        health = service.health()
        assert health["status"] == "ok"
        assert health["store_version"] == {"records": 0, "runs": 0}
        assert health["cache"]["ttl_seconds"] == 60.0
        assert health["jobs"] == 0
        run_small_sweep(service)
        health = service.health()
        assert health["store_version"]["records"] == 2
        assert health["jobs"] == 1

    def test_health_reports_build_cache_counters(self, service):
        health = service.health()
        assert health["system_cache"] == {"hits": 0, "misses": 0, "disk_hits": 0}
        assert health["characterization_cache"] == {
            "hits": 0,
            "misses": 0,
            "disk_hits": 0,
        }
        run_small_sweep(service)
        health = service.health()
        # Two grid points over one system: one build, one memory hit.  The
        # memory-only default (no cache_dir) can never produce disk hits.
        assert health["system_cache"] == {"hits": 1, "misses": 1, "disk_hits": 0}

    def test_health_counts_disk_hits_across_restarts(self, tmp_path):
        cache_dir = tmp_path / "cache"
        first = PlanningService(
            tmp_path / "serve.db",
            cache_ttl=60.0,
            characterize=False,
            cache_dir=cache_dir,
        )
        try:
            run_small_sweep(first)
            assert first.health()["system_cache"]["disk_hits"] == 0
        finally:
            first.close()
        restarted = PlanningService(
            tmp_path / "serve.db",
            cache_ttl=60.0,
            characterize=False,
            cache_dir=cache_dir,
        )
        try:
            run_small_sweep(restarted, name="after-restart")
            health = restarted.health()
            # The restarted daemon reloads the persisted build instead of
            # rebuilding: its first lookup is already a (disk) hit.
            assert health["system_cache"] == {"hits": 2, "misses": 0, "disk_hits": 1}
        finally:
            restarted.close()
