"""Tests of the in-process point loop and the shard-worker orchestrator."""

import sys
import tempfile
from collections import Counter

import pytest

from repro.errors import ConfigurationError, OrchestrationError
from repro.runner.backends import (
    ProcessPoolBackend,
    SerialBackend,
    ShardWorkerBackend,
    batch_dirname,
)
from repro.runner.db import SweepDatabase
from repro.runner.engine import SweepRunner
from repro.runner.launch import local_launcher, ssh_launcher
from repro.runner.spec import SweepSpec
from repro.runner.store import save_sweeps
from repro.serve.jobs import SweepJobQueue


@pytest.fixture(scope="module")
def small_spec():
    return SweepSpec(
        name="backend-grid",
        systems=("d695_leon",),
        processor_counts=(0, 2),
        power_limits=(("no power limit", None),),
    )


def assert_points_argv(argv):
    """A worker command line slices its grids with --points, never a shard flag."""
    assert "--points" in argv
    assert not any(arg.startswith("--shard-") for arg in argv)


@pytest.fixture(scope="module")
def batch_specs():
    """A two-system batch: the d695 Figure 1 grids of both processors."""
    from repro.experiments.figure1 import figure1_spec

    return [figure1_spec("d695_leon"), figure1_spec("d695_plasma")]


@pytest.fixture(scope="module")
def batch_serial_export(batch_specs, tmp_path_factory):
    """The serial export of the batch, every spec run in batch order."""
    runner = SweepRunner()
    out = tmp_path_factory.mktemp("batch-serial") / "serial.json"
    return save_sweeps(out, [(spec, runner.run(spec)) for spec in batch_specs]).read_bytes()


@pytest.fixture(scope="module")
def orchestrated_batch(batch_specs, tmp_path_factory):
    """The batch orchestrated over 3 shard workers: report, export and runs."""
    root = tmp_path_factory.mktemp("batch")
    backend = ShardWorkerBackend(workers=3)
    with SweepDatabase(root / "merged.db") as db:
        report = backend.orchestrate(batch_specs, db, workdir=root / "work")
        exported = db.export_document(root / "merged.json").read_bytes()
        runs = db.runs()
    return report, exported, runs


class TestRegistry:
    """What the shard-worker orchestrator refuses to be built with."""

    def test_host_pool_needs_a_host(self):
        for hosts in ([], ["  ", ""]):
            with pytest.raises(ConfigurationError, match="at least one host"):
                ShardWorkerBackend(hosts=hosts)

    def test_shard_worker_validation(self):
        with pytest.raises(ConfigurationError, match="positive"):
            ShardWorkerBackend(workers=0)


#: The host pool every host-pool test dispatches onto.
POOL_HOSTS = ["h1", "h2", "h3"]

#: What a host pool derives for each setting left unset.
POOL_DEFAULTS = {
    "workers": 3,
    "launcher": ssh_launcher,
    "max_retries": 2,
    "checkpoint_every": 1,
}


def resolved_settings(backend):
    """The settings a host pool derives, as the backend resolved them."""
    return {
        "workers": backend.workers,
        "launcher": backend.launcher,
        "max_retries": backend.policy.max_retries,
        "checkpoint_every": backend.checkpoint_every,
    }


def serve_remote_backend(tmp_path, **queue_options):
    """The backend a ``"backend": "remote"`` serve job runs on."""
    queue = SweepJobQueue(tmp_path / "jobs.db", dispatch_hosts=POOL_HOSTS, **queue_options)
    try:
        return queue._orchestrator("remote")
    finally:
        queue.close()


class TestHostPoolDefaults:
    """One place derives the host-pool defaults, whichever path builds it."""

    @pytest.mark.parametrize(
        "build, overrides",
        [
            pytest.param(
                lambda tmp_path: ShardWorkerBackend(hosts=POOL_HOSTS),
                {},
                id="constructor",
            ),
            pytest.param(serve_remote_backend, {}, id="serve"),
            pytest.param(
                lambda tmp_path: ShardWorkerBackend(workers=5, hosts=POOL_HOSTS),
                {"workers": 5},
                id="constructor-workers",
            ),
            pytest.param(
                lambda tmp_path: ShardWorkerBackend(workers=1, hosts=POOL_HOSTS),
                {"workers": 1},
                id="constructor-fewer-workers",
            ),
            pytest.param(
                lambda tmp_path: ShardWorkerBackend(hosts=POOL_HOSTS, launcher="local"),
                {"launcher": local_launcher},
                id="constructor-launcher",
            ),
            pytest.param(
                lambda tmp_path: ShardWorkerBackend(hosts=POOL_HOSTS, max_retries=0),
                {"max_retries": 0},
                id="constructor-max_retries",
            ),
            pytest.param(
                lambda tmp_path: ShardWorkerBackend(hosts=POOL_HOSTS, checkpoint_every=4),
                {"checkpoint_every": 4},
                id="constructor-checkpoint_every",
            ),
            pytest.param(
                lambda tmp_path: serve_remote_backend(tmp_path, dispatch_launcher="local"),
                {"launcher": local_launcher},
                id="serve-launcher",
            ),
        ],
    )
    def test_resolved_settings(self, build, overrides, tmp_path):
        backend = build(tmp_path)
        assert backend.hosts == POOL_HOSTS
        assert resolved_settings(backend) == {**POOL_DEFAULTS, **overrides}

    def test_host_names_are_cleaned(self):
        backend = ShardWorkerBackend(hosts=[" h1 ", "", "h2"])
        assert backend.hosts == ["h1", "h2"]
        assert backend.workers == 2

    def test_without_hosts_the_local_defaults_stay(self):
        backend = ShardWorkerBackend()
        assert backend.hosts is None
        assert resolved_settings(backend) == {
            "workers": 2,
            "launcher": local_launcher,
            "max_retries": 0,
            "checkpoint_every": None,
        }


class TestBackendEquivalence:
    def test_pool_backend_byte_identical_to_serial(self, small_spec):
        """The deprecated pool name is the serial loop under another name:
        it has no execute of its own and plans the same results."""
        from repro.runner.cache import SystemCache

        assert issubclass(ProcessPoolBackend, SerialBackend)
        assert "execute" not in vars(ProcessPoolBackend)
        points = small_spec.points()
        serial = SerialBackend().execute(points, system_cache=SystemCache())
        pooled = ProcessPoolBackend().execute(points, system_cache=SystemCache())
        assert [result.assignments for result in pooled] == [
            result.assignments for result in serial
        ]


class TestWorkerPlanning:
    def test_plans_one_worker_per_shard(self, small_spec, tmp_path):
        groups = [((0,),), ((1,),)]
        plans = ShardWorkerBackend(workers=2).plan_workers([small_spec], tmp_path, groups)
        assert [plan.shard_index for plan in plans] == [0, 1]
        assert [plan.store_path.name for plan in plans] == [
            "shard-0-of-2.db",
            "shard-1-of-2.db",
        ]
        for plan, (group,) in zip(plans, groups):
            assert plan.spec_path.exists()
            assert "--spec-json" in plan.argv
            assert_points_argv(plan.argv)
            assert plan.argv[plan.argv.index("--points") + 1] == ",".join(map(str, group))
            assert "--no-characterize" in plan.argv

    def test_idle_workers_are_not_planned(self, small_spec, tmp_path):
        """A worker whose lists are empty for every grid is dropped; the
        others keep their position in the split (and their store name)."""
        groups = [((),), ((0, 1),), ((),)]
        plans = ShardWorkerBackend(workers=3).plan_workers([small_spec], tmp_path, groups)
        assert [(plan.shard_index, plan.shard_count) for plan in plans] == [(1, 3)]
        assert plans[0].store_path.name == "shard-1-of-3.db"

    def test_unit_cost_split_balances_the_batch(self, small_spec, tmp_path):
        """A store without measurements costs every point 1.0, and the
        second grid of the batch fills the worker the first one left idle."""
        backend = ShardWorkerBackend(workers=3)
        with SweepDatabase(tmp_path / "s.db") as db:
            db.ensure_sweep(small_spec)
            groups = backend.plan_point_groups([small_spec, small_spec], db)
        assert groups == [((0,), (1,)), ((1,), ()), ((), (0,))]

    def test_characterisation_settings_forwarded(self, small_spec, tmp_path):
        backend = ShardWorkerBackend(workers=2)
        plans = backend.plan_workers(
            [small_spec],
            tmp_path,
            [((0,),), ((1,),)],
            characterize=True,
            packet_count=40,
            cache_dir=tmp_path / "cache",
            resume=True,
        )
        for plan in plans:
            assert_points_argv(plan.argv)
            assert "--no-characterize" not in plan.argv
            position = plan.argv.index("--packets")
            assert plan.argv[position + 1] == "40"
            assert "--cache-dir" in plan.argv
            assert "--resume" in plan.argv


class TestShardWorkerOrchestration:
    def test_orchestrated_d695_grid_byte_identical_to_serial(self, tmp_path):
        """The PR's acceptance criterion: the d695 grid orchestrated over 3
        local shard workers merges into a store whose exported document is
        byte-identical to a serial full run's, and (history carried) the
        merged store's run count equals the sum of the shard run counts."""
        from repro.experiments.figure1 import figure1_spec

        spec = figure1_spec("d695_leon")
        serial = save_sweeps(
            tmp_path / "serial.json", [(spec, SweepRunner().run(spec))]
        )
        backend = ShardWorkerBackend(workers=3)
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = backend.orchestrate([spec], db, workdir=tmp_path / "work")
            exported = db.export_document(tmp_path / "merged.json")
            assert db.run_count(report.spec_keys[0]) == report.run_count
        assert exported.read_bytes() == serial.read_bytes()

        assert [w.returncode for w in report.workers] == [0, 0, 0]
        assert report.record_count == spec.point_count
        shard_run_counts = []
        for worker in report.workers:
            with SweepDatabase(worker.plan.store_path) as shard:
                shard_run_counts.append(shard.run_count())
        assert report.run_count == sum(shard_run_counts) == 3

    def test_orchestration_with_more_workers_than_points(self, small_spec, tmp_path):
        """An over-provisioned fleet spawns only the workers that hold
        points, and still merges byte-identical to a serial run."""
        serial = save_sweeps(
            tmp_path / "serial.json", [(small_spec, SweepRunner().run(small_spec))]
        )
        backend = ShardWorkerBackend(workers=4)
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = backend.orchestrate(
                [small_spec], db, workdir=tmp_path / "work"
            )
            assert report.record_count == small_spec.point_count == 2
            assert len(report.workers) == 2  # the two idle workers never spawn
            assert report.run_count == 2
            exported = db.export_document(tmp_path / "merged.json")
        assert exported.read_bytes() == serial.read_bytes()

    def test_launcher_hook_sees_every_worker(self, small_spec, tmp_path):
        """The dispatch seam: the launcher receives each worker's host and
        default argv and decides the spawned command — here a pass-through,
        in real deployments an ssh/CI wrapper."""
        seen = []

        def passthrough(host, argv, env):
            seen.append((host, argv))
            return list(argv)

        backend = ShardWorkerBackend(workers=2, launcher=passthrough)
        with SweepDatabase(tmp_path / "merged.db") as db:
            backend.orchestrate(
                [small_spec], db, workdir=tmp_path / "work"
            )
        for _, argv in seen:
            assert_points_argv(argv)
        assert sorted(argv[argv.index("--points") + 1] for _, argv in seen) == ["0", "1"]
        assert sorted(host for host, _ in seen) == ["local/0", "local/1"]
        assert all(argv[0] == sys.executable for _, argv in seen)

    def test_failing_worker_raises_with_log_tail(self, small_spec, tmp_path):
        def broken(host, argv, env):
            return [
                sys.executable,
                "-c",
                "import sys; print('shard exploded'); sys.exit(3)",
            ]

        backend = ShardWorkerBackend(workers=2, launcher=broken)
        with SweepDatabase(tmp_path / "merged.db") as db:
            with pytest.raises(OrchestrationError, match="exited 3"):
                backend.orchestrate(
                    [small_spec], db, workdir=tmp_path / "work"
                )
            # The failed orchestration must not have merged anything.
            assert db.record_count() == 0
        (log_path,) = (tmp_path / "work").rglob("shard-0.log")
        assert "shard exploded" in log_path.read_text()

    def test_hung_worker_killed_after_timeout(self, small_spec, tmp_path):
        def hang(host, argv, env):
            return [sys.executable, "-c", "import time; time.sleep(60)"]

        backend = ShardWorkerBackend(workers=2, launcher=hang, timeout=0.3)
        with SweepDatabase(tmp_path / "merged.db") as db:
            with pytest.raises(OrchestrationError, match="still running"):
                backend.orchestrate(
                    [small_spec], db, workdir=tmp_path / "work"
                )
            assert db.record_count() == 0

    def test_temporary_workdir_removed_after_success(self, small_spec, tmp_path, monkeypatch):
        """Without a workdir the shard stores, logs and spec file live in a
        temporary directory that a successful merge leaves nothing of."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = ShardWorkerBackend(workers=2).orchestrate([small_spec], db)
            assert db.record_count() == small_spec.point_count
        assert report.workdir is None
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_temporary_workdir_kept_on_failure(self, small_spec, tmp_path, monkeypatch):
        """A failed orchestration keeps its temporary workdir for the logs,
        and the error names it."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()

        def broken(host, argv, env):
            return [sys.executable, "-c", "import sys; sys.exit(3)"]

        backend = ShardWorkerBackend(workers=2, launcher=broken)
        with SweepDatabase(tmp_path / "merged.db") as db:
            with pytest.raises(OrchestrationError) as excinfo:
                backend.orchestrate([small_spec], db)
        (workdir,) = (tmp_path / "tmp").iterdir()
        assert workdir.name.startswith("repro-orchestrate-")
        assert str(workdir) in str(excinfo.value)
        assert list(workdir.rglob("shard-0.log"))

    def test_remerging_unchanged_shard_stores_is_a_noop(self, small_spec, tmp_path):
        """Folding the shard stores of a finished orchestration in again must
        carry no runs and add no records (retry safety)."""
        backend = ShardWorkerBackend(workers=2)
        with SweepDatabase(tmp_path / "merged.db") as db:
            report = backend.orchestrate(
                [small_spec], db, workdir=tmp_path / "work"
            )
            run_count = db.run_count()
            for worker in report.workers:
                with SweepDatabase(worker.plan.store_path) as shard:
                    (again,) = db.merge_all([shard])
                assert again.runs_carried == 0
                assert again.inserted == 0
            assert db.run_count() == run_count
            assert db.records(report.spec_keys[0]) == [
                o.record() for o in SweepRunner().run(small_spec)
            ]


class TestBatchOrchestration:
    """A batch of grids is one dispatch round on the same N workers."""

    def test_two_system_batch_byte_identical_to_serial(
        self, orchestrated_batch, batch_serial_export
    ):
        _, exported, _ = orchestrated_batch
        assert exported == batch_serial_export

    def test_batch_makes_one_first_attempt_per_worker(self, orchestrated_batch):
        """3 workers for 2 grids: 3 first attempts, not one round per grid."""
        report, _, _ = orchestrated_batch
        assert len(report.workers) == 3
        attempts = [a.attempt for worker in report.workers for a in worker.attempts]
        assert attempts == [1, 1, 1]

    def test_batch_run_count_is_specs_times_workers(
        self, orchestrated_batch, batch_specs
    ):
        """Each worker records one run per grid, labelled with its point
        count (8 points per grid over 3 workers: 3, 3 and 2)."""
        report, _, runs = orchestrated_batch
        assert report.spec_keys == tuple(spec.content_key() for spec in batch_specs)
        assert report.record_count == sum(spec.point_count for spec in batch_specs)
        assert report.run_count == len(runs) == 2 * 3
        assert Counter(run.source for run in runs) == {"points:3": 4, "points:2": 2}
        assert Counter(run.spec_key for run in runs) == {
            key: 3 for key in report.spec_keys
        }

    def test_batch_workdir_is_keyed_by_its_spec_keys(self, batch_specs, orchestrated_batch):
        """A one-spec batch keeps the single-grid subdirectory name, so older
        workdirs still resume; a batch hashes its keys in batch order."""
        report, _, _ = orchestrated_batch
        first, second = batch_specs
        assert batch_dirname([first]) == first.content_key()[:12]
        assert batch_dirname(batch_specs) != batch_dirname([second, first])
        assert report.workers[0].plan.store_path.parent.name == batch_dirname(batch_specs)

    def test_orchestrate_needs_a_sequence_of_specs(self, small_spec, tmp_path):
        backend = ShardWorkerBackend(workers=2)
        with SweepDatabase(tmp_path / "s.db") as db:
            with pytest.raises(ConfigurationError, match=r"\[spec\]"):
                backend.orchestrate(small_spec, db)
            with pytest.raises(ConfigurationError, match="at least one"):
                backend.orchestrate([], db)


class TestCostBasedSharding:
    def seeded_store(self, spec, path, costs):
        db = SweepDatabase(path)
        spec_key = db.ensure_sweep(spec)
        db.record_run(spec_key, [], executed=0, skipped=0, point_costs=costs)
        return db

    def test_no_measurements_falls_back_to_equal_sharding(self, small_spec, tmp_path):
        backend = ShardWorkerBackend(workers=2)
        with SweepDatabase(tmp_path / "empty.db") as db:
            db.ensure_sweep(small_spec)
            assert backend.plan_point_groups([small_spec], db) == [((0,),), ((1,),)]

    def test_fewer_points_than_workers_falls_back(self, small_spec, tmp_path):
        """With no more points than workers LPT gives each point a worker of
        its own, like the equal split; the idle workers are not spawned."""
        backend = ShardWorkerBackend(workers=4)
        with self.seeded_store(small_spec, tmp_path / "s.db", {0: 1.0}) as db:
            groups = backend.plan_point_groups([small_spec], db)
        assert groups == [((0,),), ((1,),), ((),), ((),)]

    def test_lpt_balances_measured_costs(self, tmp_path):
        """One dominant point gets a worker to itself; the cheap points pack
        onto the other — and unmeasured points cost the measured mean."""
        spec = SweepSpec(
            name="lpt-grid",
            systems=("d695_leon",),
            processor_counts=(0, 2, 4, 6),
            power_limits=(("no power limit", None),),
        )
        costs = {0: 10.0, 1: 1.0, 2: 1.0}  # point 3 unmeasured -> mean 4.0
        backend = ShardWorkerBackend(workers=2)
        with self.seeded_store(spec, tmp_path / "s.db", costs) as db:
            groups = backend.plan_point_groups([spec], db)
            again = backend.plan_point_groups([spec], db)
        assert groups == again  # deterministic
        assert groups == [((0,),), ((1, 2, 3),)]
        assert sorted(i for (group,) in groups for i in group) == [0, 1, 2, 3]

    def test_point_groups_flow_into_worker_argv(self, small_spec, tmp_path):
        backend = ShardWorkerBackend(workers=2)
        plans = backend.plan_workers([small_spec], tmp_path, [((1,),), ((0,),)])
        for plan, expected in zip(plans, ("1", "0")):
            assert_points_argv(plan.argv)
            assert plan.argv[plan.argv.index("--points") + 1] == expected

    def test_cost_sized_orchestration_matches_serial(self, small_spec, tmp_path):
        """End to end: measure costs with a serial store-backed run, then
        orchestrate the same grid cost-sized — records identical to serial."""
        with SweepDatabase(tmp_path / "merged.db") as db:
            SweepRunner().run_stored(small_spec, db)
            assert db.point_cost_rows(small_spec.content_key())
            backend = ShardWorkerBackend(workers=2)
            report = backend.orchestrate(
                [small_spec], db, workdir=tmp_path / "work", resume=False
            )
            records = db.records(small_spec.content_key())
        assert report.record_count == small_spec.point_count
        assert records == [o.record() for o in SweepRunner().run(small_spec)]

    def test_unmeasured_spec_of_a_batch_keeps_its_shard_slices(
        self, small_spec, tmp_path
    ):
        """One measured and one unmeasured grid still plan one round: every
        worker holds one list per grid, and each grid's lists cover it."""
        measured = SweepSpec(
            name="measured-grid",
            systems=("d695_leon",),
            processor_counts=(0, 2, 4),
            power_limits=(("no power limit", None),),
        )
        backend = ShardWorkerBackend(workers=2)
        with self.seeded_store(measured, tmp_path / "s.db", {0: 5.0, 1: 1.0}) as db:
            groups = backend.plan_point_groups([measured, small_spec], db)
        assert all(len(worker) == 2 for worker in groups)
        assert sorted(i for worker in groups for i in worker[0]) == [0, 1, 2]
        assert sorted(i for worker in groups for i in worker[1]) == [0, 1]

    def test_measured_and_unmeasured_grids_balance_on_one_loads_list(
        self, small_spec, tmp_path
    ):
        """An unmeasured grid's points cost the batch's measured mean (3.0
        here), and both grids pack onto the same loads: the worker holding
        the dominant point gets none of the unmeasured grid, and the two
        workers end at 9.0 each."""
        measured = SweepSpec(
            name="measured-grid",
            systems=("d695_leon",),
            processor_counts=(0, 2, 4, 6),
            power_limits=(("no power limit", None),),
        )
        costs = {0: 9.0, 1: 1.0, 2: 1.0, 3: 1.0}
        backend = ShardWorkerBackend(workers=2)
        with self.seeded_store(measured, tmp_path / "s.db", costs) as db:
            groups = backend.plan_point_groups([measured, small_spec], db)
        assert groups == [((0,), ()), ((1, 2, 3), (0, 1))]

    def test_cost_sized_batch_matches_serial(
        self, batch_specs, batch_serial_export, tmp_path
    ):
        """Measured costs for both grids, then one cost-sized round: every
        worker gets a ';'-joined --points list and the export matches serial."""
        costs = {}
        with SweepDatabase(tmp_path / "measured.db") as measured:
            for spec in batch_specs:
                SweepRunner().run_stored(spec, measured)
                costs[spec] = measured.point_cost_rows(spec.content_key())
        seen = []

        def passthrough(host, argv, env):
            seen.append(argv)
            return list(argv)

        backend = ShardWorkerBackend(workers=3, launcher=passthrough)
        with SweepDatabase(tmp_path / "merged.db") as db:
            for spec in batch_specs:
                db.record_run(
                    db.ensure_sweep(spec), [], executed=0, skipped=0, point_costs=costs[spec]
                )
            report = backend.orchestrate(
                batch_specs, db, workdir=tmp_path / "work"
            )
            exported = db.export_document(tmp_path / "merged.json").read_bytes()
        assert exported == batch_serial_export
        assert len(seen) == len(report.workers) == 3
        for argv in seen:
            assert_points_argv(argv)
            assert argv[argv.index("--points") + 1].count(";") == 1


class TestResumedOrchestration:
    """A resumed orchestration plans only what the target store lacks."""

    def test_resume_after_a_measured_orchestration_plans_nothing(
        self, batch_specs, batch_serial_export, tmp_path
    ):
        """The first merge carries new point costs into the target, but the
        target then holds every point: the resume spawns no worker, executes
        no point, carries no run and leaves the export as serial's."""
        spawned = []

        def passthrough(host, argv, env):
            spawned.append(argv)
            return list(argv)

        backend = ShardWorkerBackend(workers=3, launcher=passthrough)
        with SweepDatabase(tmp_path / "merged.db") as db:
            for spec in batch_specs:
                SweepRunner().run_points(spec, db, [])
                db.record_run(
                    spec.content_key(),
                    [],
                    executed=0,
                    skipped=0,
                    point_costs={index: 1.0 + index % 3 for index in range(spec.point_count)},
                )
            first = backend.orchestrate(batch_specs, db, workdir=tmp_path / "work")
            run_count = db.run_count()
            spawned.clear()
            resumed = backend.orchestrate(
                batch_specs, db, workdir=tmp_path / "work", resume=True
            )
            assert db.run_count() == run_count
            exported = db.export_document(tmp_path / "merged.json").read_bytes()
        total = sum(spec.point_count for spec in batch_specs)
        assert (first.executed_count, first.skipped_count) == (total, 0)
        assert spawned == []
        assert resumed.workers == () and resumed.merge_reports == ()
        assert (resumed.executed_count, resumed.skipped_count) == (0, total)
        assert resumed.record_count == total
        assert exported == batch_serial_export

    def test_resume_splits_only_the_missing_points(self, tmp_path):
        """Points the target already holds stay out of every worker's list;
        the rest merge in and the export matches a serial run."""
        from repro.experiments.figure1 import figure1_spec

        spec = figure1_spec("d695_leon")
        serial = save_sweeps(
            tmp_path / "serial.json", [(spec, SweepRunner().run(spec))]
        ).read_bytes()
        spawned = []

        def passthrough(host, argv, env):
            spawned.append(argv[argv.index("--points") + 1])
            return list(argv)

        backend = ShardWorkerBackend(workers=2, launcher=passthrough)
        with SweepDatabase(tmp_path / "merged.db") as db:
            SweepRunner().run_points(spec, db, [0, 1, 2])
            report = backend.orchestrate([spec], db, resume=True)
            exported = db.export_document(tmp_path / "merged.json").read_bytes()
        assert (report.executed_count, report.skipped_count) == (5, 3)
        assert sorted(int(i) for points in spawned for i in points.split(",")) == list(
            range(3, spec.point_count)
        )
        assert exported == serial


class TestMeasuredCosts:
    def test_point_costs_exclude_the_system_build(self, small_spec, monkeypatch):
        """Building a point's system is one-off work, not the point's cost:
        with a build that sleeps 50 ms every point still costs less."""
        import time

        from repro.runner import cache

        build = cache.build_point_system

        def slow_build(*args, **kwargs):
            time.sleep(0.05)
            return build(*args, **kwargs)

        monkeypatch.setattr(cache, "build_point_system", slow_build)
        backend = SerialBackend()
        backend.execute(small_spec.points(), system_cache=cache.SystemCache())
        costs = backend.measured_costs()
        assert sorted(costs) == list(range(small_spec.point_count))
        assert all(seconds < 0.05 for seconds in costs.values())
