"""Tests of the command-line interface."""

import tempfile

import pytest

from repro.cli import build_parser, main

#: A 3-way split of the 8-point d695 grid as ``repro sweep --points`` lists
#: (the slices the CI sweep-shard matrix runs).
D695_SLICES = ("0,1,2", "3,4,5", "6,7")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_system_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "not_a_system"])


class TestCommands:
    def test_benchmarks_command(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        assert "d695" in out
        assert "p93791" in out

    def test_describe_command(self, capsys):
        assert main(["describe", "d695_leon"]) == 0
        out = capsys.readouterr().out
        assert "d695_leon" in out
        assert "leon1" in out
        assert "4x4" in out

    def test_plan_command(self, capsys):
        assert main(["plan", "d695_leon", "--processors", "2", "--gantt"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "Schedule for d695_leon" in out

    def test_plan_command_json(self, capsys):
        assert main(["plan", "d695_plasma", "--processors", "0", "--json"]) == 0
        out = capsys.readouterr().out
        assert '"system": "d695_plasma"' in out

    def test_plan_with_power_limit_and_lookahead(self, capsys):
        assert (
            main(["plan", "d695_leon", "--processors", "4", "--power-limit", "0.5", "--lookahead"])
            == 0
        )
        out = capsys.readouterr().out
        assert "fastest-completion" in out

    def test_figure1_single_system(self, capsys):
        assert main(["figure1", "d695_plasma"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1 panel: d695_plasma" in out
        assert "noproc" in out
        assert "6proc" in out

    def test_figure1_csv(self, capsys):
        assert main(["figure1", "d695_plasma", "--csv"]) == 0
        out = capsys.readouterr().out
        assert "series,processors,makespan" in out

    def test_headline_command(self, capsys):
        assert main(["headline"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out and "T2" in out and "T3" in out

    def test_plan_with_bounds(self, capsys):
        assert main(["plan", "d695_plasma", "--processors", "2", "--bounds"]) == 0
        out = capsys.readouterr().out
        assert "bound efficiency" in out

    def test_characterize_command(self, capsys):
        assert main(["characterize", "d695_leon", "--packets", "40"]) == 0
        out = capsys.readouterr().out
        assert "40 packets" in out
        assert "leon1:" in out

    def test_export_soc_command(self, capsys, tmp_path):
        assert main(["export-soc", str(tmp_path)]) == 0
        assert (tmp_path / "d695.soc").exists()
        assert (tmp_path / "p93791.soc").exists()


class TestSweepCommand:
    def test_sweep_matches_figure1(self, capsys, tmp_path):
        """`repro sweep` with the characterisation cache must reproduce the
        Figure 1 panel for d695 exactly."""
        from repro.experiments.figure1 import run_panel

        out_file = tmp_path / "results.json"
        assert (
            main(
                [
                    "sweep",
                    "d695_leon",
                    "--packets",
                    "40",
                    "--cache-dir",
                    str(tmp_path / "cache"),
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Sweep: d695_leon" in out
        assert "NoC characterisations" in out
        assert out_file.exists()

        panel = run_panel("d695_leon")
        from repro.runner.store import load_sweeps

        (stored,) = load_sweeps(out_file)
        makespans = {
            (record["power_label"], record["reused_processors"]): record["makespan"]
            for record in stored.records
        }
        for label in ("no power limit", "50% power limit"):
            for count, expected in panel.makespans(label).items():
                assert makespans[(label, count)] == expected

    def test_sweep_custom_grid(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "d695_plasma",
                    "--counts",
                    "0,all",
                    "--power-limits",
                    "none",
                    "--schedulers",
                    "greedy,fastest-completion",
                    "--no-characterize",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "allproc" in out
        assert "fastest-completion" in out

    def test_sweep_load_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "results.json"
        assert (
            main(
                [
                    "sweep",
                    "d695_leon",
                    "--counts",
                    "0",
                    "--power-limits",
                    "none",
                    "--no-characterize",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["sweep", "--load", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "sweep-d695_leon" in out
        assert "163785" in out

    def test_sweep_all_counts_single_scheduler(self, capsys):
        """'all' (None) counts cannot be rendered as a Figure 1 panel table;
        the command must fall back to the flat table instead of crashing."""
        assert (
            main(
                [
                    "sweep",
                    "d695_leon",
                    "--counts",
                    "0,all",
                    "--power-limits",
                    "none",
                    "--no-characterize",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "allproc" in out

    @pytest.mark.parametrize("counts", ["2,4", "2,2"])
    def test_sweep_without_baseline_count_prints_the_flat_table(self, capsys, counts):
        """A panel's reductions are taken against the 0-processor baseline;
        a grid without it must fall back to the flat table, not crash with
        a bare KeyError."""
        argv = ["sweep", "d695_leon", "--counts", counts, "--no-characterize"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == "Sweep: d695_leon"
        assert lines[1].split() == [
            "idx", "system", "scheduler", "power", "series", "reuse", "flit",
            "makespan", "peak", "power",
        ]
        assert "2proc" in captured.out
        assert "reduction" not in captured.out

    def test_sweep_rejects_unknown_system(self, capsys):
        assert main(["sweep", "d695_arm"]) == 1
        assert "unknown paper system" in capsys.readouterr().err

    def test_sweep_rejects_bad_counts(self, capsys):
        assert main(["sweep", "d695_leon", "--counts", "two"]) == 1
        assert "invalid processor count" in capsys.readouterr().err

    def test_sweep_rejects_bad_power_limit(self, capsys):
        assert main(["sweep", "d695_leon", "--power-limits", "half"]) == 1
        assert "invalid power limit" in capsys.readouterr().err

    def test_load_rejects_grid_flags(self, capsys, tmp_path):
        """--load only prints a stored document; grid flags next to it would
        silently run nothing and must be rejected."""
        assert main(["sweep", "--load", str(tmp_path / "r.json"), "--jobs", "4"]) == 1
        err = capsys.readouterr().err
        assert "--load" in err and "--jobs" in err

    def test_load_rejects_positional_systems(self, capsys, tmp_path):
        assert main(["sweep", "d695_leon", "--load", str(tmp_path / "r.json")]) == 1
        assert "SYSTEM arguments" in capsys.readouterr().err

    def test_resume_requires_store(self, capsys):
        assert main(["sweep", "d695_leon", "--resume"]) == 1
        assert "--resume needs --store" in capsys.readouterr().err


class TestStoreAndHistoryCommands:
    @staticmethod
    def _sweep(store, *extra):
        return main(
            [
                "sweep",
                "d695_leon",
                "--counts",
                "0,2",
                "--power-limits",
                "none",
                "--no-characterize",
                "--store",
                str(store),
                *extra,
            ]
        )

    def test_store_then_resume_skips_everything(self, capsys, tmp_path):
        store = tmp_path / "sweeps.db"
        assert self._sweep(store) == 0
        assert "2 executed, 0 skipped" in capsys.readouterr().out
        assert store.exists()

        assert self._sweep(store, "--resume") == 0
        out = capsys.readouterr().out
        assert "0 executed, 2 skipped" in out
        assert "[resume]" in out
        assert "163785" in out  # skipped points are still reported from the store

    def test_store_with_out_exports_document(self, capsys, tmp_path):
        store = tmp_path / "sweeps.db"
        out_file = tmp_path / "results.json"
        assert self._sweep(store, "--out", str(out_file)) == 0
        capsys.readouterr()
        from repro.runner.store import load_sweeps

        (stored,) = load_sweeps(out_file)
        assert len(stored.records) == 2

    def test_history_reports_win_rates_and_trajectory(self, capsys, tmp_path):
        store = tmp_path / "sweeps.db"
        assert (
            main(
                [
                    "sweep",
                    "d695_plasma",
                    "--counts",
                    "0,6",
                    "--power-limits",
                    "none",
                    "--schedulers",
                    "greedy,fastest-completion",
                    "--no-characterize",
                    "--store",
                    str(store),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["history", str(store)]) == 0
        out = capsys.readouterr().out
        assert "Scheduler win-rates" in out
        assert "Makespan over runs" in out
        assert "d695_plasma" in out

    def test_history_missing_store_fails(self, capsys, tmp_path):
        assert main(["history", str(tmp_path / "absent.db")]) == 1
        assert "no sqlite sweep store" in capsys.readouterr().err

    def test_failed_import_leaves_no_stray_store(self, capsys, tmp_path):
        """A failed --import-json seed must not leave an empty store behind
        that would mask the missing-store error on the next invocation."""
        store = tmp_path / "new.db"
        assert (
            main(["history", str(store), "--import-json", str(tmp_path / "nope.json")])
            == 1
        )
        capsys.readouterr()
        assert not store.exists()
        assert main(["history", str(store)]) == 1
        assert "no sqlite sweep store" in capsys.readouterr().err

    def test_history_import_export_round_trip(self, capsys, tmp_path):
        document = tmp_path / "results.json"
        assert (
            main(
                [
                    "sweep",
                    "d695_leon",
                    "--counts",
                    "0",
                    "--power-limits",
                    "none",
                    "--no-characterize",
                    "--out",
                    str(document),
                ]
            )
            == 0
        )
        capsys.readouterr()
        store = tmp_path / "sweeps.db"
        exported = tmp_path / "exported.json"
        assert (
            main(
                [
                    "history",
                    str(store),
                    "--import-json",
                    str(document),
                    "--export-json",
                    str(exported),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "imported 1 record(s)" in out
        assert exported.read_bytes() == document.read_bytes()


class TestShardAndMergeCommands:
    @staticmethod
    def _sweep_points(store, points):
        store_args = ["--store", str(store), "--points", points]
        return main(["sweep", "d695_leon", "--no-characterize", *store_args])

    def _shard(self, store, index):
        """Worker ``index`` of the 3-way split of the 8-point d695 grid."""
        return self._sweep_points(store, D695_SLICES[index])

    def test_sharded_run_merges_byte_identical_to_serial(self, capsys, tmp_path):
        """The acceptance path end to end: 3 CLI shards of the d695 grid,
        `repro merge`, and the exported document equals the serial run's."""
        serial = tmp_path / "serial.json"
        assert (
            main(["sweep", "d695_leon", "--no-characterize", "--out", str(serial)]) == 0
        )
        shard_paths = []
        for index in range(3):
            store = tmp_path / f"shard-{index}.db"
            assert self._shard(store, index) == 0
            shard_paths.append(store)
        capsys.readouterr()

        merged = tmp_path / "merged.db"
        exported = tmp_path / "merged.json"
        assert (
            main(
                [
                    "merge",
                    str(merged),
                    *map(str, shard_paths),
                    "--export-json",
                    str(exported),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "8 records after merging 3 store(s)" in out
        assert exported.read_bytes() == serial.read_bytes()

    def test_shard_reports_its_slice(self, capsys, tmp_path):
        assert self._shard(tmp_path / "shard.db", 0) == 0
        out = capsys.readouterr().out
        assert "3 executed, 0 skipped across 1 sweep(s) [points 3]" in out
        assert "for 3 grid points" in out

    def test_merge_is_idempotent(self, capsys, tmp_path):
        shard = tmp_path / "shard.db"
        assert self._shard(shard, 2) == 0
        merged = tmp_path / "merged.db"
        assert main(["merge", str(merged), str(shard), str(shard)]) == 0
        out = capsys.readouterr().out
        assert "2 record(s) added, 0 identical" in out
        assert "0 record(s) added, 2 identical" in out

    def test_merge_carries_shard_runs_and_costs(self, capsys, tmp_path):
        """`repro merge` carries every shard run with its points:<n> label
        and point costs; merging the same shards again carries nothing."""
        from repro.runner.db import SweepDatabase

        shards = [str(tmp_path / f"shard-{index}.db") for index in range(3)]
        for store, points in zip(shards, D695_SLICES):
            assert self._sweep_points(store, points) == 0
        shard_costs = {}
        for store in shards:
            with SweepDatabase.open_reader(store) as shard:
                (spec_key,) = shard.spec_keys()
                shard_costs.update(shard.point_cost_rows(spec_key))
        merged = str(tmp_path / "merged.db")
        capsys.readouterr()
        assert main(["merge", merged, *shards]) == 0
        assert "(8 added, 0 identical, 3 run(s) carried)" in capsys.readouterr().out
        with SweepDatabase.open_reader(merged) as db:
            assert sorted(run.source for run in db.runs()) == [
                "points:2",
                "points:3",
                "points:3",
            ]
            assert db.point_cost_rows(spec_key) == shard_costs
        assert main(["merge", merged, *shards]) == 0
        assert "(0 added, 8 identical, 0 run(s) carried)" in capsys.readouterr().out
        with SweepDatabase.open_reader(merged) as db:
            assert db.run_count() == 3

    @pytest.mark.parametrize(
        "command, retired",
        [
            pytest.param("sweep", ["--shard-index", "0"], id="shard-index"),
            pytest.param("sweep", ["--shard-count", "3"], id="shard-count"),
            pytest.param("sweep", ["--shard-strategy", "strided"], id="shard-strategy"),
            pytest.param(
                "orchestrate",
                ["--shard-strategy", "strided"],
                id="orchestrate-shard-strategy",
            ),
        ],
    )
    def test_shard_flags_are_parse_errors(self, capsys, tmp_path, command, retired):
        """A slice is an explicit --points list and orchestrate always splits
        by LPT; the old shard flags are argparse errors on both commands."""
        with pytest.raises(SystemExit) as excinfo:
            main([command, "d695_leon", "--store", str(tmp_path / "s.db"), *retired])
        assert excinfo.value.code == 2
        assert retired[0] in capsys.readouterr().err

    def test_shard_flags_require_store(self, capsys):
        """A worker's slice is a --points list, which only runs into a store."""
        assert main(["sweep", "d695_leon", "--points", D695_SLICES[0]]) == 1
        assert "--points needs --store" in capsys.readouterr().err

    def test_shard_index_out_of_range(self, capsys, tmp_path):
        store = tmp_path / "shard.db"
        assert self._sweep_points(store, "0,8") == 1
        assert "out of range" in capsys.readouterr().err
        assert not store.exists()  # validated before the store is opened

    def test_load_rejects_shard_flags(self, capsys, tmp_path):
        assert main(["sweep", "--load", str(tmp_path / "r.json"), "--points", "0"]) == 1
        err = capsys.readouterr().err
        assert "--points" in err and "--load" in err

    def test_merge_missing_shard_store_fails(self, capsys, tmp_path):
        out_db = tmp_path / "merged.db"
        assert main(["merge", str(out_db), str(tmp_path / "absent.db")]) == 1
        assert "no sqlite sweep store" in capsys.readouterr().err
        assert not out_db.exists()


class TestBackendSelection:
    def test_pool_backend_flag(self, capsys, tmp_path):
        """``--backend pool --jobs 2`` is a deprecated spelling: each flag
        warns once on stderr and the grid plans in-process, with the same
        export as a plain run."""
        base = [
            "sweep",
            "d695_leon",
            "--counts",
            "0,2",
            "--power-limits",
            "none",
            "--no-characterize",
        ]
        assert main([*base, "--out", str(tmp_path / "serial.json")]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        pooled = tmp_path / "pool.json"
        assert main([*base, "--backend", "pool", "--jobs", "2", "--out", str(pooled)]) == 0
        captured = capsys.readouterr()
        warnings = captured.err.splitlines()
        assert len(warnings) == 2
        assert all("repro orchestrate --workers N" in line for line in warnings)
        assert "--jobs" in warnings[0] and "--backend" in warnings[1]
        assert captured.out.replace(str(pooled), "") == plain.out.replace(
            str(tmp_path / "serial.json"), ""
        )
        assert "2 grid points\n" in captured.out
        assert pooled.read_bytes() == (tmp_path / "serial.json").read_bytes()

    @pytest.mark.parametrize(
        "retired",
        [
            ["--backend", "shard-workers"],
            ["--backend", "remote"],
            ["--workers", "2"],
            ["--hosts", "h1"],
            ["--hosts-file", "F"],
            ["--launcher", "local"],
            ["--workdir", "D"],
        ],
        ids=lambda retired: "-".join(retired).lstrip("-"),
    )
    def test_retired_orchestration_options_are_parse_errors(self, capsys, tmp_path, retired):
        """Shard-worker fan-out is `repro orchestrate`'s alone; sweep's old
        spellings of it are argparse errors, not silently different runs."""
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "d695_leon", "--store", str(tmp_path / "s.db"), *retired])
        assert excinfo.value.code == 2
        assert retired[0] in capsys.readouterr().err

    def test_sweep_backends_plan_in_process(self):
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        backend = next(a for a in commands.choices["sweep"]._actions if a.dest == "backend")
        assert backend.choices == ("pool", "serial")

    def test_deprecated_flags_are_hidden_from_help(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--help"])
        out = capsys.readouterr().out
        assert "--backend" not in out and "--jobs" not in out

    def test_strided_shards_merge_byte_identical(self, capsys, tmp_path):
        """Strided --points lists (the split orchestrate deals when every
        point costs the same) merge to the serial document like contiguous
        ones."""
        serial = tmp_path / "serial.json"
        base = [
            "sweep",
            "d695_leon",
            "--counts",
            "0,2,4",
            "--power-limits",
            "none",
            "--no-characterize",
        ]
        assert main([*base, "--out", str(serial)]) == 0
        for index, points in enumerate(("0,2", "1")):
            store = str(tmp_path / f"shard-{index}.db")
            assert main([*base, "--store", store, "--points", points]) == 0
        capsys.readouterr()
        merged = tmp_path / "merged.json"
        assert (
            main(
                [
                    "merge",
                    str(tmp_path / "m.db"),
                    str(tmp_path / "shard-0.db"),
                    str(tmp_path / "shard-1.db"),
                    "--export-json",
                    str(merged),
                ]
            )
            == 0
        )
        assert merged.read_bytes() == serial.read_bytes()

    def test_load_rejects_backend_flag(self, capsys, tmp_path):
        assert main(["sweep", "--load", str(tmp_path / "r.json"), "--backend", "pool"]) == 1
        err = capsys.readouterr().err
        assert "--backend" in err and "--load" in err


class TestSpecJson:
    @staticmethod
    def _write_spec(path):
        import json

        from repro.runner.spec import SweepSpec

        spec = SweepSpec(
            name="from-file",
            systems=("d695_leon",),
            processor_counts=(0, 2),
            power_limits=(("no power limit", None),),
        )
        path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
        return spec

    def test_spec_json_runs_the_stored_grid(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        self._write_spec(spec_file)
        assert (
            main(
                [
                    "sweep",
                    "--spec-json",
                    str(spec_file),
                    "--no-characterize",
                    "--store",
                    str(tmp_path / "s.db"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 executed" in out

    def test_spec_json_rejects_grid_flags(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        self._write_spec(spec_file)
        assert main(["sweep", "--spec-json", str(spec_file), "--counts", "0"]) == 1
        err = capsys.readouterr().err
        assert "--spec-json" in err and "--counts" in err

    def test_spec_json_rejects_positional_systems(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        self._write_spec(spec_file)
        assert main(["sweep", "d695_leon", "--spec-json", str(spec_file)]) == 1
        assert "SYSTEM arguments" in capsys.readouterr().err

    def test_missing_spec_file_fails(self, capsys, tmp_path):
        assert main(["sweep", "--spec-json", str(tmp_path / "absent.json")]) == 1
        assert "cannot read spec file" in capsys.readouterr().err


class TestOrchestrateCommand:
    def test_orchestrate_matches_serial_export(self, capsys, tmp_path):
        """`repro orchestrate` end to end on a small grid: two local shard
        workers, merged store, export byte-identical to the serial run."""
        serial = tmp_path / "serial.json"
        assert (
            main(
                [
                    "sweep",
                    "d695_leon",
                    "--counts",
                    "0,2",
                    "--power-limits",
                    "none",
                    "--no-characterize",
                    "--out",
                    str(serial),
                ]
            )
            == 0
        )
        capsys.readouterr()
        exported = tmp_path / "merged.json"
        assert (
            main(
                [
                    "orchestrate",
                    "d695_leon",
                    "--counts",
                    "0,2",
                    "--power-limits",
                    "none",
                    "--no-characterize",
                    "--workers",
                    "2",
                    "--store",
                    str(tmp_path / "merged.db"),
                    "--workdir",
                    str(tmp_path / "work"),
                    "--export-json",
                    str(exported),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "orchestrated on 2 shard worker(s)" in out
        assert "2 run(s)" in out
        assert exported.read_bytes() == serial.read_bytes()

    def test_orchestrate_without_workdir_leaves_no_temporary_directory(
        self, capsys, tmp_path, monkeypatch
    ):
        """The temporary workdir goes after a successful merge, and the
        summary does not name a directory that no longer exists."""
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        argv = ["orchestrate", "d695_leon", "--counts", "0,2", "--power-limits", "none"]
        argv += ["--no-characterize", "--workers", "2", "--store", str(tmp_path / "s.db")]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "(2 shard run(s) carried)" in out
        assert "workdir" not in out.splitlines()[-1]
        assert list((tmp_path / "tmp").iterdir()) == []

    def test_orchestrate_defaults_to_two_workers(self, capsys, tmp_path):
        """Without --workers or hosts the CLI leaves the worker count to the
        backend, whose default is 2."""
        store = str(tmp_path / "s.db")
        assert main(["orchestrate", "d695_leon", "--no-characterize", "--store", store]) == 0
        assert "orchestrated on 2 shard worker(s)" in capsys.readouterr().out

    def test_orchestrate_requires_store(self, capsys):
        with pytest.raises(SystemExit):
            main(["orchestrate", "d695_leon"])

    def test_orchestrate_multiple_grids_share_a_workdir(self, capsys, tmp_path):
        """Several grids orchestrated into one store from one --workdir must
        not collide: each grid's shard stores live in their own subdirectory."""
        assert (
            main(
                [
                    "orchestrate",
                    "d695_leon",
                    "d695_plasma",
                    "--counts",
                    "0",
                    "--power-limits",
                    "none",
                    "--no-characterize",
                    "--workers",
                    "3",
                    "--store",
                    str(tmp_path / "merged.db"),
                    "--workdir",
                    str(tmp_path / "work"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # The batch balances the two one-point grids onto workers 0 and 1,
        # each recording one run per grid; worker 2 would hold no point of
        # either grid, so it is not spawned.
        assert "2 records, 4 run(s) across 2 sweep(s) orchestrated on 2 shard worker(s)" in out

    def test_orchestrate_resume_without_workdir_skips_stored_points(
        self, capsys, tmp_path
    ):
        """--resume applies the sweep's resume rule to the target store, so
        it needs no --workdir: only the points the store lacks are planned,
        and once it holds them all no worker spawns."""
        grid = ["d695_leon", "--counts", "0,2,4", "--power-limits", "none"]
        grid += ["--no-characterize"]
        store = str(tmp_path / "s.db")
        exported = tmp_path / "orchestrated.json"
        resume = ["orchestrate", *grid, "--workers", "2", "--store", store, "--resume"]
        assert main(["sweep", *grid, "--store", store, "--points", "0,2"]) == 0
        capsys.readouterr()
        assert main([*resume, "--export-json", str(exported)]) == 0
        assert "3 records, 2 run(s) across 1 sweep(s) orchestrated on 1 shard worker(s)" in (
            capsys.readouterr().out
        )
        assert main(resume) == 0
        assert "3 records, 2 run(s) across 1 sweep(s) orchestrated on 0 shard worker(s)" in (
            capsys.readouterr().out
        )
        serial = tmp_path / "serial.json"
        assert main(["sweep", *grid, "--out", str(serial)]) == 0
        assert exported.read_bytes() == serial.read_bytes()

    @pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
    def test_orchestrate_no_characterize_re_records_a_characterised_grid(
        self, capsys, tmp_path, resume
    ):
        """A grid stored with characterisation is re-recorded without it by
        `repro orchestrate --no-characterize` exactly as by `repro sweep
        --no-characterize`: the merge lets the newer run supersede records
        that differ only in their characterisation."""
        import shutil

        grid = ["d695_leon", "--counts", "0,2", "--power-limits", "none"]
        characterised = tmp_path / "C.db"
        assert main(["sweep", *grid, "--packets", "40", "--store", str(characterised)]) == 0
        direct = tmp_path / "D.db"
        shutil.copyfile(characterised, direct)
        orchestrated = tmp_path / "orchestrated.json"
        argv = ["orchestrate", *grid, "--no-characterize", "--workers", "2"]
        argv += ["--store", str(characterised), "--export-json", str(orchestrated)]
        assert main([*argv, "--resume"] if resume else argv) == 0
        assert "2 records, 3 run(s) across 1 sweep(s) orchestrated on 2 shard worker(s)" in (
            capsys.readouterr().out
        )
        assert main(["sweep", *grid, "--no-characterize", "--store", str(direct)]) == 0
        swept = tmp_path / "swept.json"
        assert main(["history", str(direct), "--export-json", str(swept)]) == 0
        capsys.readouterr()
        assert orchestrated.read_bytes() == swept.read_bytes()
        assert '"characterization": null' in orchestrated.read_text()

    def test_cost_shards_flag_is_gone(self, capsys, tmp_path):
        """Measured costs always size the split; the old opt-in flag is an
        argparse error."""
        argv = ["orchestrate", "d695_leon", "--store", str(tmp_path / "s.db")]
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--cost-shards"])
        assert excinfo.value.code == 2
        assert "--cost-shards" in capsys.readouterr().err


class TestMergeConflictCleanup:
    def test_conflicting_merge_leaves_no_stray_output(self, capsys, tmp_path):
        """A failed merge into a fresh output path must not leave an empty
        store behind, and a valid shard earlier in the argument list must
        not have been committed either."""
        from repro.runner.db import SweepDatabase
        from repro.runner.engine import SweepRunner
        from repro.runner.spec import SweepSpec

        spec = SweepSpec(name="conflict", systems=("d695_leon",), processor_counts=(0,))
        records = [o.record() for o in SweepRunner().run(spec)]
        good, bad = tmp_path / "good.db", tmp_path / "bad.db"
        with SweepDatabase(good) as db:
            db.record_run(db.ensure_sweep(spec), records, executed=1, skipped=0)
        mutated = [dict(records[0])]
        mutated[0]["makespan"] += 1
        with SweepDatabase(bad) as db:
            db.record_run(db.ensure_sweep(spec), mutated, executed=1, skipped=0)

        merged = tmp_path / "merged.db"
        assert main(["merge", str(merged), str(good), str(bad)]) == 1
        assert "conflicts" in capsys.readouterr().err
        assert not merged.exists()

    def test_export_failure_after_commit_keeps_the_merged_store(self, capsys, tmp_path):
        """Once the merge has committed, a later failure (bad --export-json
        path) must NOT delete the freshly merged store — it is user data."""
        from repro.runner.db import SweepDatabase
        from repro.runner.engine import SweepRunner
        from repro.runner.spec import SweepSpec

        spec = SweepSpec(name="keep", systems=("d695_leon",), processor_counts=(0,))
        shard = tmp_path / "shard.db"
        with SweepDatabase(shard) as db:
            SweepRunner().run_stored(spec, db)
        merged = tmp_path / "merged.db"
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory", encoding="utf-8")
        bad_export = blocker / "doc.json"
        with pytest.raises(OSError):
            main(["merge", str(merged), str(shard), "--export-json", str(bad_export)])
        capsys.readouterr()
        assert merged.exists()
        with SweepDatabase(merged) as db:
            assert db.record_count() == 1


class TestPointSelectionFlags:
    def run_args(self, tmp_path, *extra):
        return [
            "sweep",
            "d695_leon",
            "--counts",
            "0,2",
            "--power-limits",
            "none",
            "--no-characterize",
            "--store",
            str(tmp_path / "s.db"),
            *extra,
        ]

    def test_points_runs_the_named_subset(self, capsys, tmp_path):
        assert main(self.run_args(tmp_path, "--points", "1")) == 0
        out = capsys.readouterr().out
        assert "1 executed, 0 skipped" in out
        assert "[points 1]" in out

    def test_points_partition_resumes_to_the_full_grid(self, capsys, tmp_path):
        """Two disjoint --points runs cover the grid; a resumed full run
        then skips everything."""
        assert main(self.run_args(tmp_path, "--points", "1")) == 0
        assert main(self.run_args(tmp_path, "--points", "0", "--resume")) == 0
        assert main(self.run_args(tmp_path, "--resume")) == 0
        assert "0 executed, 2 skipped" in capsys.readouterr().out

    def test_points_requires_store(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "d695_leon",
                    "--no-characterize",
                    "--points",
                    "0",
                ]
            )
            == 1
        )
        assert "--store" in capsys.readouterr().err

    def test_points_rejects_bad_tokens(self, capsys, tmp_path):
        assert main(self.run_args(tmp_path, "--points", "0,x")) == 1
        assert "grid indices" in capsys.readouterr().err

    def test_checkpoint_requires_store(self, capsys):
        assert (
            main(["sweep", "d695_leon", "--no-characterize", "--checkpoint", "2"])
            == 1
        )
        assert "--store" in capsys.readouterr().err

    def test_point_groups_batch_form(self):
        """One comma list per spec, ';'-separated; a list may be empty."""
        from repro.cli import _parse_point_groups

        assert _parse_point_groups("0,2;1", 2) == [(0, 2), (1,)]
        assert _parse_point_groups("2,0;", 2) == [(0, 2), ()]

    def test_point_groups_single_list_keeps_its_meaning(self):
        """Without ';' the list names the same indices of every spec."""
        from repro.cli import _parse_point_groups

        assert _parse_point_groups("2,0,2", 1) == [(0, 2)]
        assert _parse_point_groups("0,2", 3) == [(0, 2)] * 3

    def test_point_groups_count_must_match_the_specs(self):
        from repro.cli import _parse_point_groups
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="one list per spec"):
            _parse_point_groups("0,2;1", 3)
        with pytest.raises(ConfigurationError, match="one list per spec"):
            _parse_point_groups("0;1;2", 2)
        with pytest.raises(ConfigurationError, match="no grid indices"):
            _parse_point_groups(" , ", 2)

    def test_point_groups_drive_a_spec_list(self, capsys, tmp_path):
        """A worker of a batch runs each spec's own slice of its spec file."""
        import json

        from repro.runner.spec import SweepSpec

        specs = [
            SweepSpec(
                name=f"batch-{system}",
                systems=(system,),
                processor_counts=(0, 2),
                power_limits=(("no power limit", None),),
            )
            for system in ("d695_leon", "d695_plasma")
        ]
        spec_file = tmp_path / "specs.json"
        spec_file.write_text(json.dumps([spec.to_dict() for spec in specs]), encoding="utf-8")
        base = [
            "sweep",
            "--spec-json",
            str(spec_file),
            "--no-characterize",
            "--store",
            str(tmp_path / "s.db"),
        ]
        assert main([*base, "--points", "1;"]) == 0
        assert "1 executed, 0 skipped across 2 sweep(s) [points 1]" in capsys.readouterr().out
        assert main([*base, "--points", "0;0,1"]) == 0
        assert "3 executed, 0 skipped" in capsys.readouterr().out
        assert main([*base, "--resume"]) == 0
        assert "0 executed, 4 skipped" in capsys.readouterr().out
        assert main([*base, "--points", "0;1;0"]) == 1
        assert "one list per spec" in capsys.readouterr().err


class TestRemoteDispatchFlags:
    def test_orchestrate_rejects_both_host_sources(self, capsys, tmp_path):
        hosts_file = tmp_path / "hosts.txt"
        hosts_file.write_text("h1\n", encoding="utf-8")
        assert (
            main(
                [
                    "orchestrate",
                    "d695_leon",
                    "--store",
                    str(tmp_path / "s.db"),
                    "--hosts",
                    "h1",
                    "--hosts-file",
                    str(hosts_file),
                ]
            )
            == 1
        )
        assert "--hosts" in capsys.readouterr().err

    def test_orchestrate_rejects_unreadable_hosts_file(self, capsys, tmp_path):
        assert (
            main(
                [
                    "orchestrate",
                    "d695_leon",
                    "--store",
                    str(tmp_path / "s.db"),
                    "--hosts-file",
                    str(tmp_path / "missing.txt"),
                ]
            )
            == 1
        )
        assert "cannot read hosts file" in capsys.readouterr().err

    def test_orchestrate_rejects_empty_hosts_file(self, capsys, tmp_path):
        hosts_file = tmp_path / "hosts.txt"
        hosts_file.write_text("# a comment\n\n", encoding="utf-8")
        assert (
            main(
                [
                    "orchestrate",
                    "d695_leon",
                    "--store",
                    str(tmp_path / "s.db"),
                    "--hosts-file",
                    str(hosts_file),
                ]
            )
            == 1
        )
        assert "names no hosts" in capsys.readouterr().err

    @pytest.mark.parametrize("hosts", ["", " , "], ids=["empty", "blank"])
    def test_orchestrate_rejects_hosts_naming_no_host(self, capsys, tmp_path, hosts):
        """An empty --hosts (say, an unset $HOSTS) is an error, like an empty
        hosts file, instead of a silent run on local workers."""
        store = tmp_path / "s.db"
        grid = ["--counts", "0", "--power-limits", "none", "--no-characterize"]
        assert (
            main(["orchestrate", "d695_leon", *grid, "--hosts", hosts, "--store", str(store)])
            == 1
        )
        assert "--hosts names no hosts" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("hosts", ["", " , "], ids=["empty", "blank"])
    def test_serve_rejects_dispatch_hosts_naming_no_host(
        self, capsys, tmp_path, monkeypatch, hosts
    ):
        """`serve --dispatch-hosts` goes through the same host-list parser."""
        import repro.serve.http

        def refuse(*args, **kwargs):
            raise AssertionError("the daemon must not start")

        monkeypatch.setattr(repro.serve.http, "create_server", refuse)
        store = tmp_path / "s.db"
        assert main(["serve", "--store", str(store), "--dispatch-hosts", hosts]) == 1
        assert "--dispatch-hosts names no hosts" in capsys.readouterr().err

    def test_launcher_requires_hosts(self, capsys, tmp_path):
        assert (
            main(
                [
                    "orchestrate",
                    "d695_leon",
                    "--store",
                    str(tmp_path / "s.db"),
                    "--launcher",
                    "local",
                ]
            )
            == 1
        )
        assert "host" in capsys.readouterr().err

    def test_hosts_file_drives_remote_orchestration(
        self, capsys, tmp_path, monkeypatch
    ):
        """End to end over a host pool (local launcher stand-ins) with an
        injected crash: the orchestration retries, prints the attempt
        history, and the export matches a serial run byte for byte."""
        import json

        serial = tmp_path / "serial.json"
        assert (
            main(
                [
                    "sweep",
                    "d695_leon",
                    "--counts",
                    "0,2",
                    "--power-limits",
                    "none",
                    "--no-characterize",
                    "--out",
                    str(serial),
                ]
            )
            == 0
        )
        capsys.readouterr()
        hosts_file = tmp_path / "hosts.txt"
        hosts_file.write_text("# local stand-ins\nnode-a\nnode-b\n", encoding="utf-8")
        monkeypatch.setenv(
            "REPRO_CHAOS",
            json.dumps([{"kind": "crash", "shard": 0, "attempt": 1}]),
        )
        exported = tmp_path / "merged.json"
        assert (
            main(
                [
                    "orchestrate",
                    "d695_leon",
                    "--counts",
                    "0,2",
                    "--power-limits",
                    "none",
                    "--no-characterize",
                    "--hosts-file",
                    str(hosts_file),
                    "--launcher",
                    "local",
                    "--retry-backoff",
                    "0.05",
                    "--store",
                    str(tmp_path / "merged.db"),
                    "--workdir",
                    str(tmp_path / "work"),
                    "--export-json",
                    str(exported),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "orchestrated on 2 shard worker(s)" in out
        assert "[1 retry]" in out
        assert "attempt 2:" in out
        assert "Finished" in out
        assert exported.read_bytes() == serial.read_bytes()
