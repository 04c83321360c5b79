"""Import hygiene: what a cold ``repro`` process loads, and the lazy public API.

Package ``__init__`` modules re-export their names lazily (PEP 562) and the
CLI imports what a single subcommand needs inside that subcommand's
handler, so a plain sweep never loads the HTTP daemon, the lint analyzer,
the profiler, the process pool or the dispatch supervisor.  The serve,
lint, profile, pool and orchestrate tests prove those paths still import
what they need.

The data side (specs, paper names, the JSON and sqlite stores, the CLI and
its parser) never loads the planning core at module level either: a
command that plans nothing (``--help``, a no-op ``--resume``, ``history``,
``merge``, the orchestrating parent) imports none of :data:`PLANNING_CORE`.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: Modules no parser build, sweep or no-op resume may load.  ``ast`` and
#: ``tokenize`` are not listed: ``dataclasses`` imports them (via
#: ``inspect``), and every repro module uses dataclasses.
HEAVY_MODULES = (
    "http.server",
    "multiprocessing",
    "cProfile",
    "pstats",
    "logging",
    "subprocess",
    "repro.serve",
    "repro.devtools",
    "repro.runner.dispatch",
)

def _planning_core() -> tuple[str, ...]:
    """Every module that schedules, models the NoC or builds a system.

    Read off the source tree, so a module added to one of these packages is
    covered without editing this list.  ``repro.schedule.power`` is the
    dependency-free power-fraction validator specs use; package
    ``__init__`` modules are lazy and load nothing.
    """
    modules = [
        "repro.analysis.metrics",
        "repro.analysis.report",
        "repro.runner.cache",
        "repro.runner.schedulers",
        "repro.system.builder",
        "repro.system.presets",
    ]
    for package in ("cores", "itc02", "noc", "processors", "schedule", "tam"):
        for path in sorted((SRC / "repro" / package).glob("*.py")):
            name = f"repro.{package}.{path.stem}"
            if path.stem != "__init__" and name != "repro.schedule.power":
                modules.append(name)
    return tuple(modules)


#: Modules no command that plans nothing may load.
PLANNING_CORE = _planning_core()

#: Packages whose ``__init__`` re-exports lazily.
LAZY_PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.cores",
    "repro.devtools",
    "repro.experiments",
    "repro.itc02",
    "repro.noc",
    "repro.processors",
    "repro.runner",
    "repro.schedule",
    "repro.serve",
    "repro.system",
    "repro.tam",
)


def run_python(script: str, cwd: Path) -> subprocess.CompletedProcess:
    """Run ``script`` in a fresh interpreter that imports this ``repro``."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )


def loaded_modules(body: str, cwd: Path) -> set[str]:
    """Modules a fresh interpreter loads while running ``body``.

    Whatever the bare interpreter already holds before ``body`` starts
    (``site`` and its ``.pth`` hooks) is subtracted.
    """
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        + textwrap.dedent(body)
        + "\nprint(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    completed = run_python(script, cwd)
    return set(json.loads(completed.stdout.splitlines()[-1]))


def assert_none_loaded(loaded: set[str], modules: tuple[str, ...]) -> None:
    assert loaded.isdisjoint(modules), sorted(loaded.intersection(modules))


@pytest.fixture(scope="module")
def stored_sweep(tmp_path_factory) -> Path:
    """A directory holding ``s.db``: one characterised d695_leon sweep."""
    directory = tmp_path_factory.mktemp("stored-sweep")
    run_python(
        "from repro.cli import main\n"
        "assert main(['sweep', 'd695_leon', '--packets', '40', '--store', 's.db']) == 0\n",
        directory,
    )
    return directory


class TestColdImportSet:
    def test_parser_build_loads_no_heavy_module(self, tmp_path):
        loaded = loaded_modules(
            """
            import repro.cli
            repro.cli.build_parser()
            """,
            tmp_path,
        )
        assert "repro.cli" in loaded
        assert loaded.isdisjoint(HEAVY_MODULES), sorted(loaded.intersection(HEAVY_MODULES))
        assert_none_loaded(loaded, PLANNING_CORE)

    def test_stored_sweep_and_resume_load_no_heavy_module(self, tmp_path):
        loaded = loaded_modules(
            """
            from repro.cli import main
            argv = ["sweep", "d695_leon", "--no-characterize", "--store", "s.db"]
            assert main(argv) == 0
            assert main([*argv, "--resume"]) == 0
            """,
            tmp_path,
        )
        assert "repro.runner.db" in loaded
        assert loaded.isdisjoint(HEAVY_MODULES), sorted(loaded.intersection(HEAVY_MODULES))

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_loads_no_planning_core(self, tmp_path, argv):
        loaded = loaded_modules(
            f"""
            import contextlib, io
            from repro.cli import main
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    main({argv!r})
            except SystemExit as exit:
                assert exit.code == 0, exit.code
            """,
            tmp_path,
        )
        assert "repro.cli" in loaded
        assert_none_loaded(loaded, PLANNING_CORE)

    def test_noop_resume_in_a_fresh_process_loads_no_planning_core(self, stored_sweep):
        """The resume runs in its own interpreter, after the sweep's: a
        process that planned earlier cannot hide what the resume imports."""
        loaded = loaded_modules(
            """
            import contextlib, io
            from repro.cli import main
            out = io.StringIO()
            argv = ["sweep", "d695_leon", "--packets", "40", "--store", "s.db", "--resume"]
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            text = out.getvalue()
            assert "store s.db: 0 executed, 8 skipped across 1 sweep(s) [resume]" in text, text
            assert (
                "cache: 0 system builds (0 hits, 0 from disk), 0 NoC characterisations "
                "(0 hits, 0 from disk) for 8 grid points on 1 worker(s)"
            ) in text, text
            """,
            stored_sweep,
        )
        assert {"repro.runner.db", "repro.runner.engine"} <= loaded
        assert_none_loaded(loaded, HEAVY_MODULES)
        assert_none_loaded(loaded, PLANNING_CORE)

    @pytest.mark.parametrize(
        "argv",
        [["history", "s.db"], ["merge", "merged.db", "s.db"]],
        ids=["history", "merge"],
    )
    def test_store_commands_load_no_planning_core(self, stored_sweep, argv):
        loaded = loaded_modules(
            f"""
            import contextlib, io
            from repro.cli import main
            with contextlib.redirect_stdout(io.StringIO()):
                assert main({argv!r}) == 0
            """,
            stored_sweep,
        )
        assert "repro.runner.db" in loaded
        assert_none_loaded(loaded, HEAVY_MODULES)
        assert_none_loaded(loaded, PLANNING_CORE)

    def test_orchestrating_parent_loads_no_planning_core(self, tmp_path):
        """The parent only splits, dispatches and merges; its shard workers
        are separate processes that plan."""
        loaded = loaded_modules(
            """
            import contextlib, io
            from repro.cli import main
            argv = ["orchestrate", "d695_leon", "--no-characterize", "--workers", "2",
                    "--store", "o.db"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            """,
            tmp_path,
        )
        assert "repro.runner.dispatch" in loaded
        assert_none_loaded(loaded, PLANNING_CORE)


@pytest.mark.parametrize("package", LAZY_PACKAGES)
class TestLazyPublicApi:
    def test_every_exported_name_resolves(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.{name}"

    def test_star_import_binds_every_exported_name(self, package):
        module = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        assert set(module.__all__) <= set(namespace)

    def test_dir_lists_every_exported_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_attribute_raises(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name


def test_quickstart_names_resolve_to_their_definitions():
    from repro import TestPlanner, build_paper_system
    from repro.schedule.planner import TestPlanner as defined_planner
    from repro.system.presets import build_paper_system as defined_builder

    assert TestPlanner is defined_planner
    assert build_paper_system is defined_builder



class TestDataSideTablesMatchTheCore:
    """The data side spells out names the planning core defines, so naming a
    system or a scheduler imports neither; these pins keep the copies equal."""

    def test_scheduler_names_are_the_registry_keys(self):
        from repro.runner.schedulers import SCHEDULER_FACTORIES
        from repro.runner.spec import SCHEDULER_NAMES

        assert SCHEDULER_NAMES == tuple(sorted(SCHEDULER_FACTORIES))

    def test_scheduler_aliases_cover_each_policy_name(self):
        from repro.runner.schedulers import SCHEDULER_FACTORIES
        from repro.runner.spec import canonical_scheduler_name

        for canonical, policy in SCHEDULER_FACTORIES.items():
            assert canonical_scheduler_name(canonical) == canonical
            assert canonical_scheduler_name(policy.name) == canonical

    def test_paper_tables_are_the_builder_and_figure_tables(self):
        from repro.experiments import figure1
        from repro.system import paper, presets

        assert paper.PAPER_SYSTEMS is presets.PAPER_SYSTEMS
        assert paper.PAPER_PROCESSOR_COUNTS is figure1.PAPER_PROCESSOR_COUNTS
        assert paper.PAPER_POWER_SERIES is figure1.PAPER_POWER_SERIES
        assert set(paper.PAPER_PROCESSOR_COUNTS) == {
            spec.benchmark for spec in presets.PAPER_SYSTEMS.values()
        }

    def test_parser_choices_and_help_name_the_core_registries(self):
        from repro.cli import build_parser
        from repro.runner.schedulers import SCHEDULER_FACTORIES
        from repro.system.presets import PAPER_SYSTEMS

        systems = sorted(PAPER_SYSTEMS)
        checked: dict[str, list[str]] = {"system": [], "systems": [], "schedulers": []}
        commands = next(a for a in build_parser()._actions if a.dest == "command")
        for command, subparser in commands.choices.items():
            for action in subparser._actions:
                if action.dest == "system":
                    assert list(action.choices) == systems, command
                elif action.dest == "systems":
                    assert action.help.endswith(f"all of {', '.join(systems)})"), command
                elif action.dest == "schedulers":
                    assert action.help.endswith(", ".join(sorted(SCHEDULER_FACTORIES))), command
                else:
                    continue
                checked[action.dest].append(command)
        assert checked == {
            "system": ["describe", "plan", "history", "characterize"],
            "systems": ["figure1", "sweep", "orchestrate", "profile"],
            "schedulers": ["sweep", "orchestrate", "profile"],
        }


class TestSchedulerRegistryPublicPaths:
    def test_every_import_path_is_the_one_registry(self):
        import repro.runner
        from repro.runner import schedulers, spec

        for name in ("SCHEDULER_FACTORIES", "make_scheduler", "scheduler_spec_name"):
            assert getattr(spec, name) is getattr(schedulers, name)
            assert getattr(repro.runner, name) is getattr(schedulers, name)

    def test_make_scheduler_resolves_aliases(self):
        from repro.runner import make_scheduler
        from repro.schedule.variants import FastestCompletionScheduler

        assert isinstance(make_scheduler("lookahead"), FastestCompletionScheduler)

    def test_make_scheduler_rejects_an_unknown_name(self):
        from repro.errors import ConfigurationError
        from repro.runner import make_scheduler

        with pytest.raises(
            ConfigurationError,
            match="unknown scheduler 'annealing'; known schedulers: fastest-completion, greedy",
        ):
            make_scheduler("annealing")
