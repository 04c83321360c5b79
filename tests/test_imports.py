"""Import hygiene: what a cold ``repro`` process loads, and the lazy public API.

Package ``__init__`` modules re-export their names lazily (PEP 562) and the
CLI imports what a single subcommand needs inside that subcommand's
handler, so a plain sweep never loads the HTTP daemon, the lint analyzer,
the profiler, the process pool or the dispatch supervisor.  The serve,
lint, profile, pool and orchestrate tests prove those paths still import
what they need.
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
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(json.loads(completed.stdout.splitlines()[-1]))


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

