"""Per-rule tests: a violating snippet, a clean snippet, and a honoured
suppression for each shipped ``repro lint`` rule."""

import textwrap

from repro.devtools import Linter, get_rules


def lint(tmp_path, files, rules=None):
    """Lint ``{relative path: source}`` under ``tmp_path``; returns findings."""
    for relative, source in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return Linter(get_rules(rules)).lint_paths([tmp_path]).findings


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


class TestRL001Determinism:
    def test_flags_wall_clock_randomness_and_set_iteration(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/schedule/planner.py": """\
                import random
                import time

                def plan(cores):
                    t = time.time()
                    random.shuffle(cores)
                    rng = random.Random()
                    return [t for core in {1, 2}], rng
                """
            },
            rules=["RL001"],
        )
        messages = " ".join(f.message for f in findings)
        assert rule_ids(findings) == ["RL001"] * 4
        assert "time.time" in messages
        assert "unseeded" in messages
        assert "set" in messages

    def test_clean_outside_scope_and_with_seeded_rng(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                # Same calls outside the planner paths: not RL001's business.
                "repro/analysis/report.py": "import time\nx = time.time()\n",
                # In scope, but deterministic idioms only.
                "repro/schedule/clean.py": """\
                import random

                def plan(cores, seed):
                    rng = random.Random(seed)
                    return sorted(cores), rng.random()
                """,
            },
            rules=["RL001"],
        )
        assert findings == ()

    def test_suppression_is_honoured(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/schedule/mod.py": (
                    "import time\n"
                    "x = time.time()  # repro-lint: disable=RL001\n"
                )
            },
            rules=["RL001"],
        )
        assert findings == ()


class TestRL002WriterDiscipline:
    def test_flags_raw_connect_and_writable_store_construction(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/serve/service.py": """\
                import sqlite3
                from repro.runner.db import SweepDatabase

                def bad(path):
                    sqlite3.connect(path)
                    return SweepDatabase(path)
                """
            },
            rules=["RL002"],
        )
        assert rule_ids(findings) == ["RL002", "RL002"]

    def test_clean_in_blessed_modules_and_via_read_path(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/runner/db.py": "import sqlite3\nc = sqlite3.connect(':memory:')\n",
                "repro/serve/jobs.py": (
                    "from repro.runner.db import SweepDatabase\n"
                    "def writer(path):\n"
                    "    return SweepDatabase(path)\n"
                ),
                "repro/serve/service.py": (
                    "from repro.runner.db import SweepDatabase\n"
                    "def reader(path):\n"
                    "    return SweepDatabase.open_reader(path)\n"
                ),
            },
            rules=["RL002"],
        )
        assert findings == ()

    def test_suppression_is_honoured(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/cli.py": (
                    "from repro.runner.db import SweepDatabase\n"
                    "db = SweepDatabase('x.db')  # repro-lint: disable=RL002\n"
                )
            },
            rules=["RL002"],
        )
        assert findings == ()


class TestRL003AtomicWrites:
    def test_flags_write_mode_open_and_write_text(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/runner/store.py": """\
                from pathlib import Path

                def persist(path, text):
                    Path(path).write_text(text)
                    with open(path, mode="a") as handle:
                        handle.write(text)
                """
            },
            rules=["RL003"],
        )
        assert rule_ids(findings) == ["RL003", "RL003"]

    def test_clean_for_reads_and_inside_atomic_module(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/runner/atomic.py": (
                    "def atomic_write_text(path, text):\n"
                    "    with open(path, 'w') as handle:\n"
                    "        handle.write(text)\n"
                ),
                "repro/runner/loader.py": (
                    "def load(path):\n"
                    "    with open(path) as handle:\n"
                    "        return handle.read()\n"
                ),
            },
            rules=["RL003"],
        )
        assert findings == ()

    def test_suppression_is_honoured(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/itc02/writer.py": (
                    "def dump(path, text):\n"
                    "    with open(path, 'w') as h:  # repro-lint: disable=RL003\n"
                    "        h.write(text)\n"
                )
            },
            rules=["RL003"],
        )
        assert findings == ()


class TestRL004ErrorModel:
    def test_flags_swallowed_exceptions_everywhere(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/analysis/report.py": """\
                import contextlib

                def swallow(job):
                    try:
                        job()
                    except Exception:
                        pass
                    with contextlib.suppress(Exception):
                        job()
                """
            },
            rules=["RL004"],
        )
        assert rule_ids(findings) == ["RL004", "RL004"]

    def test_flags_bad_handler_raises_and_unknown_status(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/serve/handlers.py": """\
                from repro.errors import ApiError

                def _handle_teapot(service, request):
                    raise ApiError("nope", status=418)

                def _handle_crash(service, request):
                    raise ValueError("boom")
                """
            },
            rules=["RL004"],
        )
        messages = " ".join(f.message for f in findings)
        assert rule_ids(findings) == ["RL004", "RL004"]
        assert "418" in messages
        assert "ValueError" in messages

    def test_clean_narrow_handlers_and_known_statuses(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/serve/handlers.py": """\
                import logging

                from repro.errors import ApiError

                logger = logging.getLogger(__name__)

                def _handle_thing(service, request):
                    raise ApiError("missing", status=404)

                def tolerate(job):
                    try:
                        job()
                    except ValueError:
                        pass
                    except Exception:
                        logger.exception("job failed")
                        raise
                """
            },
            rules=["RL004"],
        )
        assert findings == ()

    def test_suppression_is_honoured(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/util.py": (
                    "def swallow(job):\n"
                    "    try:\n"
                    "        job()\n"
                    "    except Exception:  # repro-lint: disable=RL004\n"
                    "        pass\n"
                )
            },
            rules=["RL004"],
        )
        assert findings == ()


class TestRL005RegistryCompleteness:
    BACKENDS_OK = """\
    class ExecutionBackend:
        name = "abstract"

    class SerialBackend(ExecutionBackend):
        name = "serial"

    BACKEND_FACTORIES = {SerialBackend.name: SerialBackend}
    """

    def test_flags_unregistered_concrete_backend(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/runner/backends.py": """\
                class ExecutionBackend:
                    name = "abstract"

                class SerialBackend(ExecutionBackend):
                    name = "serial"

                class ForgottenBackend(SerialBackend):
                    name = "forgotten"

                BACKEND_FACTORIES = {SerialBackend.name: SerialBackend}
                """
            },
            rules=["RL005"],
        )
        assert rule_ids(findings) == ["RL005"]
        assert "ForgottenBackend" in findings[0].message

    def test_flags_missing_handler_and_missing_docs(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/serve/http.py": """\
                ROUTES = (
                    Route("GET", "/healthz", "_handle_missing"),
                )
                """
            },
            rules=["RL005"],
        )
        messages = " ".join(f.message for f in findings)
        assert rule_ids(findings) == ["RL005", "RL005"]
        assert "_handle_missing" in messages
        assert "docs/api.md" in messages

    def test_clean_when_registry_and_docs_agree(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "api.md").write_text(
            "### `GET /healthz`\n", encoding="utf-8"
        )
        findings = lint(
            tmp_path,
            {
                "repro/runner/backends.py": self.BACKENDS_OK,
                "repro/serve/http.py": """\
                ROUTES = (
                    Route("GET", "/healthz", "_handle_healthz"),
                )

                def _handle_healthz(service, request):
                    return 200, {}
                """,
            },
            rules=["RL005"],
        )
        assert findings == ()

    def test_flags_doc_heading_divergence(self, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "api.md").write_text(
            "### `GET /stale`\n", encoding="utf-8"
        )
        findings = lint(
            tmp_path,
            {
                "repro/serve/http.py": """\
                ROUTES = (
                    Route("GET", "/healthz", "_handle_healthz"),
                )

                def _handle_healthz(service, request):
                    return 200, {}
                """
            },
            rules=["RL005"],
        )
        assert rule_ids(findings) == ["RL005"]
        assert "diverge" in findings[0].message

    def test_suppression_is_honoured(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/runner/backends.py": """\
                class ExecutionBackend:
                    name = "abstract"

                class ForgottenBackend(ExecutionBackend):  # repro-lint: disable=RL005
                    name = "forgotten"

                BACKEND_FACTORIES = {}
                """
            },
            rules=["RL005"],
        )
        assert findings == ()


class TestRL006CliHygiene:
    def test_flags_sys_exit_and_system_exit_in_library_code(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/cli.py": """\
                import sys

                def run():
                    sys.exit(2)

                def bail():
                    raise SystemExit(1)
                """
            },
            rules=["RL006"],
        )
        assert rule_ids(findings) == ["RL006", "RL006"]

    def test_clean_inside_the_main_guard(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/cli.py": """\
                import sys

                def main():
                    return 0

                if __name__ == "__main__":
                    sys.exit(main())
                """
            },
            rules=["RL006"],
        )
        assert findings == ()

    def test_suppression_is_honoured(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/tooling.py": (
                    "import sys\n"
                    "def bail():\n"
                    "    sys.exit(3)  # repro-lint: disable=RL006\n"
                )
            },
            rules=["RL006"],
        )
        assert findings == ()
