"""The repo-specific rules behind ``repro lint``.

Each rule enforces one invariant the reproduction's guarantees rest on (see
``docs/devtools.md`` for the catalogue with examples).  Rules are listed in
:data:`RULES` in id order; the CLI's ``--rule`` flag and the suppression
directive both address them by id.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, Sequence

from repro.errors import ConfigurationError

from .framework import (
    Finding,
    LintRule,
    ModuleSource,
    ProjectLintRule,
    dotted_name,
)

#: ``ApiError`` statuses the serve API is allowed to answer with.  ``500``
#: is reserved for the handler backstop, not for explicit raises, but an
#: explicit raise of it is still a *known* status.
KNOWN_API_STATUSES = frozenset({400, 401, 404, 405, 409, 411, 413, 429, 500, 503})

#: A documented route is a heading like ``### `GET /healthz` `` (the same
#: shape ``docs/api.md`` has used since the serve PR introduced it).
ROUTE_HEADING = re.compile(r"^### `(GET|POST|PUT|PATCH|DELETE) (/[^`]*)`", re.MULTILINE)


def _call_name(node: ast.Call) -> str | None:
    """Dotted name of a call's callee, if it is a plain name chain."""
    return dotted_name(node.func)


class DeterminismRule(LintRule):
    """RL001 — planner paths must be deterministic.

    Sharded and orchestrated sweeps export byte-identical to a serial run;
    that only holds while the planning pipeline is a pure function of the
    spec.  Wall-clock reads, unseeded randomness, and iteration over sets
    (whose order varies across processes via hash randomisation) all break
    the guarantee silently.
    """

    rule_id = "RL001"
    title = "no wall-clock, unseeded randomness, or set iteration in planner paths"
    severity = "error"
    rationale = (
        "shard/merge exports are byte-identical to serial runs only while "
        "planning is a pure function of the spec; clocks, global randomness "
        "and set iteration order all vary across processes"
    )
    fix_hint = (
        "derive values from the spec or a seeded random.Random(seed); iterate "
        "sorted(...) instead of a set"
    )
    scope = ("repro/schedule/", "repro/noc/", "repro/runner/")

    #: Calls that read ambient nondeterminism.
    FORBIDDEN_CALLS = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "os.urandom",
            "uuid.uuid4",
        }
    )

    #: Module-level ``random.*`` functions that use the unseeded global RNG.
    UNSEEDED_RANDOM = frozenset(
        {
            "random.random",
            "random.randint",
            "random.randrange",
            "random.choice",
            "random.choices",
            "random.shuffle",
            "random.sample",
            "random.uniform",
            "random.gauss",
            "random.getrandbits",
        }
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Flag nondeterministic calls and set iteration in ``module``."""
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in self.FORBIDDEN_CALLS:
                    yield self.finding(
                        module, node, f"nondeterministic call {name}() in a planner path"
                    )
                elif name in self.UNSEEDED_RANDOM:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() uses the unseeded global RNG in a planner path",
                    )
                elif name in {"random.Random", "Random"} and not (
                    node.args or node.keywords
                ):
                    yield self.finding(
                        module,
                        node,
                        "random.Random() without a seed in a planner path",
                    )
            elif isinstance(node, ast.For):
                if self._is_set_expression(node.iter):
                    yield self.finding(
                        module,
                        node.iter,
                        "iterating a set in a planner path (order is unstable)",
                    )
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                for generator in node.generators:
                    if self._is_set_expression(generator.iter):
                        yield self.finding(
                            module,
                            generator.iter,
                            "comprehension over a set in a planner path (order is unstable)",
                        )

    @staticmethod
    def _is_set_expression(node: ast.expr) -> bool:
        """Whether ``node`` is syntactically a set (literal, comp, or call)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            return dotted_name(node.func) in {"set", "frozenset"}
        return False


class WriterDisciplineRule(LintRule):
    """RL002 — one writer, many readers.

    The sqlite store runs WAL with exactly one writing connection;
    constructing a writable :class:`~repro.runner.db.SweepDatabase` (or a
    raw ``sqlite3.connect``) anywhere else can deadlock the serve job queue
    or corrupt the single-writer assumption the merge pipeline relies on.
    """

    rule_id = "RL002"
    title = "sqlite writers only in runner/db.py and serve/jobs.py"
    severity = "error"
    rationale = (
        "the store is WAL with a single writing connection; ad-hoc writers "
        "race the serve job queue and the shard merge"
    )
    fix_hint = (
        "read with SweepDatabase.open_reader(path); writes belong to "
        "runner/db.py internals or the serve job queue"
    )

    #: Where raw sqlite connections may be made.
    CONNECT_ALLOWED = ("repro/runner/db.py",)
    #: Where writable ``SweepDatabase(...)`` construction is allowed.
    WRITER_ALLOWED = ("repro/runner/db.py", "repro/serve/jobs.py")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Flag raw connections and writable store construction in ``module``."""
        posix = module.path.as_posix()
        connect_ok = any(fragment in posix for fragment in self.CONNECT_ALLOWED)
        writer_ok = any(fragment in posix for fragment in self.WRITER_ALLOWED)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name is None:
                continue
            if not connect_ok and (name == "sqlite3.connect" or name.endswith(".sqlite3.connect")):
                yield self.finding(
                    module,
                    node,
                    "raw sqlite3.connect() outside runner/db.py",
                )
            elif not writer_ok and (
                name == "SweepDatabase" or name.endswith(".SweepDatabase")
            ):
                yield self.finding(
                    module,
                    node,
                    "writable SweepDatabase(...) constructed outside "
                    "runner/db.py / serve/jobs.py",
                )

    def applies_to(self, path: Path) -> bool:
        """Every file is in scope; the allowlists act per finding kind."""
        return True


class AtomicWriteRule(LintRule):
    """RL003 — artifact persistence goes through ``runner/atomic.py``.

    A half-written store/cache artifact (killed process, full disk) must
    never be observable; ``atomic_write_text`` stages to a temp file and
    ``os.replace``s it into place.  Raw write-mode ``open`` and
    ``Path.write_text`` bypass that.
    """

    rule_id = "RL003"
    title = "no raw write-mode open()/write_text outside runner/atomic.py"
    severity = "error"
    rationale = (
        "artifacts must appear atomically (temp file + os.replace) so a "
        "killed process never leaves a torn file for readers or resume logic"
    )
    fix_hint = (
        "use repro.runner.atomic.atomic_write_text, or suppress on the line "
        "with a justification if the target is not a store/cache artifact"
    )

    #: The one module allowed to open files for writing.
    ALLOWED = ("repro/runner/atomic.py",)

    _WRITE_MODE = re.compile(r"[wax]")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Flag write-mode ``open`` and ``write_text``/``write_bytes`` calls."""
        if any(fragment in module.path.as_posix() for fragment in self.ALLOWED):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Attribute) and node.func.attr in {
                "write_text",
                "write_bytes",
            }:
                yield self.finding(
                    module,
                    node,
                    f".{node.func.attr}(...) bypasses atomic persistence",
                )
                continue
            callee = _call_name(node)
            is_open = callee == "open" or (
                isinstance(node.func, ast.Attribute) and node.func.attr == "open"
            )
            if is_open and self._write_mode(node):
                yield self.finding(
                    module,
                    node,
                    "write-mode open(...) bypasses atomic persistence",
                )

    def applies_to(self, path: Path) -> bool:
        """Every file is in scope; ``ALLOWED`` is handled inside check."""
        return True

    def _write_mode(self, node: ast.Call) -> bool:
        """Whether the ``open`` call's mode literal requests writing."""
        mode: ast.expr | None = None
        if len(node.args) >= 2:
            mode = node.args[1]
        elif isinstance(node.func, ast.Attribute) and node.args:
            # Path.open(mode) — mode is the first positional argument.
            mode = node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "mode":
                mode = keyword.value
        if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
            return bool(self._WRITE_MODE.search(mode.value))
        return False


class ErrorModelRule(LintRule):
    """RL004 — errors are surfaced, never swallowed; the API speaks ApiError.

    Silent ``except Exception: pass`` blocks hide exactly the failures the
    error model exists to report; serve handlers must raise ``ApiError``
    with a documented status so clients see a stable JSON error shape.
    """

    rule_id = "RL004"
    title = "no swallowed exceptions; serve handlers raise ApiError with known statuses"
    severity = "error"
    rationale = (
        "silent handlers hide store corruption and planner bugs; the HTTP "
        "layer maps only ApiError to JSON errors, anything else becomes an "
        "opaque 500"
    )
    fix_hint = (
        "narrow the exception type or log-and-reraise; in serve handlers "
        "raise ApiError(..., status=<documented status>)"
    )

    #: Path fragments that mark serve-handler modules.
    SERVE_SCOPE = ("repro/serve/",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Flag swallowed exceptions and error-model breaches in ``module``."""
        yield from self._check_excepts(module)
        if any(fragment in module.path.as_posix() for fragment in self.SERVE_SCOPE):
            yield from self._check_handlers(module)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _call_name(node) == "ApiError":
                yield from self._check_api_error(module, node)

    def _check_excepts(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in {"contextlib.suppress", "suppress"} and any(
                    dotted_name(arg) in {"Exception", "BaseException"}
                    for arg in node.args
                ):
                    yield self.finding(
                        module,
                        node,
                        "contextlib.suppress(Exception) swallows every failure",
                    )
                continue
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(module, node, "bare except: swallows every failure")
                continue
            if self._catches_everything(node.type) and self._is_silent(node.body):
                yield self.finding(
                    module,
                    node,
                    "silent except Exception: block swallows every failure",
                )

    @staticmethod
    def _catches_everything(node: ast.expr) -> bool:
        names = {dotted_name(node)}
        if isinstance(node, ast.Tuple):
            names = {dotted_name(element) for element in node.elts}
        return bool(names & {"Exception", "BaseException"})

    @staticmethod
    def _is_silent(body: Sequence[ast.stmt]) -> bool:
        """A handler body that neither re-raises, returns, logs nor assigns."""
        for statement in body:
            if isinstance(statement, ast.Pass):
                continue
            if isinstance(statement, ast.Expr) and isinstance(
                statement.value, ast.Constant
            ):
                continue  # docstring or bare ``...``
            return False
        return True

    def _check_handlers(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not node.name.startswith("_handle"):
                continue
            for inner in ast.walk(node):
                if not isinstance(inner, ast.Raise) or inner.exc is None:
                    continue
                exc = inner.exc
                raised = _call_name(exc) if isinstance(exc, ast.Call) else dotted_name(exc)
                if raised is None:
                    continue
                tail = raised.rsplit(".", 1)[-1]
                if tail == "ApiError":
                    continue
                if tail.endswith("Error") or tail.endswith("Exception"):
                    yield self.finding(
                        module,
                        inner,
                        f"serve handler raises {tail}; only ApiError maps to a "
                        "JSON error response",
                    )

    def _check_api_error(self, module: ModuleSource, node: ast.Call) -> Iterator[Finding]:
        for keyword in node.keywords:
            if keyword.arg != "status":
                continue
            value = keyword.value
            if isinstance(value, ast.Constant) and isinstance(value.value, int):
                if value.value not in KNOWN_API_STATUSES:
                    yield self.finding(
                        module,
                        node,
                        f"ApiError status {value.value} is not in the documented "
                        f"set {sorted(KNOWN_API_STATUSES)}",
                    )


class RegistryCompletenessRule(ProjectLintRule):
    """RL005 — registries are complete and pinned to their docs.

    Every concrete :class:`ExecutionBackend` must be reachable through
    ``BACKEND_FACTORIES`` (otherwise ``--backend <name>`` silently cannot
    find it), and every ``ROUTES`` entry must resolve to a handler and carry
    a ``docs/api.md`` heading, in table order — the contract the serve
    doc-pinning test established, now enforced statically.
    """

    rule_id = "RL005"
    title = "backend registry complete; route table resolved and documented"
    severity = "error"
    rationale = (
        "an unregistered backend is unreachable from the CLI; an undocumented "
        "route (or a stale doc heading) breaks the published API contract"
    )
    fix_hint = (
        "register the backend in BACKEND_FACTORIES; document every route as a "
        "'### `METHOD /path`' heading in docs/api.md, in route-table order"
    )

    def check_project(self, modules: Sequence[ModuleSource]) -> Iterator[Finding]:
        """Check every registry-defining module of the linted file set."""
        for module in modules:
            yield from self._check_backends(module)
            yield from self._check_routes(module)

    # -- backend registry ---------------------------------------------------

    def _check_backends(self, module: ModuleSource) -> Iterator[Finding]:
        factories = self._assigned(module, "BACKEND_FACTORIES")
        if not isinstance(factories, ast.Dict):
            return
        registered = {
            dotted_name(value).rsplit(".", 1)[-1]
            for value in factories.values
            if dotted_name(value) is not None
        }
        for class_node in self._concrete_backends(module):
            if class_node.name not in registered:
                yield self.finding(
                    module,
                    class_node,
                    f"concrete backend {class_node.name} is missing from "
                    "BACKEND_FACTORIES",
                )

    def _concrete_backends(self, module: ModuleSource) -> Iterator[ast.ClassDef]:
        """Classes transitively subclassing ``ExecutionBackend`` with a
        concrete ``name`` class attribute."""
        classes: dict[str, ast.ClassDef] = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }
        bases = {
            name: {
                dotted_name(base).rsplit(".", 1)[-1]
                for base in node.bases
                if dotted_name(base) is not None
            }
            for name, node in classes.items()
        }

        def descends(name: str, seen: frozenset[str] = frozenset()) -> bool:
            if name in seen:
                return False
            for base in bases.get(name, set()):
                if base == "ExecutionBackend" or descends(base, seen | {name}):
                    return True
            return False

        for name, node in classes.items():
            if not descends(name):
                continue
            backend_name = self._class_attr(node, "name")
            if isinstance(backend_name, str) and backend_name != "abstract":
                yield node

    @staticmethod
    def _class_attr(node: ast.ClassDef, attr: str) -> object | None:
        for statement in node.body:
            if (
                isinstance(statement, ast.Assign)
                and any(
                    isinstance(target, ast.Name) and target.id == attr
                    for target in statement.targets
                )
                and isinstance(statement.value, ast.Constant)
            ):
                return statement.value.value
        return None

    # -- route table --------------------------------------------------------

    def _check_routes(self, module: ModuleSource) -> Iterator[Finding]:
        routes_node = self._assigned(module, "ROUTES")
        if not isinstance(routes_node, ast.Tuple):
            return
        functions = {
            node.name
            for node in module.tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        routes: list[tuple[str, str]] = []
        seen: set[tuple[str, str]] = set()
        for element in routes_node.elts:
            parsed = self._route_literal(element)
            if parsed is None:
                continue
            method, pattern, handler = parsed
            if handler not in functions:
                yield self.finding(
                    module,
                    element,
                    f"route {method} {pattern} names missing handler {handler}",
                )
            if (method, pattern) in seen:
                yield self.finding(
                    module, element, f"duplicate route {method} {pattern}"
                )
            seen.add((method, pattern))
            routes.append((method, pattern))
        if routes:
            yield from self._check_docs(module, routes_node, routes)

    @staticmethod
    def _route_literal(node: ast.expr) -> tuple[str, str, str] | None:
        if not (isinstance(node, ast.Call) and len(node.args) >= 3):
            return None
        values = []
        for arg in node.args[:3]:
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                return None
            values.append(arg.value)
        return values[0], values[1], values[2]

    def _check_docs(
        self,
        module: ModuleSource,
        routes_node: ast.AST,
        routes: list[tuple[str, str]],
    ) -> Iterator[Finding]:
        api_doc = self._locate_api_doc(module.path)
        if api_doc is None:
            yield self.finding(
                module,
                routes_node,
                "ROUTES is defined but no docs/api.md was found in any parent "
                "directory",
            )
            return
        documented = ROUTE_HEADING.findall(api_doc.read_text(encoding="utf-8"))
        if [tuple(pair) for pair in documented] != routes:
            yield self.finding(
                module,
                routes_node,
                f"docs/api.md route headings {documented} diverge from ROUTES "
                f"{routes} (order matters)",
            )

    @staticmethod
    def _locate_api_doc(path: Path) -> Path | None:
        for parent in path.resolve().parents:
            candidate = parent / "docs" / "api.md"
            if candidate.is_file():
                return candidate
        return None

    @staticmethod
    def _assigned(module: ModuleSource, name: str) -> ast.expr | None:
        for node in module.tree.body:
            if isinstance(node, ast.Assign):
                if any(
                    isinstance(target, ast.Name) and target.id == name
                    for target in node.targets
                ):
                    return node.value
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name) and node.target.id == name:
                    return node.value
        return None


class CliHygieneRule(LintRule):
    """RL006 — library and CLI code raise ``repro.errors``, not SystemExit.

    ``main()`` returns an exit code and the ``__main__`` guard is the only
    place that calls ``sys.exit``; a stray ``sys.exit`` deep in a handler
    kills embedding processes (the serve daemon, tests) instead of
    surfacing a typed, testable error.
    """

    rule_id = "RL006"
    title = "no sys.exit/SystemExit outside the __main__ entry point"
    severity = "error"
    rationale = (
        "handlers return exit codes and raise repro.errors types; SystemExit "
        "from library code kills the serve daemon and makes errors untestable"
    )
    fix_hint = (
        "raise a repro.errors type (e.g. ConfigurationError) and let main() "
        "map it to an exit code"
    )

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Flag interpreter-exit calls and raises outside the entry point."""
        allowed = self._entry_point_lines(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in {"sys.exit", "exit", "quit"} and node.lineno not in allowed:
                    yield self.finding(
                        module,
                        node,
                        f"{name}() outside the __main__ entry point",
                    )
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc
                raised = (
                    _call_name(exc) if isinstance(exc, ast.Call) else dotted_name(exc)
                )
                if raised == "SystemExit" and node.lineno not in allowed:
                    yield self.finding(
                        module,
                        node,
                        "raise SystemExit outside the __main__ entry point",
                    )

    @staticmethod
    def _entry_point_lines(tree: ast.Module) -> frozenset[int]:
        """Line numbers inside ``if __name__ == "__main__":`` blocks."""
        lines: set[int] = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.If):
                continue
            if any(
                isinstance(name, ast.Name) and name.id == "__name__"
                for name in ast.walk(node.test)
            ):
                end = node.end_lineno or node.lineno
                lines.update(range(node.lineno, end + 1))
        return frozenset(lines)


#: Every shipped rule, in id order.  ``docs/devtools.md`` headings are pinned
#: to this registry by ``tests/devtools/test_devtools_docs.py``.
RULES: tuple[LintRule, ...] = (
    DeterminismRule(),
    WriterDisciplineRule(),
    AtomicWriteRule(),
    ErrorModelRule(),
    RegistryCompletenessRule(),
    CliHygieneRule(),
)


def get_rules(rule_ids: Sequence[str] | None = None) -> tuple[LintRule, ...]:
    """The active rule set, optionally restricted to ``rule_ids``.

    Raises:
        ConfigurationError: for an unknown rule id.
    """
    if not rule_ids:
        return RULES
    by_id = {rule.rule_id: rule for rule in RULES}
    unknown = [rule_id for rule_id in rule_ids if rule_id not in by_id]
    if unknown:
        raise ConfigurationError(
            f"unknown lint rule(s) {', '.join(unknown)}; "
            f"known: {', '.join(sorted(by_id))}"
        )
    return tuple(by_id[rule_id] for rule_id in rule_ids)
