"""Command-line interface.

Installed as ``repro-noctest`` (see ``pyproject.toml``) and runnable as
``python -m repro.cli``.  Sub-commands:

* ``benchmarks`` — list the embedded ITC'02 benchmarks and their summaries.
* ``describe SYSTEM`` — show one of the paper's systems (cores, placement,
  NoC, ports).
* ``plan SYSTEM`` — plan the test of a paper system for a given number of
  reused processors and optional power limit; prints the schedule report and,
  with ``--gantt``/``--bounds``/``--json``, a Gantt chart, makespan lower
  bounds and a JSON dump.
* ``characterize SYSTEM`` — run the paper's characterisation steps (random
  packet campaign on the NoC, processor test application figures).
* ``figure1 [SYSTEM...]`` — regenerate the paper's Figure 1 panels as text
  tables (all six panels by default).
* ``headline`` — recompute the paper's quoted reduction percentages.
* ``sweep [SYSTEM...]`` — run an arbitrary experiment grid (reuse levels ×
  power limits × schedulers) through the sweep engine, in-process and in
  point order, with build/characterisation caching (``--cache-dir``), a
  schema-versioned JSON result store (``--out``, re-printable via
  ``--load``), a durable
  sqlite store with incremental re-runs (``--store``, ``--resume``),
  sliced execution of an explicit point list of each grid (``--points``,
  for distributing a sweep across processes or CI jobs), chunked commits
  (``--checkpoint``, so a killed worker's completed points survive for
  ``--resume``) and grids taken straight from a spec file
  (``--spec-json``, how orchestration workers are driven).
* ``orchestrate [SYSTEM...]`` — the one command that fans grids out over
  local shard workers: send every grid out in one
  dispatch round over N ``repro sweep --points`` subprocess workers
  (``--workers``, ``--workdir``), each running its point list of every
  grid, balanced by the points' measured costs in ``--store``, into its
  own sqlite store (``--resume`` plans only the points the store lacks),
  supervise them through per-worker heartbeat files and a worker state
  machine, retry failed, hung or lost shards
  (``--max-retries``/``--retry-backoff``/``--heartbeat-timeout``), then
  auto-merge the shard stores into ``--store`` with per-shard run history
  carried; the merged export (``--export-json``) is byte-identical to a
  serial run's — see docs/operations.md.
* ``merge OUT SHARD...`` — fold sharded sqlite stores back into one
  database with every shard run carried, the same history ``orchestrate``
  leaves; merging every shard of a grid yields a store whose exported
  document (``--export-json``) is byte-identical to a serial full run's.
* ``history DB`` — cross-run queries over a sqlite sweep store (scheduler
  win-rates, makespan over time, aggregated in SQL) plus the JSON↔sqlite
  migration path (``--import-json``, ``--export-json``).
* ``serve`` — the long-lived planning daemon: an HTTP API over the library
  (synchronous ``POST /plan``, background ``POST /sweeps`` jobs, cached
  ``GET /history/...`` reads) on top of one sqlite store
  (``--store``, ``--host``/``--port``, ``--cache-ttl``); the full wire
  format is documented in ``docs/api.md``.
* ``export-soc DIRECTORY`` — write the embedded benchmarks as ``.soc`` files.
* ``lint [PATH...]`` — run the repo-specific AST invariant checker
  (rule catalogue in ``docs/devtools.md``).
* ``profile [SYSTEM...]`` — run a sweep grid serially under cProfile and
  print the planning hot path's top functions (``--sort``, ``--limit``,
  ``--format text|json``, ``--out``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.analysis.sweeps import records_table, stored_sweep_summary
from repro.errors import ConfigurationError, ReproError, ResultStoreError
from repro.runner.launch import beat_heartbeat
from repro.runner.spec import SCHEDULER_NAMES, SweepSpec, power_series_label
from repro.runner.store import load_sweeps, save_stored_sweeps, save_sweeps
from repro.system.paper import PAPER_POWER_SERIES, PAPER_PROCESSOR_COUNTS, PAPER_SYSTEMS

# The module level holds the data side only: specs, paper names and the
# JSON store.  Everything else is imported by the handlers that use it, so
# a command loads only what it runs: no planning core (schedulers, NoC,
# system builds, caches) unless it plans, no sqlite without a store, and no
# http.server, cProfile or subprocess outside serve, profile and
# orchestrate.
if TYPE_CHECKING:
    from repro.runner.engine import SweepRunner

#: ``repro profile --sort`` choices, the keys of
#: :data:`repro.devtools.profile.PROFILE_SORT_KEYS`; spelled out so building
#: the parser does not import the profiler (a test pins the two together).
_PROFILE_SORTS = ("calls", "cumulative", "tottime")

#: ``repro sweep --backend`` choices.  The flag and ``--jobs`` are deprecated
#: and only parsed: ``repro sweep`` always plans in-process, and shard
#: workers are reached through ``repro orchestrate``.
_SWEEP_BACKENDS = ("pool", "serial")


def _cmd_benchmarks(_: argparse.Namespace) -> int:
    from repro.itc02.library import available_benchmarks, load_benchmark

    for name in available_benchmarks():
        print(load_benchmark(name).summary())
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.system.presets import build_paper_system

    system = build_paper_system(args.system)
    print(system.describe())
    print("  core placement:")
    for core in system.cores:
        kind = "processor" if core.is_processor else "core"
        print(f"    {core.identifier:<24} {kind:<10} @ {core.node}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.analysis.bounds import bound_report
    from repro.analysis.export import schedule_to_json
    from repro.analysis.gantt import gantt_chart
    from repro.analysis.report import schedule_report
    from repro.schedule.planner import TestPlanner
    from repro.schedule.variants import FastestCompletionScheduler
    from repro.system.presets import build_paper_system

    system = build_paper_system(args.system)
    scheduler = FastestCompletionScheduler() if args.lookahead else None
    planner = TestPlanner(system, scheduler=scheduler)
    result = planner.plan(
        reused_processors=args.processors,
        power_limit_fraction=args.power_limit,
    )
    print(schedule_report(result))
    if args.bounds:
        print()
        print(bound_report(system, result))
    if args.gantt:
        print()
        print(gantt_chart(result))
    if args.json:
        print()
        print(schedule_to_json(result))
    return 0


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro.noc.characterization import characterize_noc
    from repro.system.presets import build_paper_system

    system = build_paper_system(args.system)
    print(system.describe())
    print()
    print("NoC characterisation (random packet campaign):")
    print("  " + characterize_noc(system.network, packet_count=args.packets).summary())
    print()
    print("Processor characterisations:")
    for characterization in system.processor_characterizations.values():
        print("  " + characterization.summary())
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from repro.analysis.export import sweep_to_csv
    from repro.analysis.report import sweep_table
    from repro.experiments.figure1 import run_panel

    systems = args.systems or sorted(PAPER_SYSTEMS)
    for name in systems:
        panel = run_panel(name)
        print(sweep_table(panel.series, title=f"Figure 1 panel: {name}"))
        if args.csv:
            print()
            print(sweep_to_csv(panel.series))
        print()
    return 0


def _cmd_headline(_: argparse.Namespace) -> int:
    from repro.experiments.headline import run_headline_claims

    print("Paper headline claims vs. reproduction:")
    for claim in run_headline_claims():
        print("  " + claim.row())
    return 0


def _parse_counts(text: str) -> tuple[int | None, ...]:
    """Parse ``--counts`` values: comma-separated ints, ``all`` = every processor."""
    counts: list[int | None] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token == "all":
            counts.append(None)
            continue
        try:
            counts.append(int(token))
        except ValueError as exc:
            raise ConfigurationError(
                f"invalid processor count {token!r} (expected an integer or 'all')"
            ) from exc
    if not counts:
        raise ConfigurationError("--counts needs at least one value")
    return tuple(counts)


def _parse_power_limits(text: str) -> tuple[tuple[str, float | None], ...]:
    """Parse ``--power-limits`` values: comma-separated fractions or ``none``."""
    series: list[tuple[str, float | None]] = []
    for token in text.split(","):
        token = token.strip().lower()
        if not token:
            continue
        fraction: float | None
        if token in ("none", "off", "unlimited"):
            fraction = None
        else:
            try:
                fraction = float(token)
            except ValueError as exc:
                raise ConfigurationError(
                    f"invalid power limit {token!r} (expected a fraction or 'none')"
                ) from exc
        series.append((power_series_label(fraction), fraction))
    if not series:
        raise ConfigurationError("--power-limits needs at least one value")
    return tuple(series)


#: ``repro sweep`` options that configure a run and are therefore meaningless
#: together with ``--load`` (attribute name → flag name).  Their defaults are
#: read off the parser itself (``_sweep_run_defaults``), so the conflict
#: check cannot drift when a default changes.
_SWEEP_RUN_OPTIONS: tuple[tuple[str, str], ...] = (
    ("counts", "--counts"),
    ("power_limits", "--power-limits"),
    ("schedulers", "--schedulers"),
    ("flit_width", "--flit-width"),
    ("spec_json", "--spec-json"),
    ("jobs", "--jobs"),
    ("backend", "--backend"),
    ("cache_dir", "--cache-dir"),
    ("out", "--out"),
    ("packets", "--packets"),
    ("no_characterize", "--no-characterize"),
    ("store", "--store"),
    ("resume", "--resume"),
    ("points", "--points"),
    ("checkpoint", "--checkpoint"),
)


def _parse_point_groups(raw: str, spec_count: int) -> list[tuple[int, ...]]:
    """Parse ``--points`` into one grid-index list per spec.

    A single comma list (no ``;``) names the same indices of every spec.
    The batch form carries one comma list per spec, ``;``-separated in
    spec-file order (``0,2;1``); a list there may be empty, for a worker
    that holds none of that grid's points.

    Raises:
        ConfigurationError: for a non-integer token, an empty single list,
            or a batch form whose list count differs from ``spec_count``.
    """
    lists = raw.split(";")
    if len(lists) > 1 and len(lists) != spec_count:
        raise ConfigurationError(
            f"--points carries {len(lists)} ';'-separated list(s) for "
            f"{spec_count} sweep spec(s); give one list per spec"
        )
    groups = []
    for text in lists:
        indices = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            try:
                indices.append(int(token))
            except ValueError as exc:
                raise ConfigurationError(
                    f"--points takes comma-separated grid indices, got {token!r}"
                ) from exc
        groups.append(tuple(sorted(set(indices))))
    if len(groups) == 1:
        if not groups[0]:
            raise ConfigurationError("--points names no grid indices")
        return groups * spec_count
    return groups


def _worker_exit(code: int) -> int:
    """Exit-code seam for fault injection (a no-op without ``REPRO_CHAOS``)."""
    if os.environ.get("REPRO_CHAOS"):
        from repro.devtools.chaos import rewrite_exit_code

        return rewrite_exit_code(code)
    return code


def _reject_load_conflicts(args: argparse.Namespace) -> None:
    """``--load`` only prints a stored document; a grid flag next to it would
    silently run nothing, so reject the combination outright."""
    conflicting = [
        flag
        for attribute, flag in _SWEEP_RUN_OPTIONS
        if getattr(args, attribute) != args._sweep_run_defaults[attribute]
    ]
    if args.systems:
        conflicting.insert(0, "SYSTEM arguments")
    if conflicting:
        raise ConfigurationError(
            "--load prints a stored result document and does not run a sweep; "
            "drop " + ", ".join(conflicting) + " or drop --load"
        )


def _load_spec_json(path: str) -> list[SweepSpec]:
    """Load one spec (object) or several (list) from a ``--spec-json`` file.

    Raises:
        ConfigurationError: for an unreadable file, invalid JSON, or
            entries that do not describe a sweep spec.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"spec file {path} is not valid JSON: {exc}") from exc
    entries = data if isinstance(data, list) else [data]
    if not entries:
        raise ConfigurationError(f"spec file {path} holds no sweep specs")
    specs = []
    for position, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ConfigurationError(
                f"spec file {path}: entry {position} is not a spec object"
            )
        specs.append(SweepSpec.from_dict(entry))
    return specs


def _build_sweep_specs(args: argparse.Namespace) -> list[SweepSpec]:
    """The sweep specs a ``sweep``/``orchestrate`` invocation describes.

    Either loaded verbatim from ``--spec-json`` (the path orchestration
    workers take, and the only way to express grids beyond the flag
    surface), or built one-per-system from the grid flags.
    """
    if args.spec_json:
        conflicting = []
        if args.systems:
            conflicting.append("SYSTEM arguments")
        for attribute, flag, default in (
            ("counts", "--counts", None),
            ("power_limits", "--power-limits", None),
            ("schedulers", "--schedulers", "greedy"),
            ("flit_width", "--flit-width", 32),
        ):
            if getattr(args, attribute) != default:
                conflicting.append(flag)
        if conflicting:
            raise ConfigurationError(
                "--spec-json runs the grid(s) stored in a spec file; "
                "drop " + ", ".join(conflicting) + " or drop --spec-json"
            )
        return _load_spec_json(args.spec_json)

    systems = args.systems or sorted(PAPER_SYSTEMS)
    schedulers = tuple(token.strip() for token in args.schedulers.split(",") if token.strip())
    power_limits = (
        _parse_power_limits(args.power_limits)
        if args.power_limits
        else tuple(PAPER_POWER_SERIES.items())
    )
    specs = []
    for name in systems:
        if name.lower() not in PAPER_SYSTEMS:
            raise ConfigurationError(
                f"unknown paper system {name!r}; known systems: "
                + ", ".join(sorted(PAPER_SYSTEMS))
            )
        benchmark = PAPER_SYSTEMS[name.lower()].benchmark
        counts = (
            _parse_counts(args.counts)
            if args.counts
            else PAPER_PROCESSOR_COUNTS[benchmark]
        )
        specs.append(
            SweepSpec(
                name=f"sweep-{name.lower()}",
                systems=(name,),
                processor_counts=counts,
                power_limits=power_limits,
                schedulers=schedulers,
                flit_widths=(args.flit_width,),
            )
        )
    return specs


def _sweep_title(spec: SweepSpec) -> str:
    """Report title for one spec: the system for single-system grids."""
    return spec.systems[0] if len(spec.systems) == 1 else spec.name


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.runner.engine import SweepRunner

    # Dispatched workers announce themselves before planning anything so a
    # slow grid build cannot read as a dead worker; the hooks are no-ops
    # outside a dispatch/chaos environment.
    beat_heartbeat()
    if os.environ.get("REPRO_CHAOS"):
        from repro.devtools.chaos import on_worker_start

        on_worker_start()
    for flag in ("--jobs", "--backend"):
        if getattr(args, flag[2:]) is not None:
            print(
                f"warning: {flag} is deprecated and ignored; repro sweep plans "
                "in-process, use `repro orchestrate --workers N` to plan on "
                "N processes",
                file=sys.stderr,
            )
    if args.load:
        _reject_load_conflicts(args)
        for sweep in load_sweeps(args.load):
            print(stored_sweep_summary(sweep))
            print(records_table(sweep.records, title=f"Sweep: {sweep.spec.name}"))
            print()
        return 0
    if args.resume and not args.store:
        raise ConfigurationError(
            "--resume needs --store: there is no sqlite store to resume from"
        )
    if args.points is not None and not args.store:
        raise ConfigurationError(
            "--points needs --store: point-sliced results must land in a "
            "sqlite store so `repro merge` can fold the slices together"
        )
    if args.checkpoint is not None and not args.store:
        raise ConfigurationError(
            "--checkpoint commits completed points to the sqlite store in "
            "chunks; it needs --store"
        )
    runner = SweepRunner(
        cache_dir=args.cache_dir,
        characterize=not args.no_characterize,
        packet_count=args.packets,
        checkpoint_every=args.checkpoint,
    )
    specs = _build_sweep_specs(args)

    # Each spec's --points slice, resolved before executing anything so an
    # out-of-range point index fails fast instead of after the first grid ran.
    if args.points is None:
        point_groups = None
        planned_points = sum(spec.point_count for spec in specs)
    else:
        point_groups = _parse_point_groups(args.points, len(specs))
        planned_points = sum(
            len(spec.points_at(group)) for spec, group in zip(specs, point_groups) if group
        )

    if args.store:
        _run_sweeps_stored(args, runner, specs, point_groups)
    else:
        _run_sweeps_plain(args, runner, specs)

    builds, characterizations = runner.cache_counters()
    print(
        f"cache: {builds['misses']} system builds "
        f"({builds['hits']} hits, {builds['disk_hits']} from disk), "
        f"{characterizations['misses']} NoC characterisations "
        f"({characterizations['hits']} hits, "
        f"{characterizations['disk_hits']} from disk) "
        f"for {planned_points} grid points"
    )
    return _worker_exit(0)


def _run_sweeps_plain(
    args: argparse.Namespace,
    runner: SweepRunner,
    specs: Sequence[SweepSpec],
) -> None:
    """Execute every spec in full and optionally write one JSON document."""
    from repro.analysis.report import sweep_table
    from repro.experiments.figure1 import panel_from_outcomes

    entries = []
    for spec in specs:
        outcomes = runner.run(spec)
        entries.append((spec, outcomes))
        title = _sweep_title(spec)
        # The paper-shaped panel table needs one system, integer counts
        # including the no-reuse baseline its reductions are taken against,
        # and a single scheduler; 'all' (None) counts, grids without 0,
        # scheduler mixes and multi-system specs get the flat table.
        if (
            len(spec.systems) == 1
            and len(spec.schedulers) == 1
            and 0 in spec.processor_counts
            and all(count is not None for count in spec.processor_counts)
        ):
            panel = panel_from_outcomes(spec, outcomes)
            print(sweep_table(panel.series, title=f"Sweep: {title}"))
        else:
            print(records_table([o.record() for o in outcomes], title=f"Sweep: {title}"))
        print()
    if args.out:
        written = save_sweeps(args.out, entries)
        print(f"wrote {written}")


def _run_sweeps_stored(
    args: argparse.Namespace,
    runner: SweepRunner,
    specs: Sequence[SweepSpec],
    point_groups: Sequence[Sequence[int]] | None,
) -> None:
    """Execute every spec (or one slice of it) against the sqlite store.

    ``point_groups`` (from ``--points``) names each spec's slice.
    """
    from repro.runner.db import SweepDatabase

    executed = skipped = 0
    # A sweep run is a genuine writer entry point: this process owns the
    # (shard) store for the duration of the run.
    with SweepDatabase(args.store) as db:  # repro-lint: disable=RL002
        reports = []
        for position, spec in enumerate(specs):
            if point_groups is not None:
                report = runner.run_points(
                    spec, db, point_groups[position], resume=args.resume
                )
            else:
                report = runner.run_stored(spec, db, resume=args.resume)
            reports.append(report)
            executed += report.executed_count
            skipped += report.skipped_count
            print(records_table(report.records, title=f"Sweep: {_sweep_title(spec)}"))
            print()
        if args.out:
            written = save_stored_sweeps(
                args.out, [db.stored_sweep(report.spec_key) for report in reports]
            )
            print(f"wrote {written}")
    print(
        f"store {args.store}: {executed} executed, {skipped} skipped "
        f"across {len(specs)} sweep(s)"
        + (
            f" [points {sum(len(group) for group in point_groups)}]"
            if point_groups is not None
            else ""
        )
        + (" [resume]" if args.resume else "")
    )


def _cmd_orchestrate(args: argparse.Namespace) -> int:
    from repro.runner.backends import ShardWorkerBackend
    from repro.runner.db import SweepDatabase

    backend = ShardWorkerBackend(
        workers=args.workers,
        timeout=args.worker_timeout,
        max_retries=args.max_retries,
        retry_backoff=args.retry_backoff,
        heartbeat_timeout=args.heartbeat_timeout,
        checkpoint_every=args.checkpoint,
    )
    specs = _build_sweep_specs(args)
    # The orchestration target store: this process is its one writer while
    # the shard workers write only their own per-shard stores.
    with SweepDatabase(args.store) as db:  # repro-lint: disable=RL002
        report = backend.orchestrate(
            specs,
            db,
            resume=args.resume,
            characterize=not args.no_characterize,
            packet_count=args.packets,
            cache_dir=args.cache_dir,
            workdir=args.workdir,
        )
        for spec, spec_key in zip(report.specs, report.spec_keys):
            print(records_table(db.records(spec_key), title=f"Sweep: {_sweep_title(spec)}"))
            print()
        for worker in report.workers:
            retries = worker.retries
            print(
                f"  worker {worker.plan.shard_index}/{worker.plan.shard_count}: "
                f"{worker.plan.store_path} [exit {worker.returncode}]"
                + (
                    f" [{retries} retr{'y' if retries == 1 else 'ies'}]"
                    if retries
                    else ""
                )
            )
            for attempt in worker.attempts:
                print(f"    attempt {attempt.attempt}: {attempt.describe()}")
        print()
    carried = sum(merge.runs_carried for merge in report.merge_reports)
    # A temporary workdir is gone after a successful merge; name it only if kept.
    kept = f"; workdir {report.workdir}" if report.workdir else ""
    print(
        f"store {args.store}: {report.record_count} records, {report.run_count} "
        f"run(s) across {len(specs)} sweep(s) orchestrated on "
        f"{len(report.workers)} shard worker(s) ({carried} shard run(s) "
        f"carried{kept})"
    )
    if args.export_json:
        with SweepDatabase.open_reader(args.store) as db:
            written = db.export_document(args.export_json)
        print(f"wrote {written}")
    return 0


def _remove_store_files(path: Path) -> None:
    """Delete a sqlite store and its WAL sidecar files, ignoring misses."""
    for leftover in (path, Path(f"{path}-wal"), Path(f"{path}-shm")):
        with contextlib.suppress(OSError):
            leftover.unlink()


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.runner.db import SweepDatabase

    output = Path(args.output)
    shard_paths = [Path(raw) for raw in args.shards]
    for shard_path in shard_paths:
        # Opening a missing path would silently create an empty store and
        # "merge" nothing; a mistyped shard name must fail loudly instead.
        if not shard_path.exists():
            raise ResultStoreError(f"no sqlite sweep store at {shard_path}")
    preexisting = output.exists()
    merged = False
    try:
        with contextlib.ExitStack() as stack:
            # The merge target is the command's one writer; the shards are
            # never modified, so they open through the read path.
            out = stack.enter_context(SweepDatabase(output))  # repro-lint: disable=RL002
            shards = [
                stack.enter_context(SweepDatabase.open_reader(path))
                for path in shard_paths
            ]
            # merge_all validates every shard (against the store AND against
            # each other) before writing, so a conflict anywhere leaves a
            # pre-existing output store untouched.
            reports = out.merge_all(shards)
            merged = True
            for shard_path, report in zip(shard_paths, reports):
                print(
                    f"merged {shard_path}: {report.inserted} record(s) added, "
                    f"{report.identical} identical, {report.runs_carried} run(s) "
                    f"carried ({len(report.spec_keys)} sweep(s))"
                )
            if args.export_json:
                written = out.export_document(args.export_json)
                print(f"wrote {written}")
            print(
                f"store {output}: {out.record_count()} records after merging "
                f"{len(shard_paths)} store(s) "
                f"({sum(r.inserted for r in reports)} added, "
                f"{sum(r.identical for r in reports)} identical, "
                f"{sum(r.runs_carried for r in reports)} run(s) carried)"
            )
    except BaseException:
        # A failed merge into a fresh output must not leave a stray empty
        # store behind — but once the merge has committed, the store is the
        # user's data and survives a later failure (e.g. a bad export path).
        if not preexisting and not merged:
            _remove_store_files(output)
        raise
    return 0


def _cmd_history(args: argparse.Namespace) -> int:
    from repro.analysis.history import history_report
    from repro.runner.db import SweepDatabase

    path = Path(args.database)
    preexisting = path.exists()
    if not preexisting and not args.import_json:
        raise ResultStoreError(
            f"no sqlite sweep store at {path}; run `repro sweep --store {path}` "
            f"or seed it from a JSON document with --import-json"
        )
    try:
        if args.import_json:
            # Seeding an import writes; a plain history query only reads.
            db = SweepDatabase(path)  # repro-lint: disable=RL002
        else:
            db = SweepDatabase.open_reader(path)
        with db:
            if args.import_json:
                imported = db.import_document(args.import_json)
                print(f"imported {imported} record(s) from {args.import_json}")
                print()
            if args.export_json:
                written = db.export_document(args.export_json)
                print(f"wrote {written}")
                print()
            print(history_report(db, system=args.system))
    except BaseException:
        if not preexisting:
            # A failed seeding import must not leave a stray empty store
            # behind: it would satisfy the existence check above and mask
            # the real "no store yet" state on the next invocation.
            _remove_store_files(path)
        raise
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.http import create_server

    server = create_server(
        args.store,
        host=args.host,
        port=args.port,
        cache_ttl=args.cache_ttl,
        characterize=not args.no_characterize,
        packet_count=args.packets,
        cache_dir=args.cache_dir,
        auth_token=args.auth_token,
        max_queue=args.max_queue,
        max_body_bytes=args.max_body_bytes,
    )
    auth = "token auth" if args.auth_token else "open access"
    print(
        f"serving {args.store} on {server.url} ({auth}; Ctrl-C to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.close()
    return 0


def _cmd_export_soc(args: argparse.Namespace) -> int:
    from repro.itc02.library import export_benchmarks

    written = export_benchmarks(args.directory)
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.devtools import Linter, RULES, get_rules

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}  [{rule.severity}]  {rule.title}")
        return 0
    rules = get_rules(args.rules)
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        raise ConfigurationError(f"no such path(s): {', '.join(missing)}")
    report = Linter(rules).lint_paths(args.paths)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.format_text())
    return 0 if report.ok else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.devtools import profile_specs
    from repro.runner.atomic import atomic_write_text

    specs = _build_sweep_specs(args)
    report = profile_specs(
        specs,
        characterize=not args.no_characterize,
        packet_count=args.packets,
        sort=args.sort,
        limit=args.limit,
    )
    if args.format == "json":
        rendered = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        rendered = report.format_text()
    if args.out:
        atomic_write_text(Path(args.out), rendered + "\n")
        print(f"wrote {args.out}")
    else:
        print(rendered)
    return 0


def _add_spec_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags describing *which grid* to run (``sweep``/``orchestrate``/
    ``profile``).

    Defaults must stay in sync with the conflict table in
    :func:`_build_sweep_specs` (which rejects grid flags next to
    ``--spec-json``).
    """
    parser.add_argument(
        "systems",
        nargs="*",
        metavar="SYSTEM",
        help=f"systems to sweep (default: all of {', '.join(sorted(PAPER_SYSTEMS))})",
    )
    parser.add_argument(
        "--counts",
        default=None,
        help="comma-separated reused-processor counts, 'all' = every processor "
        "(default: the paper's Figure 1 counts per system)",
    )
    parser.add_argument(
        "--power-limits",
        default=None,
        help="comma-separated power-limit fractions, 'none' = unconstrained "
        "(default: 0.5,none — the paper's two series)",
    )
    parser.add_argument(
        "--schedulers",
        default="greedy",
        help="comma-separated scheduler policies: "
        + ", ".join(SCHEDULER_NAMES),
    )
    parser.add_argument(
        "--flit-width", type=int, default=32, help="NoC flit width (default: 32)"
    )
    parser.add_argument(
        "--spec-json",
        default=None,
        metavar="FILE",
        help="run the sweep spec(s) stored in FILE (SweepSpec.to_dict JSON, "
        "one object or a list) instead of building grids from the flags",
    )


def _add_characterization_arguments(parser: argparse.ArgumentParser) -> None:
    """The NoC characterisation flags of every grid-running command
    (``sweep``/``orchestrate``/``profile``)."""
    parser.add_argument(
        "--packets",
        type=int,
        default=200,
        help="random packets for the NoC characterisation campaign",
    )
    parser.add_argument(
        "--no-characterize",
        action="store_true",
        help="skip the per-SoC NoC characterisation step",
    )


def _add_grid_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags describing *how* to run a grid, shared by ``sweep`` and
    ``orchestrate`` — the spec flags plus characterisation and caching
    knobs."""
    _add_spec_arguments(parser)
    _add_characterization_arguments(parser)
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="directory for persisted NoC-characterisation records",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-noctest",
        description="NoC-based SoC test planning with embedded-processor reuse "
        "(reproduction of Amory et al., DATE 2005)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    benchmarks = subparsers.add_parser("benchmarks", help="list embedded benchmarks")
    benchmarks.set_defaults(handler=_cmd_benchmarks)

    describe = subparsers.add_parser("describe", help="describe a paper system")
    describe.add_argument("system", choices=sorted(PAPER_SYSTEMS))
    describe.set_defaults(handler=_cmd_describe)

    plan = subparsers.add_parser("plan", help="plan the test of a paper system")
    plan.add_argument("system", choices=sorted(PAPER_SYSTEMS))
    plan.add_argument(
        "--processors",
        type=int,
        default=None,
        help="number of processors reused for test (default: all)",
    )
    plan.add_argument(
        "--power-limit",
        type=float,
        default=None,
        help="power ceiling as a fraction of total core power (e.g. 0.5)",
    )
    plan.add_argument("--gantt", action="store_true", help="print an ASCII Gantt chart")
    plan.add_argument("--json", action="store_true", help="print the schedule as JSON")
    plan.add_argument(
        "--bounds",
        action="store_true",
        help="print makespan lower bounds and the schedule's bound efficiency",
    )
    plan.add_argument(
        "--lookahead",
        action="store_true",
        help="use the fastest-completion scheduler instead of the paper's greedy one",
    )
    plan.set_defaults(handler=_cmd_plan)

    figure1 = subparsers.add_parser("figure1", help="regenerate Figure 1 panels")
    figure1.add_argument(
        "systems",
        nargs="*",
        metavar="SYSTEM",
        help=f"systems to reproduce (default: all of {', '.join(sorted(PAPER_SYSTEMS))})",
    )
    figure1.add_argument("--csv", action="store_true", help="also print CSV rows")
    figure1.set_defaults(handler=_cmd_figure1)

    headline = subparsers.add_parser(
        "headline", help="recompute the paper's quoted reduction percentages"
    )
    headline.set_defaults(handler=_cmd_headline)

    sweep = subparsers.add_parser(
        "sweep",
        help="run an experiment grid in-process (orchestrate fans it out)",
        description="Run a (system x reuse level x power limit x scheduler) "
        "grid through the caching sweep runner.  Without options this "
        "reproduces the Figure 1 grids of the selected systems.",
    )
    _add_grid_arguments(sweep)
    # Deprecated spellings, parsed but ignored (_cmd_sweep warns).
    sweep.add_argument("--jobs", type=int, default=None, help=argparse.SUPPRESS)
    sweep.add_argument(
        "--backend", choices=_SWEEP_BACKENDS, default=None, help=argparse.SUPPRESS
    )
    sweep.add_argument(
        "--out", default=None, help="write results as schema-versioned JSON to this file"
    )
    sweep.add_argument(
        "--load",
        default=None,
        metavar="FILE",
        help="print a previously stored result document instead of running",
    )
    sweep.add_argument(
        "--store",
        default=None,
        metavar="DB",
        help="accumulate results in this sqlite store (crash-safe, queryable "
        "across runs via `repro history`)",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="with --store: skip grid points the store already holds and "
        "execute only the missing ones",
    )
    sweep.add_argument(
        "--points",
        default=None,
        metavar="I,J,...",
        help="run only these 0-based grid point indices (needs --store; fold "
        "the slice stores together with `repro merge`; how orchestration "
        "drives its workers); with several specs, one comma list per spec "
        "separated by ';' (I,J;K)",
    )
    sweep.add_argument(
        "--checkpoint",
        type=int,
        default=None,
        metavar="N",
        help="with --store: commit completed points every N points so a "
        "killed run loses at most N points' work (default: one commit per "
        "run)",
    )
    sweep.set_defaults(
        handler=_cmd_sweep,
        _sweep_run_defaults={
            attribute: sweep.get_default(attribute)
            for attribute, _ in _SWEEP_RUN_OPTIONS
        },
    )

    orchestrate = subparsers.add_parser(
        "orchestrate",
        help="fan a sweep grid out over local shard workers and merge the results",
        description="Run every grid in one round of N detached `repro sweep "
        "--points` subprocess workers (each runs its point list of every grid "
        "into its own sqlite store), monitor them, and auto-merge the shard "
        "stores into OUT_DB with per-shard run history carried.  The merged "
        "store's --export-json document is "
        "byte-identical to a serial full run's.",
    )
    _add_grid_arguments(orchestrate)
    orchestrate.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="directory for the shard stores, spec file and worker logs "
        "(default: a fresh temporary directory)",
    )
    orchestrate.add_argument(
        "--store",
        required=True,
        metavar="DB",
        help="sqlite store the merged shard results land in",
    )
    orchestrate.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="shard workers shared by every grid of the run (default: 2); a "
        "worker that would hold no points is not spawned",
    )
    orchestrate.add_argument(
        "--resume",
        action="store_true",
        help="plan only the grid points the store does not already hold; "
        "workers also resume the shard stores a failed run left in --workdir",
    )
    orchestrate.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill worker attempts still running after this long "
        "(default: wait)",
    )
    orchestrate.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="re-dispatch a failed, timed-out or lost shard up to N times "
        "(default: 0)",
    )
    orchestrate.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="base delay before re-dispatching a shard; doubles per retry "
        "with deterministic jitter (default: 0.5)",
    )
    orchestrate.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="declare a worker lost when its heartbeat file goes stale for "
        "this long (default: 30)",
    )
    orchestrate.add_argument(
        "--checkpoint",
        type=int,
        default=None,
        metavar="N",
        help="make workers commit every N points so a killed worker's "
        "completed points survive for --resume (default: one commit per "
        "shard)",
    )
    orchestrate.add_argument(
        "--export-json",
        default=None,
        metavar="FILE",
        help="export the merged store as a schema-v1 JSON result document",
    )
    orchestrate.set_defaults(handler=_cmd_orchestrate)

    merge = subparsers.add_parser(
        "merge",
        help="merge sharded sqlite sweep stores into one database",
        description="Fold the sqlite stores written by `repro sweep "
        "--points ... --store` (or any --store runs) into "
        "OUT_DB, carrying every shard run (label, counters, timestamp, "
        "point costs) under a fresh run id.  A run OUT_DB already holds is "
        "skipped, so re-merging a shard is a no-op; conflicting records abort "
        "the merge.  Merging every shard of a grid yields a store whose "
        "--export-json document is byte-identical to a serial full run's.",
    )
    merge.add_argument("output", metavar="OUT_DB", help="target sqlite store")
    merge.add_argument(
        "shards",
        nargs="+",
        metavar="SHARD_DB",
        help="sqlite shard stores to fold in, in order",
    )
    merge.add_argument(
        "--export-json",
        default=None,
        metavar="FILE",
        help="export the merged store as a schema-v1 JSON result document",
    )
    merge.set_defaults(handler=_cmd_merge)

    history = subparsers.add_parser(
        "history",
        help="query a sqlite sweep store across runs",
        description="Cross-run queries over a sqlite sweep store written by "
        "`repro sweep --store`: per-system scheduler win-rates and the "
        "makespan-over-runs trajectory.  Also the JSON<->sqlite migration "
        "path: --import-json seeds or extends a store from a schema-v1 "
        "document, --export-json writes the store back out as one.",
    )
    history.add_argument("database", metavar="DB", help="path of the sqlite store")
    history.add_argument(
        "--system",
        choices=sorted(PAPER_SYSTEMS),
        default=None,
        help="restrict the report to one paper system",
    )
    history.add_argument(
        "--import-json",
        default=None,
        metavar="FILE",
        help="import a schema-v1 JSON result document into the store first",
    )
    history.add_argument(
        "--export-json",
        default=None,
        metavar="FILE",
        help="export the store as a schema-v1 JSON result document",
    )
    history.set_defaults(handler=_cmd_history)

    serve = subparsers.add_parser(
        "serve",
        help="serve planning, sweeps and history over HTTP",
        description="Run the long-lived planning daemon: POST /plan answers "
        "synchronously, POST /sweeps enqueues grids for background execution "
        "through the sweep engine's backends, and GET /history/... serves "
        "the store's SQL aggregations through a TTL read cache.  One daemon "
        "owns one sqlite store (single writer thread, per-request WAL "
        "readers).  The wire format is documented in docs/api.md.",
    )
    serve.add_argument(
        "--store",
        required=True,
        metavar="DB",
        help="sqlite sweep store the daemon serves and fills "
        "(created if missing)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="bind port (default: 8787; 0 = ephemeral)",
    )
    serve.add_argument(
        "--cache-ttl",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="TTL of the history read cache (default: 2.0; 0 disables it)",
    )
    serve.add_argument(
        "--packets",
        type=int,
        default=200,
        help="random packets for the NoC characterisation campaign of "
        "API-submitted sweep jobs",
    )
    serve.add_argument(
        "--no-characterize",
        action="store_true",
        help="skip the per-SoC NoC characterisation step for sweep jobs",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        help="directory for persisted NoC-characterisation records",
    )
    serve.add_argument(
        "--auth-token",
        default=os.environ.get("REPRO_SERVE_TOKEN") or None,
        metavar="TOKEN",
        help="bearer token every request except GET /healthz must present "
        "(default: $REPRO_SERVE_TOKEN; unset = open access)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=16,
        metavar="N",
        help="sweep jobs allowed to wait in the queue before submissions "
        "are answered 503 + Retry-After (default: 16; 0 = unbounded)",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=1_000_000,
        metavar="BYTES",
        help="largest accepted request body; larger ones are answered 413 "
        "(default: 1000000)",
    )
    serve.set_defaults(handler=_cmd_serve)

    characterize = subparsers.add_parser(
        "characterize",
        help="run the NoC and processor characterisation steps for a paper system",
    )
    characterize.add_argument("system", choices=sorted(PAPER_SYSTEMS))
    characterize.add_argument(
        "--packets", type=int, default=200, help="random packets for the NoC campaign"
    )
    characterize.set_defaults(handler=_cmd_characterize)

    export_soc = subparsers.add_parser(
        "export-soc", help="write the embedded benchmarks as .soc files"
    )
    export_soc.add_argument("directory")
    export_soc.set_defaults(handler=_cmd_export_soc)

    lint = subparsers.add_parser(
        "lint",
        help="run the repo-specific AST invariant checker (see docs/devtools.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE",
        help="restrict to the given rule id (repeatable, e.g. --rule RL001)",
    )
    lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the available rules and exit",
    )
    lint.set_defaults(handler=_cmd_lint)

    profile = subparsers.add_parser(
        "profile",
        help="run a sweep grid under cProfile and report the hot functions",
        description="Execute a (system x reuse level x power limit x "
        "scheduler) grid serially under cProfile and print the planning hot "
        "path's most expensive functions.  Companion of perfbench/run.py: "
        "the benchmark measures how long a user waits, this command shows "
        "where the time goes.",
    )
    _add_spec_arguments(profile)
    _add_characterization_arguments(profile)
    profile.add_argument(
        "--sort",
        choices=_PROFILE_SORTS,
        default="cumulative",
        help="hotspot ranking (default: cumulative)",
    )
    profile.add_argument(
        "--limit",
        type=int,
        default=25,
        metavar="N",
        help="hotspots to report (default: 25)",
    )
    profile.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    profile.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    profile.set_defaults(handler=_cmd_profile)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that exited early (e.g. `| head`);
        # redirect stdout to devnull so the interpreter's final flush does
        # not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
