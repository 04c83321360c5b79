"""The sweep engine: executes a :class:`~repro.runner.spec.SweepSpec`.

:class:`SweepRunner` expands a spec into its deterministic point sequence,
plans what must run, and delegates *how* the points execute to an
in-process :class:`~repro.runner.backends.ExecutionBackend` — serial
(:class:`~repro.runner.backends.SerialBackend`) or a ``multiprocessing``
pool (:class:`~repro.runner.backends.ProcessPoolBackend`; order-preserving
``map``, so a parallel run is byte-for-byte equivalent to a serial one — see
``tests/runner/test_engine.py``).  The output order is the spec's point
order on every backend.

Grids can also be executed in pieces: :meth:`SweepRunner.run_points` runs one
slice of the point order (any index subset) into its own sqlite store, and
:meth:`repro.runner.db.SweepDatabase.merge_all` folds the shard stores back
into a single database record-identical to a full single-host run — the
building block of distributed sweeps, and what
:meth:`ShardWorkerBackend.orchestrate
<repro.runner.backends.ShardWorkerBackend.orchestrate>` automates end to end
(each of its workers is a ``repro sweep --points`` process running a
:class:`SweepRunner`).

System builds go through a :class:`~repro.runner.cache.SystemCache` — one
build per SoC instead of one per point; parallel runs pre-build in the
parent and hand workers the warm cache through the pool initializer — and
each distinct NoC is characterised once through a
:class:`~repro.runner.cache.CharacterizationCache`, optionally persisted
under ``cache_dir``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from repro.errors import ConfigurationError
from repro.runner.backends import ExecutionBackend, execute_point, make_backend
from repro.runner.spec import SweepPoint, SweepSpec

# Imported lazily at runtime: db imports the store layer, and the caches and
# result types belong to the planning core, which a runner loads only when
# it executes its first point.
if TYPE_CHECKING:
    from repro.noc.characterization import NocCharacterization
    from repro.runner.cache import CharacterizationCache, SystemCache
    from repro.runner.db import SweepDatabase
    from repro.schedule.result import ScheduleResult

__all__ = [
    "StoreRunReport",
    "SweepOutcome",
    "SweepRunner",
    "execute_point",
]


@dataclass(frozen=True)
class SweepOutcome:
    """The result of one executed sweep point.

    Attributes:
        point: the configuration that was planned.
        result: the validated schedule the planner produced.
        characterization: the NoC characterisation of the point's system
            (``None`` when the runner ran with ``characterize=False``).
    """

    point: SweepPoint
    result: ScheduleResult
    characterization: NocCharacterization | None = None

    @property
    def makespan(self) -> int:
        """Total test time of the point's schedule."""
        return self.result.makespan

    def record(self) -> dict[str, object]:
        """Flat, JSON-ready record of this outcome (see the result store)."""
        record: dict[str, object] = dict(self.point.to_dict())
        record.update(
            {
                "label": self.point.label,
                "scheduler_policy": self.result.scheduler_name,
                "makespan": self.result.makespan,
                "test_count": self.result.test_count,
                "peak_power": round(self.result.peak_power(), 6),
                "average_parallelism": round(self.result.average_parallelism(), 6),
                "characterization": None,
            }
        )
        if self.characterization is not None:
            record["characterization"] = {
                "packet_count": self.characterization.packet_count,
                "mean_latency": round(self.characterization.mean_latency, 6),
                "worst_latency": self.characterization.worst_latency,
                "mean_hops": round(self.characterization.mean_hops, 6),
                "mean_payload_flits": round(self.characterization.mean_payload_flits, 6),
                "mean_packet_power": round(self.characterization.mean_packet_power, 6),
                "simulated_span": self.characterization.simulated_span,
            }
        return record


@dataclass(frozen=True)
class StoreRunReport:
    """The outcome of one store-backed (optionally resumed) sweep run.

    Attributes:
        spec: the grid that was run.
        spec_key: the spec's content key in the store.
        records: every record the store now holds for the spec, in point
            order — freshly executed points merged with previously stored
            ones (for a sliced run, the slice's points only).
        executed_indices: point indices executed by this run.
        skipped_indices: point indices skipped because the store already
            held their records (always empty without ``resume``).
        run_id: the store's id for this run (the history time axis).
    """

    spec: SweepSpec
    spec_key: str
    records: tuple[dict, ...]
    executed_indices: tuple[int, ...]
    skipped_indices: tuple[int, ...]
    run_id: int

    @property
    def executed_count(self) -> int:
        """Number of grid points this run actually executed."""
        return len(self.executed_indices)

    @property
    def skipped_count(self) -> int:
        """Number of grid points satisfied from the store."""
        return len(self.skipped_indices)


class SweepRunner:
    """Executes sweep specs with caching through an in-process backend.

    Args:
        jobs: worker processes; 1 (default) runs in-process, ``None`` or 0
            uses one worker per CPU.  Shorthand for the default backend
            selection: ``jobs == 1`` picks the serial backend, anything
            else the process pool.  Passed to
            :func:`~repro.runner.backends.make_backend` as given, which is
            the one place it is validated and resolved.
        backend: the execution backend — an
            :class:`~repro.runner.backends.ExecutionBackend` instance or a
            registered backend name (see
            :data:`~repro.runner.backends.BACKEND_FACTORIES`); overrides
            the ``jobs`` shorthand.  A
            :class:`~repro.runner.backends.ShardWorkerBackend` is not one:
            call its ``orchestrate`` directly.
        cache_dir: directory for persisted characterisation and system-build
            records (``None`` keeps both caches in memory only).
        characterize: characterise each distinct NoC once and attach the
            result to the outcomes.
        packet_count: size of the characterisation packet campaign.
        system_cache: share a prebuilt :class:`SystemCache` across runners
            (defaults to a fresh cache per runner).
        characterization_cache: share a :class:`CharacterizationCache`
            across runners (defaults to a fresh cache per runner, persisted
            under ``cache_dir``).
        checkpoint_every: commit store-backed runs in chunks of this many
            executed points instead of one transaction at the end.  A
            worker killed mid-sweep then leaves every completed chunk
            committed, so a resumed retry re-executes only the tail — the
            foundation of the dispatcher's requeue-with-resume path.  Each
            chunk is its own ``runs`` row; ``None`` (default) keeps the
            historical single-transaction commit.

    Raises:
        ConfigurationError: for a negative worker count, a backend that is
            neither an :class:`~repro.runner.backends.ExecutionBackend` nor
            a registered name, a non-positive ``checkpoint_every``, or a
            backend/jobs contradiction (serial backend with ``jobs != 1``).
    """

    def __init__(
        self,
        *,
        jobs: int | None = 1,
        backend: ExecutionBackend | str | None = None,
        cache_dir: str | Path | None = None,
        characterize: bool = False,
        packet_count: int = 200,
        system_cache: SystemCache | None = None,
        characterization_cache: CharacterizationCache | None = None,
        checkpoint_every: int | None = None,
    ) -> None:
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ConfigurationError(
                "checkpoint_every must be a positive number of points (or None)"
            )
        self.checkpoint_every = checkpoint_every
        if backend is None:
            backend = "serial" if jobs == 1 else "pool"
        if isinstance(backend, str):
            backend = make_backend(backend, jobs=jobs)
        if not isinstance(backend, ExecutionBackend):
            raise ConfigurationError(
                f"backend must be an ExecutionBackend or a registered backend "
                f"name, not {type(backend).__name__}; a ShardWorkerBackend "
                "orchestrates on its own (call its orchestrate())"
            )
        self.backend = backend
        self.jobs = backend.worker_count
        self.characterize = characterize
        self.packet_count = packet_count
        self.cache_dir = cache_dir
        # Runner-owned caches are created on first use (see system_cache), so
        # a run that executes nothing, such as a no-op resume, never loads
        # the planning core.
        self._system_cache = system_cache
        self._characterization_cache = characterization_cache

    @property
    def system_cache(self) -> SystemCache:
        """The shared :class:`SystemCache`, or the runner's own.

        A runner-owned cache is created on first use and inherits
        ``cache_dir``, so builds persist next to the characterisation
        records; a shared cache keeps its own setting.
        """
        # Not `self._system_cache or ...`: an empty SystemCache is falsy.
        if self._system_cache is None:
            from repro.runner.cache import SystemCache

            self._system_cache = SystemCache(self.cache_dir)
        return self._system_cache

    @property
    def characterization_cache(self) -> CharacterizationCache:
        """The shared :class:`CharacterizationCache`, or the runner's own
        (created on first use, persisted under ``cache_dir``)."""
        if self._characterization_cache is None:
            from repro.runner.cache import CharacterizationCache

            self._characterization_cache = CharacterizationCache(self.cache_dir)
        return self._characterization_cache

    def cache_counters(self) -> tuple[dict[str, int], dict[str, int]]:
        """The system and characterisation caches' ``stats.as_dict()``.

        A cache the runner has not created yet counts zero and stays
        uncreated, so reporting on a run that executed nothing loads no
        planning core.
        """
        idle = {"hits": 0, "misses": 0, "disk_hits": 0}
        return (
            idle if self._system_cache is None else self._system_cache.stats.as_dict(),
            idle
            if self._characterization_cache is None
            else self._characterization_cache.stats.as_dict(),
        )

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(self, spec: SweepSpec) -> list[SweepOutcome]:
        """Execute every point of ``spec`` and return outcomes in point order."""
        return self._run_points(spec.points())

    def run_stored(
        self,
        spec: SweepSpec,
        store: "SweepDatabase",
        *,
        resume: bool = False,
        source: str = "sweep",
    ) -> StoreRunReport:
        """Execute ``spec`` against a sqlite store, optionally incrementally.

        With ``resume``, points whose ``(spec_key, point_index)`` already
        hold a *compatible* record are skipped and served from the store;
        only the rest is executed (serially or on the pool, like
        :meth:`run`).  Compatible means produced under this runner's
        characterisation settings
        (:meth:`SweepDatabase.reusable_indices
        <repro.runner.db.SweepDatabase.reusable_indices>`, the resume rule
        ``repro orchestrate --resume`` applies too).  Because every point is
        planned independently and records are keyed by point index, a
        resumed — even parallel — run yields records identical to a
        from-scratch serial run of the full grid.  Without ``resume``, the
        whole grid is executed and re-recorded.

        The executed records are committed to the store in one transaction
        together with a ``runs`` row holding the executed/skipped counters
        (or in chunks of ``checkpoint_every`` points, each its own run row,
        when the runner was configured to checkpoint).  ``source`` labels
        the run in the store's history time axis
        (default ``"sweep"``; the serve daemon passes ``"serve:<job id>"``
        so `repro history` attributes API-submitted runs).
        """
        return self._run_into_store(
            spec, store, spec.points(), resume=resume, source=source
        )

    def run_points(
        self,
        spec: SweepSpec,
        store: "SweepDatabase",
        indices: Sequence[int],
        *,
        resume: bool = False,
        source: str | None = None,
    ) -> StoreRunReport:
        """Execute an index subset of ``spec`` into ``store`` (typically its own file).

        The slice is any index set — orchestration splits each grid by
        measured per-point planning cost and hands each worker its indices
        (``repro sweep --points``).  Points keep their global
        indices (``SweepSpec.points_at``), so each slice
        can run on a different host into its own
        :class:`~repro.runner.db.SweepDatabase`, and folding the stores of
        any disjoint cover of the grid back together with
        :meth:`SweepDatabase.merge_all <repro.runner.db.SweepDatabase.merge_all>`
        yields a store record-identical to a single-host :meth:`run_stored`
        of the full grid (the exported document is byte-for-byte the same).
        An empty selection (a batch worker that holds none of this grid's
        points) records an empty run.

        ``resume`` behaves as in :meth:`run_stored`, restricted to the
        slice's points.  ``source`` labels the run as on :meth:`run_stored`
        (default ``points:<n>``).

        Raises:
            ConfigurationError: for an out-of-range selection.
        """
        points = spec.points_at(indices) if indices else ()
        return self._run_into_store(
            spec,
            store,
            points,
            resume=resume,
            source=source if source is not None else f"points:{len(points)}",
        )

    def _run_into_store(
        self,
        spec: SweepSpec,
        store: "SweepDatabase",
        points: Sequence[SweepPoint],
        *,
        resume: bool,
        source: str,
    ) -> StoreRunReport:
        """Execute ``points`` of ``spec`` against ``store`` and commit one run."""
        spec_key = store.ensure_sweep(spec)
        existing = (
            store.reusable_indices(
                spec_key, characterize=self.characterize, packet_count=self.packet_count
            )
            if resume
            else frozenset()
        )
        pending = tuple(point for point in points if point.index not in existing)
        skipped = len(points) - len(pending)
        if not pending:
            # An all-skipped (or empty-shard) run still records its runs row
            # so counters, history and over-provisioned workers stay intact.
            run_id = store.record_run(
                spec_key, [], executed=0, skipped=skipped, source=source
            )
        else:
            chunk_size = self.checkpoint_every or len(pending)
            for start in range(0, len(pending), chunk_size):
                chunk = pending[start : start + chunk_size]
                outcomes = self._run_points(chunk)
                run_id = store.record_run(
                    spec_key,
                    [outcome.record() for outcome in outcomes],
                    executed=len(chunk),
                    # The skipped counter describes the whole resumed run;
                    # it rides on the first chunk so per-run sums stay right.
                    skipped=skipped if start == 0 else 0,
                    source=source,
                    point_costs=self.backend.measured_costs(),
                )
        # Restricted to this run's points: when several shards land in the
        # same store, a shard's report must not leak the other shards' rows.
        wanted = {point.index for point in points}
        return StoreRunReport(
            spec=spec,
            spec_key=spec_key,
            records=tuple(
                record
                for record in store.records(spec_key)
                if int(record["index"]) in wanted
            ),
            executed_indices=tuple(point.index for point in pending),
            skipped_indices=tuple(
                sorted(existing.intersection(point.index for point in points))
            ),
            run_id=run_id,
        )

    def _run_points(self, points: Sequence[SweepPoint]) -> list[SweepOutcome]:
        """Characterise and execute ``points``, returning outcomes in order."""
        characterizations = self._characterize_systems(points)
        system_cache = self.system_cache
        results = self.backend.execute(points, system_cache=system_cache)
        return [
            SweepOutcome(
                point=point,
                result=result,
                characterization=characterizations.get(
                    system_cache.key(
                        point.system,
                        flit_width=point.flit_width,
                        pattern_penalty=point.pattern_penalty,
                    )
                ),
            )
            for point, result in zip(points, results)
        ]

    def _characterize_systems(
        self, points: Sequence[SweepPoint]
    ) -> dict[str, NocCharacterization]:
        """Characterise each distinct system of the sweep exactly once."""
        if not self.characterize:
            return {}
        characterizations: dict[str, NocCharacterization] = {}
        for point in points:
            key = self.system_cache.key(
                point.system,
                flit_width=point.flit_width,
                pattern_penalty=point.pattern_penalty,
            )
            if key in characterizations:
                continue
            system = self.system_cache.get(
                point.system,
                flit_width=point.flit_width,
                pattern_penalty=point.pattern_penalty,
            )
            characterizations[key] = self.characterization_cache.get(
                system.network, packet_count=self.packet_count
            )
        return characterizations
