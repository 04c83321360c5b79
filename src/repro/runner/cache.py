"""Content-keyed caches for the sweep engine.

Two expensive computations recur across the points of a sweep grid:

* **system assembly** (:mod:`repro.system.builder`) — parsing the benchmark,
  characterising the processors, wrapping and placing every core; identical
  for every point that shares ``(system, flit_width, pattern_penalty)``;
* **NoC characterisation** (:mod:`repro.noc.characterization`) — the random
  packet campaign of the paper's first step; identical for every point that
  shares a NoC configuration.

:class:`SystemCache` memoises built systems in memory (a
:class:`~repro.system.builder.SocSystem` is treated as read-only by the
planner, so sharing one instance across points is safe) and — given a cache
directory — persists them as schema/version-enveloped pickles, so shard
workers, and the serve daemon across restarts, share build artefacts
instead of rebuilding per process.  :class:`CharacterizationCache` persists
its results as schema-versioned JSON files the same way.  Both caches count
hits and misses (:class:`CacheStats`) so tests, ``repro sweep`` and the
serve ``/healthz`` payload can observe the caching behaviour.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

from repro import __version__
from repro.noc.characterization import NocCharacterization, characterize_noc
from repro.noc.network import Network
from repro.runner.atomic import atomic_write_bytes, atomic_write_text
from repro.processors.applications import BistApplication
from repro.system.builder import SocSystem
from repro.system.presets import (
    PAPER_SYSTEMS,
    build_paper_system,
    processor_prototype,
)

#: Schema version of on-disk characterisation records.
CHARACTERIZATION_SCHEMA_VERSION = 1

#: Schema version of on-disk system-build records.  Version 2: ``Network``
#: and ``XYRouting`` lost their cache switches, so version-1 pickles hold
#: attributes today's classes no longer have.
SYSTEM_SCHEMA_VERSION = 2


def content_key(payload: Mapping[str, object]) -> str:
    """SHA-256 of the canonical JSON encoding of ``payload``."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters of one cache.

    ``disk_hits`` counts the subset of ``hits`` that were served from the
    cache directory rather than process memory (0 for memory-only caches).
    """

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total number of lookups."""
        return self.hits + self.misses

    def as_dict(self) -> dict[str, int]:
        """JSON-ready counters (used by ``repro sweep`` and ``/healthz``)."""
        return {"hits": self.hits, "misses": self.misses, "disk_hits": self.disk_hits}


def build_point_system(
    system: str,
    *,
    flit_width: int = 32,
    pattern_penalty: int | None = None,
) -> SocSystem:
    """Build the paper system a sweep point needs (uncached).

    ``pattern_penalty`` overrides the processors' cycles-per-pattern figure
    (a spec's ``pattern_penalties`` axis sweeps the BIST kernel's quality).
    """
    processor = None
    if pattern_penalty is not None:
        spec = PAPER_SYSTEMS[system.lower()]
        processor = processor_prototype(spec.processor_model).with_application(
            BistApplication(cycles_per_pattern=pattern_penalty)
        )
    return build_paper_system(system, flit_width=flit_width, processor=processor)


class SystemCache:
    """Memory + optional on-disk cache of built paper systems.

    Follows the :class:`CharacterizationCache` pattern: lookups go memory →
    cache directory → build (and persist).  On-disk records are pickles of
    the built :class:`~repro.system.builder.SocSystem` wrapped in a
    schema/version envelope; a record written by a different library version
    (whose classes may have changed shape) is ignored and rebuilt rather
    than unpickled into a stale object graph.  Writes are atomic
    (:func:`~repro.runner.atomic.atomic_write_bytes`), and a build is a pure
    function of its key, so concurrent writers' last-writer-wins races are
    content-identical — exactly the sharing shard workers and the serve
    daemon (across restarts) need.

    The cache directory is trusted to the same degree as the process itself
    (records are pickles); it is the operator-provided ``--cache-dir``, never
    request-controlled input.
    """

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self._systems: dict[str, SocSystem] = {}
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()

    @property
    def cache_dir(self) -> Path | None:
        """Directory persisted records live in (``None`` = memory only)."""
        return self._cache_dir

    @staticmethod
    def key(
        system: str, *, flit_width: int = 32, pattern_penalty: int | None = None
    ) -> str:
        """Content key of one ``(system, flit_width, pattern_penalty)`` build."""
        return content_key(
            {
                "kind": "system-build",
                "system": system.lower(),
                "flit_width": flit_width,
                "pattern_penalty": pattern_penalty,
            }
        )

    def get(
        self, system: str, *, flit_width: int = 32, pattern_penalty: int | None = None
    ) -> SocSystem:
        """The built system for the given parameters, building it on a miss.

        Lookup order: in-memory → cache directory → build (and persist).
        """
        key = self.key(system, flit_width=flit_width, pattern_penalty=pattern_penalty)
        cached = self._systems.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached

        loaded = self._load(key)
        if loaded is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._systems[key] = loaded
            return loaded

        self.stats.misses += 1
        built = build_point_system(
            system, flit_width=flit_width, pattern_penalty=pattern_penalty
        )
        self._systems[key] = built
        self._persist(key, built)
        return built

    def clear(self) -> None:
        """Drop every in-memory cached system (counters and disk are kept)."""
        self._systems.clear()

    def __len__(self) -> int:
        return len(self._systems)

    # ------------------------------------------------------------------
    # Disk backing.
    # ------------------------------------------------------------------
    def _record_path(self, key: str) -> Path | None:
        if self._cache_dir is None:
            return None
        return self._cache_dir / f"system-build-{key}.pkl"

    def _load(self, key: str) -> SocSystem | None:
        path = self._record_path(key)
        if path is None or not path.is_file():
            return None
        try:
            document = pickle.loads(path.read_bytes())
        except (
            OSError,
            pickle.PickleError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            TypeError,
            ValueError,
        ):
            # A torn, foreign or stale record (e.g. pickled by a build whose
            # classes have since changed shape) is a rebuild, never an error.
            return None
        if not isinstance(document, dict):
            return None
        if document.get("schema_version") != SYSTEM_SCHEMA_VERSION:
            return None
        if document.get("version") != __version__:
            return None
        if document.get("key") != key:
            return None
        system = document.get("system")
        if not isinstance(system, SocSystem):
            return None
        return system

    def _persist(self, key: str, system: SocSystem) -> None:
        path = self._record_path(key)
        if path is None:
            return
        document = {
            "schema_version": SYSTEM_SCHEMA_VERSION,
            "version": __version__,
            "key": key,
            "system": system,
        }
        # Staged-temp-file + os.replace, like the characterisation records: a
        # crash mid-write cannot truncate an existing record, and concurrent
        # sweeps sharing the cache directory each land a complete record (the
        # build is deterministic for a given key, so last-writer-wins is
        # content-identical).
        atomic_write_bytes(path, pickle.dumps(document, protocol=pickle.HIGHEST_PROTOCOL))


class CharacterizationCache:
    """Memory + optional on-disk cache of NoC characterisation campaigns."""

    def __init__(self, cache_dir: str | Path | None = None) -> None:
        self._memory: dict[str, NocCharacterization] = {}
        self._cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.stats = CacheStats()

    @property
    def cache_dir(self) -> Path | None:
        """Directory persisted records live in (``None`` = memory only)."""
        return self._cache_dir

    @staticmethod
    def key(
        network: Network,
        *,
        packet_count: int = 200,
        max_payload_bits: int = 1024,
        seed: int = 2005,
    ) -> str:
        """Content key of one characterisation campaign."""
        config = network.config
        return content_key(
            {
                "kind": "noc-characterization",
                "width": config.width,
                "height": config.height,
                "flit_width": config.flit_width,
                "routing_latency": config.routing_latency,
                "flow_control_latency": config.flow_control_latency,
                "packet_count": packet_count,
                "max_payload_bits": max_payload_bits,
                "seed": seed,
            }
        )

    def get(
        self,
        network: Network,
        *,
        packet_count: int = 200,
        max_payload_bits: int = 1024,
        seed: int = 2005,
    ) -> NocCharacterization:
        """The characterisation for ``network``, computing it on a miss.

        Lookup order: in-memory → cache directory → compute (and persist).
        """
        key = self.key(
            network,
            packet_count=packet_count,
            max_payload_bits=max_payload_bits,
            seed=seed,
        )
        cached = self._memory.get(key)
        if cached is not None:
            self.stats.hits += 1
            return cached

        loaded = self._load(key)
        if loaded is not None:
            self.stats.hits += 1
            self.stats.disk_hits += 1
            self._memory[key] = loaded
            return loaded

        self.stats.misses += 1
        computed = characterize_noc(
            network,
            packet_count=packet_count,
            max_payload_bits=max_payload_bits,
            seed=seed,
        )
        self._memory[key] = computed
        self._persist(key, computed)
        return computed

    # ------------------------------------------------------------------
    # Disk backing.
    # ------------------------------------------------------------------
    def _record_path(self, key: str) -> Path | None:
        if self._cache_dir is None:
            return None
        return self._cache_dir / f"noc-characterization-{key}.json"

    def _load(self, key: str) -> NocCharacterization | None:
        path = self._record_path(key)
        if path is None or not path.is_file():
            return None
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if document.get("schema_version") != CHARACTERIZATION_SCHEMA_VERSION:
            return None
        payload = document.get("characterization")
        if not isinstance(payload, dict):
            return None
        try:
            return NocCharacterization(**payload)
        except TypeError:
            return None

    def _persist(self, key: str, characterization: NocCharacterization) -> None:
        path = self._record_path(key)
        if path is None:
            return
        document = {
            "schema_version": CHARACTERIZATION_SCHEMA_VERSION,
            "key": key,
            "characterization": asdict(characterization),
        }
        # Staged-temp-file + os.replace: a crash mid-write cannot truncate an
        # existing record, and concurrent sweeps sharing the cache directory
        # each land a complete record (the campaign is deterministic for a
        # given key, so last-writer-wins is content-identical).
        atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True))
