"""In-process TTL cache for the daemon's hot read paths.

``GET /history/...`` requests hit SQL aggregations whose cost grows with the
store; a serving workload repeats the same handful of queries far faster
than the store changes.  :class:`TTLCache` memoises those responses with two
invalidation mechanisms stacked on top of each other:

* **structural** — cache keys embed the store's data version
  (:meth:`repro.runner.db.SweepDatabase.data_version`, essentially the max
  rowids of the ``records`` and ``runs`` tables), so any committed write
  changes the key and the next read recomputes immediately;
* **temporal** — entries expire ``ttl_seconds`` after they were stored,
  which bounds memory for long-lived daemons whose version keys keep
  moving (every expired or superseded entry is dropped on the next write).

Hit/miss counters reuse :class:`repro.runner.cache.CacheStats`, the same
observability shape as the sweep engine's build caches.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Hashable

from repro.errors import ConfigurationError
from repro.runner.cache import CacheStats

#: Sentinel distinguishing "no cached value" from a cached ``None``.
_MISS = object()

#: Most entries a cache holds; a write beyond it evicts the oldest.  The TTL
#: bounds memory only per unit of request rate.  Under the serve-mixed
#: stream the plan cache hits as often with this cap as without it, and the
#: daemon's peak RSS is lower; the read cache never reaches it.
MAX_ENTRIES = 512


class TTLCache:
    """A thread-safe mapping whose entries expire after a fixed TTL.

    Args:
        ttl_seconds: lifetime of an entry; 0 disables caching entirely
            (every ``get`` misses), which is how ``repro serve
            --cache-ttl 0`` turns the cache off.
        clock: monotonic time source, injectable for tests.

    Raises:
        ConfigurationError: for a negative TTL.
    """

    def __init__(
        self, ttl_seconds: float = 2.0, *, clock: Callable[[], float] = time.monotonic
    ) -> None:
        if ttl_seconds < 0:
            raise ConfigurationError("ttl_seconds must be >= 0")
        self.ttl_seconds = ttl_seconds
        self._clock = clock
        self._entries: dict[Hashable, tuple[float, object]] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: Hashable) -> object:
        """The live value stored under ``key``, or ``None`` after a miss.

        A ``None`` *value* cannot be distinguished from a miss by design:
        the cache stores response payloads, which are never ``None``.
        Expired entries count as misses and are dropped eagerly.
        """
        with self._lock:
            entry = self._entries.get(key, _MISS)
            if entry is not _MISS:
                stored_at, value = entry
                if self._clock() - stored_at < self.ttl_seconds:
                    self.stats.hits += 1
                    return value
                del self._entries[key]
            self.stats.misses += 1
            return None

    def put(self, key: Hashable, value: object) -> None:
        """Store ``value`` under ``key``, evicting every expired entry and,
        at :data:`MAX_ENTRIES`, the oldest live ones.

        Eviction on write keeps the cache bounded for a daemon whose keys
        embed an ever-advancing store version: superseded entries are
        unreachable (their version no longer matches) and age out here.
        Entries sit in the order they were stored (a re-put key moves to
        the end), so the evicted ones are a prefix: the write drops it and
        stops at the first entry that stays.
        """
        if self.ttl_seconds == 0:
            return
        now = self._clock()
        with self._lock:
            entries = self._entries
            entries.pop(key, None)
            evicted = []
            for stored_key, (stored_at, _) in entries.items():
                live = now - stored_at < self.ttl_seconds
                if live and len(entries) - len(evicted) < MAX_ENTRIES:
                    break
                evicted.append(stored_key)
            for stored_key in evicted:
                del entries[stored_key]
            entries[key] = (now, value)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        """Number of entries currently stored (expired ones included)."""
        with self._lock:
            return len(self._entries)
