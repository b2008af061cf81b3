"""LRU prediction cache.

The paper's demo section plans "improving latency by using techniques like
caching"; the serving layer ships with one.  The cache is internally
thread-safe: the REST server handles requests on multiple threads, and the
service must be able to consult the cache without wrapping every call in
its own lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.obs.metrics import MetricsRegistry


class LruCache:
    """A bounded least-recently-used map from prompt to completion.

    All operations are guarded by an internal lock, so the cache can be
    shared between request-handler threads directly.  ``hits`` /
    ``misses`` / ``evictions`` are the ``serving.cache_*`` counters of
    ``metrics`` — their only store (DESIGN.md "Counting"): a ``get`` that
    finds its key is a hit, every other ``get`` a miss.
    """

    def __init__(self, capacity: int, metrics: MetricsRegistry):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = metrics.counter("serving.cache_hits")
        self._misses = metrics.counter("serving.cache_misses")
        self._evictions = metrics.counter("serving.cache_evictions")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def evictions(self) -> int:
        return self._evictions.value

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: str) -> str | None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits.inc()
                return self._entries[key]
            self._misses.inc()
            return None

    def put(self, key: str, value: str) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions.inc()

    def clear(self) -> None:
        """Drop every entry, keeping the lifetime counters.

        ``hits``/``misses``/``evictions`` are cumulative-by-contract: a
        scraper diffing successive ``stats()`` snapshots must never see a
        counter go backwards, so a cache reset empties the entries (the
        next ``get`` of any key is a miss) without zeroing the history.
        Cleared entries are not counted as evictions.
        """
        with self._lock:
            self._entries.clear()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def stats(self) -> dict:
        """Counter snapshot for ``/v1/stats``."""
        with self._lock:
            hits, misses = self.hits, self.misses
            total = hits + misses
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": hits,
                "misses": misses,
                "evictions": self.evictions,
                "hit_rate": hits / total if total else 0.0,
            }
