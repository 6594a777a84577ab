"""LRU cache of served query results.

Hits for one query depend only on the query *sequence*, the search
parameters, and the index contents — never on the query's name or on which
request carried it — so the cache key is ``(sequence, threshold, e_value,
top_k, mode, epoch)``.  ``mode`` keeps each mode's answers, and their
accounting, apart even though one exact engine computes both.  ``epoch``
is the serving generation's index fingerprint
(header CRC for a monolithic store, manifest payload CRC for shards): a hot
reload changes it, so entries for a replaced index can never be served
again even before the cache is cleared.

Values store the *result* fields (threshold, hits, raw/dropped counts), not
the :class:`~repro.service.QueryResult` itself, so a cached answer can be
re-issued under any query id.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.align.types import SearchStats
from repro.io.database import LocatedHit
from repro.obs.metrics import Counter
from repro.service import QueryResult

# Cache-level accounting: counts every lookup (including lookups for
# requests later rejected by admission control), unlike the stats RPC's
# served-traffic hit rate.
_HITS_TOTAL = Counter(
    "repro_result_cache_hits_total", "Result-cache lookups that hit"
)
_MISSES_TOTAL = Counter(
    "repro_result_cache_misses_total", "Result-cache lookups that missed"
)
_EVICTIONS_TOTAL = Counter(
    "repro_result_cache_evictions_total", "Result-cache LRU evictions"
)


@dataclass(frozen=True)
class CachedResult:
    """The id-independent part of a :class:`QueryResult`."""

    threshold: int
    hits: tuple[LocatedHit, ...]
    raw_hits: int
    dropped_boundary: int

    @classmethod
    def from_result(cls, result: QueryResult) -> "CachedResult":
        return cls(
            threshold=result.threshold,
            hits=tuple(result.hits),
            raw_hits=result.raw_hits,
            dropped_boundary=result.dropped_boundary,
        )

    def to_result(self, query_id: str) -> QueryResult:
        """Materialize a fresh result under ``query_id`` (zero-work stats)."""
        return QueryResult(
            query_id=query_id,
            hits=list(self.hits),
            stats=SearchStats(),
            threshold=self.threshold,
            raw_hits=self.raw_hits,
            dropped_boundary=self.dropped_boundary,
        )


class ResultCache:
    """Thread-safe LRU of :class:`CachedResult` with hit/miss accounting."""

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, CachedResult]" = OrderedDict()

    @staticmethod
    def key(
        sequence: str,
        threshold: int | None,
        e_value: float | None,
        top_k: int | None,
        epoch: int,
        mode: str = "exact",
    ) -> tuple:
        return (sequence, threshold, e_value, top_k, mode, epoch)

    def get(self, key: tuple) -> CachedResult | None:
        if self.capacity == 0:
            _MISSES_TOTAL.inc()
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            _MISSES_TOTAL.inc()
        else:
            _HITS_TOTAL.inc()
        return entry

    def put(self, key: tuple, value: CachedResult) -> None:
        if self.capacity == 0:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            _EVICTIONS_TOTAL.inc(evicted)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
