"""Sharded serving: fan one query across K shard indexes, merge exactly.

:class:`ShardedSearchService` layers on :class:`~repro.service.SearchService`
the way a distributed query planner layers on single-node executors: each
shard of a :class:`~repro.store.ShardedStore` gets its own store-backed
``SearchService`` (shared mmapped indexes, warmed engine), every query fans
out as one task per shard, and the per-shard
:class:`~repro.io.database.LocatedHit` lists are merged back into a single
:class:`~repro.service.QueryResult` that is **bit-identical** — ids,
positions, scores *and ordering* — to what the unsharded service returns
over the same database:

* E-value thresholds are resolved against the *global* text length before
  fan-out, so every shard searches with the same ``H`` the unsharded
  service would use (a shard resolving ``E`` against its own, smaller text
  would over-report);
* hits are record-local and records never split across shards, so the
  merge maps each hit back to its original record index (via the manifest
  id table) and sorts by global ``(t_end, p_end)`` — exactly the
  accumulator order of the concatenated text;
* per-record attribution is already exact (boundary-spanning artifacts are
  dropped and shadowed within-record alignments recovered per shard), so
  the union over shards is the union over records.

``top_k`` adds ranked early termination: a shared score floor tracks the
k-th best score seen so far per query, and shard tasks that start after the
floor is set search with ``H = max(H, floor)`` — cheap shards stop refining
hits that can no longer reach the top k.  The floor only ever *raises* the
threshold to a score already achieved k times, so the returned top k is
deterministic and identical to ranking the full merge.

Executors mirror the unsharded service: ``threads`` (default), a fork-based
``processes`` pool inheriting the warmed shard engines copy-on-write, and a
``spawn`` pool whose workers reopen the *manifest* by path (every shard
store mmapped fresh, works without fork).
"""

from __future__ import annotations

import heapq
import multiprocessing
import threading
import time
import warnings
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator

from repro.scoring.evalue import resolve_threshold
from repro.align.types import SearchStats
from repro.alphabet import Alphabet
from repro.engine import check_mode
from repro.errors import ReproError
from repro.io.database import LocatedHit
from repro.io.fasta import parse_fasta_file
from repro.obs.metrics import Histogram
from repro.obs.spans import SPAN_ENGINE, SPAN_LOCATE, SPAN_MERGE, add_span, shard_span
from repro.scoring.scheme import ScoringScheme
from repro.service.service import (
    BatchReport,
    Query,
    QueryResult,
    SearchService,
    ServiceError,
    normalize_queries,
)
from repro.store.sharded import (
    ShardedStore,
    manifest_payload_crc as _payload_crc,
    read_manifest,
)

# Fan-out accounting per merged query: each shard's work time (engine +
# locate — the numbers the merge already attributes to trace spans), the
# fold-in cost, and how many shards each query fanned out to.
_SHARD_SECONDS = Histogram(
    "repro_sharded_shard_seconds",
    "Per-shard work time (engine + locate) per merged query",
    ("shard",),
)
_MERGE_SECONDS = Histogram(
    "repro_sharded_merge_seconds", "Fan-in merge time per query"
)
_FANOUT_QUERIES = Histogram(
    "repro_sharded_fanout_shards",
    "Shards each merged query fanned out to",
    buckets=(1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
)


@dataclass
class ShardedBatchReport(BatchReport):
    """A :class:`BatchReport` plus per-shard accounting.

    ``shard_stats[i]`` aggregates every query's engine statistics on shard
    ``i``; ``shard_work_seconds[i]`` sums that shard's per-search engine
    time (work, not wall clock — shards run concurrently).
    """

    shard_stats: list[SearchStats] = field(default_factory=list)
    shard_work_seconds: list[float] = field(default_factory=list)

    @property
    def shard_queries_per_second(self) -> list[float]:
        """Per-shard throughput over *work* time, 0.0 for zero-width timings.

        A shard that answered its searches faster than the clock's
        resolution (tiny shard, trivial queries) reports 0.0 instead of
        raising ``ZeroDivisionError`` or claiming infinite throughput.
        """
        queries = len(self.results)
        return [
            queries / seconds if seconds > 0 else 0.0
            for seconds in self.shard_work_seconds
        ]


class _ScoreFloor:
    """Thread-shared k-th-best score tracker, one floor per query.

    ``offer`` feeds scores from a completed shard; ``floor`` returns the
    current k-th best score for a query once at least ``k`` hits exist
    (and ``None`` before).  Raising a shard's threshold to the floor is
    always safe: the k-th best of a subset never exceeds the k-th best of
    the full merge, so no hit that can reach the top k is suppressed.
    """

    def __init__(self, k: int) -> None:
        self._k = k
        self._lock = threading.Lock()
        self._heaps: dict[int, list[int]] = {}

    def floor(self, query_index: int) -> int | None:
        with self._lock:
            heap = self._heaps.get(query_index)
            if heap is None or len(heap) < self._k:
                return None
            return heap[0]

    def offer(self, query_index: int, scores: Iterable[int]) -> None:
        with self._lock:
            heap = self._heaps.setdefault(query_index, [])
            for score in scores:
                if len(heap) < self._k:
                    heapq.heappush(heap, score)
                elif score > heap[0]:
                    heapq.heapreplace(heap, score)


# Fork workers inherit the whole sharded service (all shard engines) through
# the parent's memory image, mirroring service.py's _FORK_SERVICE.
_FORK_SHARDED: "ShardedSearchService | None" = None
_FORK_SHARDED_LOCK = threading.Lock()


def _fork_shard_search(
    task: "tuple[int, Query, int, str]",
) -> "tuple[int, QueryResult]":
    shard, query, threshold, mode = task
    assert _FORK_SHARDED is not None  # set by the parent before forking
    return shard, _FORK_SHARDED.services[shard]._search_one(
        query, threshold, None, mode
    )


# Spawn workers reopen the manifest by path; each shard store comes from the
# process-wide store cache, so one worker serves every shard of the query
# it is handed without duplicating mmaps.
_SPAWN_SHARDED: "ShardedSearchService | None" = None


def _sharded_spawn_init(
    manifest_path: str, engine_kwargs: dict, expected_crc: int | None
) -> None:
    global _SPAWN_SHARDED
    _SPAWN_SHARDED = ShardedSearchService(
        manifest_path, engine_kwargs=engine_kwargs
    )
    if expected_crc is not None:
        worker_crc = _SPAWN_SHARDED.manifest_crc
        if worker_crc != expected_crc:
            raise ServiceError(
                f"shard manifest {manifest_path} changed on disk since the "
                f"parent opened it (CRC {worker_crc:#010x} != expected "
                f"{expected_crc:#010x}); rebuild the service from the new "
                f"manifest"
            )


def _spawn_shard_search(
    task: "tuple[int, Query, int, str]",
) -> "tuple[int, QueryResult]":
    shard, query, threshold, mode = task
    assert _SPAWN_SHARDED is not None  # set by the pool initializer
    return shard, _SPAWN_SHARDED.services[shard]._search_one(
        query, threshold, None, mode
    )


class ShardedSearchService:
    """Serve queries over a sharded index with exact global merging.

    Parameters
    ----------
    store:
        A :class:`~repro.store.ShardedStore` or the path of its manifest
        (built with ``ShardedStore.build`` / ``repro index build --shards``).
    alphabet, scheme:
        Optional sanity checks against the manifest fingerprint, as with a
        store-backed :class:`SearchService` (mismatches are hard errors).
    workers, executor:
        Default pool shape for :meth:`search_batch`.  One *task* is one
        ``(query, shard)`` pair, so even a single query spreads across
        ``workers`` pool slots.
    engine_kwargs:
        Forwarded to every shard engine (the ALAE ``use_*`` toggles).

    Every serving call takes a per-call ``mode=`` (``exact``, the default,
    or ``verified``); each shard answers both with its one ALAE engine.
    """

    def __init__(
        self,
        store: "ShardedStore | str | Path",
        *,
        alphabet: Alphabet | None = None,
        scheme: ScoringScheme | None = None,
        workers: int = 1,
        executor: str = "threads",
        engine_kwargs: dict | None = None,
    ) -> None:
        if isinstance(store, (str, Path)):
            store = ShardedStore.open(store)
        if alphabet is not None:
            store.check_alphabet(alphabet)
        if scheme is not None:
            store.check_scheme(scheme)
        self.store = store
        self._engine_kwargs = dict(engine_kwargs or {})
        self.services = [
            SearchService(
                store=shard_store,
                engine_kwargs=self._engine_kwargs,
            )
            for shard_store in store.stores()
        ]
        self.alphabet = self.services[0].alphabet
        self.scheme = self.services[0].scheme
        self.workers = SearchService._check_workers(workers)
        self.executor = self._check_executor(executor)
        self._global_offsets = store.global_offsets
        self._shard_records = [
            store.shard_records(i) for i in range(store.shard_count)
        ]

    # ------------------------------------------------------------- plumbing
    @property
    def shard_count(self) -> int:
        return self.store.shard_count

    @property
    def record_count(self) -> int:
        return self.store.record_count

    @property
    def total_length(self) -> int:
        """Global text length — the ``n`` every E-value resolves against."""
        return self.store.total_length

    @property
    def manifest_crc(self) -> int:
        """CRC-32 of the canonical manifest payload this service serves."""
        return _payload_crc(self.store.payload)

    def _check_executor(self, executor: str) -> str:
        """Mirror :meth:`SearchService._check_executor` for the sharded pools."""
        if executor not in ("threads", "processes", "spawn"):
            raise ServiceError(
                f"executor must be 'threads', 'processes' or 'spawn', "
                f"got {executor!r}"
            )
        methods = multiprocessing.get_all_start_methods()
        if executor == "spawn":
            if "spawn" not in methods:
                raise ServiceError(
                    "the 'spawn' start method is unavailable on this platform"
                )
            return executor
        if executor == "processes" and "fork" not in methods:
            if "spawn" in methods:
                return "spawn"
            warnings.warn(
                "the 'processes' executor needs the fork start method "
                "(unavailable on this platform); degrading to 'threads'",
                RuntimeWarning,
                stacklevel=3,
            )
            return "threads"
        return executor

    def _resolve_threshold(
        self, query: Query, threshold: int | None, e_value: float | None
    ) -> int:
        """The global ``H`` for one query (E against the *full* ``n``)."""
        return resolve_threshold(
            threshold,
            e_value,
            self.scheme,
            self.alphabet.size,
            len(query.sequence),
            self.total_length,
        )

    # --------------------------------------------------------------- merge
    def _merge(
        self,
        query: Query,
        h_thr: int,
        per_shard: list[QueryResult],
        top_k: int | None,
    ) -> QueryResult:
        """Fold per-shard results into one globally ordered result.

        Hits are ordered by global ``(t_end, p_end)`` — the concatenated
        accumulator's order, hence bit-identical to the unsharded service.
        With ``top_k`` they are ranked by score descending, global position
        breaking ties, and truncated.
        """
        merge_start = perf_counter()
        _FANOUT_QUERIES.observe(len(per_shard))
        merged: list[tuple[int, int, LocatedHit]] = []
        for shard, result in enumerate(per_shard):
            mapping = self._shard_records[shard]
            for hit in result.hits:
                original = mapping[hit.record_index]
                merged.append(
                    (
                        self._global_offsets[original] + hit.t_end,
                        hit.p_end,
                        replace(hit, record_index=original),
                    )
                )
        merged.sort(key=lambda item: (item[0], item[1]))
        if top_k is not None:
            ranked = sorted(
                merged, key=lambda item: (-item[2].score, item[0], item[1])
            )
            hits = [hit for _end, _p, hit in ranked[:top_k]]
        else:
            hits = [hit for _end, _p, hit in merged]
        raw = sum(result.raw_hits for result in per_shard)
        dropped = sum(result.dropped_boundary for result in per_shard)
        stats = SearchStats.aggregate(r.stats for r in per_shard)
        # Attribute each shard's own wall time before folding in the merge
        # cost, so a trace shows fan-out skew (hottest shard) at a glance.
        for shard, result in enumerate(per_shard):
            spans = result.stats.spans
            seconds = spans.get(SPAN_ENGINE, 0.0) + spans.get(SPAN_LOCATE, 0.0)
            if seconds == 0.0:  # process pools may strip spans; fall back
                seconds = result.stats.elapsed_seconds
            add_span(stats.spans, shard_span(shard), seconds)
            _SHARD_SECONDS.labels(shard=shard).observe(seconds)
        merge_seconds = perf_counter() - merge_start
        add_span(stats.spans, SPAN_MERGE, merge_seconds)
        _MERGE_SECONDS.observe(merge_seconds)
        return QueryResult(
            query_id=query.id,
            hits=hits,
            stats=stats,
            threshold=h_thr,
            raw_hits=raw,
            dropped_boundary=dropped,
        )

    # -------------------------------------------------------------- serving
    def search(
        self,
        query,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        mode: str | None = None,
    ) -> QueryResult:
        """Search one query across every shard (no pool involved)."""
        mode = check_mode(mode)
        (normalized,) = normalize_queries([query])
        h_thr = self._resolve_threshold(normalized, threshold, e_value)
        per_shard = [
            service._search_one(normalized, h_thr, None, mode)
            for service in self.services
        ]
        return self._merge(normalized, h_thr, per_shard, top_k)

    def _validate(
        self,
        queries: Iterable,
        threshold: int | None,
        e_value: float | None,
        top_k: int | None,
        workers: int | None,
        executor: str | None,
        mode: str | None,
    ) -> tuple[list[Query], list[int], int, str, str]:
        workers = SearchService._check_workers(
            self.workers if workers is None else workers
        )
        executor = self._check_executor(
            self.executor if executor is None else executor
        )
        mode = check_mode(mode)
        normalized = normalize_queries(queries)
        if top_k is not None and top_k < 1:
            raise ServiceError(f"top_k must be >= 1, got {top_k}")
        thresholds = [
            self._resolve_threshold(query, threshold, e_value)
            for query in normalized
        ]
        return normalized, thresholds, workers, executor, mode

    def iter_results(
        self,
        queries: Iterable,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        workers: int | None = None,
        executor: str | None = None,
        mode: str | None = None,
    ) -> Iterator[QueryResult]:
        """Yield one merged :class:`QueryResult` per query, in order.

        A query's result streams as soon as all of its shard tasks (and all
        earlier queries') finish.  Inputs are validated eagerly.
        """
        normalized, thresholds, workers, executor, mode = self._validate(
            queries, threshold, e_value, top_k, workers, executor, mode
        )
        return (
            self._merge(query, h_thr, per_shard, top_k)
            for query, h_thr, per_shard in self._iter_shardwise(
                normalized, thresholds, top_k, workers, executor, mode
            )
        )

    def _iter_shardwise(
        self,
        queries: list[Query],
        thresholds: list[int],
        top_k: int | None,
        workers: int,
        executor: str,
        mode: str,
    ) -> Iterator[tuple[Query, int, list[QueryResult]]]:
        """Yield ``(query, H, per-shard results)`` per query, in order."""
        if workers == 1:
            floor = _ScoreFloor(top_k) if top_k is not None else None
            for index, (query, h_thr) in enumerate(zip(queries, thresholds)):
                per_shard = [
                    self._shard_task(shard, index, query, h_thr, floor, mode)
                    for shard in range(self.shard_count)
                ]
                yield query, h_thr, per_shard
            return
        if executor == "threads":
            yield from self._run_threads(
                queries, thresholds, top_k, workers, mode
            )
        elif executor == "processes":
            yield from self._run_forked(queries, thresholds, workers, mode)
        else:
            yield from self._run_spawn(queries, thresholds, workers, mode)

    def _shard_task(
        self,
        shard: int,
        query_index: int,
        query: Query,
        h_thr: int,
        floor: "_ScoreFloor | None",
        mode: str = "exact",
    ) -> QueryResult:
        """One (query, shard) search, consulting/feeding the score floor."""
        effective = h_thr
        if floor is not None:
            current = floor.floor(query_index)
            if current is not None and current > effective:
                effective = current
        result = self.services[shard]._search_one(query, effective, None, mode)
        if floor is not None:
            floor.offer(query_index, (hit.score for hit in result.hits))
        return result

    def _run_threads(
        self,
        queries: list[Query],
        thresholds: list[int],
        top_k: int | None,
        workers: int,
        mode: str,
    ) -> Iterator[tuple[Query, int, list[QueryResult]]]:
        floor = _ScoreFloor(top_k) if top_k is not None else None
        pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-shard"
        )
        try:
            futures: list[list[Future]] = [
                [
                    pool.submit(
                        self._shard_task,
                        shard,
                        index,
                        query,
                        h_thr,
                        floor,
                        mode,
                    )
                    for shard in range(self.shard_count)
                ]
                for index, (query, h_thr) in enumerate(
                    zip(queries, thresholds)
                )
            ]
            for query, h_thr, shard_futures in zip(
                queries, thresholds, futures
            ):
                yield query, h_thr, [f.result() for f in shard_futures]
        finally:
            # Early generator close: drop queued shard tasks.
            pool.shutdown(wait=True, cancel_futures=True)

    def _collect_process_results(
        self,
        pool: ProcessPoolExecutor,
        task_fn,
        queries: list[Query],
        thresholds: list[int],
        mode: str,
    ) -> Iterator[tuple[Query, int, list[QueryResult]]]:
        futures = [
            [
                pool.submit(task_fn, (shard, query, h_thr, mode))
                for shard in range(self.shard_count)
            ]
            for query, h_thr in zip(queries, thresholds)
        ]
        for query, h_thr, shard_futures in zip(queries, thresholds, futures):
            per_shard: list[QueryResult] = [None] * self.shard_count  # type: ignore[list-item]
            for future in shard_futures:
                shard, result = future.result()
                per_shard[shard] = result
            yield query, h_thr, per_shard

    def _run_forked(
        self,
        queries: list[Query],
        thresholds: list[int],
        workers: int,
        mode: str,
    ) -> Iterator[tuple[Query, int, list[QueryResult]]]:
        global _FORK_SHARDED
        with _FORK_SHARDED_LOCK:
            if _FORK_SHARDED is not None:
                raise ServiceError(
                    "another fork-based sharded batch is already running in "
                    "this process"
                )
            _FORK_SHARDED = self
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            )
            try:
                yield from self._collect_process_results(
                    pool, _fork_shard_search, queries, thresholds, mode
                )
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            with _FORK_SHARDED_LOCK:
                _FORK_SHARDED = None

    def _run_spawn(
        self,
        queries: list[Query],
        thresholds: list[int],
        workers: int,
        mode: str,
    ) -> Iterator[tuple[Query, int, list[QueryResult]]]:
        # Fail in the parent with a clean error when the manifest on disk no
        # longer matches; the worker-side check covers the remaining race.
        expected = self.manifest_crc
        try:
            on_disk = _payload_crc(read_manifest(self.store.path))
        except ReproError as exc:
            raise ServiceError(
                f"shard manifest {self.store.path} is no longer readable: "
                f"{exc}"
            ) from None
        if on_disk != expected:
            raise ServiceError(
                f"shard manifest {self.store.path} changed on disk since "
                f"this service opened it; rebuild the service from the new "
                f"manifest"
            )
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_sharded_spawn_init,
            initargs=(str(self.store.path), self._engine_kwargs, expected),
        )
        try:
            yield from self._collect_process_results(
                pool, _spawn_shard_search, queries, thresholds, mode
            )
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    def search_batch(
        self,
        queries: Iterable,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        workers: int | None = None,
        executor: str | None = None,
        mode: str | None = None,
    ) -> ShardedBatchReport:
        """Run a whole batch; aggregate per-query and per-shard accounting."""
        normalized, thresholds, workers, executor, mode = self._validate(
            queries, threshold, e_value, top_k, workers, executor, mode
        )
        started = time.perf_counter()
        shard_stats = [SearchStats() for _ in range(self.shard_count)]
        results = []
        for query, h_thr, per_shard in self._iter_shardwise(
            normalized, thresholds, top_k, workers, executor, mode
        ):
            for shard, result in enumerate(per_shard):
                shard_stats[shard].merge(result.stats)
            results.append(self._merge(query, h_thr, per_shard, top_k))
        wall = time.perf_counter() - started
        return ShardedBatchReport(
            results=results,
            stats=SearchStats.aggregate(r.stats for r in results),
            wall_seconds=wall,
            workers=workers,
            executor=executor,
            shard_stats=shard_stats,
            shard_work_seconds=[
                stats.elapsed_seconds for stats in shard_stats
            ],
        )

    def search_fasta(
        self,
        path: str | Path,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        workers: int | None = None,
        executor: str | None = None,
        mode: str | None = None,
    ) -> ShardedBatchReport:
        """Run every record of a FASTA file as one batch."""
        return self.search_batch(
            parse_fasta_file(path),
            threshold,
            e_value,
            top_k=top_k,
            workers=workers,
            executor=executor,
            mode=mode,
        )
