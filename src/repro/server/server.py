"""The resident serving tier: an asyncio TCP front over a search service.

:class:`SearchServer` keeps one warmed :class:`~repro.service.SearchService`
(monolithic store) or :class:`~repro.service.ShardedSearchService` (shard
manifest — the first bytes of ``--index`` decide, exactly as in
``search-db``) resident in a long-lived process and serves it over the
length-prefixed JSON protocol of :mod:`repro.server.protocol`:

* every connection may pipeline requests; responses are written strictly in
  request order, and a per-connection in-flight cap stops the reader — TCP
  backpressure — when a client races too far ahead;
* ``search`` requests pass admission control (fast-fail ``overloaded`` when
  the global queue is full), then an LRU result cache, then the
  :class:`~repro.server.batcher.MicroBatcher`, which runs each batch as
  soon as the lane is free, as one ``search_batch`` call on an executor
  thread: a lone query runs at once, and queries that arrive while a batch
  runs coalesce into the next one — the event loop never blocks on
  alignment work;
* a background task polls the on-disk index fingerprint (header CRC for a
  store, manifest payload CRC for shards) and **hot-reloads**: in-flight
  batches drain, the service is reopened, the cache is invalidated, and
  the generation counter bumps — clients never see a mixed-index batch;
* ``stats`` reports qps, latency percentiles, cache hit rate, queue depth,
  batch shape, reload generation and its age, and failed reload polls
  (count and last error); ``ping`` / ``reload`` / ``shutdown`` round out
  the ops.

Served hits are bit-identical to the offline ``search-db --index`` path:
the server calls the very same service layer, it just keeps it resident.
:class:`ServerThread` runs a server on a dedicated event-loop thread for
tests, benchmarks and notebooks.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.engine import AlaeBackend, check_mode
from repro.errors import ReproError
from repro.io.database import LocatedHit
from repro.obs.exporter import MetricsExporter
from repro.obs.metrics import (
    EWMA,
    Counter,
    Gauge,
    Histogram,
    default_registry,
    metrics_enabled,
)
from repro.obs.reqlog import RequestLog, query_hash
from repro.obs.spans import shard_seconds
from repro.server.batcher import BatchKey, MicroBatcher, Overloaded
from repro.server.cache import CachedResult, ResultCache
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PREFIX,
    ProtocolError,
    decode_length,
    decode_payload,
    encode_frame,
)
from repro.server.stats import ServerStats
from repro.service import (
    Query,
    QueryResult,
    SearchService,
    ServiceError,
    ShardedSearchService,
    normalize_queries,
)
from repro.store import is_manifest, read_manifest
from repro.store.format import header_prefix_crc
from repro.store.sharded import manifest_payload_crc

logger = logging.getLogger("repro.server")

# Metric families live at module import (REP701): the serving tier's view of
# itself.  They are process-wide — two servers in one process (tests) share
# them, so assertions should compare deltas, not absolutes.
_REQUESTS_TOTAL = Counter(
    "repro_server_requests_total", "Wire requests by operation", ("op",)
)
_REQUEST_SECONDS = Histogram(
    "repro_server_request_seconds",
    "End-to-end served search latency (per query, by mode) — the "
    "budget-routing quantile source",
    ("mode",),
)
_INFLIGHT = Gauge(
    "repro_server_inflight_requests", "Wire requests currently being handled"
)
_GENERATION = Gauge(
    "repro_server_generation", "Hot-reload generation of the resident index"
)
_GENERATION_START = Gauge(
    "repro_server_generation_start_seconds",
    "Unix time at which the served index generation went live",
)
_QUEUE_EWMA = Gauge(
    "repro_server_queue_depth_ewma",
    "EWMA of the micro-batch queue depth, sampled at each search request — "
    "the budget-routing pressure signal",
)
_OVERLOADED_TOTAL = Counter(
    "repro_server_overloaded_total",
    "Search requests rejected by admission control",
)
_RELOAD_FAILURES_TOTAL = Counter(
    "repro_server_reload_failures_total",
    "Hot-reload polls that failed (the old generation kept serving)",
)

#: Ops get their own label value; anything else is folded into "unknown" so
#: a misbehaving client cannot mint unbounded label series.
_KNOWN_OPS = frozenset({"search", "stats", "metrics", "ping", "reload", "shutdown"})


def index_epoch(path: str | Path) -> int:
    """The on-disk identity of an index: header CRC or manifest payload CRC.

    Cheap enough to poll (a 20-byte read for a store, one JSON parse for a
    manifest) and guaranteed to change whenever the index is rebuilt, so it
    doubles as the reload trigger and the cache epoch.
    """
    if is_manifest(path):
        return manifest_payload_crc(read_manifest(path))
    return header_prefix_crc(path)


def open_serving_service(
    path: str | Path,
    *,
    workers: int = 1,
    executor: str = "threads",
    engine_kwargs: dict | None = None,
) -> "tuple[SearchService | ShardedSearchService, int]":
    """Open the right service for an index path; returns ``(service, epoch)``."""
    path = Path(path)
    if is_manifest(path):
        service = ShardedSearchService(
            path, workers=workers, executor=executor,
            engine_kwargs=engine_kwargs,
        )
        return service, service.manifest_crc
    service = SearchService(
        store=path, workers=workers, executor=executor,
        engine_kwargs=engine_kwargs,
    )
    return service, service.store.header_crc


def _wire_hit(hit: LocatedHit) -> list:
    return [
        hit.sequence_id, hit.t_start, hit.t_end, hit.p_end, hit.score,
        hit.record_index,
    ]


class SearchServer:
    """Serve an index over TCP with micro-batching and hot reload.

    Parameters
    ----------
    index:
        Path to a saved :class:`~repro.store.IndexStore` or a ``REPROSHD``
        shard manifest (sniffed, like ``search-db --index``).
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (read it back from
        :attr:`port` after :meth:`start`).
    max_batch, max_queue:
        Micro-batcher shape — see :class:`~repro.server.batcher.MicroBatcher`;
        both must be at least 1, checked here before any index is opened.
    cache_size:
        Result-LRU capacity in queries (0 disables caching).
    reload_poll:
        Seconds between on-disk fingerprint checks (0 disables hot reload;
        the ``reload`` RPC still works).
    workers, executor, engine_kwargs:
        Forwarded to the underlying service — parallelism *inside* one
        batch.  A request's own ``mode`` field (``exact``, the default, or
        ``verified``, both answered by the exact engine) is part of the
        batch and cache keys, so modes never share a dispatch or a cached
        answer.
    max_inflight:
        Per-connection pipelining cap; the reader stops consuming frames
        while this many responses are pending, pushing backpressure into
        the client's TCP window.
    request_log:
        Optional path to a catalog database; when set, every search
        request appends one structured row (query hash + length, mode,
        params, latency, cache hit, batch size, per-shard timings,
        generation, status) via :class:`~repro.obs.reqlog.RequestLog` —
        the hot path pays one deque enqueue, SQLite happens on a
        background thread.
    metrics_port:
        When set, :meth:`start` also binds a Prometheus scrape endpoint
        (``GET /metrics``) on ``host:metrics_port`` via
        :class:`~repro.obs.exporter.MetricsExporter`; ``0`` picks an
        ephemeral port (read it back from :attr:`metrics_port`).
    """

    def __init__(
        self,
        index: str | Path,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_batch: int = 16,
        max_queue: int = 256,
        cache_size: int = 1024,
        reload_poll: float = 2.0,
        workers: int = 1,
        executor: str = "threads",
        engine_kwargs: dict | None = None,
        max_frame: int = MAX_FRAME_BYTES,
        max_inflight: int = 32,
        request_log: str | Path | None = None,
        metrics_port: int | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        self.index_path = Path(index)
        self.host = host
        self._requested_port = port
        self.max_frame = max_frame
        self.max_inflight = max_inflight
        self.reload_poll = reload_poll
        self._service_kwargs = {
            "workers": workers,
            "executor": executor,
            "engine_kwargs": dict(engine_kwargs or {}),
        }
        self._cache = ResultCache(cache_size)
        self._stats = ServerStats()
        # Built here so a bad batch shape fails before the index opens; the
        # asyncio primitives bind to the serving loop on first use.
        self._pause = asyncio.Lock()
        self._batcher = MicroBatcher(
            self._run_batch,
            max_batch=max_batch,
            max_queue=max_queue,
            pause=self._pause,
            on_batch=self._stats.record_batch,
        )
        self.service: "SearchService | ShardedSearchService | None" = None
        self._epoch: int | None = None
        self.generation = 0
        self._server: asyncio.AbstractServer | None = None
        self._bound_port: int | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._reload_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._stopped_event: asyncio.Event | None = None
        self._stopping = False
        self._request_log_path = (
            None if request_log is None else Path(request_log)
        )
        self._request_log: RequestLog | None = None
        self._metrics_port = metrics_port
        self._exporter: MetricsExporter | None = None
        self._queue_ewma = EWMA(alpha=0.2)
        self._last_reload_error: str | None = None

    # -------------------------------------------------------------- lifecycle
    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0`` after :meth:`start`)."""
        return self._bound_port or self._requested_port

    @property
    def metrics_port(self) -> int | None:
        """The bound scrape port, or ``None`` when the exporter is off."""
        if self._exporter is not None:
            return self._exporter.port
        return self._metrics_port

    @property
    def sharded(self) -> bool:
        return isinstance(self.service, ShardedSearchService)

    async def start(self) -> None:
        """Open the index, bind the socket, start batcher and reload poll."""
        loop = asyncio.get_running_loop()
        self._stopped_event = asyncio.Event()
        # One thread runs batches and reload opens; the event loop stays free.
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self.service, self._epoch = await loop.run_in_executor(
            self._executor, self._open_service
        )
        self.generation = 1
        _GENERATION.set(self.generation)
        _GENERATION_START.set(time.time())
        if self._request_log_path is not None:
            # Built on the executor thread: schema creation is SQLite I/O.
            self._request_log = await loop.run_in_executor(
                self._executor, RequestLog, self._request_log_path
            )
            logger.info("request log -> %s", self._request_log_path)
        self._batcher.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port
        )
        self._bound_port = self._server.sockets[0].getsockname()[1]
        logger.info(
            "serving %s on %s:%d (sharded=%s)",
            self.index_path, self.host, self._bound_port, self.sharded,
        )
        if self._metrics_port is not None:
            self._exporter = MetricsExporter(
                host=self.host, port=self._metrics_port
            )
            self._exporter.start()
        if self.reload_poll > 0:
            self._reload_task = loop.create_task(
                self._reload_loop(), name="repro-serve-reload"
            )

    async def serve_forever(self) -> None:
        """Block until :meth:`stop` completes (signal handler or RPC)."""
        assert self._stopped_event is not None, "call start() first"
        await self._stopped_event.wait()

    async def stop(self) -> None:
        """Graceful shutdown: drain the in-flight batch, then tear down."""
        if self._stopping:
            if self._stopped_event is not None:
                await self._stopped_event.wait()
            return
        self._stopping = True
        if self._reload_task is not None:
            self._reload_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reload_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        await self._batcher.stop()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._request_log is not None:
            self._request_log.close()
            self._request_log = None
        if self._exporter is not None:
            self._exporter.close()
            self._exporter = None
        logger.info("server stopped")
        if self._stopped_event is not None:
            self._stopped_event.set()

    # ------------------------------------------------------------ index state
    def _open_service(self):
        return open_serving_service(self.index_path, **self._service_kwargs)

    def _run_batch(self, queries: list[Query], key: BatchKey):
        """Batch runner handed to the MicroBatcher (awaits an executor thread)."""
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(
            self._executor, self._search_batch_sync, queries, key
        )

    def _search_batch_sync(
        self, queries: list[Query], key: BatchKey
    ) -> "list[tuple[int, int, QueryResult]]":
        """One service call for the whole batch; results tagged with the
        epoch that served them and the size of the batch they rode in.

        Runs under the batcher's pause lock, which the reload task holds
        while swapping the service — so the epoch read here always matches
        the service that computed the results.
        """
        assert self.service is not None and self._epoch is not None
        report = self.service.search_batch(
            queries,
            threshold=key.threshold,
            e_value=key.e_value,
            top_k=key.top_k,
            mode=key.mode,
        )
        return [
            (self._epoch, len(queries), result) for result in report.results
        ]

    async def _reload_loop(self) -> None:
        failing = False
        while True:
            await asyncio.sleep(self.reload_poll)
            try:
                await self.maybe_reload()
            # repro-lint: allow[REP501] -- the poll loop must survive any
            # failure shape: a half-written index (mid-rebuild) can raise
            # store, OS or decode errors; keep serving the old index and
            # try again next tick.
            except Exception as exc:
                self._stats.count("reload_failures")
                _RELOAD_FAILURES_TOTAL.inc()
                self._last_reload_error = f"{type(exc).__name__}: {exc}"
                # One warning per failure streak; repeats go to debug.
                log = logger.debug if failing else logger.warning
                log(
                    "reload poll failed, still serving generation %d "
                    "(index mid-rebuild?): %s",
                    self.generation, self._last_reload_error,
                    exc_info=True,
                )
                failing = True
                continue
            if failing:
                # ``last_reload_error`` names an ongoing failure only; the
                # counter and the warning log keep the history.
                self._last_reload_error = None
                logger.info(
                    "reload poll recovered, serving generation %d",
                    self.generation,
                )
                failing = False

    async def maybe_reload(self) -> bool:
        """Re-open the index iff its on-disk fingerprint changed.

        Drains in-flight work first: the pause lock is only granted between
        batches, so no batch ever spans two index generations.
        """
        assert self._executor is not None
        loop = asyncio.get_running_loop()
        on_disk = await loop.run_in_executor(
            self._executor, index_epoch, self.index_path
        )
        if on_disk == self._epoch:
            return False
        async with self._pause:  # waits for the running batch to finish
            if on_disk == self._epoch:
                # A concurrent caller (poll task vs reload RPC) already
                # swapped this epoch in while we waited for the lock.
                return False
            # repro-lint: allow[REP802] -- the drain-and-swap design opens
            # the new store *under* the pause lock on purpose: batches must
            # not run while generations swap, and the event loop itself
            # stays free (the open happens on the executor, awaited here).
            service, epoch = await loop.run_in_executor(
                self._executor, self._open_service
            )
            self.service = service
            self._epoch = epoch
            self.generation += 1
            _GENERATION.set(self.generation)
            _GENERATION_START.set(time.time())
            self._cache.clear()
            self._stats.count("reloads_total")
            logger.info(
                "hot reload: %s -> generation %d",
                self.index_path, self.generation,
            )
        return True

    # ------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        responses: "asyncio.Queue[asyncio.Future | None]" = asyncio.Queue()
        inflight = asyncio.Semaphore(self.max_inflight)
        writer_task = asyncio.get_running_loop().create_task(
            self._write_responses(writer, responses, inflight)
        )
        try:
            await self._read_requests(reader, responses, inflight)
        finally:
            self._conn_tasks.discard(task)
            responses.put_nowait(None)
            try:
                await writer_task  # flush responses already in flight
            # repro-lint: allow[REP501] -- shutdown may re-cancel this task
            # while it awaits the writer (CancelledError is a BaseException);
            # the writer task must still be cancelled before the socket closes.
            except BaseException:
                writer_task.cancel()
            self._drain_responses(responses)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _read_requests(
        self,
        reader: asyncio.StreamReader,
        responses: "asyncio.Queue[asyncio.Future | None]",
        inflight: asyncio.Semaphore,
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                prefix = await reader.readexactly(PREFIX.size)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # clean EOF or mid-prefix disconnect
            try:
                length = decode_length(prefix, self.max_frame)
                body = await reader.readexactly(length)
                payload = decode_payload(body)
            except (asyncio.IncompleteReadError, ConnectionError):
                return  # disconnect mid-frame
            except ProtocolError as exc:
                # Malformed input from *this* client: answer it and close
                # this connection; the accept loop is untouched.
                self._stats.count("protocol_errors")
                failed: asyncio.Future = loop.create_future()
                failed.set_result({"status": "error", "error": str(exc)})
                await responses.put(failed)
                return
            await inflight.acquire()  # per-connection pipelining cap
            handler = loop.create_task(self._handle_request(payload))
            await responses.put(handler)

    async def _write_responses(
        self,
        writer: asyncio.StreamWriter,
        responses: "asyncio.Queue[asyncio.Future | None]",
        inflight: asyncio.Semaphore,
    ) -> None:
        while True:
            entry = await responses.get()
            if entry is None:
                return
            try:
                payload = await entry
            except asyncio.CancelledError:
                return
            # repro-lint: allow[REP501] -- a handler bug must be reported to
            # the waiting client as an error frame, not kill the writer loop
            # (which would strand every other pipelined response).
            except Exception as exc:
                payload = {"status": "error", "error": str(exc)}
            finally:
                inflight.release()
            try:
                writer.write(encode_frame(payload, self.max_frame))
                await writer.drain()
            except (ConnectionError, RuntimeError):
                return  # client vanished mid-response; drop the rest
            except ProtocolError:
                # A response larger than the frame cap: tell the client
                # to narrow the request instead of silently dropping it.
                writer.write(
                    encode_frame(
                        {
                            "status": "error",
                            "error": "response exceeds the frame size limit; "
                            "lower the batch size or hit count",
                        },
                        self.max_frame,
                    )
                )
                with contextlib.suppress(ConnectionError, RuntimeError):
                    await writer.drain()

    def _drain_responses(
        self, responses: "asyncio.Queue[asyncio.Future | None]"
    ) -> None:
        """Cancel handlers whose responses can no longer be delivered."""
        while True:
            try:
                entry = responses.get_nowait()
            except asyncio.QueueEmpty:
                return
            if entry is not None:
                entry.cancel()

    # --------------------------------------------------------------- requests
    def routing_signals(self) -> dict:
        """Queue pressure and per-mode latency quantiles, as one block.

        Embedded in ``stats`` and ``metrics`` responses, and drawn by
        ``repro top``: the batcher's live depth, its EWMA as sampled at
        each search request, and p50/p90/p99 of served latency per mode
        from ``repro_server_request_seconds`` (bucket upper bounds).  It
        is a report for operators; nothing in the server acts on it.
        """
        quantiles = {}
        for labels, child in _REQUEST_SECONDS.series():
            if child.count:
                quantiles[labels["mode"]] = {
                    "p50": child.quantile(0.5),
                    "p90": child.quantile(0.9),
                    "p99": child.quantile(0.99),
                }
        return {
            "queue_depth": self._batcher.depth,
            "ewma_queue_depth": round(self._queue_ewma.value, 4),
            "latency_quantiles": quantiles,
        }

    async def _handle_request(self, payload: dict) -> dict:
        op = payload.get("op")
        _REQUESTS_TOTAL.labels(op=op if op in _KNOWN_OPS else "unknown").inc()
        _INFLIGHT.inc()
        try:
            return await self._dispatch_request(op, payload)
        finally:
            _INFLIGHT.dec()

    async def _dispatch_request(self, op: object, payload: dict) -> dict:
        self._stats.count("requests_total")
        if op == "search":
            return await self._handle_search(payload)
        if op == "stats":
            body = self._stats.snapshot(
                queue_depth=self._batcher.depth, generation=self.generation
            )
            body["max_batch"] = self._batcher.max_batch
            body["max_queue"] = self._batcher.max_queue
            body["last_reload_error"] = self._last_reload_error
            body["generation_age_s"] = time.time() - _GENERATION_START.value
            body["cache_size"] = len(self._cache)
            body["routing"] = self.routing_signals()
            if self._request_log is not None:
                body["request_log"] = self._request_log.counters()
            return {
                "status": "ok",
                "stats": body,
                "index": str(self.index_path),
                "sharded": self.sharded,
                "mode": "exact",
                "engine": AlaeBackend.info.name,
            }
        if op == "metrics":
            registry = default_registry()
            return {
                "status": "ok",
                "enabled": metrics_enabled(),
                "generation": self.generation,
                "families": registry.collect(),
                "routing": self.routing_signals(),
            }
        if op == "ping":
            return {"status": "ok", "pong": True, "generation": self.generation}
        if op == "reload":
            try:
                reloaded = await self.maybe_reload()
            except ReproError as exc:
                return {"status": "error", "error": str(exc)}
            return {
                "status": "ok",
                "reloaded": reloaded,
                "generation": self.generation,
            }
        if op == "shutdown":
            loop = asyncio.get_running_loop()
            # Respond first, stop a beat later so the frame flushes.
            loop.call_later(
                0.05, lambda: loop.create_task(self.stop())
            )
            return {"status": "ok", "stopping": True}
        return {"status": "error", "error": f"unknown op {op!r}"}

    def _parse_search(self, payload: dict) -> tuple[list[Query], BatchKey]:
        raw = payload.get("queries")
        if not isinstance(raw, list) or not raw:
            raise ServiceError("'queries' must be a non-empty list")
        items: list = []
        for entry in raw:
            if isinstance(entry, list) and len(entry) == 2:
                items.append((entry[0], entry[1]))
            elif isinstance(entry, str):
                items.append(entry)
            else:
                raise ServiceError(
                    "each query must be a sequence string or an "
                    "[id, sequence] pair"
                )
        queries = normalize_queries(items)
        threshold = payload.get("threshold")
        e_value = payload.get("e_value")
        top_k = payload.get("top_k")
        # bool is a subclass of int: reject it explicitly so a client bug
        # like {"threshold": true} cannot be served as an H=1 search.
        if threshold is not None and (
            isinstance(threshold, bool) or not isinstance(threshold, int)
        ):
            raise ServiceError("'threshold' must be an integer")
        if e_value is not None and (
            isinstance(e_value, bool) or not isinstance(e_value, (int, float))
        ):
            raise ServiceError("'e_value' must be a number")
        if top_k is not None and (
            isinstance(top_k, bool) or not isinstance(top_k, int) or top_k < 1
        ):
            raise ServiceError("'top_k' must be a positive integer")
        if threshold is not None and e_value is not None:
            raise ServiceError("pass either 'threshold' or 'e_value', not both")
        mode = payload.get("mode")
        if mode is not None and not isinstance(mode, str):
            raise ServiceError("'mode' must be a string")
        mode = check_mode(mode)
        return queries, BatchKey(
            threshold=threshold,
            e_value=None if e_value is None else float(e_value),
            top_k=top_k,
            mode=mode,
        )

    def _log_search(
        self,
        queries: list[Query],
        key: BatchKey,
        *,
        latency: float,
        status: str,
        per_query: "list[tuple[bool, int, dict]] | None" = None,
    ) -> None:
        """Append one request-log row per query (no-op when logging is off).

        ``per_query`` carries ``(cached, batch_size, spans)`` for served
        requests; rejected/failed requests log with empty telemetry so the
        traffic mix still counts them.
        """
        if self._request_log is None:
            return
        now = time.time()
        for pos, query in enumerate(queries):
            cached, batch_size, spans = (
                per_query[pos] if per_query is not None else (False, 0, {})
            )
            shards = shard_seconds(spans)
            self._request_log.record(
                (
                    now,
                    query_hash(query.sequence),
                    len(query.sequence),
                    key.mode,
                    key.threshold,
                    key.e_value,
                    key.top_k,
                    latency,
                    int(cached),
                    batch_size,
                    json.dumps([round(s, 6) for s in shards])
                    if shards
                    else None,
                    self.generation,
                    status,
                )
            )

    async def _handle_search(self, payload: dict) -> dict:
        loop = asyncio.get_running_loop()
        arrived = loop.time()
        try:
            queries, key = self._parse_search(payload)
        except ReproError as exc:
            return {"status": "error", "error": str(exc)}
        trace = bool(payload.get("trace"))
        _QUEUE_EWMA.set(self._queue_ewma.update(self._batcher.depth))
        epoch = self._epoch
        slots: list = []  # per query: ("hit", QueryResult) | ("miss", Future, key)
        misses = 0
        for query in queries:
            cache_key = ResultCache.key(
                query.sequence, key.threshold, key.e_value, key.top_k, epoch,
                key.mode,
            )
            cached = self._cache.get(cache_key)
            if cached is not None:
                slots.append(("hit", cached.to_result(query.id)))
            else:
                slots.append(("miss", query, cache_key))
                misses += 1
        # Admit the uncached remainder all-or-nothing (no await between the
        # check and the submits, so the capacity test cannot race).  Cache
        # counters only move for admitted requests, so cache_hit_rate
        # describes served traffic even under sustained overload.
        if self._batcher.depth + misses > self._batcher.max_queue:
            self._stats.count("overloaded_total")
            _OVERLOADED_TOTAL.inc()
            self._log_search(
                queries, key,
                latency=loop.time() - arrived, status="overloaded",
            )
            return {
                "status": "overloaded",
                "error": (
                    f"request queue is full ({self._batcher.depth} queries "
                    f"pending, limit {self._batcher.max_queue})"
                ),
                "queue_depth": self._batcher.depth,
            }
        entries: list = []
        try:
            for slot in slots:
                if slot[0] == "hit":
                    entries.append(slot)
                else:
                    _tag, query, cache_key = slot
                    entries.append(
                        ("miss", query, cache_key, self._batcher.submit(query, key))
                    )
        except (Overloaded, ReproError) as exc:
            status = "overloaded" if isinstance(exc, Overloaded) else "error"
            if status == "overloaded":
                self._stats.count("overloaded_total")
                _OVERLOADED_TOTAL.inc()
            self._log_search(
                queries, key, latency=loop.time() - arrived, status=status
            )
            return {"status": status, "error": str(exc)}
        self._stats.count("cache_hits", len(queries) - misses)
        self._stats.count("cache_misses", misses)
        # Await every submitted future before deciding the response: a
        # failed batch must not leave sibling futures unretrieved (their
        # results would be dropped uncached and asyncio would log
        # "exception was never retrieved" on GC).
        outcomes = await asyncio.gather(
            *(entry[3] for entry in entries if entry[0] == "miss"),
            return_exceptions=True,
        )
        failure: BaseException | None = None
        fresh = iter(outcomes)
        results: list[dict] = []
        per_query: list[tuple[bool, int, dict]] = []
        for entry in entries:
            if entry[0] == "hit":
                result: QueryResult = entry[1]
                cached_flag = True
                batch_size = 0
            else:
                _tag, query, cache_key, _future = entry
                outcome = next(fresh)
                if isinstance(outcome, BaseException):
                    if isinstance(outcome, (Overloaded, ReproError)):
                        failure = failure or outcome
                        continue
                    raise outcome  # cancellation or a handler bug
                served_epoch, batch_size, result = outcome
                # The result came from the generation that ran the batch;
                # if a reload slipped in between admit and run, key the
                # entry under the epoch that actually served it — the old
                # key could never be looked up again.
                if served_epoch != epoch:
                    cache_key = ResultCache.key(
                        query.sequence, key.threshold, key.e_value,
                        key.top_k, served_epoch, key.mode,
                    )
                self._cache.put(cache_key, CachedResult.from_result(result))
                cached_flag = False
                self._stats.record_spans(result.stats.spans)
            per_query.append((cached_flag, batch_size, result.stats.spans))
            body = {
                "id": result.query_id,
                "threshold": result.threshold,
                "hits": [_wire_hit(hit) for hit in result.hits],
                "raw_hits": result.raw_hits,
                "dropped": result.dropped_boundary,
                "cached": cached_flag,
            }
            if trace:
                body["spans"] = {
                    name: round(seconds, 6)
                    for name, seconds in sorted(result.stats.spans.items())
                }
            results.append(body)
        elapsed = loop.time() - arrived
        if failure is not None:
            self._log_search(queries, key, latency=elapsed, status="error")
            return {"status": "error", "error": str(failure)}
        request_seconds = _REQUEST_SECONDS.labels(mode=key.mode)
        for _ in queries:
            self._stats.latency.observe(elapsed)
            request_seconds.observe(elapsed)
        self._stats.qps.mark(len(queries))
        self._stats.count("queries_total", len(queries))
        self._log_search(
            queries, key, latency=elapsed, status="ok", per_query=per_query
        )
        return {
            "status": "ok",
            "engine": AlaeBackend.info.name,
            "mode": key.mode,
            "generation": self.generation,
            "results": results,
        }


class ServerThread:
    """Run a :class:`SearchServer` on a dedicated event-loop thread.

    The context-manager form is the test/benchmark workhorse::

        with ServerThread(SearchServer("db.idx", port=0)) as handle:
            client = ServerClient(port=handle.port)
            ...
    """

    def __init__(self, server: SearchServer, *, start_timeout: float = 60.0):
        self.server = server
        self._start_timeout = start_timeout
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(self._start_timeout):
            raise ReproError("server did not start in time")
        # repro-lint: allow[REP803] -- _startup_error is published by the
        # server thread strictly before _ready.set(); the Event wait above
        # is the happens-before edge, so no lock is needed here.
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        # repro-lint: allow[REP803] -- _loop is written once before
        # _ready.set(); stop() only runs after start() returned, which
        # waited on that Event — handshake, not shared mutable state.
        self._loop = loop
        try:
            loop.run_until_complete(self.server.start())
        # repro-lint: allow[REP501] -- any startup failure (including
        # KeyboardInterrupt/SystemExit) must cross the thread boundary to
        # start(), which re-raises it on the caller's thread.
        except BaseException as exc:
            self._startup_error = exc
            self._ready.set()
            loop.close()
            return
        self._ready.set()
        try:
            loop.run_until_complete(self.server.serve_forever())
        finally:
            loop.close()

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread is None or self._loop is None:
            return
        if self._thread.is_alive() and not self._loop.is_closed():
            with contextlib.suppress(RuntimeError):
                future = asyncio.run_coroutine_threadsafe(
                    self.server.stop(), self._loop
                )
                with contextlib.suppress(Exception):
                    future.result(timeout)
        self._thread.join(timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
