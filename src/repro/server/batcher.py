"""Micro-batching with admission control for the serving tier.

Concurrent in-flight ``search`` requests — from any number of connections —
land as individual :class:`PendingQuery` items on one bounded queue.  A
single dispatcher task assembles them into batches and hands each batch to
a blocking runner (one ``SearchService.search_batch`` call) on an executor
thread:

* the dispatcher runs a batch as soon as the lane is free: it takes the
  head query plus the queries queued right behind it under the same
  :class:`BatchKey`, up to ``max_batch``, and never waits on a timer — a
  lone query on an idle server runs at once, and batches form from the
  queries that arrive while the previous batch runs;
* only queries with the same :class:`BatchKey` (threshold / e-value /
  top-k / search mode) can share a ``search_batch`` call; a query with a
  different key seeds the *next* batch instead of being reordered behind
  later arrivals;
* admission control is a hard cap on queued-plus-running queries:
  :meth:`MicroBatcher.submit` raises :class:`Overloaded` instead of
  queueing the excess, so clients get an instant ``overloaded`` response
  while the server keeps bounded memory and bounded worst-case latency.

The dispatcher executes at most one batch at a time (the engine's own
worker pool parallelises *inside* the batch), and it takes ``pause`` — an
``asyncio.Lock`` shared with the hot-reload task — around every batch, so
"drain in-flight work, then swap the index" is just "acquire the lock".
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Awaitable, Callable

from repro.errors import ReproError
from repro.obs.metrics import SIZE_BUCKETS, Counter, Gauge, Histogram
from repro.service import Query, QueryResult

_ADMISSION_WAIT_SECONDS = Histogram(
    "repro_batcher_admission_wait_seconds",
    "Per-query wait between admission and batch dispatch",
)
_BATCH_SIZE = Histogram(
    "repro_batcher_batch_size",
    "Queries riding in each engine dispatch",
    buckets=SIZE_BUCKETS,
)
_QUEUE_DEPTH = Gauge(
    "repro_batcher_queue_depth",
    "Admitted queries not yet resolved (queued + running batch)",
)
_SUBMITTED_TOTAL = Counter(
    "repro_batcher_submitted_total", "Queries admitted to the batch queue"
)


class Overloaded(ReproError):
    """The request queue is full; the query was rejected, not enqueued."""


@dataclass(frozen=True)
class BatchKey:
    """Search parameters that must match for queries to share one batch.

    ``mode`` is part of the key so an ``exact`` query never rides in a
    ``verified`` batch (and vice versa): each ``search_batch`` dispatch
    runs, and is accounted under, one mode.
    """

    threshold: int | None
    e_value: float | None
    top_k: int | None
    mode: str = "exact"


@dataclass
class PendingQuery:
    """One admitted query waiting for (or riding in) a batch."""

    query: Query
    key: BatchKey
    future: asyncio.Future
    submitted: float = field(default_factory=perf_counter)


#: Runner signature: executes one batch *off* the event loop and returns
#: per-query results in submission order.
BatchRunner = Callable[[list[Query], BatchKey], Awaitable[list[QueryResult]]]


class MicroBatcher:
    """Coalesce admitted queries into batches and run them serially.

    ``on_batch`` hears of every dispatched batch, failed ones included:
    it receives each member's admission wait in seconds (the list's length
    is the batch size), the same observations the batcher's histograms
    record.
    """

    def __init__(
        self,
        runner: BatchRunner,
        *,
        max_batch: int = 16,
        max_queue: int = 256,
        pause: asyncio.Lock | None = None,
        on_batch: Callable[[list[float]], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._runner = runner
        self.max_batch = max_batch
        self.max_queue = max_queue
        self.pause = pause if pause is not None else asyncio.Lock()
        self._on_batch = on_batch
        self._queue: deque[PendingQuery] = deque()
        self._arrived = asyncio.Event()
        self._pending = 0  # admitted and not yet resolved
        self._task: asyncio.Task | None = None
        self._stopping = False

    @property
    def depth(self) -> int:
        """Admitted queries not yet resolved (queued + in the running batch)."""
        return self._pending

    def start(self) -> None:
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(
                self._dispatch_loop(), name="repro-serve-dispatch"
            )

    async def stop(self) -> None:
        """Refuse new work, run every query already admitted, then return."""
        self._stopping = True
        if self._task is None:
            return
        self._arrived.set()  # wake the dispatcher if it is idle
        await self._task
        self._task = None

    def submit(self, query: Query, key: BatchKey) -> asyncio.Future:
        """Admit one query, or raise :class:`Overloaded` / shutting-down."""
        if self._stopping:
            raise ReproError("server is shutting down")
        if self._pending >= self.max_queue:
            raise Overloaded(
                f"request queue is full ({self._pending} queries pending, "
                f"limit {self.max_queue})"
            )
        future = asyncio.get_running_loop().create_future()
        self._queue.append(PendingQuery(query=query, key=key, future=future))
        self._pending += 1
        _SUBMITTED_TOTAL.inc()
        _QUEUE_DEPTH.set(self._pending)
        self._arrived.set()
        return future

    # ---------------------------------------------------------- dispatching
    async def _dispatch_loop(self) -> None:
        while self._queue or not self._stopping:
            if not self._queue:
                self._arrived.clear()
                await self._arrived.wait()
                continue
            async with self.pause:  # a reload in progress finishes first
                await self._run_batch(self._take_batch())

    def _take_batch(self) -> list[PendingQuery]:
        """The head query plus those queued right behind it under its key."""
        batch = [self._queue.popleft()]
        while (
            self._queue
            and len(batch) < self.max_batch
            and self._queue[0].key == batch[0].key
        ):
            batch.append(self._queue.popleft())
        return batch

    async def _run_batch(self, batch: list[PendingQuery]) -> None:
        run_start = perf_counter()
        waits = [max(0.0, run_start - item.submitted) for item in batch]
        for wait in waits:
            _ADMISSION_WAIT_SECONDS.observe(wait)
        _BATCH_SIZE.observe(len(batch))
        if self._on_batch is not None:
            self._on_batch(waits)
        try:
            results = await self._runner(
                [item.query for item in batch], batch[0].key
            )
            if len(results) != len(batch):
                raise ReproError(
                    f"batch runner returned {len(results)} results for "
                    f"{len(batch)} queries"
                )
        # repro-lint: allow[REP501] -- whatever the engine/service threw
        # must fail every waiting future; a narrowed catch would leave
        # clients of this batch hanging forever on an unforeseen error.
        except Exception as exc:
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(exc)
        else:
            for item, result in zip(batch, results):
                if not item.future.done():  # client may have gone away
                    item.future.set_result(result)
        self._pending -= len(batch)
        _QUEUE_DEPTH.set(self._pending)
