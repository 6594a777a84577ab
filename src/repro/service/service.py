"""Batch search serving over a sequence database (the Sec. 2.2 workload).

The paper frames local alignment as a *database* operation: all sequences
are concatenated into one text ``T`` and queries run against ``T``
(:class:`repro.io.database.SequenceDatabase`).  :class:`SearchService` is
the serving layer on top of that framing:

* it owns **one** engine (ALAE by default) whose indexes — the reversed-text
  CSA and the dominate index — are built once and shared by every query, or
  opened prebuilt from a persistent :class:`~repro.store.IndexStore`
  (``SearchService(store=...)`` / :meth:`SearchService.from_store`) so the
  service cold-starts without any index construction;
* it accepts **batches** of queries (strings, FASTA records, or a FASTA
  file) and runs them across a worker pool: threads by default, a
  fork-based :class:`~concurrent.futures.ProcessPoolExecutor` where each
  worker inherits the already-built engine via copy-on-write fork instead
  of rebuilding or pickling it, or — for store-backed services — a
  spawn-based pool whose workers *reopen the store by path* (mmap, no fork
  needed, works on any platform);
* every raw hit is attributed back to ``(sequence_id, local positions)``
  with :meth:`SequenceDatabase.locate_hit`, and hits spanning a
  concatenation boundary — artifacts of the concatenation, not alignments
  of any database sequence — are dropped and counted;
* per-query :class:`~repro.align.types.SearchStats` are aggregated into a
  batch-level accounting via :meth:`SearchStats.aggregate`.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.align.bwt_sw import BwtSw
from repro.align.types import Hit, SearchStats
from repro.alphabet import DNA, Alphabet
from repro.blast import Blast
from repro.core.alae import ALAE
from repro.engine import BaselineBackend, backends_for, check_mode
from repro.errors import ReproError
from repro.io.database import LocatedHit, SequenceDatabase
from repro.io.fasta import FastaRecord, parse_fasta_file
from repro.obs.metrics import Counter, Histogram
from repro.obs.spans import SPAN_ENGINE, SPAN_LOCATE, add_span
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme
from repro.store import IndexStore, default_store_cache
from repro.store.format import header_prefix_crc


class ServiceError(ReproError):
    """Invalid service configuration or batch input."""


# Per-query serving accounting by mode; the engine/locate histograms reuse
# the spans' perf_counter measurements, so metrics add no extra clock reads
# to the hot path.
_QUERIES_TOTAL = Counter(
    "repro_service_queries_total", "Queries answered by the service layer",
    ("mode",),
)
_ENGINE_SECONDS = Histogram(
    "repro_service_engine_seconds",
    "Engine (accumulator) time per query", ("mode",),
)
_LOCATE_SECONDS = Histogram(
    "repro_service_locate_seconds",
    "Hit location/recovery time per query", ("mode",),
)


def _cells_with_starts(
    text: str,
    query: str,
    scheme: ScoringScheme,
    wanted: "dict[int, list[tuple[object, int]]]",
) -> "dict[object, tuple[int, int]]":
    """Local-alignment ``(score, t_start)`` for chosen ``(t_end, p_end)`` cells.

    One clamped affine sweep — the same recurrences and prefix-max scan as
    :func:`smith_waterman_all_hits` (so scores agree with the oracle by
    construction) — additionally carrying, per cell, the 1-based text start
    of the positive-prefix alignment achieving that score.  ``wanted`` maps
    a query row ``p_end`` to ``(key, t_end)`` requests; the result maps each
    key to that cell's ``(score, t_start)`` (score 0: nothing ends there).

    Cost is one O(n * m) vectorised pass total, regardless of how many
    cells are requested — this is what keeps boundary-recheck batches with
    tens of thousands of shadowed cells serviceable.
    """
    n, m = len(text), len(query)
    out: dict[object, tuple[int, int]] = {}
    if n == 0 or m == 0:
        for requests in wanted.values():
            for key, _j in requests:
                out[key] = (0, 0)
        return out
    sa, sb, ss, sg = scheme.sa, scheme.sb, scheme.ss, scheme.sg
    go = sg + ss
    t_codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    idx1 = np.arange(1, n + 1, dtype=np.int64)
    karg_base = np.arange(n, dtype=np.int64)
    h_prev = np.zeros(n + 1, dtype=np.int64)
    s_prev = np.zeros(n + 1, dtype=np.int64)  # start per H cell (0 = none)
    f_prev = np.full(n + 1, _NEG, dtype=np.int64)
    sf_prev = np.zeros(n + 1, dtype=np.int64)
    last_row = max(wanted) if wanted else 0
    for i in range(1, min(m, last_row) + 1):
        delta = np.where(t_codes == ord(query[i - 1]), sa, sb).astype(np.int64)
        # Vertical gaps, carrying the start of the chosen predecessor.
        f_from_f = f_prev + ss
        f_from_h = h_prev + go
        f_row = np.maximum(f_from_f, f_from_h)
        sf_row = np.where(f_from_f >= f_from_h, sf_prev, s_prev)
        # Diagonal: a zero H cell restarts the alignment at this column.
        d_val = h_prev[:-1] + delta
        d_start = np.where(h_prev[:-1] > 0, s_prev[:-1], idx1)
        a_row = np.empty(n + 1, dtype=np.int64)
        a_row[0] = _NEG
        a_row[1:] = np.maximum(d_val, f_row[1:])
        sa_row = np.empty(n + 1, dtype=np.int64)
        sa_row[0] = 0
        sa_row[1:] = np.where(d_val >= f_row[1:], d_start, sf_row[1:])
        # Horizontal gaps via the prefix-max scan; the running argmax
        # (earliest on ties) says which a-cell each gap opened from.
        b = a_row[1:] - ss * idx1
        cum = np.maximum.accumulate(b)
        strict = np.empty(n, dtype=bool)
        strict[0] = True
        strict[1:] = b[1:] > cum[:-1]
        karg = np.maximum.accumulate(np.where(strict, karg_base, 0))
        e_row = np.full(n + 1, _NEG, dtype=np.int64)
        e_row[2:] = cum[:-1] + go - ss + ss * idx1[1:]
        se_row = np.zeros(n + 1, dtype=np.int64)
        se_row[2:] = sa_row[1:][karg[: n - 1]]
        h_row = np.maximum(np.maximum(a_row, e_row), 0)
        h_row[0] = 0
        s_row = np.where(a_row >= e_row, sa_row, se_row)
        s_row = np.where(h_row > 0, s_row, 0)
        if i in wanted:
            for key, j in wanted[i]:
                out[key] = (int(h_row[j]), int(s_row[j]))
        h_prev, f_prev, s_prev, sf_prev = h_row, f_row, s_row, sf_row
    return out


#: Engine registry shared with the CLI.
SERVICE_ENGINES = {"alae": ALAE, "bwtsw": BwtSw, "blast": Blast}


_NEG = np.int64(-(10**9))


@dataclass(frozen=True)
class Query:
    """One named query sequence of a batch."""

    id: str
    sequence: str


def normalize_queries(queries: Iterable) -> list[Query]:
    """Coerce a batch input into named :class:`Query` objects.

    Shared by every serving front (:class:`SearchService`, the sharded
    service): accepts a bare sequence string, a :class:`Query`, a
    :class:`FastaRecord`, an ``(id, sequence)`` tuple, or any iterable of
    those.
    """
    if isinstance(queries, (str, Query, FastaRecord)):
        # A bare sequence is one query, not an iterable of characters.
        queries = [queries]
    normalized: list[Query] = []
    for i, item in enumerate(queries, start=1):
        if isinstance(item, Query):
            normalized.append(item)
        elif isinstance(item, FastaRecord):
            normalized.append(Query(item.identifier, item.sequence))
        elif isinstance(item, str):
            normalized.append(Query(f"q{i}", item.upper()))
        elif isinstance(item, tuple) and len(item) == 2:
            normalized.append(Query(str(item[0]), str(item[1]).upper()))
        else:
            raise ServiceError(
                f"query #{i} must be a str, (id, seq) tuple, Query or "
                f"FastaRecord, got {type(item).__name__}"
            )
    if not normalized:
        raise ServiceError("batch needs at least one query")
    return normalized


@dataclass
class QueryResult:
    """Attributed hits of one query against the whole database.

    ``raw_hits`` counts hits on the concatenated text before attribution;
    ``dropped_boundary`` of them straddled a concatenation boundary with no
    within-record alignment at the same cell still clearing the threshold
    (shadowed cells are rechecked and recovered), so
    ``len(hits) == raw_hits - dropped_boundary``.
    """

    query_id: str
    hits: list[LocatedHit]
    stats: SearchStats
    threshold: int
    raw_hits: int
    dropped_boundary: int

    def best(self) -> LocatedHit | None:
        """Highest-scoring attributed hit (ties: first in position order)."""
        return max(self.hits, key=lambda h: h.score, default=None)


@dataclass
class BatchReport:
    """All per-query results of one batch plus aggregate accounting."""

    results: list[QueryResult]
    stats: SearchStats
    wall_seconds: float
    workers: int
    executor: str

    @property
    def total_hits(self) -> int:
        return sum(len(r.hits) for r in self.results)

    @property
    def total_dropped(self) -> int:
        return sum(r.dropped_boundary for r in self.results)

    @property
    def queries_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return len(self.results) / self.wall_seconds


# One service per process may run a fork-based batch at a time; workers
# inherit this module global through the fork instead of unpickling the
# engine (whose CSA alone can be tens of megabytes).  The lock makes the
# claim/release atomic when batches are launched from concurrent threads.
_FORK_SERVICE: "SearchService | None" = None
_FORK_LOCK = threading.Lock()


def _fork_search(
    task: tuple[Query, int | None, float | None, str],
) -> QueryResult:
    query, threshold, e_value, mode = task
    assert _FORK_SERVICE is not None  # set by the parent before forking
    return _FORK_SERVICE._search_one(query, threshold, e_value, mode)


# Spawn workers carry no parent memory: the pool initializer reopens the
# parent's saved index store by path (mmap, via the process-wide store
# cache, so several pools in one worker process share one engine).  The
# parent's header CRC rides along so a store rebuilt in place between the
# parent's open and the worker's is a hard error, never mixed results.
_SPAWN_SERVICE: "SearchService | None" = None


def _spawn_init(
    store_path: str, engine_kwargs: dict, expected_header_crc: int | None
) -> None:
    global _SPAWN_SERVICE
    _SPAWN_SERVICE = SearchService(
        store=store_path, engine_kwargs=engine_kwargs
    )
    worker_crc = _SPAWN_SERVICE.store.header_crc
    if expected_header_crc is not None and worker_crc != expected_header_crc:
        raise ServiceError(
            f"index store {store_path} changed on disk since the parent "
            f"opened it (header CRC {worker_crc:#010x} != expected "
            f"{expected_header_crc:#010x}); rebuild the service from the "
            f"new store"
        )


def _spawn_search(
    task: tuple[Query, int | None, float | None, str],
) -> QueryResult:
    query, threshold, e_value, mode = task
    assert _SPAWN_SERVICE is not None  # set by the pool initializer
    return _SPAWN_SERVICE._search_one(query, threshold, e_value, mode)


class SearchService:
    """A shared-engine, multi-query search service over a sequence database.

    Parameters
    ----------
    database:
        A :class:`SequenceDatabase`, a list of :class:`FastaRecord`, or a
        FASTA path.  Mutually exclusive with ``store``.
    store:
        A prebuilt :class:`~repro.store.IndexStore` (or a path to one, built
        with ``repro index build``): the database, alphabet, scheme and all
        indexes are taken from the store instead of being built here.
        Explicitly passed ``alphabet`` / ``scheme`` must then match the
        store's fingerprint.
    engine:
        Engine name (``alae`` / ``bwtsw`` / ``blast``) or an engine *class*
        with the ``(text, alphabet=..., scheme=...)`` constructor protocol.
        Store-backed services serve the ``alae`` engine (the store holds its
        indexes).  Every serving call takes a per-call ``mode=``: ``exact``
        (the default) or ``verified``, both answered by the one ALAE
        engine (:func:`~repro.engine.check_mode` refuses ``fast``).  A
        non-default engine serves ``exact`` only.
    workers, executor:
        Default worker-pool shape for :meth:`search_batch`: ``threads``
        shares the engine directly (simple, but pure-Python searches
        serialise on the GIL), ``processes`` forks the warmed engine into
        ``workers`` children for true CPU parallelism (falling back to
        ``spawn`` or ``threads`` where fork is unavailable), and ``spawn``
        starts fresh workers that reopen the attached store by path —
        available only for services opened from a *saved* store.
    engine_kwargs:
        Extra keyword arguments forwarded to the engine constructor (for
        store-backed services: the engine's ``use_*`` toggles).
    """

    def __init__(
        self,
        database: SequenceDatabase | Sequence[FastaRecord] | str | Path | None = None,
        *,
        store: "IndexStore | str | Path | None" = None,
        engine: str | type = "alae",
        alphabet: Alphabet | None = None,
        scheme: ScoringScheme | None = None,
        workers: int = 1,
        executor: str = "threads",
        engine_kwargs: dict | None = None,
    ) -> None:
        self._engine_kwargs = dict(engine_kwargs or {})
        if isinstance(engine, str):
            if engine not in SERVICE_ENGINES:
                raise ServiceError(
                    f"unknown engine {engine!r}; expected one of "
                    f"{sorted(SERVICE_ENGINES)}"
                )
            engine = SERVICE_ENGINES[engine]
        if store is not None:
            if database is not None:
                raise ServiceError(
                    "pass either a database or a store, not both"
                )
            if engine is not ALAE:
                raise ServiceError(
                    "a prebuilt store holds ALAE indexes; other engines "
                    "need a database to build from"
                )
            if isinstance(store, (str, Path)):
                store = default_store_cache().get(store)
            if alphabet is not None:
                store.check_alphabet(alphabet)
            if scheme is not None:
                store.check_scheme(scheme)
            self.store = store
            self._store_path = store.path
            self.database = store.database()
            self.alphabet = store.alphabet
            self.scheme = store.scheme
            self.workers = self._check_workers(workers)
            self.executor = self._check_executor(executor)
            self.engine = store.engine(**self._engine_kwargs)
        else:
            if database is None:
                raise ServiceError("pass a database or a store")
            database = SequenceDatabase.coerce(database)
            self.store = None
            self._store_path = None
            self.database = database
            self.alphabet = DNA if alphabet is None else alphabet
            self.scheme = DEFAULT_SCHEME if scheme is None else scheme
            self.workers = self._check_workers(workers)
            self.executor = self._check_executor(executor)
            self.engine = engine(
                database.text,
                alphabet=self.alphabet,
                scheme=self.scheme,
                **self._engine_kwargs,
            )
        # Every mode's backend wraps the one engine; other engines serve
        # exact only.
        self._backends = (
            backends_for(self.engine)
            if isinstance(self.engine, ALAE)
            else {"exact": BaselineBackend(self.engine)}
        )
        # Build lazily-constructed engine caches up front so concurrent
        # threads never race on their first population.
        if isinstance(self.engine, ALAE) and self.engine.use_domination:
            self.engine.domination_index()

    @classmethod
    def from_store(
        cls, path: "IndexStore | str | Path", **kwargs
    ) -> "SearchService":
        """Open a service over a prebuilt index store (no index construction)."""
        return cls(store=path, **kwargs)

    # ------------------------------------------------------------- plumbing
    @staticmethod
    def _check_workers(workers: int) -> int:
        if workers < 1:
            raise ServiceError(f"workers must be >= 1, got {workers}")
        return workers

    def _check_executor(self, executor: str) -> str:
        """Validate an executor choice, resolving platform fallbacks.

        ``processes`` prefers fork (workers inherit the warmed engine
        copy-on-write); on platforms without fork it becomes ``spawn`` when
        a saved store is attached (workers reopen it by path) and otherwise
        degrades to ``threads`` with a warning instead of raising.
        """
        if executor not in ("threads", "processes", "spawn"):
            raise ServiceError(
                f"executor must be 'threads', 'processes' or 'spawn', "
                f"got {executor!r}"
            )
        methods = multiprocessing.get_all_start_methods()
        if executor == "spawn":
            if self._store_path is None:
                raise ServiceError(
                    "the 'spawn' executor needs a service opened from a "
                    "saved index store (workers reopen it by path); build "
                    "one with IndexStore.build(...).save() or "
                    "`repro index build`"
                )
            if "spawn" not in methods:
                raise ServiceError(
                    "the 'spawn' start method is unavailable on this platform"
                )
            return executor
        if executor == "processes" and "fork" not in methods:
            if self._store_path is not None and "spawn" in methods:
                return "spawn"
            warnings.warn(
                "the 'processes' executor needs the fork start method "
                "(unavailable on this platform) and no saved index store "
                "is attached for spawn workers; degrading to 'threads'",
                RuntimeWarning,
                stacklevel=3,
            )
            return "threads"
        return executor

    def _normalize_queries(self, queries: Iterable) -> list[Query]:
        return normalize_queries(queries)

    def _resolve_mode(self, mode: str | None) -> str:
        """Per-call mode (``None``: ``exact``), checked against this service."""
        mode = check_mode(mode)
        if mode not in self._backends:
            raise ServiceError(
                f"mode {mode!r} needs the default ALAE service; this one "
                f"was constructed with an explicit engine and serves "
                f"'exact' only"
            )
        return mode

    def backend(self, mode: str | None = None) -> object:
        """The :class:`~repro.engine.SearchBackend` serving ``mode``."""
        return self._backends[self._resolve_mode(mode)]

    def _search_one(
        self,
        query: Query,
        threshold: int | None,
        e_value: float | None,
        mode: str | None = None,
    ) -> QueryResult:
        backend = self.backend(mode)
        t0 = perf_counter()
        result = backend.search(
            query.sequence, threshold=threshold, e_value=e_value
        )
        engine_seconds = perf_counter() - t0
        add_span(result.stats.spans, SPAN_ENGINE, engine_seconds)
        raw = result.hits.hits()
        t0 = perf_counter()
        located: list[tuple[int, LocatedHit]] = []
        shadowed: dict[int, list[tuple[int, Hit]]] = {}
        for pos, hit in enumerate(raw):
            placed = self.database.locate_hit(hit)
            if placed is not None:
                located.append((pos, placed))
            else:
                idx = self.database.sequence_at(hit.t_end)
                shadowed.setdefault(idx, []).append((pos, hit))
        for idx, items in shadowed.items():
            located.extend(
                self._recover_shadowed(
                    idx, items, query.sequence, result.threshold
                )
            )
        located.sort(key=lambda item: item[0])
        locate_seconds = perf_counter() - t0
        add_span(result.stats.spans, SPAN_LOCATE, locate_seconds)
        served_mode = backend.info.mode
        _QUERIES_TOTAL.labels(mode=served_mode).inc()
        _ENGINE_SECONDS.labels(mode=served_mode).observe(engine_seconds)
        _LOCATE_SECONDS.labels(mode=served_mode).observe(locate_seconds)
        hits = [placed for _pos, placed in located]
        return QueryResult(
            query_id=query.id,
            hits=hits,
            stats=result.stats,
            threshold=result.threshold,
            raw_hits=len(raw),
            dropped_boundary=len(raw) - len(hits),
        )

    def _recover_shadowed(
        self,
        idx: int,
        items: list[tuple[int, Hit]],
        query_seq: str,
        h_thr: int,
    ) -> list[tuple[int, LocatedHit]]:
        """Re-check boundary-dropped cells against their end record alone.

        The concatenated-text accumulator keeps only the best alignment per
        ``(t_end, p_end)`` cell, so a straddling alignment can shadow a
        legitimate within-record one at the same cell.  Recompute the best
        alignment ending exactly at each dropped cell, restricted to the
        record containing ``t_end``, and keep those still clearing the
        threshold.  All cells of one record are answered by a single
        vectorised sweep over a window covering them (Theorem 1: any
        alignment clearing ``h_thr`` spans at most ``Lmax`` text chars, so
        backing the window off by ``Lmax`` loses nothing).
        """
        record = self.database.records[idx]
        offset = self.database.offset_of(idx)
        lmax = self.scheme.max_alignment_length(len(query_seq), h_thr)
        local_ends = [hit.t_end - offset for _pos, hit in items]
        win_lo = max(0, min(local_ends) - lmax)  # 0-based window start
        win_hi = max(local_ends)
        wanted: dict[int, list[tuple[object, int]]] = {}
        for (pos, hit), local_end in zip(items, local_ends):
            wanted.setdefault(hit.p_end, []).append((pos, local_end - win_lo))
        cells = _cells_with_starts(
            record.sequence[win_lo:win_hi], query_seq, self.scheme, wanted
        )
        recovered: list[tuple[int, LocatedHit]] = []
        for (pos, hit), local_end in zip(items, local_ends):
            score, start = cells[pos]
            if score < h_thr:
                continue
            recovered.append(
                (
                    pos,
                    LocatedHit(
                        sequence_id=record.identifier,
                        t_start=win_lo + start,
                        t_end=local_end,
                        p_end=hit.p_end,
                        score=score,
                        record_index=idx,
                    ),
                )
            )
        return recovered

    @staticmethod
    def _check_top_k(top_k: int | None) -> int | None:
        if top_k is not None and top_k < 1:
            raise ServiceError(f"top_k must be >= 1, got {top_k}")
        return top_k

    def _apply_top_k(self, result: QueryResult, top_k: int) -> QueryResult:
        """Rank hits by score and truncate to the best ``top_k``.

        The ordering — score descending, then global end position, then
        query end — is exactly :meth:`ShardedSearchService._merge`'s ranked
        order, so ``--top-k`` output is identical whether the index behind
        the service is monolithic or sharded.
        """
        ranked = sorted(
            result.hits,
            key=lambda hit: (
                -hit.score,
                self.database.offset_of(hit.record_index) + hit.t_end,
                hit.p_end,
            ),
        )
        return QueryResult(
            query_id=result.query_id,
            hits=ranked[:top_k],
            stats=result.stats,
            threshold=result.threshold,
            raw_hits=result.raw_hits,
            dropped_boundary=result.dropped_boundary,
        )

    # -------------------------------------------------------------- serving
    def search(
        self,
        query: str | Query | FastaRecord,
        threshold: int | None = None,
        e_value: float | None = None,
        *,
        top_k: int | None = None,
        mode: str | None = None,
    ) -> QueryResult:
        """Search one query and attribute its hits (no pool involved)."""
        top_k = self._check_top_k(top_k)
        mode = self._resolve_mode(mode)
        (normalized,) = self._normalize_queries([query])
        result = self._search_one(normalized, threshold, e_value, mode)
        if top_k is not None:
            result = self._apply_top_k(result, top_k)
        return result

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
        """Yield one :class:`QueryResult` per query, in submission order.

        Results stream as soon as each query (and everything submitted
        before it) finishes, so callers can emit hits before the whole
        batch completes.  Inputs are validated here, at call time, not at
        first iteration.  ``top_k`` re-ranks each result's hits by score
        (descending, position-ordered within ties) and truncates.
        """
        workers = self._check_workers(self.workers if workers is None else workers)
        executor = self._check_executor(
            self.executor if executor is None else executor
        )
        top_k = self._check_top_k(top_k)
        mode = self._resolve_mode(mode)
        normalized = self._normalize_queries(queries)
        inner = self._iter_validated(
            normalized, threshold, e_value, workers, executor, mode
        )
        if top_k is None:
            return inner
        return (self._apply_top_k(result, top_k) for result in inner)

    def _iter_validated(
        self,
        normalized: list[Query],
        threshold: int | None,
        e_value: float | None,
        workers: int,
        executor: str,
        mode: str,
    ) -> Iterator[QueryResult]:
        if workers == 1 or len(normalized) == 1:
            for query in normalized:
                yield self._search_one(query, threshold, e_value, mode)
            return
        if executor == "processes":
            yield from self._run_forked(
                normalized, threshold, e_value, workers, mode
            )
        elif executor == "spawn":
            yield from self._run_spawn(
                normalized, threshold, e_value, workers, mode
            )
        else:
            pool = ThreadPoolExecutor(
                max_workers=workers, thread_name_prefix="repro-search"
            )
            try:
                yield from self._drain(
                    pool, normalized, threshold, e_value, mode
                )
            finally:
                # Early generator close: drop queued queries instead of
                # finishing the whole batch before returning control.
                pool.shutdown(wait=True, cancel_futures=True)

    def _drain(
        self,
        pool: Executor,
        queries: list[Query],
        threshold: int | None,
        e_value: float | None,
        mode: str,
    ) -> Iterator[QueryResult]:
        futures = [
            pool.submit(self._search_one, query, threshold, e_value, mode)
            for query in queries
        ]
        for future in futures:
            yield future.result()

    def _run_forked(
        self,
        queries: list[Query],
        threshold: int | None,
        e_value: float | None,
        workers: int,
        mode: str,
    ) -> Iterator[QueryResult]:
        global _FORK_SERVICE
        with _FORK_LOCK:
            if _FORK_SERVICE is not None:
                raise ServiceError(
                    "another fork-based batch is already running in this process"
                )
            _FORK_SERVICE = self
        try:
            pool = ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"),
            )
            try:
                futures = [
                    pool.submit(
                        _fork_search, (query, threshold, e_value, mode)
                    )
                    for query in queries
                ]
                for future in futures:
                    yield future.result()
            finally:
                pool.shutdown(wait=True, cancel_futures=True)
        finally:
            with _FORK_LOCK:
                _FORK_SERVICE = None

    def _run_spawn(
        self,
        queries: list[Query],
        threshold: int | None,
        e_value: float | None,
        workers: int,
        mode: str,
    ) -> Iterator[QueryResult]:
        assert self._store_path is not None  # enforced by _check_executor
        # Fail in the parent, with a clean error, when the store file no
        # longer matches what this service loaded; the worker-side check in
        # _spawn_init covers the remaining race after this point.
        expected = self.store.header_crc if self.store is not None else None
        if expected is not None and header_prefix_crc(self._store_path) != expected:
            raise ServiceError(
                f"index store {self._store_path} changed on disk since this "
                f"service opened it; rebuild the service from the new store"
            )
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_spawn_init,
            initargs=(
                str(self._store_path),
                self._engine_kwargs,
                self.store.header_crc if self.store is not None else None,
            ),
        )
        try:
            futures = [
                pool.submit(_spawn_search, (query, threshold, e_value, mode))
                for query in queries
            ]
            for future in futures:
                yield future.result()
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
    ) -> BatchReport:
        """Run a whole batch and return results plus aggregate statistics."""
        workers = self._check_workers(self.workers if workers is None else workers)
        executor = self._check_executor(
            self.executor if executor is None else executor
        )
        started = time.perf_counter()
        results = list(
            self.iter_results(
                queries, threshold, e_value, top_k=top_k,
                workers=workers, executor=executor, mode=mode,
            )
        )
        wall = time.perf_counter() - started
        return BatchReport(
            results=results,
            stats=SearchStats.aggregate(r.stats for r in results),
            wall_seconds=wall,
            workers=workers,
            executor=executor,
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
    ) -> BatchReport:
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
