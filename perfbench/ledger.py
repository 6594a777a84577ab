"""Per-layer ledger for the traced server: wrappers around each layer's calls.

:func:`install` patches the public calls into each layer of the serving
stack before the launcher constructs ``SearchServer``.  Each wrapper adds
its wall time and counts to a per-thread table (the event loop and the
batch executor record from different threads), so recording costs a dict
update and takes no lock.  The
tables stay in memory; the launcher snapshots them on request and writes
the snapshots out at shutdown.

A wrapper whose target has vanished raises :class:`WrapperError`: a renamed
internal must fail the traced run loudly, not read as a layer that costs
nothing.
"""

from __future__ import annotations

import itertools
import threading
from time import perf_counter


class WrapperError(RuntimeError):
    """A traced call no longer exists under the name the ledger wraps."""


class Ledger:
    """Sums and counts keyed by name, one table per recording thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[dict] = []
        self._lock = threading.Lock()
        #: name -> [shared count object, how many snapshots have read it]
        self._counters: dict[str, list] = {}
        #: ``(mode, top_k, results)`` per served batch, folded at snapshot
        #: time so the served path pays only a list append.
        self.batches: list[tuple] = []

    def _table(self) -> dict:
        table = getattr(self._local, "table", None)
        if table is None:
            table = {}
            self._local.table = table
            with self._lock:
                self._tables.append(table)
        return table

    def add(self, name: str, value: float) -> None:
        table = self._table()
        table[name] = table.get(name, 0) + value

    def counter(self, name: str) -> itertools.count:
        """A shared call counter; ``next()`` on it is atomic under the GIL."""
        counter = itertools.count()
        self._counters[name] = [counter, 0]
        return counter

    def snapshot(self) -> dict:
        """Totals across threads; call it while no request is in flight."""
        with self._lock:
            tables = [dict(table) for table in self._tables]
        totals: dict[str, float] = {}
        for table in tables:
            for name, value in table.items():
                totals[name] = totals.get(name, 0) + value
        for name, entry in self._counters.items():
            # A count object cannot be read without advancing it, so each
            # read is subtracted from later ones.
            value = next(entry[0]) - entry[1]
            entry[1] += 1
            totals[name] = totals.get(name, 0) + value
        for mode, top_k, results in list(self.batches):
            _fold_results(totals, mode, top_k, results)
        return totals


def _fold_results(totals: dict, mode: str, top_k, results) -> None:
    """Fold served results' spans and engine counters into ``totals``."""
    kind = "verified" if mode == "verified" else "exact"

    def add(name: str, value: float) -> None:
        totals[name] = totals.get(name, 0) + value

    for result in results:
        stats = result.stats
        spans = stats.spans
        add(f"results.{kind}", 1)
        add("span.locate_s", spans.get("locate", 0.0))
        add("span.merge_s", spans.get("merge", 0.0))
        shards = [v for k, v in spans.items() if k.startswith("shard") and k[5:].isdigit()]
        if shards and sum(shards) > 0:
            add("shard_skew_sum", max(shards) / (sum(shards) / len(shards)))
            add("shard_skew_n", 1)
        add("raw_hits", result.raw_hits)
        add("dropped_boundary", result.dropped_boundary)
        if kind == "exact":
            add("core.nodes", stats.nodes_visited)
            add("core.calculated", stats.calculated)
            add("core.reused", stats.reused)
            add("core.forks_seeded", stats.forks_seeded)
            add(
                "core.forks_skipped",
                stats.forks_skipped_domination + stats.forks_skipped_global,
            )
        else:
            add("blast.seeds", stats.extra.get("seeds", 0))
            add("blast.gapped", stats.extra.get("gapped", 0))


def _attr(owner, name: str):
    """The raw attribute ``owner.name`` (class dicts first, to see classmethods)."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in klass.__dict__:
                return klass.__dict__[name]
    elif callable(getattr(owner, name, None)):
        return getattr(owner, name)
    label = getattr(owner, "__name__", type(owner).__name__)
    raise WrapperError(
        f"{label}.{name} is gone: the traced layer was renamed or removed; "
        f"update perfbench/ledger.py"
    )


def _timed(ledger: Ledger, owner, name: str, key: str) -> None:
    """Wrap ``owner.name`` to add its wall time and call count under ``key``."""
    raw = _attr(owner, name)
    is_classmethod = isinstance(raw, classmethod)
    func = raw.__func__ if is_classmethod else raw

    def wrapper(*args, **kwargs):
        started = perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            ledger.add(key + "_s", perf_counter() - started)
            ledger.add(key + "_n", 1)

    wrapper.__wrapped__ = func
    setattr(owner, name, classmethod(wrapper) if is_classmethod else wrapper)


#: Every wrapper the ledger installs, with the workloads whose traced run
#: must see it fire (``None``: every workload).
WRAPPERS = {
    "decode": None,
    "encode": None,
    "cache_get": None,
    "service_open": None,
    "search_batch": None,
    "alae_search": None,
    "verified_search": ("dna-sharded-reload",),
    "rank": None,
    "locate": None,
    "locate_hit": None,
    "index_store_open": None,
    "sharded_store_open": ("dna-sharded-reload",),
}


def install(ledger: Ledger) -> None:
    """Patch every traced layer.  Call before constructing ``SearchServer``."""
    from repro.engine import backend as backend_mod
    from repro.engine import verified as verified_mod
    from repro.index import csa as csa_mod
    from repro.index import fm_index
    from repro.io import database
    from repro.server import cache as cache_mod
    from repro.server import server as server_mod
    from repro.store import sharded as sharded_mod
    from repro.store import store as store_mod

    # server: frame codec, counted only for search traffic.
    decode = _attr(server_mod, "decode_payload")
    encode = _attr(server_mod, "encode_frame")

    def decode_payload(body):
        started = perf_counter()
        payload = decode(body)
        if payload.get("op") == "search":
            ledger.add("decode_s", perf_counter() - started)
            ledger.add("decode_n", 1)
        return payload

    def encode_frame(payload, *args, **kwargs):
        started = perf_counter()
        frame = encode(payload, *args, **kwargs)
        if "results" in payload:
            ledger.add("encode_s", perf_counter() - started)
            ledger.add("encode_n", 1)
            ledger.add("response_bytes", len(frame))
            ledger.add("response_queries", len(payload["results"]))
        return frame

    server_mod.decode_payload = decode_payload
    server_mod.encode_frame = encode_frame

    cache_get = _attr(cache_mod.ResultCache, "get")

    def get(self, key):
        started = perf_counter()
        entry = cache_get(self, key)
        ledger.add("cache_get_s", perf_counter() - started)
        ledger.add("cache_get_n", 1)
        ledger.add("cache_hits" if entry is not None else "cache_misses", 1)
        return entry

    cache_mod.ResultCache.get = get

    # service: the object open_serving_service returns, at start and reload.
    open_service = _attr(server_mod, "open_serving_service")

    def open_serving_service(path, *args, **kwargs):
        started = perf_counter()
        service, epoch = open_service(path, *args, **kwargs)
        ledger.add("service_open_s", perf_counter() - started)
        ledger.add("service_open_n", 1)
        inner = _attr(service, "search_batch")

        def search_batch(queries, *batch_args, **batch_kwargs):
            begun = perf_counter()
            report = inner(queries, *batch_args, **batch_kwargs)
            seconds = perf_counter() - begun
            size = len(report.results)
            ledger.add("search_batch_s", seconds)
            ledger.add("search_batch_n", 1)
            # Every query in a batch waits for the whole batch.
            ledger.add("batch_wait_s", seconds * size)
            ledger.add("batch_queries", size)
            ledger.batches.append(
                (batch_kwargs.get("mode"), batch_kwargs.get("top_k"), report.results)
            )
            return report

        service.search_batch = search_batch
        return service, epoch

    server_mod.open_serving_service = open_serving_service

    # engine, index, io, store.
    _timed(ledger, backend_mod.AlaeBackend, "search", "alae_search")
    _timed(ledger, verified_mod.VerifiedBackend, "search", "verified_search")
    _timed(ledger, database.SequenceDatabase, "locate_hit", "locate_hit")
    _timed(ledger, store_mod.IndexStore, "open", "index_store_open")
    _timed(ledger, sharded_mod.ShardedStore, "open", "sharded_store_open")

    # index: rank queries (every trie edge the traversal extends and every
    # LF step of a locate; thousands a query, so counted, not timed) and
    # hit location through the reversed-text CSA.  Below the q-gram seeds
    # trie ranges are a few rows wide, so FMIndex.children_ranges and
    # locate_array (the wide-range paths) do not run on these workloads.
    _counted(ledger, fm_index.FMIndex, "occ", "rank")
    for name in ("end_positions", "end_positions_array"):
        _locate_wrapper(ledger, csa_mod.ReversedTextIndex, name)


def _counted(ledger: Ledger, owner, name: str, key: str) -> None:
    """Wrap ``owner.name`` to count its calls under ``key``."""
    func = _attr(owner, name)
    calls = ledger.counter(key + "_n")

    def wrapper(*args):
        next(calls)
        return func(*args)

    setattr(owner, name, wrapper)


def _locate_wrapper(ledger: Ledger, owner, name: str) -> None:
    locate = _attr(owner, name)

    def wrapper(self, rng):
        started = perf_counter()
        ends = locate(self, rng)
        ledger.add("locate_s", perf_counter() - started)
        ledger.add("locate_n", 1)
        ledger.add("locate_rows", rng[1] - rng[0])
        return ends

    setattr(owner, name, wrapper)


def fired(totals: dict) -> dict[str, int]:
    """Call count per wrapper name in :data:`WRAPPERS`."""
    return {name: int(totals.get(name + "_n", 0)) for name in WRAPPERS}
