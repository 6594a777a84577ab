"""The serving tier: protocol, batcher, cache, server round-trips, reload.

The integration tests run a real :class:`SearchServer` on an ephemeral port
(``port=0``) via :class:`ServerThread` and talk to it over real sockets, so
they cover the asyncio read/write paths, micro-batching, admission control
and hot reload end to end.  The robustness section feeds the server raw
garbage — the accept loop must survive everything a client can do to it.
"""

import asyncio
import logging
import os
import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro import IndexStore, SearchService, ShardedStore, genome, write_fasta
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.obs.metrics import REGISTRY
from repro.server import (
    BatchKey,
    CachedResult,
    LatencyWindow,
    MicroBatcher,
    Overloaded,
    ProtocolError,
    RateWindow,
    ResultCache,
    SearchServer,
    ServerClient,
    ServerError,
    ServerOverloaded,
    ServerThread,
    decode_length,
    decode_payload,
    encode_frame,
    index_epoch,
    wait_until_ready,
)
from repro.server.protocol import PREFIX
from repro.service import Query, ServiceError
from repro.service.sharded import ShardedSearchService

THRESHOLD = 30


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    """A small multi-record database, its stores, and query material."""
    root = tmp_path_factory.mktemp("serving")
    rng = np.random.default_rng(17)
    records = [
        FastaRecord(f"chr{i}", genome(2_000 + 500 * i, rng))
        for i in range(1, 5)
    ]
    fasta = root / "db.fa"
    write_fasta(records, fasta)
    database = SequenceDatabase.from_fasta(fasta)
    mono = root / "db.idx"
    IndexStore.build(database).save(mono)
    sharded = root / "db.shd"
    ShardedStore.build(database, sharded, shards=3)
    queries = [
        ("q1", records[0].sequence[100:160]),
        ("q2", records[2].sequence[400:460]),
        # Crosses a deletion, so alignment (not just exact match) matters.
        ("q3", records[3].sequence[40:70] + records[3].sequence[76:106]),
    ]
    return {
        "root": root,
        "records": records,
        "database": database,
        "mono": mono,
        "sharded": sharded,
        "queries": queries,
    }


@pytest.fixture(scope="module")
def running_server(serving_setup):
    """One shared server over the monolithic store (ephemeral port)."""
    server = SearchServer(serving_setup["mono"], port=0, reload_poll=0)
    with ServerThread(server) as handle:
        yield handle


def fresh_client(handle: ServerThread) -> ServerClient:
    return ServerClient(port=handle.port)


class _RecordList(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@pytest.fixture
def server_log():
    """Records of ``repro.server`` at INFO and above.

    The handler sits on the logger itself: CLI tests configure the
    ``repro`` logger to stop propagating, which hides records from caplog.
    """
    log = logging.getLogger("repro.server")
    handler = _RecordList()
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    yield handler.records
    log.removeHandler(handler)
    log.setLevel(level)


class TestProtocol:
    def test_round_trip(self):
        frame = encode_frame({"op": "ping", "n": 3})
        length = decode_length(frame[: PREFIX.size])
        assert length == len(frame) - PREFIX.size
        assert decode_payload(frame[PREFIX.size :]) == {"op": "ping", "n": 3}

    def test_truncated_prefix_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            decode_length(b"\x00\x01")

    def test_oversized_length_rejected(self):
        prefix = PREFIX.pack(10_000)
        with pytest.raises(ProtocolError, match="exceeds"):
            decode_length(prefix, max_frame=1_000)

    def test_garbage_payload_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_payload(b"\xff\xfe not json")

    def test_non_object_payload_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_payload(b"[1,2,3]")

    def test_oversized_encode_rejected(self):
        with pytest.raises(ProtocolError, match="exceeding"):
            encode_frame({"blob": "x" * 100}, max_frame=10)


class TestLatencyWindow:
    def test_empty_reports_zeros(self):
        window = LatencyWindow()
        assert window.percentiles() == {
            "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0,
        }

    def test_percentiles_ordered(self):
        window = LatencyWindow(size=100)
        for value in range(1, 101):
            window.observe(value / 1000.0)
        pts = window.percentiles()
        assert pts["p50"] <= pts["p90"] <= pts["p99"] <= pts["max"]
        assert pts["max"] == pytest.approx(0.1)

    def test_single_sample_everywhere(self):
        window = LatencyWindow()
        window.observe(0.042)
        pts = window.percentiles()
        assert pts == {
            "p50": 0.042, "p90": 0.042, "p99": 0.042, "max": 0.042,
        }

    def test_size_one_window_keeps_latest(self):
        window = LatencyWindow(size=1)
        for value in (0.5, 0.1, 0.3):
            window.observe(value)
        assert window.percentiles()["p50"] == pytest.approx(0.3)
        assert window.percentiles()["max"] == pytest.approx(0.3)

    def test_nearest_rank_boundaries(self):
        window = LatencyWindow(size=10)
        for value in range(1, 11):  # 1..10 ms
            window.observe(value / 1000.0)
        pts = window.percentiles()
        # Nearest-rank over 10 samples: rank 5 -> 6 ms, rank 9 -> 10 ms.
        assert pts["p50"] == pytest.approx(0.006)
        assert pts["p90"] == pytest.approx(0.010)
        assert pts["p99"] == pytest.approx(0.010)

    def test_eviction_drops_old_extremes(self):
        window = LatencyWindow(size=2)
        window.observe(1.0)  # evicted below
        window.observe(0.001)
        window.observe(0.002)
        assert window.percentiles()["max"] == pytest.approx(0.002)

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            LatencyWindow(size=0)


class TestRateWindow:
    class _Clock:
        def __init__(self, start=1000.0):
            self.now = start

        def __call__(self):
            return self.now

    @pytest.fixture()
    def clock(self, monkeypatch):
        clock = self._Clock()
        monkeypatch.setattr("repro.server.stats.time.monotonic", clock)
        return clock

    def test_empty_is_zero(self, clock):
        assert RateWindow().per_second() == 0.0

    def test_steady_rate(self, clock):
        window = RateWindow(horizon=60.0)
        for _ in range(600):
            window.mark()
            clock.now += 0.1
        # 600 events over the last 60s of a 60s-old window: ~10/s.
        assert window.per_second() == pytest.approx(10.0, rel=0.05)

    def test_young_window_uses_own_age(self, clock):
        window = RateWindow(horizon=60.0)
        for _ in range(10):
            window.mark()
            clock.now += 0.1
        # 10 events in the 1s the window has existed: 10/s, not 10/60.
        assert window.per_second() == pytest.approx(10.0, rel=0.05)

    def test_burst_after_idle_not_inflated(self, clock):
        window = RateWindow(horizon=60.0)
        window.mark()
        clock.now += 300.0  # idle stretch; the old stamp falls out
        window.mark()
        clock.now += 0.001
        window.mark()
        # Two events just after a long idle must read ~2/60s, not
        # 2 / 0.001s — the old stamp-spread denominator's failure mode.
        assert window.per_second() == pytest.approx(2 / 60.0, rel=0.05)

    def test_stale_stamps_pruned(self, clock):
        window = RateWindow(horizon=60.0)
        for _ in range(5):
            window.mark()
        clock.now += 120.0
        assert window.per_second() == 0.0

    def test_saturated_ring_measures_tail(self, clock):
        window = RateWindow(size=4, horizon=60.0)
        for _ in range(8):
            window.mark()
            clock.now += 1.0
        # The ring kept the last 4 stamps (ages 1..4s); counting them over
        # the window's full 8s age would halve the true rate.
        assert window.per_second() == pytest.approx(1.0, rel=0.35)


class TestResultCache:
    def _result(self, query_id="q", score=5):
        from repro.io.database import LocatedHit
        from repro.service import QueryResult
        from repro.align.types import SearchStats

        return QueryResult(
            query_id=query_id,
            hits=[LocatedHit("chr1", 1, 5, 5, score)],
            stats=SearchStats(),
            threshold=4,
            raw_hits=1,
            dropped_boundary=0,
        )

    def test_id_independent_round_trip(self):
        cache = ResultCache(4)
        key = ResultCache.key("ACGT", 4, None, None, epoch=123)
        cache.put(key, CachedResult.from_result(self._result("original")))
        entry = cache.get(key)
        revived = entry.to_result("renamed")
        assert revived.query_id == "renamed"
        assert revived.hits == self._result().hits
        assert revived.threshold == 4

    def test_epoch_partitions_entries(self):
        cache = ResultCache(4)
        old = ResultCache.key("ACGT", 4, None, None, epoch=1)
        cache.put(old, CachedResult.from_result(self._result()))
        assert cache.get(ResultCache.key("ACGT", 4, None, None, epoch=2)) is None

    def test_lru_evicts_oldest(self):
        cache = ResultCache(2)
        keys = [ResultCache.key(s, 4, None, None, 0) for s in "ABC"]
        for key in keys:
            cache.put(key, CachedResult.from_result(self._result()))
        assert cache.get(keys[0]) is None
        assert cache.get(keys[2]) is not None

    def test_zero_capacity_disables(self):
        cache = ResultCache(0)
        key = ResultCache.key("ACGT", 4, None, None, 0)
        cache.put(key, CachedResult.from_result(self._result()))
        assert cache.get(key) is None
        assert len(cache) == 0


class TestMicroBatcher:
    def _key(self, threshold=THRESHOLD):
        return BatchKey(threshold=threshold, e_value=None, top_k=None)

    def test_lone_query_dispatches_without_waiting(self):
        """An idle lane runs a lone query at once: no timer, no linger."""

        async def main():
            reached = asyncio.Event()

            async def runner(queries, key):
                reached.set()
                return [q.id for q in queries]

            batcher = MicroBatcher(runner)
            batcher.start()
            future = batcher.submit(Query("q", "ACGT"), self._key())
            for _ in range(5):  # loop turns only: no wall-clock wait
                if reached.is_set():
                    break
                await asyncio.sleep(0)
            dispatched = reached.is_set()
            result = await asyncio.wait_for(future, 5)
            await batcher.stop()
            return dispatched, result

        dispatched, result = asyncio.run(main())
        assert dispatched
        assert result == "q"

    def test_batches_form_while_the_lane_is_busy(self):
        async def main():
            calls = []
            started = asyncio.Event()
            release = asyncio.Event()

            async def runner(queries, key):
                calls.append(len(queries))
                if len(calls) == 1:
                    started.set()
                    await release.wait()  # hold the lane
                return [q.id for q in queries]

            batcher = MicroBatcher(runner, max_batch=8)
            batcher.start()
            first = batcher.submit(Query("q0", "ACGT"), self._key())
            await asyncio.wait_for(started.wait(), 5)
            rest = [
                batcher.submit(Query(f"q{i}", "ACGT"), self._key())
                for i in range(1, 4)
            ]
            release.set()
            results = await asyncio.wait_for(asyncio.gather(first, *rest), 5)
            await batcher.stop()
            return calls, results

        calls, results = asyncio.run(main())
        assert calls == [1, 3]
        assert results == ["q0", "q1", "q2", "q3"]

    def test_coalesces_concurrent_submissions(self):
        async def main():
            calls = []

            async def runner(queries, key):
                calls.append(len(queries))
                return [q.id for q in queries]

            batcher = MicroBatcher(runner, max_batch=8)
            batcher.start()
            futures = [
                batcher.submit(Query(f"q{i}", "ACGT"), self._key())
                for i in range(5)
            ]
            results = await asyncio.gather(*futures)
            await batcher.stop()
            return calls, results

        calls, results = asyncio.run(main())
        assert calls == [5]  # one batch, not five
        assert results == [f"q{i}" for i in range(5)]

    def test_max_batch_splits(self):
        async def main():
            calls = []

            async def runner(queries, key):
                calls.append(len(queries))
                return [q.id for q in queries]

            batcher = MicroBatcher(runner, max_batch=2)
            batcher.start()
            futures = [
                batcher.submit(Query(f"q{i}", "ACGT"), self._key())
                for i in range(5)
            ]
            await asyncio.gather(*futures)
            await batcher.stop()
            return calls

        calls = asyncio.run(main())
        assert max(calls) <= 2
        assert sum(calls) == 5

    def test_mismatched_keys_never_share_a_batch(self):
        async def main():
            calls = []

            async def runner(queries, key):
                calls.append((key.threshold, len(queries)))
                return [q.id for q in queries]

            batcher = MicroBatcher(runner, max_batch=8)
            batcher.start()
            futures = [
                batcher.submit(Query(f"q{i}", "ACGT"), self._key(10 + i % 2))
                for i in range(4)
            ]
            await asyncio.gather(*futures)
            await batcher.stop()
            return calls

        calls = asyncio.run(main())
        for threshold, _count in calls:
            assert threshold in (10, 11)
        assert sum(count for _t, count in calls) == 4

    def test_overload_rejects_not_queues(self):
        async def main():
            release = asyncio.Event()

            async def runner(queries, key):
                await release.wait()
                return [q.id for q in queries]

            batcher = MicroBatcher(runner, max_batch=1, max_queue=2)
            batcher.start()
            admitted = [
                batcher.submit(Query(f"q{i}", "ACGT"), self._key())
                for i in range(2)
            ]
            with pytest.raises(Overloaded):
                batcher.submit(Query("q-over", "ACGT"), self._key())
            release.set()
            await asyncio.gather(*admitted)
            await batcher.stop()

        asyncio.run(main())

    def test_runner_error_fails_the_batch(self):
        async def main():
            async def runner(queries, key):
                raise ValueError("engine exploded")

            batcher = MicroBatcher(runner, max_batch=4)
            batcher.start()
            future = batcher.submit(Query("q", "ACGT"), self._key())
            with pytest.raises(ValueError, match="engine exploded"):
                await future
            await batcher.stop()

        asyncio.run(main())


class TestServedBitIdentical:
    def test_monolithic_matches_offline(self, serving_setup, running_server):
        offline = SearchService(store=serving_setup["mono"]).search_batch(
            serving_setup["queries"], threshold=THRESHOLD
        )
        with fresh_client(running_server) as client:
            served = client.search(serving_setup["queries"], threshold=THRESHOLD)
        assert served.total_hits > 0
        for off, srv in zip(offline.results, served.results):
            assert srv.query_id == off.query_id
            assert srv.threshold == off.threshold
            assert srv.hits == off.hits  # ids, positions, scores, order
            assert srv.raw_hits == off.raw_hits
            assert srv.dropped_boundary == off.dropped_boundary

    def test_sharded_matches_offline(self, serving_setup):
        offline = ShardedSearchService(serving_setup["sharded"]).search_batch(
            serving_setup["queries"], threshold=THRESHOLD
        )
        server = SearchServer(serving_setup["sharded"], port=0, reload_poll=0)
        with ServerThread(server) as handle:
            with fresh_client(handle) as client:
                served = client.search(
                    serving_setup["queries"], threshold=THRESHOLD
                )
        assert served.total_hits > 0
        for off, srv in zip(offline.results, served.results):
            assert srv.hits == off.hits

    def test_top_k_matches_offline(self, serving_setup, running_server):
        offline = SearchService(store=serving_setup["mono"]).search_batch(
            serving_setup["queries"], threshold=THRESHOLD, top_k=3
        )
        with fresh_client(running_server) as client:
            served = client.search(
                serving_setup["queries"], threshold=THRESHOLD, top_k=3
            )
        for off, srv in zip(offline.results, served.results):
            assert len(srv.hits) <= 3
            assert srv.hits == off.hits

    def test_e_value_requests_serve(self, serving_setup, running_server):
        offline = SearchService(store=serving_setup["mono"]).search_batch(
            serving_setup["queries"][:1], e_value=1e-5
        )
        with fresh_client(running_server) as client:
            served = client.search(serving_setup["queries"][:1], e_value=1e-5)
        assert served.results[0].hits == offline.results[0].hits
        assert served.results[0].threshold == offline.results[0].threshold


class TestServerBehaviour:
    def test_ping_and_stats(self, running_server):
        with fresh_client(running_server) as client:
            pong = client.ping()
            assert pong["pong"] is True
            assert pong["generation"] >= 1
            response = client.stats()
        assert response["engine"] == "alae"
        assert response["sharded"] is False
        stats = response["stats"]
        for field in (
            "uptime_seconds", "requests_total", "queries_total",
            "cache_hit_rate", "recent_qps", "latency_seconds",
            "queue_depth", "mean_batch_size", "generation",
            "overloaded_total", "max_batch",
        ):
            assert field in stats

    def test_repeat_query_hits_cache(self, serving_setup, running_server):
        query = [("cache-probe", serving_setup["records"][1].sequence[50:110])]
        with fresh_client(running_server) as client:
            first = client.search(query, threshold=THRESHOLD)
            second = client.search(query, threshold=THRESHOLD)
        assert not first.results[0].cached
        assert second.results[0].cached
        assert second.results[0].hits == first.results[0].hits

    def test_cached_and_fresh_mix_in_one_request(
        self, serving_setup, running_server
    ):
        records = serving_setup["records"]
        warm = ("mix-warm", records[0].sequence[300:360])
        cold = ("mix-cold", records[2].sequence[700:760])
        with fresh_client(running_server) as client:
            client.search([warm], threshold=THRESHOLD)
            served = client.search([warm, cold], threshold=THRESHOLD)
        assert served.results[0].cached
        assert not served.results[1].cached

    def test_oversized_request_is_overloaded_not_queued(self, serving_setup):
        server = SearchServer(
            serving_setup["mono"], port=0, reload_poll=0, max_queue=2,
            cache_size=0,
        )
        queries = [
            (f"flood{i}", serving_setup["records"][0].sequence[i : i + 40])
            for i in range(3)
        ]
        with ServerThread(server) as handle:
            with fresh_client(handle) as client:
                with pytest.raises(ServerOverloaded, match="queue is full"):
                    client.search(queries, threshold=THRESHOLD)
                # The server is still healthy for admissible requests.
                ok = client.search(queries[:1], threshold=THRESHOLD)
                assert ok.results[0].query_id == "flood0"

    def test_unknown_op_is_an_error_response(self, running_server):
        with fresh_client(running_server) as client:
            response = client.request({"op": "florble"})
        assert response["status"] == "error"
        assert "unknown op" in response["error"]

    def test_bad_search_arguments_reported(self, running_server):
        with fresh_client(running_server) as client:
            both = client.request(
                {"op": "search", "queries": [["q", "ACGT"]],
                 "threshold": 5, "e_value": 1.0}
            )
            empty = client.request({"op": "search", "queries": []})
            bad_type = client.request({"op": "search", "queries": [42]})
        assert both["status"] == "error" and "not both" in both["error"]
        assert empty["status"] == "error"
        assert bad_type["status"] == "error"

    def test_boolean_parameters_rejected(self, running_server):
        """JSON true must not slip through as threshold=1 / e_value=1.0."""
        with fresh_client(running_server) as client:
            for field in ("threshold", "e_value", "top_k"):
                response = client.request(
                    {"op": "search", "queries": [["q", "ACGT"]], field: True}
                )
                assert response["status"] == "error", field
                assert field in response["error"]

    def test_concurrent_clients_micro_batch(self, serving_setup):
        server = SearchServer(
            serving_setup["mono"], port=0, reload_poll=0,
            max_batch=8, cache_size=0,
        )
        records = serving_setup["records"]
        errors: list = []

        search_batch = server._search_batch_sync
        held = threading.Event()

        def hold_first_batch(queries, key):
            # Keep the lane busy until all eight queries are admitted, so
            # the seven that queue behind the first must coalesce.
            if not held.is_set():
                held.set()
                deadline = time.monotonic() + 30
                while server._batcher.depth < 8:
                    assert time.monotonic() < deadline, "clients never queued"
                    time.sleep(0.005)
            return search_batch(queries, key)

        server._search_batch_sync = hold_first_batch
        with ServerThread(server) as handle:
            def worker(i: int) -> None:
                try:
                    with fresh_client(handle) as client:
                        start = 100 + 13 * i
                        batch = client.search(
                            [(f"w{i}", records[i % 4].sequence[start : start + 50])],
                            threshold=THRESHOLD,
                        )
                        assert batch.results[0].query_id == f"w{i}"
                except Exception as exc:  # surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            with fresh_client(handle) as client:
                stats = client.stats()["stats"]
        assert not errors
        assert stats["queries_total"] == 8
        # Coalescing happened: fewer engine batches than queries.
        assert stats["batches_total"] < 8
        assert stats["mean_batch_size"] > 1.0

    def test_queue_wait_accounting_agrees_with_the_registry(
        self, serving_setup
    ):
        """stats and the batcher histograms see the same batches and queries:
        failed batches count, and each query is one admission-wait sample."""
        server = SearchServer(
            serving_setup["mono"], port=0, reload_poll=0, cache_size=0
        )
        search_batch = server._search_batch_sync

        def fail_on_boom(queries, key):
            if any(query.id == "boom" for query in queries):
                raise ServiceError("injected batch failure")
            return search_batch(queries, key)

        server._search_batch_sync = fail_on_boom
        sizes = REGISTRY.get("repro_batcher_batch_size")
        waits = REGISTRY.get("repro_batcher_admission_wait_seconds")
        records = serving_setup["records"]
        queries = [
            (f"c{i}", records[i].sequence[200 + 10 * i : 260 + 10 * i])
            for i in range(4)
        ]
        with ServerThread(server) as handle, fresh_client(handle) as client:
            before = client.stats()["stats"]
            sizes_before, waits_before = sizes.count, waits.count
            # One request's four misses are admitted together: one batch.
            client.search(queries, threshold=THRESHOLD)
            with pytest.raises(ServerError, match="injected"):
                client.search([("boom", "ACGTACGTACGT")], threshold=THRESHOLD)
            after = client.stats()["stats"]
        batches = after["batches_total"] - before["batches_total"]
        samples = (
            after["spans_count"]["admission_wait"]
            - before["spans_count"].get("admission_wait", 0)
        )
        assert batches == sizes.count - sizes_before == 2
        assert samples == waits.count - waits_before == 5
        assert after["mean_batch_size"] == 2.5

    def test_graceful_shutdown_via_rpc(self, serving_setup):
        server = SearchServer(serving_setup["mono"], port=0, reload_poll=0)
        handle = ServerThread(server).start()
        with fresh_client(handle) as client:
            assert client.shutdown()["stopping"] is True
        handle._thread.join(30)
        assert not handle._thread.is_alive()
        with pytest.raises(ServerError):
            with ServerClient(port=handle.port) as client:
                client.ping()

    def test_client_rejects_unbound_port(self):
        with pytest.raises(ServerError, match="port"):
            ServerClient(port=0)

    def test_wait_until_ready_times_out_fast(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        with pytest.raises(ServerError, match="not ready"):
            wait_until_ready("127.0.0.1", free_port, timeout=0.3)


class TestHotReload:
    def _build(self, serving_setup, extra_seed):
        rng = np.random.default_rng(extra_seed)
        records = serving_setup["records"] + [
            FastaRecord(f"extra{extra_seed}", genome(1_500, rng))
        ]
        return records, SequenceDatabase(records)

    def test_reload_rpc_swaps_the_index(self, serving_setup, tmp_path):
        path = tmp_path / "reload.idx"
        IndexStore.build(serving_setup["database"]).save(path)
        epoch_before = index_epoch(path)
        server = SearchServer(path, port=0, reload_poll=0)
        with ServerThread(server) as handle:
            with fresh_client(handle) as client:
                query = [("probe", serving_setup["records"][0].sequence[100:160])]
                before = client.search(query, threshold=THRESHOLD)
                assert client.reload()["reloaded"] is False  # nothing changed
                records, database = self._build(serving_setup, 23)
                IndexStore.build(database).save(path)
                assert index_epoch(path) != epoch_before
                reloaded = client.reload()
                assert reloaded["reloaded"] is True
                assert reloaded["generation"] == before.generation + 1
                after = client.search(query, threshold=THRESHOLD)
                assert not after.results[0].cached  # cache was invalidated
                offline = SearchService(store=path).search_batch(
                    query, threshold=THRESHOLD
                )
                assert after.results[0].hits == offline.results[0].hits

    def test_reload_resets_the_generation_age(self, serving_setup, tmp_path):
        path = tmp_path / "age.idx"
        IndexStore.build(serving_setup["database"]).save(path)
        server = SearchServer(path, port=0, reload_poll=0)
        with ServerThread(server) as handle:
            with fresh_client(handle) as client:
                time.sleep(0.3)
                aged = client.stats()["stats"]["generation_age_s"]
                assert aged >= 0.3
                _records, database = self._build(serving_setup, 31)
                IndexStore.build(database).save(path)
                assert client.reload()["reloaded"] is True
                assert client.stats()["stats"]["generation_age_s"] < aged
                gauge = REGISTRY.get("repro_server_generation_start_seconds")
                assert time.time() - gauge.value < aged

    def test_poll_reloads_without_an_rpc(self, serving_setup, tmp_path):
        path = tmp_path / "poll.idx"
        IndexStore.build(serving_setup["database"]).save(path)
        server = SearchServer(path, port=0, reload_poll=0.1)
        with ServerThread(server) as handle:
            with fresh_client(handle) as client:
                generation = client.ping()["generation"]
                _records, database = self._build(serving_setup, 29)
                IndexStore.build(database).save(path)
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    if client.ping()["generation"] > generation:
                        break
                    time.sleep(0.05)
                assert client.ping()["generation"] == generation + 1

    def test_half_written_store_counted_until_restored(
        self, serving_setup, tmp_path, server_log
    ):
        path = tmp_path / "flaky.idx"
        IndexStore.build(serving_setup["database"]).save(path)
        staged = tmp_path / "staged.idx"
        _records, database = self._build(serving_setup, 37)
        IndexStore.build(database).save(staged)
        payload = staged.read_bytes()
        records = serving_setup["records"]
        server = SearchServer(path, port=0, reload_poll=0.05)
        with ServerThread(server) as handle:
            with fresh_client(handle) as client:
                generation = client.ping()["generation"]
                assert client.stats()["stats"]["reload_failures"] == 0
                assert client.stats()["stats"]["last_reload_error"] is None
                # Stores are replaced by rename, so the live generation's
                # mapped file stays intact while the path holds half a file.
                half = tmp_path / "half.idx"
                half.write_bytes(payload[: len(payload) // 2])
                os.replace(half, path)
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    if client.stats()["stats"]["reload_failures"]:
                        break
                    time.sleep(0.05)
                stats = client.stats()["stats"]
                assert stats["reload_failures"] >= 1
                assert stats["last_reload_error"]
                assert stats["generation"] == generation
                # Still answering, from the old generation.
                query = [("probe", records[1].sequence[200:260])]
                served = client.search(query, threshold=THRESHOLD)
                assert served.generation == generation
                old = SearchService(store=serving_setup["mono"]).search_batch(
                    query, threshold=THRESHOLD
                )
                assert served.results[0].hits == old.results[0].hits
                os.replace(staged, path)
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    if client.ping()["generation"] > generation:
                        break
                    time.sleep(0.05)
                assert client.ping()["generation"] == generation + 1
                # The poll loop logs recovery just after the swap lands.
                deadline = time.monotonic() + 20
                while time.monotonic() < deadline:
                    if any("recovered" in r.getMessage() for r in server_log):
                        break
                    time.sleep(0.05)
                levels = [
                    (r.levelno, r.getMessage()) for r in server_log
                    if "reload poll" in r.getMessage()
                ]
                # One warning opens the streak; recovery is logged at info.
                assert levels[0][0] == logging.WARNING
                assert sum(lvl == logging.WARNING for lvl, _msg in levels) == 1
                assert levels[-1][0] == logging.INFO
                assert "recovered" in levels[-1][1]
                # Recovery clears the error; the counter keeps the history.
                stats = client.stats()["stats"]
                assert stats["last_reload_error"] is None
                assert stats["reload_failures"] >= 1
                after = client.search(
                    [("probe2", records[0].sequence[100:160])],
                    threshold=THRESHOLD,
                )
                offline = SearchService(store=path).search_batch(
                    [("probe2", records[0].sequence[100:160])],
                    threshold=THRESHOLD,
                )
                assert after.results[0].hits == offline.results[0].hits

    def test_sharded_manifest_reload(self, serving_setup, tmp_path):
        manifest = tmp_path / "reload.shd"
        ShardedStore.build(serving_setup["database"], manifest, shards=2)
        server = SearchServer(manifest, port=0, reload_poll=0)
        with ServerThread(server) as handle:
            with fresh_client(handle) as client:
                assert client.reload()["reloaded"] is False
                _records, database = self._build(serving_setup, 31)
                ShardedStore.build(database, manifest, shards=3)
                assert client.reload()["reloaded"] is True
                query = [("probe", serving_setup["records"][0].sequence[100:160])]
                served = client.search(query, threshold=THRESHOLD)
                offline = ShardedSearchService(manifest).search_batch(
                    query, threshold=THRESHOLD
                )
                assert served.results[0].hits == offline.results[0].hits


class TestProtocolRobustness:
    """Hostile bytes on the wire must never kill the accept loop."""

    def _raw(self, handle: ServerThread) -> socket.socket:
        return socket.create_connection(("127.0.0.1", handle.port), timeout=10)

    def _assert_alive(self, handle: ServerThread) -> None:
        with fresh_client(handle) as client:
            assert client.ping()["pong"] is True

    def test_garbage_bytes_answered_then_closed(self, running_server):
        with self._raw(running_server) as sock:
            # 'garb' as a u32 length is ~1.8 GB: over the frame cap.
            sock.sendall(b"garbage bytes, not a frame")
            length = decode_length(
                self._recv_exact(sock, PREFIX.size), max_frame=1 << 31
            )
            payload = decode_payload(self._recv_exact(sock, length))
            assert payload["status"] == "error"
            assert sock.recv(1) == b""  # server closed the connection
        self._assert_alive(running_server)

    def test_oversized_announced_payload_rejected(self, running_server):
        with self._raw(running_server) as sock:
            sock.sendall(PREFIX.pack(200 * 1024 * 1024))
            length = decode_length(
                self._recv_exact(sock, PREFIX.size), max_frame=1 << 31
            )
            payload = decode_payload(self._recv_exact(sock, length))
            assert payload["status"] == "error"
            assert "limit" in payload["error"]
        self._assert_alive(running_server)

    def test_non_json_payload_rejected(self, running_server):
        body = b"\xde\xad\xbe\xef" * 4
        with self._raw(running_server) as sock:
            sock.sendall(PREFIX.pack(len(body)) + body)
            length = decode_length(self._recv_exact(sock, PREFIX.size))
            payload = decode_payload(self._recv_exact(sock, length))
            assert payload["status"] == "error"
        self._assert_alive(running_server)

    def test_truncated_frame_then_disconnect(self, running_server):
        with self._raw(running_server) as sock:
            sock.sendall(PREFIX.pack(1000) + b"only a few bytes")
        self._assert_alive(running_server)

    def test_truncated_prefix_then_disconnect(self, running_server):
        with self._raw(running_server) as sock:
            sock.sendall(b"\x00")
        self._assert_alive(running_server)

    def test_disconnect_mid_response(self, serving_setup, running_server):
        frame = encode_frame(
            {
                "op": "search",
                "queries": [["bye", serving_setup["records"][0].sequence[:60]]],
                "threshold": THRESHOLD,
            }
        )
        with self._raw(running_server) as sock:
            sock.sendall(frame)
            # Vanish without reading the (possibly in-flight) response.
        time.sleep(0.3)
        self._assert_alive(running_server)

    def test_pipelined_requests_answered_in_order(self, running_server):
        with self._raw(running_server) as sock:
            sock.sendall(
                encode_frame({"op": "ping"})
                + encode_frame({"op": "stats"})
                + encode_frame({"op": "ping"})
            )
            kinds = []
            for _ in range(3):
                length = decode_length(self._recv_exact(sock, PREFIX.size))
                payload = decode_payload(self._recv_exact(sock, length))
                assert payload["status"] == "ok"
                kinds.append("stats" if "stats" in payload else "ping")
        assert kinds == ["ping", "stats", "ping"]

    @staticmethod
    def _recv_exact(sock: socket.socket, count: int) -> bytes:
        chunks = []
        while count:
            chunk = sock.recv(count)
            assert chunk, "server closed early"
            chunks.append(chunk)
            count -= len(chunk)
        return b"".join(chunks)


class TestServerConstruction:
    def test_missing_index_fails_to_start(self, tmp_path):
        server = SearchServer(tmp_path / "nope.idx", port=0)
        with pytest.raises(Exception):
            ServerThread(server, start_timeout=30).start()

    def test_invalid_shapes_rejected(self, serving_setup, tmp_path):
        with pytest.raises(ValueError):
            MicroBatcher(lambda q, k: None, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(lambda q, k: None, max_queue=0)
        with pytest.raises(ValueError):
            SearchServer(serving_setup["mono"], max_inflight=0)
        # A bad batch shape fails at construction, before any index opens:
        # the path does not even exist.
        with pytest.raises(ValueError, match="max_batch"):
            SearchServer(tmp_path / "nope.idx", max_batch=0)
        with pytest.raises(ValueError, match="max_queue"):
            SearchServer(tmp_path / "nope.idx", max_queue=0)
        with pytest.raises(ValueError):
            ResultCache(-1)
