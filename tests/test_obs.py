"""The durable control plane: catalog, request log, spans, replay.

Covers the observability subsystem end to end: SQLite catalog schema and
its v1 -> v2 migration, store registration/verification (including
deliberate corruption), the lock-free request log, trace-span plumbing
through the service layers, and deterministic workload replay.
"""

import json
import sqlite3
import time

import numpy as np
import pytest

from repro import IndexStore, SearchService, ShardedStore, genome
from repro.align.types import SearchStats
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.obs import (
    Catalog,
    CatalogError,
    RequestLog,
    ReplayError,
    ReplayPlan,
    SCHEMA_VERSION,
    add_span,
    apply_migrations,
    connect,
    format_spans,
    maybe_record_bench,
    maybe_register_build,
    query_hash,
    replay_plan,
    shard_seconds,
    shard_span,
    synthesize_queries,
)
from repro.obs.reqlog import REQUEST_COLUMNS
from repro.service.sharded import ShardedSearchService

THRESHOLD = 30


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A small database, a saved store, and a sharded manifest."""
    root = tmp_path_factory.mktemp("obs")
    rng = np.random.default_rng(23)
    records = [
        FastaRecord(f"chr{i}", genome(3_000 + 400 * i, rng)) for i in range(1, 4)
    ]
    database = SequenceDatabase(records)
    mono = root / "db.idx"
    IndexStore.build(database).save(mono)
    sharded = root / "db.shards"
    ShardedStore.build(database, sharded, shards=2)
    return {"root": root, "database": database, "mono": mono, "sharded": sharded}


def _log_requests(path, rows):
    """Write rows through the real log so tests exercise the writer thread."""
    with RequestLog(path, flush_interval=0.01) as log:
        for row in rows:
            log.record(row)
        deadline = time.monotonic() + 5.0
        while log.pending and time.monotonic() < deadline:
            time.sleep(0.01)


def _request_row(
    length=60,
    mode="exact",
    threshold=THRESHOLD,
    e_value=None,
    top_k=None,
    latency=0.01,
    status="ok",
):
    return (
        1.0,
        query_hash("A" * length),
        length,
        mode,
        threshold,
        e_value,
        top_k,
        latency,
        0,
        1,
        None,
        1,
        status,
    )


class TestCatalog:
    def test_register_store_records_layout(self, corpus, tmp_path):
        with Catalog(tmp_path / "cat.db") as cat:
            store_id = cat.register_store(corpus["mono"], build_seconds=1.25)
            row = cat.store(store_id)
            assert row["kind"] == "store"
            assert row["records"] == 3
            assert row["total_length"] == sum(
                len(r.sequence) for r in corpus["database"].records
            )
            assert row["build_seconds"] == pytest.approx(1.25)
            # shard rows describe manifests only; a monolith has none
            assert cat.shards(store_id) == []

    def test_reregister_same_identity_upserts(self, corpus, tmp_path):
        with Catalog(tmp_path / "cat.db") as cat:
            first = cat.register_store(corpus["mono"])
            second = cat.register_store(corpus["mono"], build_seconds=2.0)
            assert first == second
            assert len(cat.stores()) == 1
            # COALESCE keeps the measured build time once it is known.
            assert cat.store(first)["build_seconds"] == pytest.approx(2.0)

    def test_register_sharded_manifest(self, corpus, tmp_path):
        with Catalog(tmp_path / "cat.db") as cat:
            store_id = cat.register_store(corpus["sharded"])
            row = cat.store(store_id)
            assert row["kind"] == "manifest"
            assert row["shard_count"] == 2
            assert len(cat.shards(store_id)) == 2

    def test_verify_all_clean(self, corpus, tmp_path):
        with Catalog(tmp_path / "cat.db") as cat:
            cat.register_store(corpus["mono"])
            cat.register_store(corpus["sharded"])
            assert cat.verify_all() == []

    def test_verify_all_detects_corruption(self, corpus, tmp_path):
        copy = tmp_path / "corrupt.idx"
        payload = bytearray(corpus["mono"].read_bytes())
        with Catalog(tmp_path / "cat.db") as cat:
            copy.write_bytes(bytes(payload))
            cat.register_store(copy)
            payload[len(payload) // 2] ^= 0xFF
            copy.write_bytes(bytes(payload))
            problems = cat.verify_all()
            assert problems
            assert any("corrupt.idx" in p for p in problems)

    def test_verify_all_detects_missing_file(self, corpus, tmp_path):
        copy = tmp_path / "gone.idx"
        copy.write_bytes(corpus["mono"].read_bytes())
        with Catalog(tmp_path / "cat.db") as cat:
            cat.register_store(copy)
            copy.unlink()
            problems = cat.verify_all()
            assert problems and any("gone.idx" in p for p in problems)

    def test_record_bench_auto_registers(self, corpus, tmp_path):
        with Catalog(tmp_path / "cat.db") as cat:
            bench_id = cat.record_bench(
                "smoke", {"qps": 12.5}, store_path=corpus["mono"]
            )
            rows = cat.benchmarks()
            assert [r["bench_id"] for r in rows] == [bench_id]
            assert json.loads(rows[0]["metrics"]) == {"qps": 12.5}
            # The store it names was registered on the fly.
            assert cat.store_id_for(corpus["mono"]) is not None

    def test_env_gated_helpers_noop_without_catalog(
        self, corpus, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CATALOG", raising=False)
        assert maybe_register_build(corpus["mono"]) is None
        assert maybe_record_bench("noop", {}) is None

    def test_env_gated_helpers_write_when_set(
        self, corpus, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CATALOG", str(tmp_path / "env.db"))
        store_id = maybe_register_build(corpus["mono"], build_seconds=0.5)
        bench_id = maybe_record_bench("env", {"ok": True})
        assert store_id is not None and bench_id is not None
        with Catalog(tmp_path / "env.db") as cat:
            assert cat.store(store_id)["build_seconds"] == pytest.approx(0.5)


class TestMigration:
    def test_fresh_catalog_is_current_version(self, tmp_path):
        with Catalog(tmp_path / "cat.db") as cat:
            assert cat.schema_version == SCHEMA_VERSION

    def test_v1_upgrades_to_v2_preserving_rows(self, corpus, tmp_path):
        path = tmp_path / "old.db"
        conn = connect(path)
        assert apply_migrations(conn, upto=1) == 1
        columns = [
            r[1] for r in conn.execute("PRAGMA table_info(stores)").fetchall()
        ]
        assert "build_seconds" not in columns
        with conn:
            conn.execute(
                "INSERT INTO stores (path, kind, fingerprint, identity_crc, "
                "records, total_length, shard_count, file_bytes, created_utc) "
                "VALUES (?, 'store', 'fp', 1, 3, 9000, 1, 100, 't')",
                (str(corpus["mono"]),),
            )
        conn.close()

        with Catalog(path) as cat:  # opening migrates v1 -> v2
            assert cat.schema_version == SCHEMA_VERSION
            rows = cat.stores()
            assert len(rows) == 1
            assert rows[0]["fingerprint"] == "fp"
            assert rows[0]["build_seconds"] is None  # new column backfills NULL
            # The v2 benchmarks table exists and is usable post-migration.
            cat.record_bench("post-migration", {"ok": 1})
            assert len(cat.benchmarks()) == 1

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "future.db"
        conn = connect(path)
        apply_migrations(conn)
        with conn:
            conn.execute("PRAGMA user_version = 99")
        conn.close()
        with pytest.raises(CatalogError, match="newer"):
            Catalog(path)


class TestRequestLog:
    def test_rows_drain_to_sqlite(self, tmp_path):
        path = tmp_path / "cat.db"
        rows = [_request_row(length=40 + i) for i in range(5)]
        _log_requests(path, rows)
        with Catalog(path) as cat:
            assert cat.request_count() == 5

    def test_counters_and_column_order(self, tmp_path):
        path = tmp_path / "cat.db"
        with RequestLog(path, flush_interval=0.01) as log:
            log.record(_request_row())
            # ``pending`` drops when the writer takes the row, before its
            # commit counts it as written: wait for the commit itself.
            deadline = time.monotonic() + 5.0
            while not log.counters()["written"] and time.monotonic() < deadline:
                time.sleep(0.01)
            counters = log.counters()
        assert counters["written"] == 1
        assert counters["dropped"] == 0
        conn = sqlite3.connect(path)
        names = [
            r[1] for r in conn.execute("PRAGMA table_info(requests)").fetchall()
        ]
        conn.close()
        assert [c for c in REQUEST_COLUMNS if c in names] == list(REQUEST_COLUMNS)

    def test_bounded_drop_over_max_pending(self, tmp_path):
        log = RequestLog(
            tmp_path / "cat.db", flush_interval=60.0, max_pending=3
        )
        try:
            for _ in range(10):
                log.record(_request_row())
            assert log.dropped >= 7  # writer may drain a few before the cap
        finally:
            log.close()

    def test_query_hash_is_stable_and_short(self):
        assert query_hash("ACGT") == query_hash("ACGT")
        assert query_hash("ACGT") != query_hash("ACGA")
        assert len(query_hash("ACGT")) == 16
        int(query_hash("ACGT"), 16)  # hex


class TestSpans:
    def test_add_span_accumulates(self):
        spans = {}
        add_span(spans, "engine", 0.25)
        add_span(spans, "engine", 0.5)
        assert spans["engine"] == pytest.approx(0.75)

    def test_stats_merge_sums_spans(self):
        left = SearchStats(spans={"engine": 0.1, "locate": 0.01})
        right = SearchStats(spans={"engine": 0.2, "merge": 0.05})
        left.merge(right)
        assert left.spans["engine"] == pytest.approx(0.3)
        assert left.spans["locate"] == pytest.approx(0.01)
        assert left.spans["merge"] == pytest.approx(0.05)

    def test_shard_seconds_ordering(self):
        spans = {shard_span(2): 0.3, shard_span(0): 0.1, "engine": 9.0}
        assert shard_seconds(spans) == [0.1, 0.3]
        assert shard_seconds({"engine": 1.0}) == []

    def test_format_spans_stable(self):
        text = format_spans({"locate": 0.001, "engine": 0.002})
        assert text == "engine=2.000ms locate=1.000ms"

    def test_service_search_populates_spans(self, corpus):
        service = SearchService(store=corpus["mono"])
        sequence = corpus["database"].records[0].sequence[100:160]
        result = service.search(sequence, threshold=THRESHOLD)
        assert "engine" in result.stats.spans
        assert result.stats.spans["engine"] >= 0.0
        assert "locate" in result.stats.spans

    def test_sharded_search_attributes_shards(self, corpus):
        service = ShardedSearchService(corpus["sharded"])
        sequence = corpus["database"].records[0].sequence[100:160]
        result = service.search(sequence, threshold=THRESHOLD)
        assert "merge" in result.stats.spans
        assert len(shard_seconds(result.stats.spans)) == 2


class TestReplayPlan:
    def _catalog_with_traffic(self, tmp_path, name="cat.db"):
        path = tmp_path / name
        rows = [
            _request_row(length=40, mode="exact"),
            _request_row(length=40, mode="exact"),
            _request_row(length=60, mode="fast", threshold=None, e_value=5.0),
            _request_row(length=80, mode="verified", top_k=3),
            _request_row(length=200, status="error"),  # must be excluded
        ]
        _log_requests(path, rows)
        return path

    def test_same_seed_byte_identical(self, tmp_path):
        path = self._catalog_with_traffic(tmp_path)
        one = ReplayPlan.from_catalog(path, seed=7)
        two = ReplayPlan.from_catalog(path, seed=7)
        assert one.to_json() == two.to_json()

    def test_different_seed_differs(self, tmp_path):
        path = self._catalog_with_traffic(tmp_path)
        one = ReplayPlan.from_catalog(path, seed=1, count=16)
        two = ReplayPlan.from_catalog(path, seed=2, count=16)
        assert one.to_json() != two.to_json()

    def test_round_trips_through_json(self, tmp_path):
        path = self._catalog_with_traffic(tmp_path)
        plan = ReplayPlan.from_catalog(path, seed=3, count=8)
        again = ReplayPlan.from_json(plan.to_json())
        assert again.to_json() == plan.to_json()
        assert again.events == plan.events

    def test_mix_reflects_log_not_errors(self, tmp_path):
        path = self._catalog_with_traffic(tmp_path)
        plan = ReplayPlan.from_catalog(path, seed=0, count=64)
        lengths = {e.length for e in plan.events}
        assert lengths <= {40, 60, 80}  # the error row's 200 never drawn
        modes = {e.mode for e in plan.events}
        assert modes <= {"exact", "fast", "verified"}

    def test_empty_log_refused(self, tmp_path):
        with Catalog(tmp_path / "empty.db"):
            pass
        with pytest.raises(ReplayError, match="request log is empty"):
            ReplayPlan.from_catalog(tmp_path / "empty.db")

    def test_synthesized_queries_deterministic_substrings(self, tmp_path):
        path = self._catalog_with_traffic(tmp_path)
        plan = ReplayPlan.from_catalog(path, seed=5, count=6)
        text = genome(2_000, np.random.default_rng(3))
        one = synthesize_queries(plan, text)
        two = synthesize_queries(plan, text)
        assert one == two
        for event, query in zip(plan.events, one):
            assert len(query) == event.length
            assert query in text

    def test_replay_against_local_service(self, corpus, tmp_path):
        path = self._catalog_with_traffic(tmp_path)
        plan = ReplayPlan.from_catalog(path, seed=11, count=4)
        service = SearchService(store=corpus["mono"])
        report = replay_plan(plan, service=service)
        assert report.queries == 4
        assert report.errors == 0
        assert set(report.latency) == {"p50", "p90", "p99"}
        assert sum(report.mode_counts.values()) == 4
        assert "replayed 4 queries" in report.format()

    def test_replay_counts_refused_requests(self, corpus, tmp_path):
        # Logs written before exact-only serving hold ``fast`` rows; the
        # in-process replay counts each refusal and serves the rest, as
        # the server path does.
        path = self._catalog_with_traffic(tmp_path)
        plan = ReplayPlan.from_catalog(path, seed=4, count=12)
        fast = sum(event.mode == "fast" for event in plan.events)
        assert 0 < fast < len(plan.events)
        service = SearchService(store=corpus["mono"])
        report = replay_plan(plan, service=service)
        assert report.errors == fast
        assert report.queries == len(plan.events)
        assert report.mode_counts["fast"] == fast
        assert report.mode_counts["exact"] + report.mode_counts["verified"] == (
            len(plan.events) - fast
        )

    def test_replay_sharded_names_hottest_shard(self, corpus, tmp_path):
        path = self._catalog_with_traffic(tmp_path)
        plan = ReplayPlan.from_catalog(path, seed=13, count=4)
        service = ShardedSearchService(corpus["sharded"])
        text = corpus["database"].text
        report = replay_plan(plan, service=service, text=text)
        assert set(report.per_shard) == {0, 1}
        assert report.hottest_shard in (0, 1)
        assert "<- hottest" in report.format()

    def test_replay_requires_exactly_one_target(self, corpus, tmp_path):
        path = self._catalog_with_traffic(tmp_path)
        plan = ReplayPlan.from_catalog(path, seed=0, count=1)
        with pytest.raises(ReplayError, match="either service"):
            replay_plan(plan)
        with pytest.raises(ReplayError, match="either service"):
            replay_plan(
                plan, service=SearchService(store=corpus["mono"]),
                host="127.0.0.1", port=1,
            )
