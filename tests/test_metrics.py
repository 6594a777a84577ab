"""The metrics layer: primitives, exposition, exporter, wire op, ``top``.

Exact-string exposition and thread-hammer tests run against private
:class:`MetricsRegistry` instances so they are independent of whatever the
process-wide registry has accumulated; the server integration tests use the
shared registry and therefore assert *deltas*, never absolutes.
"""

import json
import math
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import IndexStore, SearchService, ShardedStore, genome, write_fasta
from repro.cli import main
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.obs.exporter import MetricsExporter
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    EWMA,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsError,
    MetricsRegistry,
    family,
    format_value,
    histogram_quantile,
    metrics_enabled,
    sample_value,
    set_enabled,
)
from repro.obs.spans import span_tree
from repro.obs.top import TopSample, render_top, run_top
from repro.server import SearchServer, ServerClient, ServerThread

THRESHOLD = 30


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    """A small sharded database and query material (mirrors test_server)."""
    root = tmp_path_factory.mktemp("metrics")
    rng = np.random.default_rng(23)
    records = [
        FastaRecord(f"chr{i}", genome(1_500 + 400 * i, rng))
        for i in range(1, 4)
    ]
    fasta = root / "db.fa"
    write_fasta(records, fasta)
    database = SequenceDatabase.from_fasta(fasta)
    mono = root / "db.idx"
    IndexStore.build(database).save(mono)
    sharded = root / "db.shd"
    ShardedStore.build(database, sharded, shards=2)
    queries = [
        ("q1", records[0].sequence[50:110]),
        ("q2", records[1].sequence[300:360]),
        ("q3", records[2].sequence[20:50] + records[2].sequence[56:86]),
    ]
    return {
        "root": root,
        "mono": mono,
        "sharded": sharded,
        "queries": queries,
    }


@pytest.fixture(scope="module")
def running_server(serving_setup):
    """One shared sharded server with an ephemeral metrics port."""
    server = SearchServer(
        serving_setup["sharded"], port=0, reload_poll=0, metrics_port=0,
    )
    with ServerThread(server) as handle:
        yield handle


def families_of(client):
    return client.metrics()["families"]


class TestCounter:
    def test_inc_and_value(self):
        counter = Counter("t_c_total", "help", registry=None)
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_negative_inc_rejected(self):
        counter = Counter("t_c_neg_total", "help", registry=None)
        with pytest.raises(MetricsError, match="only go up"):
            counter.inc(-1)

    def test_labels_cached(self):
        counter = Counter("t_c_lab_total", "help", ("mode",), registry=None)
        assert counter.labels(mode="exact") is counter.labels("exact")

    def test_label_arity_enforced(self):
        counter = Counter("t_c_arity_total", "help", ("a", "b"), registry=None)
        with pytest.raises(MetricsError, match="2 label values"):
            counter.labels("only-one")
        with pytest.raises(MetricsError, match="missing label"):
            counter.labels(a="x")
        with pytest.raises(MetricsError, match="positionally or by name"):
            counter.labels("x", b="y")

    def test_invalid_names_rejected(self):
        with pytest.raises(MetricsError, match="invalid metric name"):
            Counter("0bad", "help", registry=None)
        with pytest.raises(MetricsError, match="invalid label name"):
            Counter("t_ok_total", "help", ("__reserved",), registry=None)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("t_g", "help", registry=None)
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0


class TestHistogram:
    def test_observe_counts_and_sum(self):
        histogram = Histogram(
            "t_h_seconds", "help", buckets=(1.0, 2.0, 4.0), registry=None
        )
        for value in (0.5, 1.5, 3.0, 9.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == 14.0

    def test_quantile_is_upper_bucket_bound(self):
        histogram = Histogram(
            "t_h_q_seconds", "help", buckets=(1.0, 2.0, 4.0), registry=None
        )
        assert histogram.quantile(0.5) == 0.0  # empty
        for value in (0.5, 0.6, 1.5, 3.0):
            histogram.observe(value)
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.9) == 4.0
        histogram.observe(100.0)  # past the last bound -> largest finite
        assert histogram.quantile(1.0) == 4.0

    def test_bad_buckets_rejected(self):
        with pytest.raises(MetricsError, match="strictly increasing"):
            Histogram("t_h_bad", "help", buckets=(2.0, 1.0), registry=None)
        with pytest.raises(MetricsError, match="at least one"):
            Histogram("t_h_empty", "help", buckets=(), registry=None)
        with pytest.raises(MetricsError, match="reserved"):
            Histogram("t_h_le", "help", ("le",), registry=None)

    def test_explicit_inf_bucket_stripped(self):
        histogram = Histogram(
            "t_h_inf", "help", buckets=(1.0, math.inf), registry=None
        )
        assert histogram.buckets == (1.0,)


class TestRegistryBehaviour:
    def test_duplicate_registration_adopts_state(self):
        registry = MetricsRegistry()
        first = Counter("dup_total", "help", ("m",), registry=registry)
        first.labels(m="x").inc(3)
        second = Counter("dup_total", "help", ("m",), registry=registry)
        second.labels(m="x").inc()
        # Both instances share one series set (module re-import safety).
        assert first.labels(m="x").value == 4.0
        assert registry.get("dup_total").labels(m="x").value == 4.0

    def test_mismatched_signature_rejected(self):
        registry = MetricsRegistry()
        Counter("sig_total", "help", ("m",), registry=registry)
        with pytest.raises(MetricsError, match="already registered"):
            Counter("sig_total", "help", ("other",), registry=registry)
        with pytest.raises(MetricsError, match="already registered"):
            Gauge("sig_total", "help", ("m",), registry=registry)

    def test_registry_none_is_unregistered(self):
        registry = MetricsRegistry()
        Counter("loose_total", "help", registry=None)
        assert registry.names() == []
        assert REGISTRY.get("loose_total") is None

    def test_reset_zeroes_but_keeps_series(self):
        registry = MetricsRegistry()
        counter = Counter("r_total", "help", ("m",), registry=registry)
        counter.labels(m="a").inc(7)
        registry.reset()
        assert counter.labels(m="a").value == 0.0
        assert [s["labels"] for s in counter.collect_samples()] == [{"m": "a"}]


class TestExposition:
    def test_counter_exact_text(self):
        registry = MetricsRegistry()
        counter = Counter("jobs_total", "Jobs done.", ("mode",), registry=registry)
        counter.labels(mode="fast").inc(2)
        counter.labels(mode="exact").inc()
        assert registry.exposition() == (
            "# HELP jobs_total Jobs done.\n"
            "# TYPE jobs_total counter\n"
            'jobs_total{mode="exact"} 1\n'
            'jobs_total{mode="fast"} 2\n'
        )

    def test_histogram_exact_text(self):
        registry = MetricsRegistry()
        histogram = Histogram(
            "lat_seconds", "Latency.", buckets=(0.5, 1.0), registry=registry
        )
        for value in (0.25, 0.75, 2.5):
            histogram.observe(value)
        assert registry.exposition() == (
            "# HELP lat_seconds Latency.\n"
            "# TYPE lat_seconds histogram\n"
            'lat_seconds_bucket{le="0.5"} 1\n'
            'lat_seconds_bucket{le="1"} 2\n'
            'lat_seconds_bucket{le="+Inf"} 3\n'
            "lat_seconds_sum 3.5\n"
            "lat_seconds_count 3\n"
        )

    def test_families_sorted_by_name(self):
        registry = MetricsRegistry()
        Counter("zz_total", "z", registry=registry)
        Counter("aa_total", "a", registry=registry)
        text = registry.exposition()
        assert text.index("aa_total") < text.index("zz_total")

    def test_label_and_help_escaping(self):
        registry = MetricsRegistry()
        counter = Counter("esc_total", 'line\nbreak \\ "q"', ("p",), registry=registry)
        counter.labels(p='a"b\\c\nd').inc()
        text = registry.exposition()
        assert "# HELP esc_total line\\nbreak \\\\ \"q\"\n" in text
        assert 'esc_total{p="a\\"b\\\\c\\nd"} 1\n' in text

    def test_format_value(self):
        assert format_value(3.0) == "3"
        assert format_value(0.5) == "0.5"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"

    def test_collect_mirrors_exposition(self):
        registry = MetricsRegistry()
        histogram = Histogram("c_seconds", "h", buckets=(1.0,), registry=registry)
        histogram.observe(0.5)
        (fam,) = registry.collect()
        assert fam["name"] == "c_seconds"
        assert fam["type"] == "histogram"
        (sample,) = fam["samples"]
        assert sample["buckets"] == [["1", 1], ["+Inf", 1]]
        assert sample["count"] == 1
        assert sample["sum"] == 0.5


class TestConcurrency:
    """Counters and histograms promise *exact* totals under threads."""

    THREADS = 8
    PER_THREAD = 5_000

    def _hammer(self, work):
        threads = [
            threading.Thread(target=work) for _ in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_exact_under_threads(self):
        counter = Counter("hammer_total", "h", ("m",), registry=None)

        def work():
            child = counter.labels(m="x")
            for _ in range(self.PER_THREAD):
                child.inc()

        self._hammer(work)
        assert counter.labels(m="x").value == self.THREADS * self.PER_THREAD

    def test_histogram_exact_under_threads(self):
        histogram = Histogram(
            "hammer_seconds", "h", buckets=(0.5, 1.0), registry=None
        )

        def work():
            for index in range(self.PER_THREAD):
                histogram.observe(0.25 if index % 2 else 0.75)

        self._hammer(work)
        total = self.THREADS * self.PER_THREAD
        assert histogram.count == total
        assert histogram.sum == pytest.approx(total * 0.5, rel=1e-9)
        (sample,) = histogram.collect_samples()
        # Exact per-bucket counts, not just the total.
        assert sample["buckets"] == [
            ["0.5", total // 2], ["1", total], ["+Inf", total],
        ]

    def test_concurrent_label_creation_single_child(self):
        counter = Counter("race_total", "h", ("m",), registry=None)
        children = []
        barrier = threading.Barrier(self.THREADS)

        def work():
            barrier.wait()
            children.append(counter.labels(m="same"))

        self._hammer(work)
        assert all(child is children[0] for child in children)

    def test_disabled_mutators_are_noops(self):
        counter = Counter("off_total", "h", registry=None)
        set_enabled(False)
        try:
            counter.inc(5)
            assert not metrics_enabled()
        finally:
            set_enabled(True)
        assert counter.value == 0.0
        counter.inc()
        assert counter.value == 1.0


class TestEWMA:
    def test_first_sample_primes(self):
        ewma = EWMA(alpha=0.5)
        assert ewma.update(10.0) == 10.0
        assert ewma.update(0.0) == 5.0
        assert ewma.value == 5.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(MetricsError, match="alpha"):
            EWMA(alpha=0.0)


class TestHelpers:
    def test_family_and_sample_value(self):
        registry = MetricsRegistry()
        counter = Counter("h_total", "h", ("m",), registry=registry)
        counter.labels(m="a").inc(4)
        families = registry.collect()
        assert family(families, "h_total")["type"] == "counter"
        assert family(families, "missing") is None
        assert sample_value(families, "h_total", m="a") == 4.0
        assert sample_value(families, "h_total", m="zz") is None

    def test_histogram_quantile_from_sample(self):
        registry = MetricsRegistry()
        histogram = Histogram("hq_seconds", "h", buckets=(1.0, 2.0), registry=registry)
        for value in (0.5, 1.5, 1.6, 9.0):
            histogram.observe(value)
        (fam,) = registry.collect()
        (sample,) = fam["samples"]
        assert histogram_quantile(sample, 0.5) == 2.0
        assert histogram_quantile(sample, 1.0) == 2.0  # +Inf falls back
        assert histogram_quantile({"count": 0, "buckets": []}, 0.5) == 0.0


class TestExporter:
    def _get(self, port, path):
        return urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=10
        )

    def test_metrics_endpoint_serves_exposition(self):
        registry = MetricsRegistry()
        Counter("exp_total", "h", registry=registry).inc(3)
        with MetricsExporter(registry, port=0) as exporter:
            with self._get(exporter.port, "/metrics") as response:
                body = response.read().decode("utf-8")
                content_type = response.headers["Content-Type"]
        assert content_type.startswith("text/plain; version=0.0.4")
        assert "exp_total 3\n" in body
        assert body == registry.exposition()

    def test_index_and_404(self):
        registry = MetricsRegistry()
        with MetricsExporter(registry, port=0) as exporter:
            with self._get(exporter.port, "/") as response:
                assert b"/metrics" in response.read()
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(exporter.port, "/nope")
            assert excinfo.value.code == 404


class TestServerIntegration:
    """Shared-registry assertions are deltas: other tests also serve."""

    def test_metrics_op_shape(self, running_server):
        with ServerClient(port=running_server.port) as client:
            response = client.metrics()
        assert response["enabled"] is True
        assert response["generation"] >= 1
        routing = response["routing"]
        assert set(routing) == {
            "queue_depth", "ewma_queue_depth", "latency_quantiles",
        }
        names = [fam["name"] for fam in response["families"]]
        assert names == sorted(names)
        assert "repro_server_requests_total" in names

    def test_search_moves_counters_and_histograms(
        self, serving_setup, running_server
    ):
        with ServerClient(port=running_server.port) as client:
            before = families_of(client)
            client.search(serving_setup["queries"], threshold=THRESHOLD)
            after = families_of(client)
        served = family(after, "repro_server_request_seconds")["samples"]
        exact = next(s for s in served if s["labels"] == {"mode": "exact"})
        was = family(before, "repro_server_request_seconds")
        was_count = 0
        if was:
            for sample in was["samples"]:
                if sample["labels"] == {"mode": "exact"}:
                    was_count = sample["count"]
        assert exact["count"] == was_count + len(serving_setup["queries"])
        delta = (
            sample_value(after, "repro_server_requests_total", op="search")
            - (sample_value(before, "repro_server_requests_total", op="search") or 0)
        )
        assert delta == 1.0

    def test_sharded_and_engine_families_populate(
        self, serving_setup, running_server
    ):
        with ServerClient(port=running_server.port) as client:
            client.search(serving_setup["queries"], threshold=THRESHOLD)
            families = families_of(client)
        shard = family(families, "repro_sharded_shard_seconds")
        shards = {s["labels"]["shard"] for s in shard["samples"]}
        # Superset, not equality: other test modules' sharded servers share
        # the process-wide registry and may have minted more shard labels.
        assert {"0", "1"} <= shards
        engine = family(families, "repro_engine_searches_total")
        assert any(
            s["labels"]["mode"] == "exact" and s["value"] > 0
            for s in engine["samples"]
        )

    def test_routing_quantiles_after_traffic(
        self, serving_setup, running_server
    ):
        with ServerClient(port=running_server.port) as client:
            client.search(serving_setup["queries"], threshold=THRESHOLD)
            routing = client.metrics()["routing"]
        quantiles = routing["latency_quantiles"]["exact"]
        assert quantiles["p50"] <= quantiles["p90"] <= quantiles["p99"]
        assert quantiles["p99"] in DEFAULT_LATENCY_BUCKETS
        assert routing["ewma_queue_depth"] >= 0.0

    def test_stats_gains_span_counts_and_means(
        self, serving_setup, running_server
    ):
        with ServerClient(port=running_server.port) as client:
            client.search(serving_setup["queries"], threshold=THRESHOLD)
            stats = client.stats()["stats"]
        assert "routing" in stats
        counts = stats["spans_count"]
        means = stats["spans_mean_seconds"]
        assert set(counts) == set(stats["spans_seconds"])
        assert set(means) == set(counts)
        for name, count in counts.items():
            assert count >= 1
            assert means[name] == pytest.approx(
                round(stats["spans_seconds"][name] / count, 6), abs=1e-6
            )

    def test_unknown_op_folds_to_unknown_label(self, running_server):
        with ServerClient(port=running_server.port) as client:
            before = sample_value(
                families_of(client), "repro_server_requests_total", op="unknown"
            ) or 0
            response = client.request({"op": "bogus-op"})
            assert response.get("status") == "error"
            after = sample_value(
                families_of(client), "repro_server_requests_total", op="unknown"
            )
        assert after == before + 1

    def test_http_exporter_attached_to_server(self, running_server):
        port = running_server.server.metrics_port
        assert port  # ephemeral port resolved after start
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}/metrics", timeout=10
        ) as response:
            body = response.read().decode("utf-8")
        assert "# TYPE repro_server_requests_total counter" in body


def _top_sample(at, counts, extra_families=(), **stats):
    buckets = [["0.001", counts], ["+Inf", counts]]
    families = [
        {
            "name": "repro_server_request_seconds",
            "type": "histogram",
            "help": "h",
            "samples": [
                {
                    "labels": {"mode": "exact"},
                    "buckets": buckets,
                    "sum": counts * 0.0005,
                    "count": counts,
                }
            ],
        },
        {
            "name": "repro_server_inflight_requests",
            "type": "gauge",
            "help": "h",
            "samples": [{"labels": {}, "value": 2}],
        },
        *extra_families,
    ]
    base_stats = {
        "generation": 3,
        "uptime_seconds": 12.0,
        "queue_depth": 1,
        "overloaded_total": 0,
        "cache_hits": 3,
        "cache_misses": 1,
        "cache_size": 4,
    }
    base_stats.update(stats)
    return TopSample(
        at=at,
        stats=base_stats,
        families=families,
        routing={"ewma_queue_depth": 0.75},
        index="db.shd",
        mode="exact",
    )


class TestTopRender:
    def test_frame_is_deterministic(self):
        frame = render_top(_top_sample(10.0, counts=4))
        assert frame == render_top(_top_sample(10.0, counts=4))
        assert frame.splitlines()[0] == (
            "repro top — db.shd — mode exact — generation 3 — uptime 12s"
        )
        assert "exact" in frame
        assert "       -" in frame  # no previous sample -> qps placeholder
        assert "queue: depth 1 (ewma 0.75)  inflight 2  overloaded 0" in frame
        assert "cache: 75.0% hit (3 hits / 1 misses, 4 entries)" in frame

    def test_qps_from_counter_differencing(self):
        previous = _top_sample(10.0, counts=4)
        current = _top_sample(12.0, counts=10)
        frame = render_top(current, previous)
        assert "     3.0" in frame  # (10 - 4) / 2s

    def test_empty_sample_fallback(self):
        frame = render_top(TopSample(at=0.0))
        assert "(no served queries yet)" in frame

    def test_shard_and_reqlog_lines(self):
        shard_family = {
            "name": "repro_sharded_shard_seconds",
            "type": "histogram",
            "help": "h",
            "samples": [
                {"labels": {"shard": "0"}, "buckets": [], "sum": 0.25, "count": 5},
                {"labels": {"shard": "1"}, "buckets": [], "sum": 0.75, "count": 5},
            ],
        }
        sample = _top_sample(
            1.0, counts=2, extra_families=(shard_family,),
            request_log={"written": 9, "dropped": 1, "pending": 0},
        )
        frame = render_top(sample)
        assert "reqlog: written 9 dropped 1 pending 0" in frame
        assert "shards: 2 reporting, hottest shard1 (0.750s of 1.000s work)" in frame

    def test_run_top_once_writes_single_frame(self, running_server):
        frames = []
        with ServerClient(port=running_server.port) as client:
            code = run_top(client, once=True, write=frames.append)
        assert code == 0
        assert len(frames) == 1
        assert frames[0].startswith("repro top — ")


class TestSpanTree:
    def test_shards_split_from_spans(self):
        tree = span_tree(
            {"engine": 0.5, "merge": 0.25, "shard1": 0.1, "shard0": 0.2}
        )
        assert tree == {
            "spans": {"engine": 0.5, "merge": 0.25},
            "shards": {"0": 0.2, "1": 0.1},
        }

    def test_rounding_and_empty(self):
        # "shards" is omitted (not empty) when nothing attributes to shards.
        assert span_tree({"engine": 0.123456789}) == {
            "spans": {"engine": 0.123457},
        }
        assert span_tree({}) == {"spans": {}}


class TestCliByteIdentity:
    """Exact-mode stdout must not change with metrics on, off, or traced."""

    def _query_stdout(
        self, capsys, running_server, serving_setup, *extra,
        threshold=THRESHOLD,
    ):
        queries = serving_setup["root"] / "queries.fa"
        if not queries.exists():
            write_fasta(
                [FastaRecord(qid, seq) for qid, seq in serving_setup["queries"]],
                queries,
            )
        code = main([
            "query", str(queries),
            "--port", str(running_server.port),
            "--threshold", str(threshold),
            "--mode", "exact",
            *extra,
        ])
        assert code == 0
        return capsys.readouterr().out

    def test_stdout_identical_metrics_on_off(
        self, capsys, serving_setup, running_server
    ):
        enabled = self._query_stdout(capsys, running_server, serving_setup)
        set_enabled(False)
        try:
            disabled = self._query_stdout(capsys, running_server, serving_setup)
        finally:
            set_enabled(True)
        assert enabled == disabled

    def test_stdout_identical_with_trace_out(
        self, capsys, serving_setup, running_server, tmp_path
    ):
        # A threshold the other tests don't use keys fresh cache entries,
        # so the traced run (first) serves uncached and carries spans.
        trace_path = tmp_path / "trace.json"
        traced = self._query_stdout(
            capsys, running_server, serving_setup,
            "--trace-out", str(trace_path), threshold=THRESHOLD + 2,
        )
        plain = self._query_stdout(
            capsys, running_server, serving_setup, threshold=THRESHOLD + 2
        )
        assert traced == plain
        document = json.loads(trace_path.read_text())
        assert trace_path.read_text().endswith("\n")
        assert document["mode"] == "exact"
        assert [q["id"] for q in document["queries"]] == ["q1", "q2", "q3"]
        assert not any(q["cached"] for q in document["queries"])
        for query in document["queries"]:
            assert set(query["shards"]) == {"0", "1"}
            assert "merge" in query["spans"]

    def test_served_stdout_matches_offline_cli(
        self, capsys, serving_setup, running_server
    ):
        served = self._query_stdout(capsys, running_server, serving_setup)
        code = main([
            "search-db", "--index", str(serving_setup["mono"]),
            str(serving_setup["root"] / "queries.fa"),
            "--threshold", str(THRESHOLD),
        ])
        assert code == 0
        offline = capsys.readouterr().out
        assert served == offline
