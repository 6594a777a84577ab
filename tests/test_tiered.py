"""The tiered search-backend layer: protocol, modes, soundness, isolation.

Covers the PR 6 invariants end to end:

* every adapter satisfies the :class:`~repro.engine.SearchBackend` protocol
  and declares honest metadata (mode, exactness, hit ordering);
* ``verified`` hits are a **subset** of ``exact`` hits with bit-equal
  scores, end positions and start attributions (Theorem 1 windowing), on
  random texts, both alphabets and multiple schemes;
* measured recall is reported, correctly normalised, and hits 1.0 on
  workloads whose only above-threshold alignments are seeded;
* the service layers thread ``mode`` through (per-call override, pinned
  legacy engines, sharded parity), and the serving tier's batch and cache
  keys isolate modes — a cached exact answer can never answer ``fast``.
"""

import asyncio

import numpy as np
import pytest

from repro import DNA, PROTEIN, IndexStore, ScoringScheme, genome
from repro.align.types import START_UNKNOWN
from repro.blast.engine import Blast
from repro.core.alae import ALAE
from repro.data.synthetic import sample_homologous_queries
from repro.engine import (
    MODE_ENGINE_NAMES,
    MODE_ORDERINGS,
    MODES,
    ORDER_POSITION,
    ORDER_SCORE,
    AlaeBackend,
    BlastBackend,
    BwtSwBackend,
    SearchBackend,
    VerifiedBackend,
    backend_from_store,
    backend_from_text,
    check_mode,
    split_engine_kwargs,
)
from repro.errors import SearchError
from repro.index.kmer_index import DEFAULT_WORD_SIZE, KmerIndex
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.server import (
    BatchKey,
    CachedResult,
    MicroBatcher,
    ResultCache,
    SearchServer,
    ServerClient,
    ServerThread,
)
from repro.service import Query, SearchService, ServiceError
from repro.service.sharded import ShardedSearchService
from repro.store import ShardedStore


def _planted_text_and_query(rng, n=2_000, qlen=60, alphabet=DNA):
    """A text plus a query that is an exact copy of one of its windows."""
    text = alphabet.random_sequence(n, rng)
    start = int(rng.integers(0, n - qlen))
    return text, text[start : start + qlen]


def _hit_map(result):
    """``(t_end, p_end) -> (score, t_start)`` for subset comparisons."""
    return {
        (hit.t_end, hit.p_end): (hit.score, hit.t_start)
        for hit in result.hits.hits()
    }


# ---------------------------------------------------------------- protocol
class TestBackendProtocol:
    def test_adapters_satisfy_protocol(self):
        text = "ACGTACGTACGTACGTACGT"
        exact = AlaeBackend(ALAE(text))
        fast = BlastBackend(Blast(text, word_size=4))
        tiers = [
            exact,
            fast,
            VerifiedBackend(Blast(text, word_size=4), exact.engine),
        ]
        for backend in tiers:
            assert isinstance(backend, SearchBackend)
            assert backend.info.mode in MODES
            description = backend.describe()
            assert description["name"] == backend.info.name
            assert description["text_length"] == len(text)

    def test_declared_metadata(self):
        assert AlaeBackend.info.exact and AlaeBackend.info.ordering == ORDER_POSITION
        assert BwtSwBackend.info.exact
        assert not BlastBackend.info.exact
        assert BlastBackend.info.ordering == ORDER_SCORE
        assert not VerifiedBackend.info.exact
        assert MODE_ORDERINGS == {
            "exact": AlaeBackend.info.ordering,
            "fast": BlastBackend.info.ordering,
            "verified": VerifiedBackend.info.ordering,
        }
        assert set(MODE_ENGINE_NAMES) == set(MODES)

    def test_check_mode(self):
        assert check_mode(None) == "exact"
        assert check_mode("verified") == "verified"
        with pytest.raises(SearchError, match="unknown search mode"):
            check_mode("turbo")

    def test_split_engine_kwargs_routes_by_key(self):
        exact, blast, verified = split_engine_kwargs(
            {
                "use_vectorized": False,
                "word_size": 8,
                "gap_trigger": 20,
                "measure_recall": False,
            }
        )
        assert exact == {"use_vectorized": False}
        assert blast == {"word_size": 8, "gap_trigger": 20}
        assert verified == {"measure_recall": False}

    def test_verified_rejects_mismatched_engines(self):
        rng = np.random.default_rng(0)
        text = DNA.random_sequence(300, rng)
        with pytest.raises(SearchError, match="same text"):
            VerifiedBackend(Blast(text), ALAE(text[:200]))
        with pytest.raises(SearchError, match="same scoring scheme"):
            VerifiedBackend(
                Blast(text),
                ALAE(text, scheme=ScoringScheme(2, -3, -7, -2)),
            )


# -------------------------------------------------------------- satellites
class TestSatellites:
    def test_resolve_threshold_reexport_is_same_object(self):
        import warnings

        from repro.scoring.evalue import resolve_threshold as canonical

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            from repro.align.bwt_sw import resolve_threshold as legacy
        assert legacy is canonical

    def test_blast_counters_populated(self):
        rng = np.random.default_rng(3)
        text, query = _planted_text_and_query(rng)
        result = Blast(text, word_size=8).search(query, threshold=40)
        stats = result.stats
        assert stats.extra["seeds"] > 0
        assert stats.calculated_x1 > 0  # ungapped x-drop walks
        assert stats.calculated_x3 > 0  # gapped window DP cells
        assert len(result.hits) >= 1


# ---------------------------------------------------- verified tier proofs
class TestVerifiedSubsetOfExact:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "scheme",
        [ScoringScheme(1, -3, -5, -2), ScoringScheme(2, -3, -7, -2)],
    )
    def test_dna_random_homologs(self, seed, scheme):
        rng = np.random.default_rng(seed)
        text = genome(2_000, rng)
        queries = sample_homologous_queries(
            text, count=2, length=120, rng=rng, sub_rate=0.03
        )
        exact_engine = ALAE(text, scheme=scheme)
        verified = VerifiedBackend(
            Blast(text, scheme=scheme, word_size=8), exact_engine
        )
        for query in queries:
            for threshold in (25, 40):
                exact = exact_engine.search(query, threshold=threshold)
                ver = verified.search(query, threshold=threshold)
                exact_map = _hit_map(exact)
                for cell, payload in _hit_map(ver).items():
                    assert cell in exact_map, (
                        f"verified emitted {cell} not in exact"
                    )
                    assert exact_map[cell] == payload, (
                        f"verified cell {cell} differs: {payload} vs "
                        f"{exact_map[cell]}"
                    )
                extra = ver.stats.extra
                assert extra["exact_hits"] == len(exact.hits)
                assert 0.0 <= extra["recall_vs_exact"] <= 1.0

    def test_protein_alphabet(self):
        rng = np.random.default_rng(11)
        text = PROTEIN.random_sequence(1_200, rng)
        start = int(rng.integers(0, 1_140))
        query = text[start : start + 50]
        exact_engine = ALAE(text, alphabet=PROTEIN)
        ver = VerifiedBackend(
            Blast(text, alphabet=PROTEIN, word_size=5), exact_engine
        ).search(query, threshold=30)
        exact_map = _hit_map(exact_engine.search(query, threshold=30))
        for cell, payload in _hit_map(ver).items():
            assert exact_map[cell] == payload

    def test_start_attribution_bit_equal(self):
        rng = np.random.default_rng(23)
        text, query = _planted_text_and_query(rng, n=1_500, qlen=80)
        exact_engine = ALAE(text)
        ver = VerifiedBackend(Blast(text), exact_engine).search(
            query, threshold=50
        )
        exact_map = _hit_map(exact_engine.search(query, threshold=50))
        assert len(ver.hits) > 0
        for cell, (score, t_start) in _hit_map(ver).items():
            assert t_start != START_UNKNOWN
            assert exact_map[cell] == (score, t_start)


class TestMeasuredRecall:
    def test_seeded_workload_hits_full_recall(self):
        # Threshold high enough that only the planted (seeded) alignment
        # clears it: BLAST proposes it, the window rescoring recovers every
        # exact cell, so measured recall must be exactly 1.0.
        rng = np.random.default_rng(5)
        text, query = _planted_text_and_query(rng, n=3_000, qlen=60)
        result = VerifiedBackend(Blast(text), ALAE(text)).search(
            query, threshold=45
        )
        extra = result.stats.extra
        assert extra["exact_hits"] > 0
        assert extra["recall_vs_exact"] == 1.0
        assert len(result.hits) == extra["exact_hits"]

    def test_homolog_workload_reports_recall(self):
        rng = np.random.default_rng(9)
        text = genome(4_000, rng)
        queries = sample_homologous_queries(
            text, count=3, length=150, rng=rng
        )
        verified = VerifiedBackend(Blast(text, word_size=8), ALAE(text))
        recalls = []
        for query in queries:
            extra = verified.search(query, threshold=30).stats.extra
            assert {"candidate_hits", "verify_windows", "verified_hits",
                    "exact_hits", "recall_vs_exact"} <= set(extra)
            recalls.append(extra["recall_vs_exact"])
        assert all(0.0 <= r <= 1.0 for r in recalls)
        # Seeded segments exist in every query; the tier must find *some*.
        assert max(recalls) > 0.0

    def test_measure_recall_off_skips_exact_run(self):
        rng = np.random.default_rng(13)
        text, query = _planted_text_and_query(rng)
        result = VerifiedBackend(
            Blast(text), ALAE(text), measure_recall=False
        ).search(query, threshold=45)
        assert "recall_vs_exact" not in result.stats.extra
        assert "verified_hits" in result.stats.extra


# ------------------------------------------------------------- store aux
class TestStoreKmerAux:
    @pytest.fixture()
    def database(self):
        rng = np.random.default_rng(21)
        return SequenceDatabase(
            [FastaRecord(f"r{i}", genome(1_200, rng)) for i in range(2)]
        )

    def test_aux_roundtrip_matches_in_memory_index(self, database, tmp_path):
        store = IndexStore.build(database, kmer_k=6)
        path = store.save(tmp_path / "db.idx")
        reopened = IndexStore.open(path)
        assert reopened.header["aux"]["kmer"]["k"] == 6
        persisted = reopened.kmer_index()
        fresh = KmerIndex(database.text, 6)
        assert persisted.k == 6
        assert len(persisted) == len(fresh)
        for start0 in range(0, len(database.text) - 6 + 1, 7):
            kmer = database.text[start0 : start0 + 6]
            assert list(persisted.positions(kmer)) == list(
                fresh.positions(kmer)
            )

    def test_lazy_fallback_for_other_k(self, database, tmp_path):
        store = IndexStore.open(
            IndexStore.build(database, kmer_k=6).save(tmp_path / "db.idx")
        )
        other = store.kmer_index(9)
        assert other.k == 9
        assert store.kmer_index(9) is other  # cached per k

    def test_no_aux_when_disabled(self, database, tmp_path):
        store = IndexStore.build(database, kmer_k=None)
        assert "kmer" not in store.header.get("aux", {})
        path = store.save(tmp_path / "db.idx")
        reopened = IndexStore.open(path)
        # Lazy build still serves the fast tier.
        assert reopened.kmer_index().k == DEFAULT_WORD_SIZE

    def test_fast_from_store_matches_from_text(self, database, tmp_path):
        store = IndexStore.open(
            IndexStore.build(
                database, kmer_k=DEFAULT_WORD_SIZE
            ).save(tmp_path / "db.idx")
        )
        query = database.text[300:360]
        from_store = backend_from_store("fast", store).search(
            query, threshold=40
        )
        from_text = backend_from_text("fast", database.text).search(
            query, threshold=40
        )
        assert _hit_map(from_store) == _hit_map(from_text)


# ---------------------------------------------------------- service modes
class TestServiceModes:
    @pytest.fixture(scope="class")
    def database(self):
        rng = np.random.default_rng(31)
        return SequenceDatabase(
            [FastaRecord(f"chr{i}", genome(1_500, rng)) for i in range(3)]
        )

    @pytest.fixture(scope="class")
    def query(self, database):
        return database.records[1].sequence[200:260]

    def test_per_call_mode_override(self, database, query):
        service = SearchService(database)
        exact = service.search(query, threshold=40)
        ver = service.search(query, threshold=40, mode="verified")
        exact_cells = {
            (hit.sequence_id, hit.t_end, hit.p_end, hit.score, hit.t_start)
            for hit in exact.hits
        }
        ver_cells = {
            (hit.sequence_id, hit.t_end, hit.p_end, hit.score, hit.t_start)
            for hit in ver.hits
        }
        assert ver_cells <= exact_cells
        assert "recall_vs_exact" in ver.stats.extra

    def test_fast_mode_orders_by_score(self, database, query):
        service = SearchService(database, mode="fast")
        result = service.search(query, threshold=30)
        scores = [hit.score for hit in result.hits]
        assert scores == sorted(scores, reverse=True)
        assert result.stats.extra["seeds"] > 0

    def test_unknown_mode_rejected(self, database, query):
        service = SearchService(database)
        with pytest.raises(SearchError, match="unknown search mode"):
            service.search(query, mode="turbo")

    def test_pinned_engine_serves_exact_only(self, database, query):
        service = SearchService(database, engine="bwtsw")
        service.search(query, threshold=40)  # exact still works
        with pytest.raises(ServiceError, match="serves 'exact' only"):
            service.search(query, threshold=40, mode="fast")
        with pytest.raises(ServiceError):
            SearchService(database, engine="blast", mode="fast")


class TestShardedModes:
    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("tiered_shards")
        rng = np.random.default_rng(41)
        database = SequenceDatabase(
            [FastaRecord(f"chr{i}", genome(1_500, rng)) for i in range(4)]
        )
        ShardedStore.build(database, root / "db.shards", shards=2)
        return database, root / "db.shards"

    def test_sharded_verified_subset_of_sharded_exact(self, setup):
        database, manifest = setup
        service = ShardedSearchService(manifest)
        query = database.records[2].sequence[100:160]
        exact = service.search(query, threshold=40)
        ver = service.search(query, threshold=40, mode="verified")
        exact_cells = {
            (hit.sequence_id, hit.t_end, hit.p_end, hit.score, hit.t_start)
            for hit in exact.hits
        }
        for hit in ver.hits:
            assert (
                hit.sequence_id, hit.t_end, hit.p_end, hit.score, hit.t_start
            ) in exact_cells

    def test_sharded_recall_is_ratio_of_sums(self, setup):
        database, manifest = setup
        service = ShardedSearchService(manifest)
        query = database.records[0].sequence[50:110]
        result = service.search(query, threshold=40, mode="verified")
        extra = result.stats.extra
        assert extra["exact_hits"] > 0
        assert extra["recall_vs_exact"] == pytest.approx(
            extra["verified_hits"] / extra["exact_hits"]
        )
        assert extra["recall_vs_exact"] <= 1.0

    def test_sharded_default_mode_constructor(self, setup):
        database, manifest = setup
        service = ShardedSearchService(manifest, mode="fast")
        query = database.records[1].sequence[700:760]
        result = service.search(query, threshold=35)
        scores = [hit.score for hit in result.hits]
        assert scores == sorted(scores, reverse=True)
        with pytest.raises(SearchError, match="unknown search mode"):
            ShardedSearchService(manifest, mode="nope")


# ---------------------------------------------------------- mode isolation
class TestModeKeyIsolation:
    def test_batch_key_includes_mode(self):
        base = BatchKey(threshold=30, e_value=None, top_k=None)
        assert base.mode == "exact"
        assert base != BatchKey(
            threshold=30, e_value=None, top_k=None, mode="fast"
        )

    def test_cache_key_includes_mode(self):
        exact_key = ResultCache.key("ACGT", 30, None, None, 1, "exact")
        fast_key = ResultCache.key("ACGT", 30, None, None, 1, "fast")
        assert exact_key != fast_key
        cache = ResultCache(8)
        cache.put(
            exact_key,
            CachedResult(threshold=30, hits=(), raw_hits=0, dropped_boundary=0),
        )
        assert cache.get(fast_key) is None
        assert cache.get(exact_key) is not None

    def test_cached_result_preserves_extra(self):
        entry = CachedResult(
            threshold=30, hits=(), raw_hits=0, dropped_boundary=0,
            extra={"recall_vs_exact": 0.75, "seeds": 4},
        )
        restored = entry.to_result("q1")
        assert restored.stats.extra["recall_vs_exact"] == 0.75
        assert restored.stats.extra["seeds"] == 4

    def test_batcher_never_mixes_modes(self):
        async def main():
            sizes = []

            async def runner(queries, key):
                sizes.append((len(queries), key.mode))
                return [None] * len(queries)

            batcher = MicroBatcher(runner, max_batch=8)
            batcher.start()
            exact_key = BatchKey(threshold=30, e_value=None, top_k=None)
            fast_key = BatchKey(
                threshold=30, e_value=None, top_k=None, mode="fast"
            )
            futures = [
                batcher.submit(Query(id=f"q{i}", sequence="ACGT"), key)
                for i, key in enumerate(
                    [exact_key, fast_key, exact_key, fast_key]
                )
            ]
            await asyncio.gather(*futures)
            await batcher.stop()
            return sizes

        sizes = asyncio.run(main())
        assert all(size == 1 for size, _mode in sizes)
        assert [mode for _s, mode in sizes] == [
            "exact", "fast", "exact", "fast",
        ]


class TestServedModes:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("tiered_server")
        rng = np.random.default_rng(51)
        database = SequenceDatabase(
            [FastaRecord(f"chr{i}", genome(1_200, rng)) for i in range(2)]
        )
        path = IndexStore.build(database).save(root / "db.idx")
        with ServerThread(
            SearchServer(path, port=0, reload_poll=0)
        ) as handle:
            yield database, handle

    def test_modes_round_trip_and_do_not_share_cache(self, served):
        database, handle = served
        query = database.records[0].sequence[100:160]
        with ServerClient(port=handle.port) as client:
            exact = client.search([query], threshold=40)
            exact_again = client.search([query], threshold=40)
            fast = client.search([query], threshold=40, mode="fast")
            ver = client.search([query], threshold=40, mode="verified")
        assert exact.mode == "exact" and exact.engine == "alae"
        assert exact_again.results[0].cached  # same-mode cache hit works
        assert fast.mode == "fast" and fast.engine == "blast"
        assert not fast.results[0].cached  # exact's entry must not answer fast
        assert ver.engine == "verified"
        assert "recall_vs_exact" in ver.results[0].extra
        exact_cells = {
            (h.sequence_id, h.t_end, h.p_end, h.score, h.t_start)
            for h in exact.results[0].hits
        }
        for hit in ver.results[0].hits:
            assert (
                hit.sequence_id, hit.t_end, hit.p_end, hit.score, hit.t_start
            ) in exact_cells

    def test_cached_verified_keeps_recall(self, served):
        database, handle = served
        query = database.records[1].sequence[300:360]
        with ServerClient(port=handle.port) as client:
            first = client.search([query], threshold=40, mode="verified")
            second = client.search([query], threshold=40, mode="verified")
        assert not first.results[0].cached
        assert second.results[0].cached
        assert first.results[0].extra == second.results[0].extra

    def test_unknown_mode_is_client_error(self, served):
        _database, handle = served
        from repro.server import ServerError

        with ServerClient(port=handle.port) as client:
            with pytest.raises(ServerError, match="unknown search mode"):
                client.search(["ACGTACGT"], threshold=40, mode="turbo")
