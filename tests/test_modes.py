"""Serving modes: exact is the only search, and ``verified`` is answered by it.

The contract every surface shares:

* ``verified`` equals ``exact`` in hits, ``raw_hits``, ``dropped_boundary``
  and threshold, with and without ``top_k``, for a text-backed service, a
  store-backed one, a 3-shard service and the wire;
* ``verified``'s own contract, hits a bit-equal subset of ``exact``'s, holds
  with equality on random homolog workloads, two scoring schemes and both
  alphabets, start attributions included;
* every backend, the offline baselines included, satisfies the
  :class:`~repro.engine.SearchBackend` protocol under honest labels;
* ``fast`` is refused with one message (:data:`repro.engine.FAST_REFUSED`)
  by both services, the server's error response and ``repro query``, and
  unknown modes are rejected;
* batch keys, cache keys and the batcher keep the two modes apart.
"""

import asyncio

import numpy as np
import pytest

from repro import DNA, PROTEIN, IndexStore, ScoringScheme, genome, write_fasta
from repro.align.bwt_sw import BwtSw
from repro.align.types import START_UNKNOWN
from repro.blast.engine import Blast
from repro.cli import main
from repro.core.alae import ALAE
from repro.data.synthetic import sample_homologous_queries
from repro.engine import (
    FAST_REFUSED,
    MODES,
    AlaeBackend,
    BackendInfo,
    BaselineBackend,
    SearchBackend,
    VerifiedBackend,
    backends_for,
    check_mode,
)
from repro.errors import SearchError
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.server import (
    BatchKey,
    CachedResult,
    MicroBatcher,
    ResultCache,
    SearchServer,
    ServerClient,
    ServerError,
    ServerThread,
)
from repro.service import Query, SearchService, ServiceError
from repro.service.sharded import ShardedSearchService
from repro.store import ShardedStore

THRESHOLD = 30


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Four records, their store and 3-shard manifest, and the queries.

    One query straddles the boundary between two records, so its raw hits
    include concatenation artifacts that attribution drops.
    """
    root = tmp_path_factory.mktemp("modes")
    rng = np.random.default_rng(61)
    records = [FastaRecord(f"chr{i}", genome(1_500, rng)) for i in range(4)]
    database = SequenceDatabase(records)
    store = IndexStore.build(database).save(root / "db.idx")
    manifest = root / "db.shd"
    ShardedStore.build(database, manifest, shards=3)
    seqs = [r.sequence for r in records]
    queries = [
        Query("inner", seqs[1][200:260]),
        Query("straddle", seqs[0][-35:] + seqs[1][:35]),
        Query("gapped", seqs[2][400:440] + seqs[2][446:486]),
        Query("repeat", seqs[3][100:130] * 2),
    ]
    return {
        "root": root, "database": database, "store": store,
        "manifest": manifest, "queries": queries,
    }


def _answer(result):
    """Everything a mode could change about one query's answer."""
    return (
        [
            (h.sequence_id, h.t_start, h.t_end, h.p_end, h.score, h.record_index)
            for h in result.hits
        ],
        result.raw_hits,
        result.dropped_boundary,
        result.threshold,
    )


def _service(kind, corpus):
    if kind == "text":
        return SearchService(corpus["database"])
    if kind == "store":
        return SearchService(store=corpus["store"])
    return ShardedSearchService(corpus["manifest"])


SERVICES = ("text", "store", "sharded")


class TestVerifiedIsExact:
    @pytest.mark.parametrize("kind", SERVICES)
    @pytest.mark.parametrize("top_k", [None, 2])
    def test_search_answers_match(self, corpus, kind, top_k):
        service = _service(kind, corpus)
        dropped = 0
        for query in corpus["queries"]:
            exact = service.search(query, threshold=THRESHOLD, top_k=top_k)
            verified = service.search(
                query, threshold=THRESHOLD, top_k=top_k, mode="verified"
            )
            assert _answer(verified) == _answer(exact), query.id
            dropped += exact.dropped_boundary
        assert dropped > 0  # the straddling query exercises the recheck

    @pytest.mark.parametrize("kind", SERVICES)
    @pytest.mark.parametrize("top_k", [None, 2])
    def test_batch_answers_match(self, corpus, kind, top_k):
        service = _service(kind, corpus)
        exact = service.search_batch(
            corpus["queries"], threshold=THRESHOLD, top_k=top_k
        )
        verified = service.search_batch(
            corpus["queries"], threshold=THRESHOLD, top_k=top_k,
            mode="verified",
        )
        assert [_answer(r) for r in verified.results] == [
            _answer(r) for r in exact.results
        ]
        assert sum(len(r.hits) for r in exact.results) > 0

    def test_each_mode_has_its_own_backend_over_one_engine(self, corpus):
        service = SearchService(store=corpus["store"])
        exact, verified = service.backend("exact"), service.backend("verified")
        assert type(exact) is AlaeBackend and type(verified) is VerifiedBackend
        assert exact.engine is verified.engine is service.engine
        # Siblings, so wrapping one class's search never wraps the other's.
        assert not issubclass(VerifiedBackend, AlaeBackend)
        assert (exact.info.mode, verified.info.mode) == ("exact", "verified")

    @pytest.mark.parametrize("top_k", [None, 2])
    def test_wire_answers_match(self, corpus, top_k):
        queries = [(q.id, q.sequence) for q in corpus["queries"]]
        offline = SearchService(store=corpus["store"]).search_batch(
            corpus["queries"], threshold=THRESHOLD, top_k=top_k
        )
        server = SearchServer(corpus["store"], port=0, reload_poll=0)
        with ServerThread(server) as handle, ServerClient(port=handle.port) as client:
            exact = client.search(queries, threshold=THRESHOLD, top_k=top_k)
            verified = client.search(
                queries, threshold=THRESHOLD, top_k=top_k, mode="verified"
            )
            stats = client.stats()
        assert [_answer(r) for r in verified.results] == [
            _answer(r) for r in exact.results
        ] == [_answer(r) for r in offline.results]
        assert (exact.mode, verified.mode) == ("exact", "verified")
        assert exact.engine == verified.engine == "alae"
        # The modes keep separate cache entries.
        assert not any(r.cached for r in verified.results)
        assert (stats["mode"], stats["engine"]) == ("exact", "alae")


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


def _assert_bit_equal_subset(verified, exact):
    """Every verified cell is an exact cell with the same score and start."""
    exact_map = _hit_map(exact)
    for cell, payload in _hit_map(verified).items():
        assert cell in exact_map, f"verified emitted {cell} not in exact"
        assert exact_map[cell] == payload, (
            f"verified cell {cell} differs: {payload} vs {exact_map[cell]}"
        )


class TestVerifiedSubsetOfExact:
    """``verified`` is a bit-equal subset of ``exact``, with equality."""

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
        verified = VerifiedBackend(exact_engine)
        for query in queries:
            for threshold in (25, 40):
                exact = exact_engine.search(query, threshold=threshold)
                ver = verified.search(query, threshold=threshold)
                _assert_bit_equal_subset(ver, exact)
                assert list(ver.hits.hits()) == list(exact.hits.hits())
                assert ver.threshold == exact.threshold == threshold

    def test_protein_alphabet(self):
        rng = np.random.default_rng(11)
        text = PROTEIN.random_sequence(1_200, rng)
        start = int(rng.integers(0, 1_140))
        query = text[start : start + 50]
        exact_engine = ALAE(text, alphabet=PROTEIN)
        ver = VerifiedBackend(exact_engine).search(query, threshold=30)
        exact = exact_engine.search(query, threshold=30)
        assert len(exact.hits) > 0
        _assert_bit_equal_subset(ver, exact)
        assert _hit_map(ver) == _hit_map(exact)

    def test_start_attribution_bit_equal(self):
        rng = np.random.default_rng(23)
        text, query = _planted_text_and_query(rng, n=1_500, qlen=80)
        exact_engine = ALAE(text)
        ver = VerifiedBackend(exact_engine).search(query, threshold=50)
        exact_map = _hit_map(exact_engine.search(query, threshold=50))
        assert len(ver.hits) > 0
        for cell, (score, t_start) in _hit_map(ver).items():
            assert t_start != START_UNKNOWN
            assert exact_map[cell] == (score, t_start)
        assert _hit_map(ver) == exact_map


class TestBackendProtocol:
    def test_adapters_satisfy_protocol(self):
        text = "ACGTACGTACGTACGTACGT"
        engine = ALAE(text)
        backends = [
            *backends_for(engine).values(),
            BaselineBackend(BwtSw(text)),
            BaselineBackend(Blast(text, word_size=4)),
        ]
        for backend in backends:
            assert isinstance(backend, SearchBackend)
            assert backend.info.mode in MODES
            assert len(backend.search("ACGTACGTAC", threshold=8).hits) > 0
        assert [backend.info for backend in backends] == [
            BackendInfo(name="alae", mode="exact"),
            BackendInfo(name="alae", mode="verified"),
            BackendInfo(name="bwtsw", mode="exact"),
            BackendInfo(name="blast", mode="exact"),
        ]


class TestFastRefused:
    def test_check_mode(self):
        assert check_mode(None) == "exact"
        assert [check_mode(mode) for mode in MODES] == list(MODES)
        with pytest.raises(SearchError) as refused:
            check_mode("fast")
        assert str(refused.value) == FAST_REFUSED
        with pytest.raises(SearchError, match="unknown search mode"):
            check_mode("turbo")

    @pytest.mark.parametrize("kind", SERVICES)
    def test_services_refuse_fast(self, corpus, kind):
        service = _service(kind, corpus)
        query = corpus["queries"][0]
        with pytest.raises(SearchError) as refused:
            service.search(query, threshold=THRESHOLD, mode="fast")
        assert str(refused.value) == FAST_REFUSED
        with pytest.raises(SearchError) as refused:
            service.search_batch([query], threshold=THRESHOLD, mode="fast")
        assert str(refused.value) == FAST_REFUSED
        with pytest.raises(SearchError, match="unknown search mode"):
            service.search(query, mode="turbo")

    def test_baseline_engine_serves_exact_only(self, corpus):
        service = SearchService(corpus["database"], engine="bwtsw")
        query = corpus["queries"][0]
        service.search(query, threshold=THRESHOLD)
        with pytest.raises(ServiceError, match="serves 'exact' only"):
            service.search(query, threshold=THRESHOLD, mode="verified")

    def test_server_and_cli_refuse_fast(self, corpus, capsys):
        queries = corpus["root"] / "queries.fa"
        write_fasta(
            [FastaRecord(q.id, q.sequence) for q in corpus["queries"]], queries
        )
        server = SearchServer(corpus["manifest"], port=0, reload_poll=0)
        with ServerThread(server) as handle:
            with ServerClient(port=handle.port) as client:
                response = client.request(
                    {"op": "search", "queries": [["q", "ACGTACGT"]],
                     "mode": "fast"}
                )
                assert response == {"status": "error", "error": FAST_REFUSED}
                with pytest.raises(ServerError, match="unknown search mode"):
                    client.search(["ACGTACGT"], mode="turbo")
            argv = ["query", str(queries), "--port", str(handle.port),
                    "--threshold", str(THRESHOLD)]
            capsys.readouterr()
            assert main([*argv, "--mode", "fast"]) == 2
            refused = capsys.readouterr()
            assert refused.out == ""
            assert refused.err == f"error: {FAST_REFUSED}\n"
            assert main(argv) == 0
            exact = capsys.readouterr().out
            assert main([*argv, "--mode", "verified"]) == 0
            verified = capsys.readouterr().out
        assert "\t" in exact  # the queries produce hit lines
        assert verified == exact


class TestModeKeysStayApart:
    def test_batch_key_includes_mode(self):
        base = BatchKey(threshold=30, e_value=None, top_k=None)
        assert base.mode == "exact"
        assert base != BatchKey(
            threshold=30, e_value=None, top_k=None, mode="verified"
        )

    def test_cache_key_includes_mode(self):
        exact_key = ResultCache.key("ACGT", 30, None, None, 1, "exact")
        verified_key = ResultCache.key("ACGT", 30, None, None, 1, "verified")
        assert exact_key != verified_key
        cache = ResultCache(8)
        cache.put(
            exact_key,
            CachedResult(threshold=30, hits=(), raw_hits=0, dropped_boundary=0),
        )
        assert cache.get(verified_key) is None
        assert cache.get(exact_key) is not None

    def test_batcher_never_mixes_modes(self):
        async def main():
            sizes = []

            async def runner(queries, key):
                sizes.append((len(queries), key.mode))
                return [None] * len(queries)

            batcher = MicroBatcher(runner, max_batch=8)
            batcher.start()
            exact_key = BatchKey(threshold=30, e_value=None, top_k=None)
            verified_key = BatchKey(
                threshold=30, e_value=None, top_k=None, mode="verified"
            )
            futures = [
                batcher.submit(Query(id=f"q{i}", sequence="ACGT"), key)
                for i, key in enumerate(
                    [exact_key, verified_key, exact_key, verified_key]
                )
            ]
            await asyncio.gather(*futures)
            await batcher.stop()
            return sizes

        sizes = asyncio.run(main())
        assert all(size == 1 for size, _mode in sizes)
        assert [mode for _s, mode in sizes] == [
            "exact", "verified", "exact", "verified",
        ]
