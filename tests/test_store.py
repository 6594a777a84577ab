"""Index store: round-trip exactness, corruption rejection, cache, serving."""

from __future__ import annotations

import multiprocessing
import struct

import numpy as np
import pytest

from repro import DNA, PROTEIN, SearchService, StoreError, genome, write_fasta
from repro.cli import main as cli_main
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme
from repro.service import ServiceError
from repro.store import (
    FORMAT_VERSION,
    MAGIC,
    IndexStore,
    ShardedStore,
    StoreCache,
    read_manifest,
    write_manifest,
)
from repro.store.format import header_prefix_crc, read_header, write_store


def make_database(alphabet=DNA, records=3, length=300, seed=11):
    rng = np.random.default_rng(seed)
    return SequenceDatabase(
        [
            FastaRecord(
                header=f"chr{i} synthetic",
                sequence=genome(length, rng, alphabet=alphabet),
            )
            for i in range(1, records + 1)
        ]
    )


@pytest.fixture(scope="module")
def dna_database():
    return make_database()


@pytest.fixture(scope="module")
def dna_store_path(dna_database, tmp_path_factory):
    path = tmp_path_factory.mktemp("store") / "dna.idx"
    IndexStore.build(dna_database).save(path)
    return path


def queries_for(database):
    chr2 = database.records[1].sequence
    return [chr2[50:110], chr2[120:150] + chr2[156:186]]


def stats_key(stats):
    """Every deterministic stats field (wall-clock excluded)."""
    return (
        stats.calculated_x1, stats.calculated_x2, stats.calculated_x3,
        stats.reused, stats.forks_seeded, stats.forks_skipped_domination,
        stats.nodes_visited, stats.emr_assigned, stats.grams_absent_in_text,
    )


class TestRoundTrip:
    @pytest.mark.parametrize(
        "alphabet,scheme",
        [
            (DNA, DEFAULT_SCHEME),
            (DNA, ScoringScheme(1, -4, -5, -2)),
            (DNA, ScoringScheme(2, -3, -4, -2)),
            (PROTEIN, ScoringScheme(1, -3, -11, -1)),
        ],
        ids=["dna-default", "dna-harsh", "dna-sa2", "protein"],
    )
    def test_loaded_engine_bit_identical(self, tmp_path, alphabet, scheme):
        """A reloaded engine returns identical hits *and* stats."""
        database = make_database(alphabet=alphabet, length=250)
        path = tmp_path / "store.idx"
        IndexStore.build(database, alphabet=alphabet, scheme=scheme).save(path)

        fresh = SearchService(database, alphabet=alphabet, scheme=scheme)
        loaded = SearchService.from_store(path)
        assert loaded.alphabet.chars == alphabet.chars
        assert loaded.scheme == scheme
        for query in queries_for(database):
            a = fresh.search(query, threshold=25)
            b = loaded.search(query, threshold=25)
            assert a.hits == b.hits
            assert a.threshold == b.threshold
            assert stats_key(a.stats) == stats_key(b.stats)

    def test_database_round_trip(self, dna_database, dna_store_path):
        reopened = IndexStore.open(dna_store_path).database()
        assert reopened.text == dna_database.text
        assert reopened.boundaries() == dna_database.boundaries()
        assert reopened.identifiers == dna_database.identifiers
        assert [r.header for r in reopened.records] == [
            r.header for r in dna_database.records
        ]

    def test_loaded_size_accounting_matches_store(
        self, dna_database, dna_store_path
    ):
        """`actual` size components equal the store's serialized bytes."""
        store = IndexStore.open(dna_store_path)
        sizes = store.engine().index_size_bytes()
        on_disk = store.size_bytes()
        fm_bytes = sum(
            size
            for name, size in on_disk.items()
            if name.startswith("fm_")
        )
        dom_bytes = sum(
            size
            for name, size in on_disk.items()
            if name.startswith("dom_")
        )
        assert sizes["bwt_index_actual"] == fm_bytes
        assert sizes["dominate_index_actual"] == dom_bytes

    def test_unsaved_store_serves_directly(self, dna_database):
        store = IndexStore.build(dna_database)
        assert store.path is None
        service = SearchService(store=store)
        result = service.search(queries_for(dna_database)[0], threshold=25)
        assert result.hits

    def test_newline_header_rejected(self):
        with pytest.raises(StoreError, match="newline"):
            IndexStore.build([FastaRecord(header="a\nb", sequence="ACGT" * 10)])


class TestServing:
    def test_spawn_and_fork_match_threads(self, dna_database, dna_store_path):
        """Acceptance: a store reopened in fresh processes (spawn) and in
        forked workers yields byte-identical hit sets and scores."""
        fresh = SearchService(dna_database)
        served = SearchService.from_store(dna_store_path)
        queries = queries_for(dna_database)
        baseline = fresh.search_batch(queries, threshold=25)
        for executor in ("threads", "processes", "spawn"):
            report = served.search_batch(
                queries, threshold=25, workers=2, executor=executor
            )
            assert report.executor == executor
            assert [r.hits for r in report.results] == [
                r.hits for r in baseline.results
            ]
            assert [stats_key(r.stats) for r in report.results] == [
                stats_key(r.stats) for r in baseline.results
            ]

    def test_spawn_needs_saved_store(self, dna_database):
        with pytest.raises(ServiceError, match="saved index store"):
            SearchService(dna_database, executor="spawn")
        unsaved = IndexStore.build(dna_database)
        with pytest.raises(ServiceError, match="saved index store"):
            SearchService(store=unsaved, executor="spawn")

    def test_processes_falls_back_to_spawn_with_store(
        self, dna_store_path, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        service = SearchService.from_store(dna_store_path)
        queries = queries_for(service.database)
        report = service.search_batch(
            queries, threshold=25, workers=2, executor="processes"
        )
        assert report.executor == "spawn"
        assert report.total_hits > 0

    def test_processes_degrades_to_threads_without_store(
        self, dna_database, monkeypatch
    ):
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        with pytest.warns(RuntimeWarning, match="degrading to 'threads'"):
            service = SearchService(dna_database, executor="processes")
        assert service.executor == "threads"
        report = service.search_batch(
            queries_for(dna_database), threshold=25, workers=2
        )
        assert report.executor == "threads"
        assert report.total_hits > 0

    def test_spawn_rejects_store_rebuilt_in_place(self, tmp_path):
        """A store rewritten under a live service is a hard error, never
        a batch silently mixing results from two databases."""
        path = tmp_path / "live.idx"
        database = make_database(length=200, seed=3)
        IndexStore.build(database).save(path)
        service = SearchService.from_store(path)
        IndexStore.build(make_database(length=200, seed=4)).save(path)
        with pytest.raises(ServiceError, match="changed on disk"):
            list(
                service.iter_results(
                    queries_for(database), threshold=25,
                    workers=2, executor="spawn",
                )
            )

    def test_store_with_database_rejected(self, dna_database, dna_store_path):
        with pytest.raises(ServiceError, match="not both"):
            SearchService(dna_database, store=dna_store_path)

    def test_store_with_other_engine_rejected(self, dna_store_path):
        with pytest.raises(ServiceError, match="ALAE"):
            SearchService(store=dna_store_path, engine="bwtsw")

    def test_engine_toggles_forwarded(self, dna_store_path):
        service = SearchService(
            store=dna_store_path, engine_kwargs={"use_domination": False}
        )
        assert service.engine.use_domination is False
        with pytest.raises(StoreError, match="unsupported engine option"):
            SearchService(
                store=dna_store_path, engine_kwargs={"occ_block": 64}
            )


class TestRejection:
    def test_truncated_file(self, dna_store_path, tmp_path):
        raw = dna_store_path.read_bytes()
        clipped = tmp_path / "clipped.idx"
        clipped.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(StoreError, match="truncated"):
            IndexStore.open(clipped)
        assert IndexStore.verify(clipped)

    def test_truncated_header(self, tmp_path):
        stub = tmp_path / "stub.idx"
        stub.write_bytes(MAGIC[:4])
        with pytest.raises(StoreError, match="truncated"):
            IndexStore.open(stub)

    def test_bad_magic(self, dna_store_path, tmp_path):
        raw = bytearray(dna_store_path.read_bytes())
        raw[:8] = b"NOTANIDX"
        bad = tmp_path / "bad_magic.idx"
        bad.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="magic"):
            IndexStore.open(bad)

    def test_version_skew(self, dna_store_path, tmp_path):
        raw = bytearray(dna_store_path.read_bytes())
        raw[8:12] = struct.pack("<I", FORMAT_VERSION + 1)
        skewed = tmp_path / "skewed.idx"
        skewed.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="version"):
            IndexStore.open(skewed)

    def test_alphabet_fingerprint_mismatch(self, dna_store_path):
        with pytest.raises(StoreError, match="alphabet"):
            SearchService(store=dna_store_path, alphabet=PROTEIN)

    def test_scheme_fingerprint_mismatch(self, dna_store_path):
        with pytest.raises(StoreError, match="scheme"):
            SearchService(
                store=dna_store_path, scheme=ScoringScheme(1, -4, -5, -2)
            )

    def test_verify_detects_any_single_flipped_byte(
        self, dna_store_path, tmp_path
    ):
        """Acceptance: one flipped byte anywhere fails verification."""
        raw = dna_store_path.read_bytes()
        _, data_start = read_header(dna_store_path)
        # Header, data start, array interior, padding region, trailer.
        probes = [
            9, 17, 25, data_start, data_start + 100,
            len(raw) // 2, len(raw) - 10, len(raw) - 1,
        ]
        target = tmp_path / "flipped.idx"
        for offset in probes:
            flipped = bytearray(raw)
            flipped[offset] ^= 0x01
            target.write_bytes(bytes(flipped))
            problems = IndexStore.verify(target)
            assert problems, f"flip at offset {offset} went undetected"
        target.write_bytes(raw)
        assert IndexStore.verify(target) == []


class TestStoreCache:
    def test_same_file_shares_instance(self, dna_store_path):
        cache = StoreCache(capacity=4)
        first = cache.get(dna_store_path)
        assert cache.get(dna_store_path) is first
        assert len(cache) == 1

    def test_rewritten_file_reopens(self, tmp_path):
        path = tmp_path / "evolving.idx"
        IndexStore.build(make_database(length=200, seed=1)).save(path)
        cache = StoreCache(capacity=4)
        first = cache.get(path)
        IndexStore.build(make_database(length=260, seed=2)).save(path)
        second = cache.get(path)
        assert second is not first
        assert second.header["database"] != first.header["database"]

    def test_mtime_aliased_rewrite_misses(self, tmp_path, dna_database):
        """A rebuild the filesystem timestamps can't distinguish still
        misses: the header CRC in the key covers the fingerprint."""
        import os

        from repro.scoring.scheme import ScoringScheme

        path = tmp_path / "alias.idx"
        IndexStore.build(dna_database, scheme=DEFAULT_SCHEME).save(path)
        cache = StoreCache()
        first = cache.get(path)
        stat = path.stat()
        IndexStore.build(
            dna_database, scheme=ScoringScheme(1, -4, -5, -2)
        ).save(path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        second = cache.get(path)
        assert second is not first
        assert second.scheme != first.scheme

    def test_lru_eviction(self, tmp_path):
        cache = StoreCache(capacity=1)
        paths = []
        for i in range(2):
            path = tmp_path / f"s{i}.idx"
            IndexStore.build(make_database(length=150 + 30 * i, seed=i)).save(
                path
            )
            paths.append(path)
        a = cache.get(paths[0])
        cache.get(paths[1])
        assert len(cache) == 1
        assert cache.get(paths[0]) is not a  # evicted, reopened

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            StoreCache(capacity=0)


class TestCli:
    @pytest.fixture()
    def fasta_pair(self, tmp_path, dna_database):
        db_path = tmp_path / "db.fa"
        write_fasta(dna_database.records, db_path)
        query_path = tmp_path / "q.fa"
        write_fasta(
            [
                FastaRecord(header=f"q{i}", sequence=seq)
                for i, seq in enumerate(queries_for(dna_database), start=1)
            ],
            query_path,
        )
        return db_path, query_path

    def test_build_info_verify(self, tmp_path, fasta_pair, capsys):
        db_path, _ = fasta_pair
        out = tmp_path / "db.idx"
        assert cli_main(["index", "build", str(db_path), "--out", str(out)]) == 0
        assert out.exists()
        assert cli_main(["index", "info", str(out)]) == 0
        info = capsys.readouterr().out
        assert "fingerprint" in info and "db_text" in info
        assert cli_main(["index", "verify", str(out)]) == 0

    def test_verify_fails_on_corruption(self, tmp_path, fasta_pair, capsys):
        db_path, _ = fasta_pair
        out = tmp_path / "db.idx"
        cli_main(["index", "build", str(db_path), "--out", str(out)])
        raw = bytearray(out.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        out.write_bytes(bytes(raw))
        assert cli_main(["index", "verify", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_search_db_with_index_matches_plain(
        self, tmp_path, fasta_pair, capsys
    ):
        db_path, query_path = fasta_pair
        out = tmp_path / "db.idx"
        cli_main(["index", "build", str(db_path), "--out", str(out)])
        assert (
            cli_main(
                ["search-db", str(db_path), str(query_path), "--threshold", "25"]
            )
            == 0
        )
        plain = capsys.readouterr().out
        assert (
            cli_main(
                [
                    "search-db", "--index", str(out), str(query_path),
                    "--threshold", "25",
                ]
            )
            == 0
        )
        indexed = capsys.readouterr().out
        assert indexed == plain
        assert "\t" in plain  # sanity: hits were actually printed

    def test_search_requires_exactly_one_source(
        self, tmp_path, fasta_pair, capsys
    ):
        db_path, _ = fasta_pair
        out = tmp_path / "db.idx"
        cli_main(["index", "build", str(db_path), "--out", str(out)])
        assert cli_main(["search", "ACGTACGT"]) == 2
        assert "required" in capsys.readouterr().err
        assert (
            cli_main(
                ["search", str(db_path), "ACGTACGT", "--index", str(out)]
            )
            == 2
        )
        assert "not both" in capsys.readouterr().err

    def test_bad_index_parameters_are_clean_errors(
        self, tmp_path, fasta_pair, capsys
    ):
        db_path, _ = fasta_pair
        out = tmp_path / "bad.idx"
        for flag, value in (("--occ-block", "0"), ("--sa-sample", "-1")):
            code = cli_main(
                ["index", "build", str(db_path), "--out", str(out), flag, value]
            )
            assert code == 2
            assert "error:" in capsys.readouterr().err

    def test_missing_index_path_is_clean_error(self, fasta_pair, capsys):
        _, query_path = fasta_pair
        code = cli_main(
            ["search-db", "--index", "/nonexistent/x.idx", str(query_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_build_literal_database_requires_out(self, tmp_path, capsys):
        assert cli_main(["index", "build", "ACGTACGTACGTACGT"]) == 2
        assert "--out is required" in capsys.readouterr().err
        out = tmp_path / "lit.idx"
        assert (
            cli_main(["index", "build", "ACGTACGTACGTACGT", "--out", str(out)])
            == 0
        )
        assert out.exists()

    def test_search_explicit_mismatching_scheme_rejected(
        self, tmp_path, fasta_pair, capsys
    ):
        db_path, query_path = fasta_pair
        out = tmp_path / "db.idx"
        cli_main(["index", "build", str(db_path), "--out", str(out)])
        code = cli_main(
            [
                "search-db", "--index", str(out), str(query_path),
                "--scheme", "1,-4,-5,-2", "--threshold", "25",
            ]
        )
        assert code == 2
        assert "scheme" in capsys.readouterr().err


def _add_kmer_section(path, k=11):
    """Rewrite the store at ``path`` with the k-mer postings section.

    Stores written before exact-only serving carried BLAST's seed postings
    as three CSR arrays plus an ``aux`` header entry outside the
    fingerprint; this reproduces that layout byte for byte.
    """
    store = IndexStore.open(path)
    header = {key: value for key, value in store.header.items() if key != "arrays"}
    arrays = {
        spec["name"]: np.array(store.array(spec["name"]))
        for spec in store.header["arrays"]
    }
    text = store.database().text
    starts: dict[str, list[int]] = {}
    for start0 in range(len(text) - k + 1):
        starts.setdefault(text[start0 : start0 + k], []).append(start0 + 1)
    kmers = sorted(starts)
    arrays["kmer_words"] = np.frombuffer(
        "".join(kmers).encode("ascii"), dtype=np.uint8
    ).reshape(len(kmers), k)
    arrays["kmer_offsets"] = np.cumsum(
        [0] + [len(starts[kmer]) for kmer in kmers], dtype=np.int64
    )
    arrays["kmer_positions"] = np.array(
        [pos for kmer in kmers for pos in starts[kmer]], dtype=np.int64
    )
    header["aux"] = {"kmer": {"version": 1, "k": k}}
    write_store(path, header, arrays)


class TestStoresWithKmerSection:
    """Stores written with the k-mer section still open, verify and serve."""

    @pytest.fixture()
    def queries(self, tmp_path, dna_database):
        path = tmp_path / "q.fa"
        write_fasta(
            [
                FastaRecord(header=f"q{i}", sequence=seq)
                for i, seq in enumerate(queries_for(dna_database), start=1)
            ],
            path,
        )
        return path

    def _search_db(self, capsys, index, queries):
        argv = ["search-db", "--index", str(index), str(queries), "--threshold", "25"]
        assert cli_main(argv) == 0
        return capsys.readouterr().out

    def test_store_opens_verifies_and_answers_identically(
        self, tmp_path, dna_database, queries, capsys
    ):
        plain = IndexStore.build(dna_database).save(tmp_path / "plain.idx")
        old = IndexStore.build(dna_database).save(tmp_path / "old.idx")
        _add_kmer_section(old)
        store = IndexStore.open(old)
        assert store.header["aux"] == {"kmer": {"version": 1, "k": 11}}
        assert {"kmer_words", "kmer_offsets", "kmer_positions"} <= set(
            store.size_bytes()
        )
        assert store.fingerprint == IndexStore.open(plain).fingerprint
        assert IndexStore.verify(old) == []
        assert cli_main(["index", "verify", str(old)]) == 0
        capsys.readouterr()
        served = self._search_db(capsys, old, queries)
        assert "\t" in served
        assert served == self._search_db(capsys, plain, queries)

    def test_manifest_opens_verifies_and_answers_identically(
        self, tmp_path, dna_database, queries, capsys
    ):
        plain = tmp_path / "plain.shd"
        old = tmp_path / "old.shd"
        ShardedStore.build(dna_database, plain, shards=2)
        ShardedStore.build(dna_database, old, shards=2)
        payload = read_manifest(old)
        for spec in payload["shards"]:
            shard = old.with_name(spec["path"])
            _add_kmer_section(shard)
            spec["header_crc"] = header_prefix_crc(shard)
        write_manifest(old, payload)
        assert ShardedStore.verify(old) == []
        assert all(
            "aux" in store.header for store in ShardedStore.open(old).stores()
        )
        assert cli_main(["index", "verify", str(old)]) == 0
        capsys.readouterr()
        served = self._search_db(capsys, old, queries)
        assert "\t" in served
        assert served == self._search_db(capsys, plain, queries)
