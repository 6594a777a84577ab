"""CLI behaviour: search / search-db / analyze / generate."""

import argparse

import pytest

from repro.cli import _load_records, _parse_scheme, build_parser, main


class TestHelpers:
    def test_parse_scheme(self):
        scheme = _parse_scheme("1,-3,-5,-2")
        assert scheme.as_tuple() == (1, -3, -5, -2)

    def test_parse_scheme_angled(self):
        assert _parse_scheme("<1,-4,-5,-2>").sb == -4

    def test_parse_scheme_invalid(self):
        with pytest.raises(argparse.ArgumentTypeError):
            _parse_scheme("1,-3,-5")

    @pytest.mark.parametrize(
        "value", ["1,3,5,2", "0,-3,-5,-2", "1,-3,5,-2", "1,-3,-5,2", "-1,-3,-5,-2"]
    )
    def test_parse_scheme_rejects_bad_signs(self, value):
        """Positive penalties / non-positive match must fail at parse time."""
        with pytest.raises(argparse.ArgumentTypeError, match="invalid"):
            _parse_scheme(value)

    def test_parse_scheme_rejects_non_integer(self):
        with pytest.raises(argparse.ArgumentTypeError, match="integers"):
            _parse_scheme("1,-3,-5,x")

    def test_load_records_literal(self):
        (record,) = _load_records("acgt", default_id="query")
        assert record.identifier == "query"
        assert record.sequence == "ACGT"

    def test_load_records_fasta_keeps_records(self, tmp_path):
        path = tmp_path / "x.fa"
        path.write_text(">a\nAC\n>b\nGT\n")
        records = _load_records(str(path), default_id="x")
        assert [(r.identifier, r.sequence) for r in records] == [
            ("a", "AC"), ("b", "GT"),
        ]


class TestSearch:
    def test_search_alae(self, capsys):
        code = main(
            ["search", "GCTAGCTAGCAT", "GCTAG", "--threshold", "4"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "H=4" in out
        assert "query\ttext\t1\t5\t5\t5" in out  # the perfect GCTAG match

    def test_search_each_engine(self, capsys):
        for engine in ("alae", "bwtsw", "blast"):
            code = main(
                ["search", "GCTAGCTAGCATGCTAG", "GCTAG",
                 "--threshold", "5", "--engine", engine]
            )
            assert code == 0

    def test_search_custom_scheme(self, capsys):
        code = main(
            ["search", "GCTAGCTA", "GCTA", "--threshold", "3",
             "--scheme", "1,-4,-5,-2"]
        )
        assert code == 0

    def test_search_boundary_hit_dropped(self, tmp_path, capsys):
        """Regression: a hit spanning two database sequences is not reported.

        The only raw hit for the query is the concatenation artifact
        ``AT + TT`` across the record boundary; the old CLI concatenated the
        records without offsets and happily reported it.
        """
        db = tmp_path / "db.fa"
        db.write_text(">left\nGCGCGCAT\n>right\nTTGCGCGC\n")
        code = main(["search", str(db), "ATTT", "--threshold", "4"])
        assert code == 0
        captured = capsys.readouterr()
        assert "hits=0" in captured.out
        assert "dropped=1" in captured.out
        # No hit rows at all (every line is a comment).
        rows = [
            line for line in captured.out.splitlines()
            if line and not line.startswith("#")
        ]
        assert rows == []

    def test_search_multi_record_query(self, tmp_path, capsys):
        queries = tmp_path / "q.fa"
        queries.write_text(">q1\nGCTAG\n>q2\nAGCAT\n")
        code = main(
            ["search", "GCTAGCTAGCAT", str(queries), "--threshold", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query=q1" in out
        assert "query=q2" in out
        assert "q1\ttext\t1\t5\t5\t5" in out
        assert "q2\ttext\t8\t12\t5\t5" in out

    def test_search_hits_attributed_per_sequence(self, tmp_path, capsys):
        db = tmp_path / "db.fa"
        db.write_text(">chr1\nGCTAGAAAA\n>chr2\nAAAAGCTAG\n")
        code = main(["search", str(db), "GCTAG", "--threshold", "5"])
        assert code == 0
        out = capsys.readouterr().out
        # Same local coordinates in both records, attributed separately.
        assert "query\tchr1\t1\t5\t5\t5" in out
        assert "query\tchr2\t5\t9\t5\t5" in out

    def test_search_workers_same_output(self, tmp_path, capsys):
        queries = tmp_path / "q.fa"
        queries.write_text(">q1\nGCTAG\n>q2\nAGCAT\n>q3\nTAGCA\n")
        main(["search", "GCTAGCTAGCAT", str(queries), "--threshold", "4"])
        solo = capsys.readouterr().out
        main(
            ["search", "GCTAGCTAGCAT", str(queries), "--threshold", "4",
             "--workers", "3"]
        )
        pooled = capsys.readouterr().out
        assert solo == pooled


class TestSearchDb:
    def test_search_db(self, tmp_path, capsys):
        db = tmp_path / "db.fa"
        db.write_text(">a\nGCTAGCTAGCAT\n>b\nTTTTGCTAGTTT\n")
        queries = tmp_path / "q.fa"
        queries.write_text(">q1\nGCTAG\n")
        code = main(["search-db", str(db), str(queries), "--threshold", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "q1\ta\t1\t5\t5\t5" in out
        assert "q1\tb\t5\t9\t5\t5" in out

    def test_search_db_missing_file(self, tmp_path, capsys):
        db = tmp_path / "db.fa"
        db.write_text(">a\nGCTAG\n")
        code = main(["search-db", str(db), str(tmp_path / "nope.fa")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_search_db_process_pool(self, tmp_path, capsys):
        db = tmp_path / "db.fa"
        db.write_text(">a\nGCTAGCTAGCAT\n")
        queries = tmp_path / "q.fa"
        queries.write_text(">q1\nGCTAG\n>q2\nAGCAT\n")
        code = main(
            ["search-db", str(db), str(queries), "--threshold", "5",
             "--workers", "2", "--executor", "processes"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "q1\ta\t1\t5\t5\t5" in out


class TestOtherCommands:
    def test_analyze(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "0.6038" in out  # the default scheme's exponent appears

    def test_analyze_protein(self, capsys):
        assert main(["analyze", "--alphabet", "protein"]) == 0

    def test_generate(self, tmp_path, capsys):
        out_path = tmp_path / "g.fa"
        code = main(
            ["generate", "--length", "500", "--seed", "3",
             "--out", str(out_path)]
        )
        assert code == 0
        content = out_path.read_text()
        assert content.startswith(">synthetic_dna")
        assert sum(len(line) for line in content.splitlines()[1:]) == 500

    def test_invalid_alphabet_sequence_is_clean_error(self, capsys):
        code = main(["search", "GCTAG", "QQQQ", "--threshold", "4"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestTopKOption:
    def test_search_top_k_prints_only_best(self, capsys):
        full = main(["search", "GCTAGCTAGCAT", "GCTAG", "--threshold", "4"])
        assert full == 0
        full_out = capsys.readouterr().out
        code = main(
            ["search", "GCTAGCTAGCAT", "GCTAG", "--threshold", "4",
             "--top-k", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        (summary,) = [l for l in out.splitlines() if l.startswith("# query=")]
        assert "hits=1" in summary
        # The single kept hit is the best-scoring one of the full run.
        hit_lines = [l for l in out.splitlines() if not l.startswith("#")]
        full_scores = [
            int(l.split("\t")[-1])
            for l in full_out.splitlines()
            if not l.startswith("#")
        ]
        assert len(hit_lines) == 1
        assert int(hit_lines[0].split("\t")[-1]) == max(full_scores)


class TestServeQueryCli:
    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        """A built store, a query FASTA, and a live server for the class."""
        import numpy as np

        from repro import IndexStore, genome, write_fasta
        from repro.io.database import SequenceDatabase
        from repro.io.fasta import FastaRecord
        from repro.server import SearchServer, ServerThread

        root = tmp_path_factory.mktemp("cli-serving")
        rng = np.random.default_rng(41)
        records = [
            FastaRecord(f"chr{i}", genome(1_500, rng)) for i in range(1, 4)
        ]
        db_fa = root / "db.fa"
        write_fasta(records, db_fa)
        store_path = root / "db.idx"
        IndexStore.build(SequenceDatabase.from_fasta(db_fa)).save(store_path)
        queries_fa = root / "q.fa"
        write_fasta(
            [
                FastaRecord("q1", records[0].sequence[100:160]),
                FastaRecord("q2", records[2].sequence[300:360]),
            ],
            queries_fa,
        )
        server = SearchServer(store_path, port=0, reload_poll=0)
        with ServerThread(server) as handle:
            yield {
                "store": store_path,
                "queries": queries_fa,
                "port": handle.port,
            }

    def test_query_matches_search_db_byte_for_byte(self, served, capsys):
        code = main(
            ["search-db", "--index", str(served["store"]),
             str(served["queries"]), "--threshold", "30"]
        )
        assert code == 0
        offline = capsys.readouterr().out
        code = main(
            ["query", str(served["queries"]), "--port", str(served["port"]),
             "--threshold", "30"]
        )
        assert code == 0
        assert capsys.readouterr().out == offline

    def test_query_top_k_matches_search_db(self, served, capsys):
        code = main(
            ["search-db", "--index", str(served["store"]),
             str(served["queries"]), "--threshold", "30", "--top-k", "2"]
        )
        assert code == 0
        offline = capsys.readouterr().out
        code = main(
            ["query", str(served["queries"]), "--port", str(served["port"]),
             "--threshold", "30", "--top-k", "2"]
        )
        assert code == 0
        assert capsys.readouterr().out == offline

    def test_query_stats_prints_json(self, served, capsys):
        import json

        code = main(["query", "--stats", "--port", str(served["port"])])
        assert code == 0
        body = json.loads(capsys.readouterr().out)
        assert body["engine"] == "alae"
        assert "queries_total" in body["stats"]

    def test_query_requires_queries_or_stats(self, capsys):
        code = main(["query", "--port", "7781"])
        assert code == 2
        assert "queries argument" in capsys.readouterr().err

    def test_query_against_dead_port_is_clean_error(self, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            free_port = probe.getsockname()[1]
        code = main(["query", "ACGTACGT", "--port", str(free_port)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_serve_rejects_missing_index(self, tmp_path, capsys):
        code = main(["serve", "--index", str(tmp_path / "nope.idx")])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_serve_rejects_bad_batch_shape_before_opening(
        self, tmp_path, capsys
    ):
        # Not an index at all: the shape check must come first.
        index = tmp_path / "db.idx"
        index.write_bytes(b"not an index")
        code = main(["serve", "--index", str(index), "--max-batch", "0"])
        assert code == 2
        assert "max_batch must be >= 1" in capsys.readouterr().err

    def test_serve_gates_shard_manifests(self, tmp_path, capsys):
        import numpy as np

        from repro import ShardedStore, genome
        from repro.io.database import SequenceDatabase
        from repro.io.fasta import FastaRecord

        rng = np.random.default_rng(43)
        database = SequenceDatabase(
            [FastaRecord(f"chr{i}", genome(600, rng)) for i in range(1, 4)]
        )
        manifest = tmp_path / "db.shd"
        ShardedStore.build(database, manifest, shards=2)
        code = main(["serve", "--index", str(manifest)])
        assert code == 2
        assert "--shards-ok" in capsys.readouterr().err
