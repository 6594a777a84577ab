"""BLAST baseline: seeding, extension, heuristic behaviour."""

import numpy as np
import pytest

from repro import ALAE, Blast, DEFAULT_SCHEME, DNA, genome
from repro.blast.extension import ungapped_xdrop
from repro.blast.seeding import Seed, find_seeds
from repro.errors import SearchError
from repro.index.kmer_index import KmerIndex


class TestSeeding:
    def test_finds_exact_words(self):
        text = "GCTAGCTAGCAT"
        idx = KmerIndex(text, 4)
        seeds = list(find_seeds(idx, "GCTA"))
        assert {s.t_start for s in seeds} == {1, 5}
        assert all(s.q_start == 1 and s.length == 4 for s in seeds)

    def test_diagonal(self):
        assert Seed(t_start=10, q_start=3, length=4).diagonal == 7

    def test_no_seeds_for_foreign_query(self):
        idx = KmerIndex("AAAA", 2)
        assert list(find_seeds(idx, "CCCC")) == []


class TestUngappedExtension:
    def test_extends_to_full_match(self):
        text = "TTTT" + "GATTACAGATTACA" + "TTTT"
        query = "GATTACAGATTACA"
        seed = Seed(t_start=5, q_start=1, length=4)
        seg = ungapped_xdrop(text, query, seed, DEFAULT_SCHEME, x_drop=10)
        assert seg.score == len(query)
        assert (seg.t_start, seg.t_end) == (5, 18)

    def test_xdrop_stops_extension(self):
        # After the seed, pure mismatches: X-drop terminates quickly.
        text = "GATT" + "CCCCCCCCCC"
        query = "GATT" + "AAAAAAAAAA"
        seed = Seed(t_start=1, q_start=1, length=4)
        seg = ungapped_xdrop(text, query, seed, DEFAULT_SCHEME, x_drop=6)
        assert seg.score == 4
        assert seg.t_end == 4

    def test_leftward_extension(self):
        text = "GATTACA" + "GGGG"
        query = "GATTACA" + "TTTT"
        seed = Seed(t_start=4, q_start=4, length=4)
        seg = ungapped_xdrop(text, query, seed, DEFAULT_SCHEME, x_drop=10)
        assert seg.t_start == 1
        assert seg.score >= 7


class TestBlastEngine:
    def test_finds_perfect_copy(self, rng):
        text = genome(5_000, rng)
        query = text[2_000:2_100]
        res = Blast(text, word_size=11).search(query, threshold=50)
        assert len(res.hits) >= 1
        assert res.hits.best().score >= 90

    def test_heuristic_misses_vs_exact(self, rng):
        # A query whose only alignments lack an 11-char exact core is
        # invisible to BLAST but found by ALAE.
        text = genome(3_000, rng)
        fragment = list(text[1_000:1_060])
        for pos in range(5, 60, 8):  # mutation every 8 chars < word_size 11
            fragment[pos] = "A" if fragment[pos] != "A" else "C"
        query = "".join(fragment)
        h = 20
        exact = ALAE(text).search(query, threshold=h)
        blast = Blast(text, word_size=11).search(query, threshold=h)
        assert len(blast.hits) < len(exact.hits)

    def test_subset_of_exact_results(self, rng):
        # Every BLAST hit cell must also be an exact-engine hit cell
        # with at least BLAST's score (BLAST can't overcount).
        text = genome(4_000, rng)
        query = text[1_500:1_580]
        h = 30
        exact = ALAE(text).search(query, threshold=h).hits
        blast = Blast(text).search(query, threshold=h).hits
        for hit in blast:
            exact_score = exact.score_of(hit.t_end, hit.p_end)
            assert exact_score is not None and exact_score >= hit.score

    def test_word_size_sensitivity(self, rng):
        text = genome(4_000, rng)
        fragment = list(text[1_000:1_080])
        for pos in range(6, 80, 13):
            fragment[pos] = "A" if fragment[pos] != "A" else "C"
        query = "".join(fragment)
        small = Blast(text, word_size=8).search(query, threshold=25)
        large = Blast(text, word_size=13).search(query, threshold=25)
        assert len(small.hits) >= len(large.hits)

    def test_stats_exposed(self, rng):
        text = genome(2_000, rng)
        res = Blast(text).search(text[500:560], threshold=30)
        assert res.stats.extra["seeds"] > 0
        assert res.stats.extra["ungapped_extensions"] > 0

    def test_invalid_word_size(self):
        with pytest.raises(SearchError):
            Blast("ACGT", word_size=0)

    def test_gapped_alignment_found(self, rng):
        # Two exact blocks separated by a small text-side insertion: the
        # gapped extension bridges them.
        text = genome(3_000, rng)
        block = text[1_000:1_030]
        query = block + text[1_032:1_062]  # skips 2 chars of text
        res = Blast(text, word_size=11).search(query, threshold=40)
        assert res.hits.best() is not None
        assert res.hits.best().score >= 60 - 9  # 60 matches, one 2-gap

    def test_counters_populated(self):
        rng = np.random.default_rng(3)
        text = DNA.random_sequence(2_000, rng)
        start = int(rng.integers(0, 2_000 - 60))
        query = text[start : start + 60]
        result = Blast(text, word_size=8).search(query, threshold=40)
        stats = result.stats
        assert stats.extra["seeds"] > 0
        assert stats.calculated_x1 > 0  # ungapped x-drop walks
        assert stats.calculated_x3 > 0  # gapped window DP cells
        assert len(result.hits) >= 1
