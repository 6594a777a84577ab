"""Differential fuzz: the level sweep vs scalar reference vs ground truth.

The level-synchronous sweep (array cohorts per trie level, batched rank,
text-mode chains, batched locate) must be *bit-identical* to the
per-fork, depth-first reference path — not just the same hit set, but the
same hits, the same ``t_start`` attribution and the same cost accounting
(x1/x2/x3 cell classes, reuse counters, node visits).  Any divergence in
these counters is the earliest possible tripwire for a subtly wrong
shortcut, so the suite compares them everywhere.

Layers:

* random texts/queries/schemes (including ``sa > -ss``, the reuse-key
  regression regime) across every filter-toggle combination;
* adversarial shapes: homologous queries, tandem repeats, homopolymers;
* ~20k-character texts, where the shallow levels hold hundreds of nodes;
* text mode entered nowhere and at every unary node;
* Smith-Waterman as the external ground truth;
* the ``p_end <= len(query)`` invariant (phantom-column guard);
* sharded vs unsharded serving on top of the sweep.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    ALAE,
    DEFAULT_SCHEME,
    DNA,
    PROTEIN,
    ScoringScheme,
    smith_waterman_all_hits,
)

SCHEMES = [
    DEFAULT_SCHEME,
    ScoringScheme(1, -4, -5, -2),
    ScoringScheme(1, -1, -5, -2),
    ScoringScheme(2, -3, -10, -4),
    ScoringScheme(5, -5, -4, -2),  # sa > -ss: right-edge reuse regime
    ScoringScheme(3, -3, -2, -1),  # sa > -ss
    ScoringScheme(1, -3, -11, -1),  # the paper's protein scheme
]


def stats_signature(stats):
    """Every deterministic counter of one search (timing excluded)."""
    return (
        stats.calculated_x1,
        stats.calculated_x2,
        stats.calculated_x3,
        stats.reused,
        stats.emr_assigned,
        stats.forks_seeded,
        stats.forks_skipped_domination,
        stats.forks_skipped_global,
        stats.grams_absent_in_text,
        stats.nodes_visited,
        stats.extra.get("memo_hits"),
        stats.extra.get("memo_misses"),
    )


def make_case(seed):
    """One reproducible (text, query, alphabet, scheme) fuzz case."""
    rng = np.random.default_rng(seed)
    alpha = PROTEIN if seed % 5 == 0 else DNA
    n = int(rng.integers(20, 320))
    m = int(rng.integers(4, 45))
    distinct = int(rng.integers(2, min(5, alpha.size) + 1))
    text = "".join(alpha.chars[c] for c in rng.integers(0, distinct, n))
    shape = seed % 4
    if shape == 0 and n > m:  # homologous: exact substring of the text
        p = int(rng.integers(0, n - m))
        query = text[p : p + m]
    elif shape == 1:  # tandem repeat (maximal fork overlap / reuse)
        unit = "".join(alpha.chars[c] for c in rng.integers(0, distinct, 4))
        query = (unit * (m // len(unit) + 1))[:m]
    elif shape == 2:  # near-homopolymer (period-1 reuse collisions)
        query = alpha.chars[0] * m
    else:
        query = "".join(alpha.chars[c] for c in rng.integers(0, distinct, m))
    scheme = SCHEMES[seed % len(SCHEMES)]
    return text, query, alpha, scheme


def assert_engines_agree(text, query, alpha, scheme, threshold, **toggles):
    sw = smith_waterman_all_hits(text, query, scheme, threshold)
    vec = ALAE(text, alpha, scheme, use_vectorized=True, **toggles).search(
        query, threshold=threshold
    )
    ref = ALAE(text, alpha, scheme, use_vectorized=False, **toggles).search(
        query, threshold=threshold
    )
    # Ground truth on (t_end, p_end, score) cells.
    assert vec.hits.as_score_set() == sw.as_score_set()
    # Bit-identical to the reference: ordering and t_start included.
    assert vec.hits.hits() == ref.hits.hits()
    # Bit-identical cost accounting.
    assert stats_signature(vec.stats) == stats_signature(ref.stats)
    # No hit may ever report a query end past the query.
    assert all(hit.p_end <= len(query) for hit in vec.hits)
    assert all(1 <= hit.t_end <= len(text) for hit in vec.hits)


def assert_long_homology_agrees():
    rng = np.random.default_rng(99)
    text = "".join(DNA.chars[c] for c in rng.integers(0, 4, 4000))
    query = text[1500:1620]
    for threshold in (20, 60, 110):
        assert_engines_agree(text, query, DNA, DEFAULT_SCHEME, threshold)


class TestVectorizedEqualsReference:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_cases_default_toggles(self, seed):
        text, query, alpha, scheme = make_case(seed)
        for threshold in (1, 3, 8):
            assert_engines_agree(text, query, alpha, scheme, threshold)

    @pytest.mark.parametrize(
        "dom,reuse,gbm,score_f,length_f",
        list(itertools.product([False, True], repeat=5)),
    )
    def test_all_toggle_combinations(self, dom, reuse, gbm, score_f, length_f):
        text, query, alpha, scheme = make_case(17)
        assert_engines_agree(
            text, query, alpha, scheme, 3,
            use_domination=dom,
            use_reuse=reuse,
            use_global_bitmask=gbm,
            use_score_filter=score_f,
            use_length_filter=length_f,
        )

    @pytest.mark.parametrize("seed", range(40, 60))
    def test_random_toggles_random_cases(self, seed):
        text, query, alpha, scheme = make_case(seed)
        toggles = dict(
            use_domination=bool(seed & 1),
            use_reuse=bool(seed & 2),
            use_global_bitmask=bool(seed & 4),
            use_score_filter=bool(seed & 8),
            use_length_filter=(seed % 7 != 0),
        )
        for threshold in (1, 2, 6):
            assert_engines_agree(text, query, alpha, scheme, threshold, **toggles)

    def test_long_homology_unary_chain(self):
        # A long exact embedded copy: one deep unary chain whose NGR cohort
        # crosses FGOE and carries gap cones for a hundred rows.
        assert_long_homology_agrees()

    def test_mutated_homology(self):
        rng = np.random.default_rng(7)
        text = "".join(DNA.chars[c] for c in rng.integers(0, 4, 2000))
        q = list(text[800:880])
        for pos in (10, 30, 31, 55):  # substitutions split the chain
            q[pos] = DNA.chars[(DNA.chars.index(q[pos]) + 1) % 4]
        query = "".join(q[:40]) + "ACG" + "".join(q[40:])  # plus an insertion
        for threshold in (15, 35):
            assert_engines_agree(text, query, DNA, DEFAULT_SCHEME, threshold)

    def test_evalue_resolution_identical(self):
        rng = np.random.default_rng(23)
        text = "".join(DNA.chars[c] for c in rng.integers(0, 4, 600))
        query = text[100:160]
        vec = ALAE(text, use_vectorized=True).search(query, e_value=10.0)
        ref = ALAE(text, use_vectorized=False).search(query, e_value=10.0)
        assert vec.threshold == ref.threshold
        assert vec.hits.hits() == ref.hits.hits()
        assert stats_signature(vec.stats) == stats_signature(ref.stats)


def sweep_text(seed, alpha, n=20_000):
    """A random text with mutated segmental duplications.

    Duplicated stretches keep some trie paths two occurrences wide for many
    levels, so the sweep's levels hold gap forks long after the wide
    shallow levels have thinned out.
    """
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, alpha.size, n)
    for _ in range(8):
        src = int(rng.integers(0, n - 600))
        dst = int(rng.integers(0, n - 300))
        copy = codes[src : src + 300].copy()
        flip = rng.random(copy.size) < 0.03
        copy[flip] = (copy[flip] + 1) % alpha.size
        codes[dst : dst + 300] = copy
    return "".join(alpha.chars[c] for c in codes)


def homologous_query(rng, text, alpha, length):
    """A mutated text window: substitutions plus one insertion."""
    start = int(rng.integers(0, len(text) - length))
    chars = list(text[start : start + length])
    for pos in rng.integers(0, length, max(1, length // 20)).tolist():
        chars[pos] = alpha.chars[(alpha.chars.index(chars[pos]) + 1) % alpha.size]
    cut = int(rng.integers(1, length - 1))
    return "".join(chars[:cut]) + alpha.chars[0] + "".join(chars[cut:])


PROTEIN_SCHEME = ScoringScheme(1, -3, -11, -1)


@pytest.fixture(scope="module")
def sweep_engines():
    """Sweep and scalar-reference engines over ~20k-character texts."""
    dna = sweep_text(101, DNA)
    protein = sweep_text(202, PROTEIN)
    return {
        "dna": (
            dna,
            ALAE(dna, DNA, DEFAULT_SCHEME),
            ALAE(dna, DNA, DEFAULT_SCHEME, use_vectorized=False),
        ),
        "protein": (
            protein,
            ALAE(protein, PROTEIN, PROTEIN_SCHEME),
            ALAE(protein, PROTEIN, PROTEIN_SCHEME, use_vectorized=False),
        ),
    }


def assert_sweep_matches_reference(sweep, reference, query, threshold):
    got = sweep.search(query, threshold=threshold)
    want = reference.search(query, threshold=threshold)
    assert got.hits.hits() == want.hits.hits()
    assert stats_signature(got.stats) == stats_signature(want.stats)
    return got


def assert_dna_homologous_agrees(sweep_engines, seed):
    text, sweep, reference = sweep_engines["dna"]
    rng = np.random.default_rng(seed)
    query = homologous_query(rng, text, DNA, int(rng.integers(40, 101)))
    got = assert_sweep_matches_reference(sweep, reference, query, 25)
    assert len(got.hits) > 0


def assert_protein_homologous_agrees(sweep_engines, seed):
    text, sweep, reference = sweep_engines["protein"]
    rng = np.random.default_rng(100 + seed)
    query = homologous_query(rng, text, PROTEIN, int(rng.integers(40, 101)))
    got = assert_sweep_matches_reference(sweep, reference, query, 18)
    assert len(got.hits) > 0


class TestSweepScale:
    """Texts large enough that the shallow levels hold hundreds of nodes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_dna_homologous(self, sweep_engines, seed):
        assert_dna_homologous_agrees(sweep_engines, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_protein_homologous(self, sweep_engines, seed):
        assert_protein_homologous_agrees(sweep_engines, seed)

    def test_dna_tandem_repeat(self, sweep_engines):
        # Every gram of a short-period repeat seeds several forks at once.
        _text, sweep, reference = sweep_engines["dna"]
        query = ("ACGTTG" * 12)[:70]
        got = assert_sweep_matches_reference(sweep, reference, query, 12)
        assert got.stats.forks_seeded > 2 * len(set(
            query[i : i + DEFAULT_SCHEME.q] for i in range(len(query) - 3)
        ))

    def test_global_bitmask(self, sweep_engines):
        # Protein grams mostly occur once, so marks from earlier grams can
        # cover every occurrence of a later seed (Theorem 4 skips).
        text, _sweep, _reference = sweep_engines["protein"]
        query = homologous_query(np.random.default_rng(9), text, PROTEIN, 60)
        sweep = ALAE(text, PROTEIN, PROTEIN_SCHEME, use_global_bitmask=True)
        reference = ALAE(
            text, PROTEIN, PROTEIN_SCHEME, use_global_bitmask=True,
            use_vectorized=False,
        )
        got = assert_sweep_matches_reference(sweep, reference, query, 18)
        assert got.stats.forks_skipped_global > 0


class TestTextModeHandOff:
    """Text mode is exact wherever the sweep hands a unary node to it.

    A thin-level width of 0 keeps every node in the sweep; 10**9 hands
    every unary node over on the level where it appears, seeds included.
    """

    @pytest.fixture(
        autouse=True, params=[0, 10**9], ids=["sweep-only", "every-unary"]
    )
    def thin_level(self, request, monkeypatch):
        monkeypatch.setattr(ALAE, "_THIN_LEVEL", request.param)

    @pytest.mark.parametrize("seed", range(4))
    def test_dna_homologous(self, sweep_engines, seed):
        assert_dna_homologous_agrees(sweep_engines, seed)

    @pytest.mark.parametrize("seed", range(3))
    def test_protein_homologous(self, sweep_engines, seed):
        assert_protein_homologous_agrees(sweep_engines, seed)

    def test_long_homology(self):
        assert_long_homology_agrees()


class TestHypothesisVectorized:
    @settings(max_examples=30, deadline=None)
    @given(
        st.text(alphabet="ACGT", min_size=10, max_size=80),
        st.text(alphabet="ACGT", min_size=3, max_size=18),
        st.integers(1, 8),
    )
    def test_vec_equals_sw_and_reference(self, text, query, threshold):
        assert_engines_agree(text, query, DNA, DEFAULT_SCHEME, threshold)

    @settings(max_examples=20, deadline=None)
    @given(
        st.text(alphabet="AC", min_size=8, max_size=60),
        st.integers(2, 12),
        st.integers(1, 4),
    )
    def test_homopolymerish_low_thresholds(self, text, m, threshold):
        # The phantom-hit regime of the reuse-key regression: period-1
        # queries, low thresholds, sa > -ss.
        query = "A" * m
        scheme = ScoringScheme(5, -5, -4, -2)
        assert_engines_agree(text, query, DNA, scheme, threshold)


class TestShardedEqualsUnsharded:
    def test_sharded_vs_unsharded_vectorized(self, tmp_path):
        from repro import (
            IndexStore,
            SearchService,
            ShardedSearchService,
            ShardedStore,
        )
        from repro.io.database import SequenceDatabase
        from repro.io.fasta import FastaRecord

        rng = np.random.default_rng(41)
        records = [
            FastaRecord(
                f"chr{i}",
                "".join(DNA.chars[c] for c in rng.integers(0, 4, 900 + 150 * i)),
            )
            for i in range(1, 6)
        ]
        database = SequenceDatabase(records)
        queries = [
            records[0].sequence[100:160],
            records[2].sequence[300:360],
            records[4].sequence[50:90] + records[4].sequence[95:135],
        ]

        plain = SearchService(database)
        plain_report = plain.search_batch(queries, threshold=30)

        manifest = tmp_path / "db.idx"
        ShardedStore.build(database, manifest, shards=3)
        sharded = ShardedSearchService(manifest)
        sharded_report = sharded.search_batch(queries, threshold=30)
        assert plain_report.total_hits > 0
        for query, mono, shard in zip(
            queries, plain_report.results, sharded_report.results
        ):
            mono_hits = [
                (h.sequence_id, h.t_start, h.t_end, h.p_end, h.score)
                for h in mono.hits
            ]
            shard_hits = [
                (h.sequence_id, h.t_start, h.t_end, h.p_end, h.score)
                for h in shard.hits
            ]
            assert mono_hits == shard_hits
            for h in shard.hits:
                assert h.p_end <= len(query)
