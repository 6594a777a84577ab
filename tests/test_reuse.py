"""Score reuse (Sec. 4): frontier memoisation correctness and accounting."""

import numpy as np
import pytest

from repro import ALAE, DEFAULT_SCHEME, DNA, ScoringScheme, smith_waterman_all_hits
from repro.align.recurrences import NEG, CostCounter, advance_row
from repro.core.reuse import ReuseEngine, frontier_reuse_key


class TestReuseKey:
    def test_shifted_frontiers_same_key(self):
        query = "GCTAGCTAGCTAGCTA"  # (GCTA)^4 — suffixes repeat
        fr1 = {4: (8, NEG), 5: (3, NEG)}
        fr2 = {8: (8, NEG), 9: (3, NEG)}
        k1 = frontier_reuse_key(fr1, query, len(query), DEFAULT_SCHEME)
        k2 = frontier_reuse_key(fr2, query, len(query), DEFAULT_SCHEME)
        assert k1 == k2

    def test_different_scores_different_key(self):
        query = "GCTAGCTAGCTAGCTA"
        fr1 = {4: (8, NEG)}
        fr2 = {8: (9, NEG)}
        assert frontier_reuse_key(
            fr1, query, len(query), DEFAULT_SCHEME
        ) != frontier_reuse_key(fr2, query, len(query), DEFAULT_SCHEME)

    def test_different_upcoming_chars_different_key(self):
        query = "GCTAACTA"  # suffix after col 4 is A..., after col 8 none
        fr1 = {2: (8, NEG)}
        fr2 = {6: (8, NEG)}
        # P[3] = 'T', P[7] = 'T' equal here; craft a differing case:
        query2 = "GCTAGATA"
        k1 = frontier_reuse_key(fr1, query2, len(query2), DEFAULT_SCHEME)
        k2 = frontier_reuse_key(fr2, query2, len(query2), DEFAULT_SCHEME)
        assert k1 != k2  # upcoming chars T vs T? positions 3 vs 7: T vs T...
        # (keys also encode relative columns, so equality only holds when the
        # full window matches; this asserts the conservative direction)

    def test_edge_distance_in_key_near_query_end(self):
        query = "GCTAGCTA"
        fr_far = {2: (30, NEG)}
        fr_near = {6: (30, NEG)}
        k_far = frontier_reuse_key(fr_far, query, len(query), DEFAULT_SCHEME)
        k_near = frontier_reuse_key(fr_near, query, len(query), DEFAULT_SCHEME)
        # A score of 30 can reach past column 8 from either start, so the
        # edge distances (6 vs 2) must differ and so must the keys.
        assert k_far != k_near


class TestRightEdgeReachBound:
    """Regression: the reach bound must cover the diagonal step (+sa).

    A row advance can first step diagonally past the last column and only
    then open the horizontal gap chain, so with schemes where ``sa > -ss``
    the bare ``(max_m + sg + ss) // (-ss) + 2`` budget classed two forks at
    genuinely divergent distances from column ``m`` both as "far" and let
    them share one advance.  The shifted copy then gained phantom columns
    past ``m`` (reported as hits with ``p_end > len(query)``) or lost
    legitimate cells at the truncation boundary.
    """

    def test_truncation_divergent_forks_key_apart(self):
        # sa = 3 > -ss = 1: the diagonal step reaches 3 extra chain columns.
        scheme = ScoringScheme(3, -3, -2, -1)
        query = "A" * 10
        fr_near = {6: (4, NEG)}  # room 4: the chain is truncated at m = 10
        fr_far = {5: (4, NEG)}  # room 5: one more legitimate cell survives
        k_near = frontier_reuse_key(fr_near, query, len(query), scheme)
        k_far = frontier_reuse_key(fr_far, query, len(query), scheme)
        assert k_near != k_far

    def test_shared_advance_matches_direct_at_truncation(self):
        # Failing-first shape of the bug: under the old bound both frontiers
        # keyed ("far", -1), the memo copied the near fork's truncated row
        # onto the far fork and dropped its column-10 cell.
        scheme = ScoringScheme(3, -3, -2, -1)
        query = "A" * 10
        frontiers = [{6: (4, NEG)}, {5: (4, NEG)}]
        engine = ReuseEngine(enabled=True)
        shared = engine.advance_forks(
            [dict(fr) for fr in frontiers], "A", query, len(query), scheme, 0, None
        )
        direct = [
            advance_row(dict(fr), "A", query, len(query), scheme, 0, None)
            for fr in frontiers
        ]
        assert shared == direct

    @pytest.mark.parametrize(
        "text,query",
        [
            ("CCAAAACACAACCAACAACAACCCCCAA", "A" * 12),
            ("ACACAAAAAAACACACCCCAACAACACACACCAAAACCCCCAA", "A" * 14),
            ("AACCCACAAAAAAACCACCCCCCAAAAACACCC", "A" * 13),
        ],
    )
    def test_engine_no_phantom_hits_past_query_end(self, text, query):
        # End-to-end repro: with the old bound each of these searches
        # reported a phantom hit with p_end == len(query) + 1.
        scheme = ScoringScheme(5, -5, -4, -2)  # sa = 5 > -ss = 2
        sw = smith_waterman_all_hits(text, query, scheme, 1)
        res = ALAE(text, DNA, scheme, use_reuse=True).search(query, threshold=1)
        assert res.hits.as_score_set() == sw.as_score_set()
        assert all(hit.p_end <= len(query) for hit in res.hits)

    @pytest.mark.parametrize("seed", range(8))
    def test_property_reuse_on_off_equivalence_random_schemes(self, seed):
        # Random schemes *including* sa > -ss, near-periodic queries (the
        # fork-collision regime), reuse on vs off vs Smith-Waterman.
        rng = np.random.default_rng(seed)
        sa = int(rng.integers(1, 6))
        scheme = ScoringScheme(
            sa,
            -int(rng.integers(1, 6)),
            -int(rng.integers(1, 6)),
            -int(rng.integers(1, max(2, sa + 1))),  # biased towards -ss <= sa
        )
        n = int(rng.integers(20, 90))
        text = "".join(DNA.chars[c] for c in rng.integers(0, 2, n))
        period = int(rng.integers(1, 4))
        m = int(rng.integers(6, 18))
        query = (("ACG"[:period]) * m)[:m]
        for threshold in (1, 2, scheme.sa + 1):
            sw = smith_waterman_all_hits(text, query, scheme, threshold)
            on = ALAE(text, DNA, scheme, use_reuse=True).search(
                query, threshold=threshold
            )
            off = ALAE(text, DNA, scheme, use_reuse=False).search(
                query, threshold=threshold
            )
            assert on.hits.as_score_set() == sw.as_score_set()
            assert off.hits.as_score_set() == sw.as_score_set()
            assert all(hit.p_end <= len(query) for hit in on.hits)


class TestColumnFloorKey:
    """Theorem 2's column floor is not shift invariant: keys pin the column.

    Under ``<1,-3,-5,-2>`` both frontiers reach three columns past their
    last one, so a floor binds within reach of column ``c`` when
    ``floor + (c + 3) > live``.
    """

    query = "GCTA" * 8  # period 4: the two frontiers see the same window
    left = {4: (8, NEG), 5: (3, NEG)}
    right = {8: (8, NEG), 9: (3, NEG)}

    def keys(self, live, floor):
        m = len(self.query)
        return [
            frontier_reuse_key(fr, self.query, m, DEFAULT_SCHEME, live, floor)
            for fr in (self.left, self.right)
        ]

    def test_unbinding_floor_keeps_the_shift_invariant_key(self):
        m = len(self.query)
        plain = frontier_reuse_key(self.left, self.query, m, DEFAULT_SCHEME)
        # H = 20 at m = 32: floor -13 reaches -1 at column 12.
        assert self.keys(0, 20 - m - 1) == [plain, plain]
        assert self.keys(0, None) == [plain, plain]

    def test_binding_floor_splits_shifted_frontiers(self):
        # H = 30: floor -3 binds within reach of both (5 and 9 > 0).
        left, right = self.keys(0, 30 - len(self.query) - 1)
        assert left != right
        # Binding on the right only (-9 + 12 > 0 >= -9 + 8) splits too.
        left, right = self.keys(0, -9)
        assert left != right

    @pytest.mark.parametrize("floor,shared", [(-100, True), (-6, False)])
    def test_shared_advance_matches_direct(self, floor, shared):
        # The right frontier advances first, so a floor-blind key would
        # copy its row, which the floor cut harder, onto the left one.
        m = len(self.query)
        frontiers = [self.right, self.left]
        engine = ReuseEngine(enabled=True)
        out = engine.advance_forks(
            [dict(fr) for fr in frontiers], "G", self.query, m, DEFAULT_SCHEME,
            0, None, col_floor=floor,
        )
        direct = [
            advance_row(dict(fr), "G", self.query, m, DEFAULT_SCHEME, 0, None,
                        col_floor=floor)
            for fr in frontiers
        ]
        assert out == direct
        assert engine.memo_hits == (1 if shared else 0)

    @pytest.mark.parametrize("seed", range(4))
    def test_engine_right_edge_forks_meet_the_floor(self, seed):
        # sa > -ss and a short periodic query: the shifted forks of each
        # gram sit a few columns from the right edge, where the column
        # floor binds and reuse keys pin the column.
        scheme = ScoringScheme(5, -5, -4, -2)
        rng = np.random.default_rng(seed)
        flank = ["".join(DNA.chars[c] for c in rng.integers(0, 4, 60)) for _ in "ab"]
        text = flank[0] + "ACG" * 5 + flank[1]
        query = "ACG" * 4
        for threshold in (10, 20, 30):
            sw = smith_waterman_all_hits(text, query, scheme, threshold)
            sweep = ALAE(text, DNA, scheme).search(query, threshold=threshold)
            ref = ALAE(text, DNA, scheme, use_vectorized=False).search(
                query, threshold=threshold
            )
            assert sweep.hits.as_score_set() == sw.as_score_set()
            assert sweep.hits.hits() == ref.hits.hits()
            assert sweep.stats.calculated == ref.stats.calculated
            assert sweep.stats.reused == ref.stats.reused
            assert sweep.stats.nodes_visited == ref.stats.nodes_visited
            assert all(hit.p_end <= len(query) for hit in sweep.hits)


class TestReuseEngineEquivalence:
    def _advance_all(self, frontiers, char, query, enabled):
        engine = ReuseEngine(enabled=enabled)
        counter = CostCounter()
        out = engine.advance_forks(
            list(frontiers), char, query, len(query), DEFAULT_SCHEME, 0, counter
        )
        return out, engine

    def test_memo_matches_direct(self):
        query = "GCTAGCTAGCTAGCTAGG"
        # Two identical forks shifted by the repeat period, one different.
        frontiers = [
            {4: (10, NEG), 5: (4, NEG)},
            {8: (10, NEG), 9: (4, NEG)},
            {3: (6, NEG)},
        ]
        with_memo, engine = self._advance_all(frontiers, "G", query, True)
        without, _ = self._advance_all(frontiers, "G", query, False)
        assert with_memo == without
        assert engine.memo_hits == 1
        assert engine.reused_cells == len(with_memo[1])

    def test_disabled_engine_never_reuses(self):
        query = "GCTAGCTA"
        frontiers = [{2: (10, NEG)}, {6: (10, NEG)}]
        _out, engine = self._advance_all(frontiers, "G", query, False)
        assert engine.reused_cells == 0
        assert engine.memo_hits == 0

    def test_dead_fork_passthrough(self):
        out, _ = self._advance_all([{}, {2: (5, NEG)}], "G", "GCTAGCTA", True)
        assert out[0] == {}

    def test_search_results_identical_with_and_without_reuse(self):
        rng = np.random.default_rng(8)
        # Tandem query maximizes duplicate forks.
        text = "".join("ACGT"[int(c)] for c in rng.integers(0, 4, 300))
        query = ("GCTA" * 6) + text[40:60] + ("GCTA" * 6)
        sw = smith_waterman_all_hits(text, query, DEFAULT_SCHEME, 6)
        with_r = ALAE(text, use_reuse=True).search(query, threshold=6)
        without = ALAE(text, use_reuse=False).search(query, threshold=6)
        assert with_r.hits.as_score_set() == sw.as_score_set()
        assert without.hits.as_score_set() == sw.as_score_set()

    def test_repetitive_query_reuses_entries(self):
        # Query made of one repeated unit against a text containing the unit:
        # forks at every period are identical -> reuse must trigger.
        unit = "GCATTCGA"
        text = ("AACGTTGCA" * 10) + unit * 3 + ("TTGACGGAT" * 10)
        query = unit * 8
        res = ALAE(text, use_reuse=True).search(query, threshold=10)
        assert res.stats.reused > 0
        assert res.stats.reusing_ratio > 0

    def test_reusing_ratio_bounds(self):
        text = "GCTA" * 40
        query = "GCTA" * 10
        res = ALAE(text, use_reuse=True).search(query, threshold=8)
        assert 0.0 <= res.stats.reusing_ratio < 1.0
        assert res.stats.accessed == res.stats.calculated + res.stats.reused
