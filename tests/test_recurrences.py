"""Unit tests of the sparse row advance and fork transitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.alae as alae_module
import repro.core.reuse as reuse_module
from repro import ALAE, DEFAULT_SCHEME, DNA, PROTEIN, ScoringScheme
from repro.align.recurrences import (
    NEG,
    CostCounter,
    advance_row,
    dense_seed_row,
)
from repro.core.filters import make_filter_plan
from repro.core.forks import GAP, NGR, Fork, advance_ngr, fgoe_row_frontier, seed_fork


class TestAdvanceRow:
    def test_diagonal_match(self):
        # One live cell, matching next char -> diagonal grows by sa.
        frontier = {2: (5, NEG)}
        new = advance_row(frontier, "T", "ACTG", 4, DEFAULT_SCHEME, live=0)
        assert new[3][0] == 6

    def test_diagonal_mismatch_dies(self):
        frontier = {2: (2, NEG)}
        new = advance_row(frontier, "A", "ACTG", 4, DEFAULT_SCHEME, live=0)
        assert 3 not in new  # 2 - 3 < 0

    def test_vertical_gap_opens(self):
        # Score high enough to survive a gap-open downward (Ga).
        frontier = {2: (10, NEG)}
        new = advance_row(frontier, "A", "ACCG", 4, DEFAULT_SCHEME, live=0)
        assert new[2][0] == 10 - 7  # M + sg + ss
        assert new[2][1] == 3  # Ga stored

    def test_vertical_gap_extends(self):
        frontier = {2: (1, 8)}  # existing Ga = 8
        new = advance_row(frontier, "G", "ACCG", 4, DEFAULT_SCHEME, live=0)
        assert new[2][0] == 8 - 2  # Ga + ss beats M + sg + ss

    def test_horizontal_gap_chain(self):
        # A single strong cell spawns rightward Gb cells along the row.
        frontier = {1: (12, NEG)}
        new = advance_row(frontier, "A", "AAAAAAA", 7, DEFAULT_SCHEME, live=0)
        # diag at 2 = 13; gb from col2 onward: 13-7=6 at col3, 4 at col4, ...
        assert new[2][0] == 13
        assert new[3][0] == 6
        assert new[4][0] == 4
        assert new[5][0] == 2
        assert 7 not in new  # decayed to <= 0

    def test_live_threshold_prunes(self):
        frontier = {2: (5, NEG)}
        new = advance_row(frontier, "T", "ACTG", 4, DEFAULT_SCHEME, live=6)
        assert new == {}

    def test_empty_frontier(self):
        assert advance_row({}, "A", "ACGT", 4, DEFAULT_SCHEME, live=0) == {}

    def test_query_boundary(self):
        frontier = {4: (5, NEG)}  # at the last column: no diagonal target
        new = advance_row(frontier, "A", "ACGT", 4, DEFAULT_SCHEME, live=0)
        assert 5 not in new

    def test_counter_dense_counts_dead_candidates(self):
        frontier = {2: (2, NEG)}
        sparse = CostCounter("bwtsw")
        advance_row(frontier, "A", "ACTG", 4, DEFAULT_SCHEME, 0, sparse)
        dense = CostCounter("bwtsw")
        advance_row(
            frontier, "A", "ACTG", 4, DEFAULT_SCHEME, 0, dense, dense=True
        )
        assert dense.total >= sparse.total

    def test_merge_of_two_parents(self):
        # Two cells feeding the same target column: max wins.
        frontier = {2: (5, NEG), 3: (1, NEG)}
        new = advance_row(frontier, "T", "ACTT", 4, DEFAULT_SCHEME, live=0)
        # col 4 candidates: diag from 3 (1+1=2), vertical from... -> 2 wins
        # col 3 diag from 2 (5+1=6).
        assert new[3][0] == 6
        assert new[4][0] >= 2


FLOOR_SCHEMES = [
    DEFAULT_SCHEME,
    ScoringScheme(1, -3, -11, -1),
    ScoringScheme(2, -3, -10, -4),
    ScoringScheme(5, -5, -4, -2),  # sa > -ss
    ScoringScheme(3, -3, -2, -1),  # sa > -ss
]


def assert_floor_keeps_cells_above_it(frontier, x_char, query, scheme, live, floor):
    """``col_floor`` keeps exactly the plain row's cells above the floor."""
    m = len(query)
    plain_cost, floored_cost = CostCounter(), CostCounter()
    plain = advance_row(frontier, x_char, query, m, scheme, live, plain_cost)
    floored = advance_row(
        frontier, x_char, query, m, scheme, live, floored_cost, col_floor=floor
    )
    assert floored == {
        j: cell for j, cell in plain.items() if cell[0] > floor + j * scheme.sa
    }
    assert floored_cost.total <= plain_cost.total
    return floored != plain


class TestColumnFloor:
    """Theorem 2's column budget on gap cells (``advance_row(col_floor=)``)."""

    def test_floor_drops_cells_and_their_gap_tail(self):
        # Unfloored: 5 (vertical) at column 1, 13 at 2, then the gap tail
        # 6, 4, 2 at columns 3-5.  Floor 2 bounds column j at 2 + j, so the
        # tail dies after column 3.
        frontier = {1: (12, NEG)}
        new = advance_row(
            frontier, "A", "AAAAAAA", 7, DEFAULT_SCHEME, live=0, col_floor=2
        )
        assert new == {1: (5, 5), 2: (13, NEG), 3: (6, NEG)}

    def test_unbinding_floor_changes_nothing(self):
        frontier = {1: (12, NEG), 3: (4, 2)}
        plain = advance_row(frontier, "C", "ACCGTA", 6, DEFAULT_SCHEME, live=1)
        floored = advance_row(
            frontier, "C", "ACCGTA", 6, DEFAULT_SCHEME, live=1, col_floor=-50
        )
        assert floored == plain

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_property_random_rows(self, data):
        scheme = data.draw(st.sampled_from(FLOOR_SCHEMES))
        m = data.draw(st.integers(1, 24))
        query = data.draw(st.text(alphabet="ACGT", min_size=m, max_size=m))
        cols = data.draw(
            st.lists(st.integers(1, m), min_size=1, max_size=8, unique=True)
        )
        frontier = {}
        for j in sorted(cols):
            m_val = data.draw(st.integers(1, 40))
            ga = data.draw(st.one_of(st.just(NEG), st.integers(1, m_val)))
            frontier[j] = (m_val, ga)
        live = data.draw(st.integers(0, 12))
        floor = data.draw(st.integers(-m * scheme.sa - 20, 20))
        x_char = data.draw(st.sampled_from("ACGT"))
        assert_floor_keeps_cells_above_it(
            frontier, x_char, query, scheme, live, floor
        )

    @pytest.mark.parametrize(
        "alphabet,scheme,length,threshold",
        [
            (DNA, DEFAULT_SCHEME, 80, 25),
            (PROTEIN, ScoringScheme(1, -3, -11, -1), 60, 15),
            (DNA, ScoringScheme(5, -5, -4, -2), 30, 40),
        ],
        ids=["dna", "protein", "sa-over-ss"],
    )
    def test_property_real_calls(
        self, monkeypatch, alphabet, scheme, length, threshold
    ):
        # Replay every gap-row advance of real searches with and without
        # the floor the engine passed.
        calls = []
        real = reuse_module.advance_row

        def spy(frontier, x_char, query, m, scheme, live, counter=None, **kw):
            floor = kw["col_floor"]
            calls.append((dict(frontier), x_char, query, scheme, live, floor))
            return real(frontier, x_char, query, m, scheme, live, counter, **kw)

        for module in (alae_module, reuse_module):
            monkeypatch.setattr(module, "advance_row", spy)
        chars = alphabet.chars
        rng = np.random.default_rng(5)
        text = "".join(chars[c] for c in rng.integers(0, len(chars), 3000))
        engine = ALAE(text, alphabet, scheme)
        for start in (100, 900, 2100):
            query = list(text[start : start + length])
            for pos in range(7, length, 11):  # substitutions and one deletion
                query[pos] = chars[(chars.index(query[pos]) + 1) % len(chars)]
            del query[length // 2]
            engine.search("".join(query), threshold=threshold)
        assert calls
        binding = sum(
            assert_floor_keeps_cells_above_it(*call) for call in calls
        )
        assert binding > 0


class TestCostCounter:
    def test_alae_classes(self):
        c = CostCounter("alae")
        c.cell(1)
        c.cell(2)
        c.cell(3)
        c.cell(0)
        assert (c.x1, c.x2, c.x3) == (2, 1, 1)

    def test_bwtsw_all_x3(self):
        c = CostCounter("bwtsw")
        c.cell(1)
        c.cell(2)
        assert (c.x1, c.x2, c.x3) == (0, 0, 2)

    def test_total(self):
        c = CostCounter()
        c.cell(1)
        c.cell(3)
        assert c.total == 2


class TestDenseSeedRow:
    def test_match_columns_only(self):
        positions = {"A": [1, 4], "C": [2]}
        row = dense_seed_row("A", positions, DEFAULT_SCHEME, None, m=4)
        assert set(row) == {1, 4}
        assert all(cell == (1, NEG) for cell in row.values())

    def test_counter_charged_m_cells(self):
        c = CostCounter("bwtsw")
        dense_seed_row("A", {"A": [1]}, DEFAULT_SCHEME, c, m=7)
        assert c.x3 == 7


class TestForkTransitions:
    def test_seed_stays_ngr_default_scheme(self):
        plan = make_filter_plan(DEFAULT_SCHEME, m=50, threshold=10)
        fork = seed_fork(5, plan, DEFAULT_SCHEME)
        assert fork.phase == NGR
        assert fork.score == 4  # q * sa = 4 <= FGOE bound 7

    def test_seed_born_in_gap_phase(self):
        # <1,-6,-2,-2>: q = 5, q*sa = 5 > |sg+ss| = 4 -> gap at birth.
        scheme = ScoringScheme(1, -6, -2, -2)
        plan = make_filter_plan(scheme, m=50, threshold=10)
        fork = seed_fork(3, plan, scheme)
        assert fork.phase == GAP
        assert fork.frontier[3 + plan.q - 1][0] == 5

    def test_fgoe_row_tail(self):
        # Score 12 at col 5: tail cells 12-7=5 at col 6, 3 at 7, 1 at 8.
        frontier = fgoe_row_frontier(12, 5, 20, DEFAULT_SCHEME, live=0)
        assert frontier[5][0] == 12
        assert frontier[6][0] == 5
        assert frontier[7][0] == 3
        assert frontier[8][0] == 1
        assert 9 not in frontier

    def test_fgoe_tail_respects_query_end(self):
        frontier = fgoe_row_frontier(12, 5, 6, DEFAULT_SCHEME, live=0)
        assert set(frontier) == {5, 6}

    def test_ngr_advance_match(self):
        plan = make_filter_plan(DEFAULT_SCHEME, m=20, threshold=10)
        fork = Fork(pip=1, phase=NGR, score=4)
        advance_ngr(fork, "A", "GCTAA" + "C" * 15, 5, plan, DEFAULT_SCHEME, None)
        assert fork.phase == NGR
        assert fork.score == 5

    def test_ngr_transition_to_gap(self):
        plan = make_filter_plan(DEFAULT_SCHEME, m=20, threshold=10)
        fork = Fork(pip=1, phase=NGR, score=7)
        advance_ngr(fork, "A", "GCTAA" + "C" * 15, 5, plan, DEFAULT_SCHEME, None)
        assert fork.phase == GAP
        assert fork.frontier[5][0] == 8

    def test_ngr_dies_off_query(self):
        plan = make_filter_plan(DEFAULT_SCHEME, m=4, threshold=2)
        fork = Fork(pip=3, phase=NGR, score=4)
        advance_ngr(fork, "A", "GCTA", 3, plan, DEFAULT_SCHEME, None)
        # diagonal column = 3 + 3 - 1 = 5 > m = 4 -> dead
        assert fork.phase == "dead"
