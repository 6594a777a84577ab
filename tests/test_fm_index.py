"""FM-index: occ/rank, backward search, locate — against brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import DNA
from repro.errors import IndexError_
from repro.index.fm_index import FMIndex


def codes_of(text: str) -> np.ndarray:
    return DNA.encode(text).astype(np.int64) + 1


def brute_occurrences(text: str, pattern: str) -> list[int]:
    """0-based start positions of pattern in text, brute force."""
    return [
        i for i in range(len(text) - len(pattern) + 1)
        if text[i : i + len(pattern)] == pattern
    ]


@pytest.fixture
def fm_small():
    return FMIndex(codes_of("GCTAGCTAGCATGC"), sigma=4, occ_block=4, sa_sample=4)


def reopened(fm: FMIndex, occ_block: int, sa_sample: int) -> FMIndex:
    """The same index rebuilt from its exported components (the store path)."""
    return FMIndex.from_components(
        **fm.components(), sigma=fm.sigma, occ_block=occ_block,
        sa_sample=sa_sample,
    )


class TestOcc:
    def test_occ_matches_bwt_prefix_counts(self, rng):
        # Every code (sentinel included) at every position, for blocks
        # below, at and above the rank table's 256-row span, built fresh
        # and reopened from components.  The near-homopolymer fills whole
        # 256-row spans with one code (the uint8 counts' edge).
        texts = [
            (4, rng.integers(1, 5, 700)),
            (20, rng.integers(1, 21, 700)),
            (4, np.concatenate((np.full(600, 2), rng.integers(1, 5, 100)))),
        ]
        for sigma, codes in texts:
            for occ_block in (1, 8, 128, 300):
                fm = FMIndex(codes, sigma=sigma, occ_block=occ_block, sa_sample=4)
                bwt = np.frombuffer(fm._bwt, dtype=np.uint8)
                positions = np.arange(len(bwt) + 1)
                for index in (fm, reopened(fm, occ_block, 4)):
                    for c in range(sigma + 1):
                        want = np.concatenate(([0], np.cumsum(bwt == c)))
                        got = [index.occ(c, i) for i in positions]
                        assert got == want.tolist()
                        if c:
                            batched = index.step_array(
                                np.full(positions.size, c), positions
                            )
                            assert (batched - index._C[c]).tolist() == got

    def test_extend_all_matches_extend_left(self, rng):
        codes = rng.integers(1, 5, 500)
        fm = FMIndex(codes, sigma=4, occ_block=300)
        lo = np.sort(rng.integers(0, 502, 64))
        hi = np.minimum(lo + rng.integers(0, 40, 64), 501)
        lo_all, hi_all = fm.extend_all(lo, hi)
        for k in range(lo.size):
            for c in range(1, 5):
                got = (int(lo_all[k, c - 1]), int(hi_all[k, c - 1]))
                want = fm.extend_left((int(lo[k]), int(hi[k])), c)
                if want == (0, 0):
                    assert got[1] <= got[0]
                else:
                    assert got == want

    def test_lf_is_permutation(self, fm_small):
        size = fm_small.n + 1
        targets = sorted(fm_small.lf(i) for i in range(size))
        assert targets == list(range(size))


class TestBackwardSearch:
    def test_count_vs_brute(self, rng):
        text = "".join(DNA.chars[int(c)] for c in rng.integers(0, 4, 300))
        fm = FMIndex(codes_of(text), sigma=4)
        for length in (1, 2, 3, 5, 8):
            for _ in range(10):
                start = int(rng.integers(0, 300 - length))
                pattern = text[start : start + length]
                assert fm.count(codes_of(pattern)) == len(
                    brute_occurrences(text, pattern)
                )

    def test_absent_pattern(self):
        fm = FMIndex(codes_of("AAAA"), sigma=4)
        assert fm.count(codes_of("C")) == 0
        assert fm.count(codes_of("AC")) == 0

    def test_empty_pattern_full_range(self, fm_small):
        lo, hi = fm_small.backward_search(np.array([], dtype=np.int64))
        assert (lo, hi) == (0, fm_small.n + 1)

    def test_extend_left_incremental(self):
        text = "GCTAGC"
        fm = FMIndex(codes_of(text), sigma=4)
        # Ranges must agree with direct backward search at each step.
        pattern = "AGC"
        rng_ = fm.full_range()
        for i in range(len(pattern) - 1, -1, -1):
            rng_ = fm.extend_left(rng_, int(codes_of(pattern[i])[0]))
            direct = fm.backward_search(codes_of(pattern[i:]))
            assert rng_ == direct

    def test_extend_empty_range_stays_empty(self, fm_small):
        assert fm_small.extend_left((0, 0), 1) == (0, 0)


class TestLocate:
    def test_locate_vs_brute(self, rng):
        text = "".join(DNA.chars[int(c)] for c in rng.integers(0, 4, 200))
        fm = FMIndex(codes_of(text), sigma=4, sa_sample=8)
        for length in (2, 4, 6):
            start = int(rng.integers(0, 200 - length))
            pattern = text[start : start + length]
            got = sorted(fm.locate(fm.backward_search(codes_of(pattern))))
            assert got == brute_occurrences(text, pattern)

    def test_locate_every_row(self, fm_small):
        # locate_row over the whole SA must be a permutation of positions.
        size = fm_small.n + 1
        positions = sorted(fm_small.locate_row(r) for r in range(size))
        assert positions == list(range(size))

    @pytest.mark.parametrize("occ_block", [1, 8, 128, 300])
    def test_locate_array_matches_locate_row(self, rng, occ_block):
        codes = rng.integers(1, 5, 900)
        fm = FMIndex(codes, sigma=4, occ_block=occ_block, sa_sample=8)
        size = fm.n + 1
        for index in (fm, reopened(fm, occ_block, 8)):
            for lo, hi in ((0, size), (3, 40), (size - 9, size), (100, 106)):
                want = [index.locate_row(r) for r in range(lo, hi)]
                assert index.locate_array((lo, hi)).tolist() == want

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=4, max_size=100), st.integers(0, 200))
    def test_property_locate(self, text, seed):
        rng = np.random.default_rng(seed)
        fm = FMIndex(codes_of(text), sigma=4, occ_block=8, sa_sample=4)
        length = int(rng.integers(1, min(6, len(text)) + 1))
        start = int(rng.integers(0, len(text) - length + 1))
        pattern = text[start : start + length]
        got = sorted(fm.locate(fm.backward_search(codes_of(pattern))))
        assert got == brute_occurrences(text, pattern)


class TestSizeAndValidation:
    def test_size_breakdown_totals(self, fm_small):
        sizes = fm_small.size_bytes()
        parts = sizes["bwt"] + sizes["occ_checkpoints"] + sizes["sa_samples"]
        parts += sizes["c_array"]
        assert sizes["total"] == parts

    def test_dna_bwt_two_bits_per_char(self):
        fm = FMIndex(codes_of("ACGT" * 256), sigma=4)
        # ceil(log2(5)) = 3 bits per char in our model (sentinel included).
        assert fm.size_bytes()["bwt"] == (1024 + 1) * 3 // 8 + 1

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(IndexError_):
            FMIndex(np.array([1, 9]), sigma=4)
