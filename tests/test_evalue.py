"""Karlin-Altschul statistics: lambda root, K plausibility, E <-> H."""

import math

import pytest

from repro import DEFAULT_SCHEME, KarlinAltschul, ScoringScheme
from repro.errors import EValueError
from repro.scoring.evalue import (
    _score_distribution,
    _solve_lambda,
    evalue_to_score,
    score_to_evalue,
)


class TestLambda:
    def test_lambda_is_root(self):
        # sum p(s) e^(lambda s) must equal 1 at the computed lambda.
        dist = _score_distribution(DEFAULT_SCHEME, 4)
        lam = _solve_lambda(dist)
        total = sum(p * math.exp(lam * s) for s, p in dist.items())
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_lambda_default_dna_value(self):
        # (1, -3) uniform DNA: known root ~1.374.
        ka = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        assert 1.3 < ka.lam < 1.45

    def test_lambda_increases_with_mismatch_penalty(self):
        lam2 = KarlinAltschul.from_scheme(ScoringScheme(1, -2, -5, -2), 4).lam
        lam4 = KarlinAltschul.from_scheme(ScoringScheme(1, -4, -5, -2), 4).lam
        assert lam4 > lam2

    def test_lambda_protein_larger_than_dna(self):
        # Rarer matches (sigma = 20) push lambda up.
        dna = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4).lam
        prot = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 20).lam
        assert prot > dna

    def test_positive_drift_rejected(self):
        # (1, -1) on DNA has mean 0.25 - 0.75 < 0, fine; craft a positive one.
        with pytest.raises(EValueError):
            KarlinAltschul.from_scheme(ScoringScheme(10, -1, -5, -2), 4)


class TestK:
    def test_k_in_plausible_range(self):
        ka = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        # NCBI's ungapped (1,-3) K is ~0.71 with real base frequencies.
        assert 0.2 < ka.k < 1.0

    def test_k_positive_for_grid(self):
        for sb in (-1, -2, -3, -4):
            ka = KarlinAltschul.from_scheme(ScoringScheme(1, sb, -5, -2), 4)
            assert ka.k > 0


class TestEvalueThreshold:
    def test_threshold_formula(self):
        ka = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        m, n, e = 1000, 100000, 10.0
        h = ka.score_threshold(e, m, n)
        expected = math.ceil((math.log(ka.k * m * n) - math.log(e)) / ka.lam)
        assert h == expected

    def test_smaller_evalue_larger_threshold(self):
        ka = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        hs = [ka.score_threshold(e, 1000, 10**6) for e in (10, 1e-5, 1e-15)]
        assert hs[0] < hs[1] < hs[2]

    def test_threshold_grows_with_database(self):
        ka = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        assert ka.score_threshold(10, 1000, 10**9) > ka.score_threshold(
            10, 1000, 10**5
        )

    def test_roundtrip_consistency(self):
        # The E-value of the returned threshold must be <= the requested E.
        ka = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        m, n = 500, 200000
        for e in (10.0, 0.1, 1e-8):
            h = ka.score_threshold(e, m, n)
            assert ka.evalue(h, m, n) <= e
            assert ka.evalue(h - 1, m, n) > e * 0.9

    def test_invalid_evalue(self):
        ka = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        with pytest.raises(EValueError):
            ka.score_threshold(0.0, 10, 10)

    def test_wrappers(self):
        h = evalue_to_score(DEFAULT_SCHEME, 4, 10.0, 1000, 100000)
        assert h >= 1
        e = score_to_evalue(DEFAULT_SCHEME, 4, h, 1000, 100000)
        assert e <= 10.0

    def test_threshold_floor(self):
        # Huge E-values must still produce a sane threshold >= 1.
        ka = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        assert ka.score_threshold(1e12, 10, 10) >= 1

    def test_cache_identity(self):
        a = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        b = KarlinAltschul.from_scheme(DEFAULT_SCHEME, 4)
        assert a is b

    def test_resolve_threshold_reexport_is_same_object(self):
        import warnings

        from repro.scoring.evalue import resolve_threshold as canonical

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            from repro.align.bwt_sw import resolve_threshold as legacy
        assert legacy is canonical
