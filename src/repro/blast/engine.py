"""The BLAST-like search engine (heuristic baseline of the experiments).

The pipeline mirrors classic BLASTN: word seeding, per-diagonal seed
deduplication, ungapped X-drop extension, a gap trigger, then a windowed
gapped extension.  It is a *heuristic*: alignments without a ``word_size``
exact core, or ones escaping the extension window, are missed — exactly the
behaviour the paper contrasts ALAE against (Tables 2/3 show BLAST finding
fewer results; Fig. 9 shows it barely reacting to the scoring scheme).
"""

from __future__ import annotations

import time

from repro.align.recurrences import CostCounter
from repro.align.types import ResultSet, SearchResult, SearchStats
from repro.alphabet import DNA, Alphabet
from repro.blast.extension import gapped_extension, ungapped_xdrop
from repro.blast.seeding import find_seeds
from repro.errors import SearchError
from repro.index.kmer_index import KmerIndex
from repro.scoring.evalue import resolve_threshold
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme


class Blast:
    """Seed-and-extend local alignment over a text.

    Parameters
    ----------
    word_size:
        Seed word length (BLASTN defaults to 11; smaller values increase
        sensitivity and cost).
    x_drop_ungapped / gap_trigger / gapped_margin:
        Extension controls; defaults scale with the scheme's match score.
    index:
        An already-built :class:`KmerIndex` over ``text`` with
        ``k == word_size`` (e.g. one shared by several engines over the
        same text); omitted, the index is built here.
    """

    def __init__(
        self,
        text: str,
        alphabet: Alphabet = DNA,
        scheme: ScoringScheme = DEFAULT_SCHEME,
        word_size: int = 11,
        x_drop_ungapped: int | None = None,
        gap_trigger: int | None = None,
        gapped_margin: int = 60,
        index: KmerIndex | None = None,
    ) -> None:
        if word_size < 1:
            raise SearchError(f"word_size must be >= 1, got {word_size}")
        alphabet.validate(text)
        self.text = text
        self.alphabet = alphabet
        self.scheme = scheme
        self.word_size = word_size
        self.x_drop_ungapped = (
            x_drop_ungapped if x_drop_ungapped is not None else 10 * scheme.sa
        )
        self.gap_trigger = gap_trigger
        self.gapped_margin = gapped_margin
        if index is not None:
            if index.k != word_size:
                raise SearchError(
                    f"prebuilt kmer index has k={index.k}, engine word_size "
                    f"is {word_size}"
                )
            if len(index.text) != len(text):
                raise SearchError(
                    "prebuilt kmer index was built over a different text"
                )
            self._index = index
        else:
            self._index = KmerIndex(text, word_size)

    def search(
        self,
        query: str,
        threshold: int | None = None,
        e_value: float | None = None,
    ) -> SearchResult:
        """Heuristically find alignments with score >= H (may miss some)."""
        self.alphabet.validate(query)
        m, n = len(query), len(self.text)
        h_thr = resolve_threshold(
            threshold, e_value, self.scheme, self.alphabet.size, m, n
        )
        trigger = (
            self.gap_trigger
            if self.gap_trigger is not None
            else max(self.word_size * self.scheme.sa, h_thr // 2)
        )

        started = time.perf_counter()
        counter = CostCounter()
        stats = SearchStats()
        results = ResultSet()
        seeds = extensions = gapped = 0

        # Per-diagonal high-water mark: skip seeds inside an extended region.
        covered: dict[int, int] = {}
        for seed in find_seeds(self._index, query):
            seeds += 1
            if covered.get(seed.diagonal, 0) >= seed.t_start + seed.length - 1:
                continue
            segment = ungapped_xdrop(
                self.text, query, seed, self.scheme, self.x_drop_ungapped,
                counter=counter,
            )
            extensions += 1
            covered[seed.diagonal] = max(
                covered.get(seed.diagonal, 0), segment.t_end
            )
            if segment.score < trigger and segment.score < h_thr:
                continue
            gapped += 1
            alignment, t_off, q_off = gapped_extension(
                self.text, query, segment, self.scheme, self.gapped_margin,
                counter=counter,
            )
            gapped_cell = (t_off + alignment.s1_end, q_off + alignment.s2_end)
            same_endpoint = gapped_cell == (segment.t_end, segment.q_end)
            if alignment.score >= h_thr:
                # Both phases can clear H on the *same* (t_end, q_end)
                # endpoint (the gapped DP rediscovering its own seed
                # segment); fold them into one add — best score, earliest
                # start on ties — instead of hitting the accumulator twice.
                start = t_off + alignment.s1_start
                if (
                    same_endpoint
                    and segment.score == alignment.score
                    and segment.t_start < start
                ):
                    start = segment.t_start
                results.add(
                    gapped_cell[0], gapped_cell[1], alignment.score, start
                )
            if segment.score >= h_thr and not same_endpoint:
                results.add(
                    segment.t_end, segment.q_end, segment.score, segment.t_start
                )

        stats.calculated_x1 = counter.x1
        stats.calculated_x2 = counter.x2
        stats.calculated_x3 = counter.x3
        stats.extra.update(
            {"seeds": seeds, "ungapped_extensions": extensions, "gapped": gapped}
        )
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(hits=results, stats=stats, threshold=h_thr)
