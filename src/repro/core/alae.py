"""The ALAE search engine (the paper's primary contribution).

Pipeline per search (query ``P``, threshold ``H`` or E-value):

1. resolve ``H`` (Karlin-Altschul, Sec. 7) and build the
   :class:`~repro.core.filters.FilterPlan` (q, min row, Lmax, FGOE bound);
2. build the q-gram inverted index of ``P`` (Sec. 3.1.3);
3. find every distinct q-gram ``g`` of ``P`` in the text via the compressed
   suffix array of the reversed text (Sec. 5; all grams together, ``q``
   batched backward-search steps); then for every ``g``:
   a. drop fork columns killed by q-prefix domination (Sec. 3.2.2) and —
      optionally — by the online bit matrix ``G`` (Sec. 3.2.1); a miss in
      the text prunes the entire conceptual matrix (whole-matrix prefix
      filtering);
   b. seed one fork per surviving column at row ``q`` (EMR scores are
      assigned, not calculated);
4. traverse the suffix-trie subtrees under the seeded grams, advancing NGR
   forks along their diagonals (Eq. 3) and gap-phase forks through the
   sparse affine DP, with the Sec. 4 reuse engine sharing identical fork
   advances.  The default traversal sweeps all subtrees together one trie
   level at a time (:meth:`ALAE._sweep`); the scalar reference walks one
   subtree at a time, depth first;
5. alignments shorter than ``q`` (possible only when ``H < q * sa``) are
   all-match by Theorem 3's argument and are enumerated directly.

Every cell with score ``>= H`` lands in the max-dedup accumulator ``A``; the
result equals Smith-Waterman's ``{(i, j): H(i, j) >= H}`` exactly (tested).
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from repro.scoring.evalue import resolve_threshold
from repro.align.recurrences import CostCounter, advance_row
from repro.align.smith_waterman import PairwiseAlignment, align_pair
from repro.align.types import (
    START_UNKNOWN,
    Hit,
    ResultSet,
    SearchResult,
    SearchStats,
)
from repro.alphabet import DNA, Alphabet
from repro.core.domination import DominationIndex
from repro.core.filters import FilterPlan, make_filter_plan
from repro.core.forks import (
    GAP,
    NGR,
    Fork,
    fgoe_row_frontier,
    seed_fork,
    split_cohort,
)
from repro.core.global_filter import GlobalBitMatrix
from repro.core.reuse import ReuseEngine
from repro.index.csa import EMPTY_RANGE, ReversedTextIndex
from repro.index.qgram import QGramIndex
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme

#: Shared empty frontier for NGR forks (never mutated).
_EMPTY_DICT: dict = {}


class ALAE:
    """Exact local-alignment search with filtering and reuse.

    Parameters
    ----------
    text:
        The database text ``T`` (concatenate collections beforehand, e.g.
        with :class:`repro.io.database.SequenceDatabase`).
    alphabet, scheme:
        Alphabet and affine-gap scoring scheme.
    use_length_filter, use_score_filter, use_domination, use_reuse,
    use_global_bitmask:
        Toggles for each technique (all exact; defaults mirror the paper's
        configuration — the bitmap filter is off, Sec. 3.2.2 replacing it).
    use_vectorized:
        When ``True`` (default) the suffix-trie traversal is one
        level-synchronous sweep per query (:meth:`_sweep`): the nodes of
        every q-gram subtree at one depth advance together, their child
        ranges taken by batched rank gathers and their NGR forks scored,
        bounded and filtered as arrays; gap-phase forks, hit location and
        the unary nodes of thin levels (consumed straight from the text)
        stay per node.  ``False`` keeps the per-fork, depth-first scalar
        reference traversal.  Both visit the same nodes and return
        bit-identical results and statistics (the differential fuzz suite
        asserts it).  See README "Engine internals".
    """

    def __init__(
        self,
        text: str,
        alphabet: Alphabet = DNA,
        scheme: ScoringScheme = DEFAULT_SCHEME,
        *,
        use_length_filter: bool = True,
        use_score_filter: bool = True,
        use_domination: bool = True,
        use_reuse: bool = True,
        use_global_bitmask: bool = False,
        use_vectorized: bool = True,
        occ_block: int = 128,
        sa_sample: int = 16,
    ) -> None:
        alphabet.validate(text)
        self.text = text
        self.alphabet = alphabet
        self.scheme = scheme
        self.use_length_filter = use_length_filter
        self.use_score_filter = use_score_filter
        self.use_domination = use_domination
        self.use_reuse = use_reuse
        self.use_global_bitmask = use_global_bitmask
        self.use_vectorized = use_vectorized
        self.csa = ReversedTextIndex(
            text, alphabet, occ_block=occ_block, sa_sample=sa_sample
        )
        # code -> character for the sweep (code 0 = sentinel).
        self._code_chars = [""] + list(alphabet.chars)
        self._dom_cache: dict[int, DominationIndex] = {}

    @classmethod
    def from_prebuilt(
        cls,
        csa: ReversedTextIndex,
        *,
        scheme: ScoringScheme = DEFAULT_SCHEME,
        domination: DominationIndex | None = None,
        use_length_filter: bool = True,
        use_score_filter: bool = True,
        use_domination: bool = True,
        use_reuse: bool = True,
        use_global_bitmask: bool = False,
        use_vectorized: bool = True,
    ) -> "ALAE":
        """Assemble an engine around already-built indexes (store fast path).

        Skips text validation and all index construction: ``csa`` supplies
        the text, alphabet and reversed-text FM-index, and ``domination``
        (when given) pre-seeds the dominate-index cache for its own ``q``.
        Any other prefix length requested later is still built on demand
        from the text.
        """
        engine = cls.__new__(cls)
        engine.text = csa.text
        engine.alphabet = csa.alphabet
        engine.scheme = scheme
        engine.use_length_filter = use_length_filter
        engine.use_score_filter = use_score_filter
        engine.use_domination = use_domination
        engine.use_reuse = use_reuse
        engine.use_global_bitmask = use_global_bitmask
        engine.use_vectorized = use_vectorized
        engine.csa = csa
        engine._code_chars = [""] + list(csa.alphabet.chars)
        engine._dom_cache = {}
        if domination is not None:
            engine._dom_cache[domination.q] = domination
        return engine

    # ---------------------------------------------------------------- index
    def domination_index(self, q: int | None = None) -> DominationIndex:
        """The (cached) offline dominate index for prefix length ``q``."""
        if q is None:
            q = self.scheme.q
        if q not in self._dom_cache:
            self._dom_cache[q] = DominationIndex(self.text, q)
        return self._dom_cache[q]

    def index_size_bytes(self) -> dict[str, int]:
        """Fig. 11 accounting: BWT index + dominate index sizes.

        ``*_actual`` / ``actual_total`` report the bytes the same structures
        occupy when serialized by ``repro.store`` — the paper's model next
        to the on-disk truth.
        """
        bwt = self.csa.size_bytes()
        dom = self.domination_index() if self.use_domination else None
        dom_model = dom.size_bytes() if dom is not None else 0
        dom_actual = dom.actual_size_bytes() if dom is not None else 0
        bwt_actual = bwt["actual"]["total"]
        return {
            "bwt_index": bwt["total"],
            "dominate_index": dom_model,
            "total": bwt["total"] + dom_model,
            "bwt_index_actual": bwt_actual,
            "dominate_index_actual": dom_actual,
            "actual_total": bwt_actual + dom_actual,
        }

    # --------------------------------------------------------------- search
    def search(
        self,
        query: str,
        threshold: int | None = None,
        e_value: float | None = None,
    ) -> SearchResult:
        """Find every end-position pair with alignment score ``>= H``."""
        self.alphabet.validate(query)
        scheme = self.scheme
        m, n = len(query), self.csa.n
        h_thr = resolve_threshold(
            threshold, e_value, scheme, self.alphabet.size, m, n
        )
        plan = make_filter_plan(scheme, m, h_thr)

        started = time.perf_counter()
        counter = CostCounter("alae")
        stats = SearchStats()
        results = ResultSet()
        reuse = ReuseEngine(self.use_reuse)
        dom = self.domination_index(plan.q) if self.use_domination else None
        gbm = GlobalBitMatrix(n, m) if self.use_global_bitmask else None

        if plan.min_row < plan.q and m >= plan.min_row:
            self._emit_short_matches(query, plan, results, stats)

        if m >= plan.q:
            vec_state = None
            if self.use_vectorized:
                # Per-search context of the sweep: query code points (array
                # + list form) and the depth-only liveness thresholds for
                # every admissible row.
                qcodes = self.csa.query_codes(query)
                vec_state = (
                    qcodes,
                    qcodes.tolist(),
                    [
                        plan.row_live_threshold(i, self.use_score_filter)
                        for i in range(plan.lmax + 2)
                    ],
                )
            qidx = QGramIndex(query, plan.q)
            grams = qidx.grams()
            los, his = self.csa.ranges_of(grams)
            pending = []
            for gram, lo, hi in zip(grams, los.tolist(), his.tolist()):
                seeded = self._seed_gram(
                    gram, qidx.positions(gram), (lo, hi), query, plan, h_thr,
                    results, stats, counter, dom, gbm,
                )
                if seeded is None:
                    continue
                if vec_state is None:
                    self._traverse_scalar(
                        *seeded, query, plan, h_thr, results, stats, counter,
                        reuse, gbm,
                    )
                elif gbm is None:
                    pending.append(seeded)
                else:
                    # Bitmask marks from this gram decide which seeds of
                    # the next one count: sweep it before seeding on.
                    self._sweep(
                        [seeded], query, vec_state, plan, h_thr, results,
                        stats, counter, reuse, gbm,
                    )
            if pending:
                self._sweep(
                    pending, query, vec_state, plan, h_thr, results, stats,
                    counter, reuse, gbm,
                )

        stats.calculated_x1 = counter.x1
        stats.calculated_x2 = counter.x2
        stats.calculated_x3 = counter.x3
        stats.reused = reuse.reused_cells
        stats.extra["memo_hits"] = reuse.memo_hits
        stats.extra["memo_misses"] = reuse.memo_misses
        if gbm is not None:
            stats.extra["bitmask_cells"] = gbm.marked_cells()
        stats.elapsed_seconds = time.perf_counter() - started
        return SearchResult(hits=results, stats=stats, threshold=h_thr)

    # ------------------------------------------------------------ internals
    def _emit_short_matches(
        self, query: str, plan: FilterPlan, results: ResultSet, stats: SearchStats
    ) -> None:
        """Alignments shorter than q: all-match pairs (see module docstring)."""
        for length in range(plan.min_row, min(plan.q, len(query) + 1)):
            score = length * self.scheme.sa
            grams: dict[str, list[int]] = defaultdict(list)
            for start0 in range(len(query) - length + 1):
                grams[query[start0 : start0 + length]].append(start0 + 1)
            for gram, cols in grams.items():
                rng = self.csa.range_of(gram)
                if rng == EMPTY_RANGE:
                    continue
                ends = self.csa.end_positions(rng)
                stats.emr_assigned += len(ends) * len(cols)
                for j in cols:
                    p_end = j + length - 1
                    for end in ends:
                        results.add(end, p_end, score, end - length + 1)

    def _seed_gram(
        self,
        gram: str,
        cols: list[int],
        rng: tuple[int, int],
        query: str,
        plan: FilterPlan,
        h_thr: int,
        results: ResultSet,
        stats: SearchStats,
        counter: CostCounter,
        dom: DominationIndex | None,
        gbm: GlobalBitMatrix | None,
    ) -> tuple[tuple[int, int], list[Fork]] | None:
        """Seed the forks of one distinct q-gram (shared by both traversals).

        ``cols`` are the gram's query columns and ``rng`` its SA range
        (:data:`EMPTY_RANGE` when the text lacks it).  Applies q-prefix
        domination, the whole-matrix miss and, optionally, the bitmask
        filter; records the seed row's hits; returns ``(rng, forks)`` for
        the traversal, or ``None`` when no fork survives seeding.
        """
        q = plan.q
        if dom is not None:
            pred = dom.unique_predecessor(gram)
            if pred is not None:
                kept = [
                    j for j in cols if j == 1 or query[j - 2 : j - 2 + q] != pred
                ]
                stats.forks_skipped_domination += len(cols) - len(kept)
                cols = kept
        if not cols:
            return None

        if rng == EMPTY_RANGE:
            stats.grams_absent_in_text += 1
            return None

        seed_ends: list[int] | None = None
        if gbm is not None:
            seed_ends = self.csa.end_positions(rng)
            starts = [e - q + 1 for e in seed_ends]
            kept = [j for j in cols if not gbm.all_marked(starts, j)]
            stats.forks_skipped_global += len(cols) - len(kept)
            cols = kept
            if not cols:
                return None

        seed_score = q * self.scheme.sa
        live_seed = plan.row_live_threshold(q, self.use_score_filter)
        if seed_score <= live_seed:
            return None  # every fork of this gram is dead on arrival

        forks = [
            seed_fork(j, plan, self.scheme, live_seed, counter) for j in cols
        ]
        stats.forks_seeded += len(forks)
        stats.emr_assigned += q * len(forks)

        sa = self.scheme.sa
        for fork in forks:
            cells = (
                fork.frontier.items()
                if fork.phase == GAP
                else [(fork.pip + q - 1, (seed_score, 0))]
            )
            for col, (m_val, _ga) in cells:
                if m_val >= h_thr or (gbm is not None and m_val >= sa):
                    if seed_ends is None:
                        seed_ends = self.csa.end_positions(rng)
                    if m_val >= h_thr:
                        for end in seed_ends:
                            results.add(end, col, m_val, end - q + 1)
                    if gbm is not None and m_val >= sa:
                        gbm.mark(seed_ends, col)
        return rng, forks

    def _traverse_scalar(
        self,
        rng: tuple[int, int],
        forks: list[Fork],
        query: str,
        plan: FilterPlan,
        h_thr: int,
        results: ResultSet,
        stats: SearchStats,
        counter: CostCounter,
        reuse: ReuseEngine,
        gbm: GlobalBitMatrix | None,
    ) -> None:
        """Per-fork, depth-first reference traversal of one gram's subtree."""
        char_codes = self.csa.char_codes()
        extend_code = self.csa.extend_code
        stack: list[tuple[tuple[int, int], int, list[Fork]]] = [
            (rng, plan.q, forks)
        ]
        while stack:
            node_rng, depth, node_forks = stack.pop()
            stats.nodes_visited += 1
            new_depth = depth + 1
            if self.use_length_filter and new_depth > plan.lmax:
                continue
            for char, code in char_codes:
                child_rng = extend_code(node_rng, code)
                if child_rng == EMPTY_RANGE:
                    continue
                survivors = self._advance_forks(
                    node_forks, char, query, new_depth, plan, h_thr,
                    counter, reuse, child_rng, results, stats, gbm,
                )
                if survivors:
                    stack.append((child_rng, new_depth, survivors))

    #: A level with fewer nodes than this hands every unary node to text
    #: mode (one locate each, free when the node sits on a sampled SA row);
    #: wider levels hand off none.  A thin level's fixed per-level array
    #: calls outweigh what they batch, while on a wide level they amortise
    #: and most unary nodes die within a few rows, where the locate would
    #: be pure loss.
    _THIN_LEVEL = 32

    def _sweep(
        self,
        seeds: list[tuple[tuple[int, int], list[Fork]]],
        query: str,
        vec_state: tuple,
        plan: FilterPlan,
        h_thr: int,
        results: ResultSet,
        stats: SearchStats,
        counter: CostCounter,
        reuse: ReuseEngine,
        gbm: GlobalBitMatrix | None,
    ) -> None:
        """Level-synchronous traversal of every seeded q-gram subtree.

        Every seed sits at depth ``q``, so the nodes of all subtrees at one
        depth form one level and advance together as array operations:

        * child ranges of every node: two rank-table gathers
          (:meth:`FMIndex.extend_all`);
        * the NGR cohort of the level as flat ``(node, pip, score)``
          arrays: one Eq. 3 score per (fork, existing child), the Theorem 2
          bounds, the x1 charges, survivor selection and the FGOE
          crossings, all as array arithmetic.

        Per-node Python remains only where the work is per node by nature:
        gap-phase forks advance per node and child through the Sec. 4
        reuse engine (:func:`advance_row`), hits are located per child
        (:meth:`_locate_ends`), and the unary nodes of a thin level are
        handed to text mode (:meth:`_chain_text`).  The sweep visits the
        nodes the scalar reference visits and calculates the same entries,
        in another order; hits and every counter are identical (the
        differential fuzz suite asserts it).
        """
        qcodes, _qlist, live_rows = vec_state
        scheme = self.scheme
        sa, sb = scheme.sa, scheme.sb
        m, h_budget = plan.m, plan.threshold
        fgoe = plan.fgoe_bound
        lmax = plan.lmax
        use_sf = self.use_score_filter
        use_lf = self.use_length_filter
        col_floor = plan.col_floor(use_sf)
        csa = self.csa
        fm = csa._fm
        sigma = fm.sigma
        code_chars = self._code_chars
        sa_samples_get = fm._sa_samples.get
        n_text = csa.n
        n_live = len(live_rows)
        add = results.add
        # A child cell is emitted (located) when it is a hit or, with the
        # bitmask on, when it must be marked in G.
        floor = h_thr if gbm is None else min(h_thr, sa)
        # gain[col - 1, c - 1]: Eq. 3 step of query column col against code c.
        gain = np.where(qcodes[:, None] == np.arange(1, sigma + 1), sa, sb)

        # Level state: node ranges, the NGR cohort as flat arrays sorted by
        # (node, pip), and gap forks by node.
        lo = np.array([rng[0] for rng, _forks in seeds], dtype=np.int64)
        hi = np.array([rng[1] for rng, _forks in seeds], dtype=np.int64)
        nodes: list[int] = []
        pips: list[int] = []
        scores: list[int] = []
        gaps: dict[int, list] = {}
        for i, (_rng, forks) in enumerate(seeds):
            seed_pips, seed_scores, seed_gaps = split_cohort(forks)
            nodes += [i] * len(seed_pips)
            pips += seed_pips
            scores += seed_scores
            if seed_gaps:
                gaps[i] = seed_gaps
        f_node = np.array(nodes, dtype=np.int64)
        f_pip = np.array(pips, dtype=np.int64)
        f_score = np.array(scores, dtype=np.int64)

        depth = plan.q
        visited = 0
        x1_charged = 0
        while lo.size:
            visited += lo.size
            new_depth = depth + 1
            if use_lf and new_depth > lmax:
                break
            live = (
                live_rows[new_depth]
                if new_depth < n_live
                else plan.row_live_threshold(new_depth, use_sf)
            )
            # Forks whose diagonal already left the query die silently.
            keep = f_pip + depth <= m

            # ---- a thin level's unary nodes leave for text mode ---------
            if gbm is None and lo.size < self._THIN_LEVEL:
                chains = np.flatnonzero(hi - lo == 1)
                if chains.size:
                    firsts = np.searchsorted(f_node, chains).tolist()
                    lasts = np.searchsorted(f_node, chains, "right").tolist()
                    for i, a, b in zip(chains.tolist(), firsts, lasts):
                        row = int(lo[i])
                        # Chain stepping IS the LF walk a locate would do,
                        # so a sampled row's text position comes for free.
                        pos = sa_samples_get(row)
                        self._chain_text(
                            row, depth, f_pip[a:b].tolist(),
                            f_score[a:b].tolist(), gaps.pop(i, []), query,
                            vec_state, plan, h_thr, results, stats, counter,
                            reuse, e=None if pos is None else n_text - pos,
                        )
                        keep[a:b] = False
            if not keep.all():
                f_node, f_pip, f_score = f_node[keep], f_pip[keep], f_score[keep]
            if not f_node.size and not gaps:
                break

            # ---- every child range of the level: two gathers -----------
            c_lo, c_hi = fm.extend_all(lo, hi)
            exists = c_hi > c_lo
            ends_cache: dict[int, list[int]] = {}
            child_gaps: dict[int, list] = {}

            def emit(key: int, col: int, score: int) -> None:
                """Record one cell of child ``key`` at every occurrence."""
                ends = ends_cache.get(key)
                if ends is None:
                    node, code = divmod(key, sigma)
                    ends = ends_cache[key] = self._locate_ends(
                        (int(c_lo[node, code]), int(c_hi[node, code]))
                    )
                if score >= h_thr:
                    start = new_depth - 1
                    for e in ends:
                        add(e, col, score, e - start)
                if gbm is not None and score >= sa:
                    gbm.mark(ends, col)

            # ---- the level's NGR cohort, one (fork, child) grid ---------
            stay_key = stay_pip = stay_score = f_node[:0]
            if f_node.size:
                # Every existing child costs one Eq. 3 cell per fork.
                x1_charged += int(exists.sum(axis=1)[f_node].sum())
                col = f_pip + depth  # the diagonal's column in the child row
                bound = (
                    np.maximum(h_budget - 1 - (m - col) * sa, live)
                    if use_sf
                    else np.zeros_like(col)
                )
                # A fork that dies even on a match has no child at all.
                cand = np.flatnonzero(f_score + sa > bound)
                if cand.size:
                    child = f_score[cand, None] + gain[col[cand] - 1]
                    ok = (child > bound[cand, None]) & exists[f_node[cand]]
                    row, code = np.nonzero(ok)
                    key = f_node[cand[row]] * sigma + code
                    # Group by child, keeping pip order within each child:
                    # rows ascend, so sorting the unique (key, row) pairs
                    # gives the stable order.  (NumPy 2.4's stable argsort
                    # grew the heap over ever-changing input lengths.)
                    order = np.argsort(key * row.size + np.arange(row.size))
                    key = key[order]
                    src = cand[row[order]]
                    score = child[row[order], code[order]]
                    over = score > fgoe
                    if over.any():
                        # FGOE crossings open gap cones (per fork).
                        for t in np.flatnonzero(over).tolist():
                            k = int(key[t])
                            f = int(src[t])
                            pip = int(f_pip[f])
                            frontier = fgoe_row_frontier(
                                int(score[t]), pip + depth, m, scheme,
                                int(bound[f]), counter,
                            )
                            child_gaps.setdefault(k, []).append((pip, frontier))
                            for ccol, (m_val, _ga) in frontier.items():
                                if m_val >= floor:
                                    emit(k, ccol, m_val)
                        stay = ~over
                        key, src, score = key[stay], src[stay], score[stay]
                    for t in np.flatnonzero(score >= floor).tolist():
                        f = int(src[t])
                        emit(int(key[t]), int(f_pip[f]) + depth, int(score[t]))
                    stay_key, stay_pip, stay_score = key, f_pip[src], score

            # ---- gap-phase forks, per node and child --------------------
            gap_nodes = list(gaps)
            kids = exists[gap_nodes].tolist() if gap_nodes else []
            for i, node_kids in zip(gap_nodes, kids):
                node_gaps = gaps[i]
                frontiers = [frontier for _pip, frontier in node_gaps]
                for code, present in enumerate(node_kids):
                    if not present:
                        continue
                    k = i * sigma + code
                    char = code_chars[code + 1]
                    if len(frontiers) == 1:
                        # A lone fork cannot share: skip the reuse engine.
                        new_frontiers = [advance_row(
                            frontiers[0], char, query, m, scheme, live,
                            counter, col_floor=col_floor,
                        )]
                    else:
                        new_frontiers = reuse.advance_forks(
                            frontiers, char, query, m, scheme, live,
                            counter, col_floor,
                        )
                    for (gap_pip, _old), frontier in zip(node_gaps, new_frontiers):
                        if not frontier:
                            continue
                        for j, (m_val, _ga) in frontier.items():
                            # Defense in depth: phantom cells past column m
                            # (a bad reuse copy) must never become hits.
                            if j <= m and m_val >= floor:
                                emit(k, j, m_val)
                        child_gaps.setdefault(k, []).append((gap_pip, frontier))

            # ---- the next level: every child with a surviving fork ------
            keys = stay_key
            if child_gaps:
                gap_keys = np.fromiter(child_gaps, np.int64, len(child_gaps))
                keys = np.concatenate((keys, gap_keys))
                keys.sort()
            if keys.size > 1:  # sorted: keep the first of each run
                fresh = np.empty(keys.size, dtype=bool)
                fresh[0] = True
                np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
                keys = keys[fresh]
            gaps = (
                dict(zip(np.searchsorted(keys, gap_keys).tolist(),
                         child_gaps.values()))
                if child_gaps
                else {}
            )
            lo = np.take(c_lo, keys)
            hi = np.take(c_hi, keys)
            f_node = np.searchsorted(keys, stay_key)
            f_pip, f_score = stay_pip, stay_score
            depth = new_depth
        stats.nodes_visited += visited
        counter.x1 += x1_charged

    def _locate_ends(self, child_rng: tuple[int, int]) -> list[int]:
        """End positions of a child range as a list (batched when wide).

        Narrow ranges take the scalar sampled-SA walk; wide ranges resolve
        all rows per LF iteration through the batched locate.
        """
        lo, hi = child_rng
        if hi - lo >= 6:
            return self.csa.end_positions_array(child_rng).tolist()
        return self.csa.end_positions(child_rng)

    def _chain_text(
        self,
        lo: int,
        depth: int,
        pips: list[int],
        scores: list[int],
        gaps: list,
        query: str,
        vec_state: tuple,
        plan: FilterPlan,
        h_thr: int,
        results: ResultSet,
        stats: SearchStats,
        counter: CostCounter,
        reuse: ReuseEngine,
        e: int | None = None,
    ) -> None:
        """Consume a unary chain straight off the text — no more FM work.

        One locate (skipped when the caller already knows ``e`` from a
        sampled-SA hit) turns the size-1 SA range into its occurrence end
        ``e``; from there the whole remaining subtree is the text slice
        ``T[e+1..]``: every chain character is a plain array read, the
        single child is implicit, and every emission's end position is just
        ``e + r`` — no LF walks, rank queries or existence scans.  Every row
        is plain Python: NGR forks take one Eq. 3 step each and gap cones
        one sparse DP row, since most chains die within a few rows, where
        per-fork array calls would cost more than they save.  The chain is
        consumed to cohort death, text end or the depth cap; nothing
        returns to the sweep's next level.  Accounting is bit-identical to
        the sweep (asserted by the differential fuzz suite).  Only entered
        with the global bitmap filter off (its marks need per-row locates
        the sweep does).
        """
        _qcodes, qlist, live_rows = vec_state
        csa = self.csa
        scheme = self.scheme
        sa, sb = scheme.sa, scheme.sb
        m, h_budget = plan.m, plan.threshold
        fgoe = plan.fgoe_bound
        lmax = plan.lmax
        use_sf = self.use_score_filter
        use_lf = self.use_length_filter
        col_floor = plan.col_floor(use_sf)
        code_chars = self._code_chars
        row_live = plan.row_live_threshold
        n_live = len(live_rows)
        n = csa.n
        tlist = csa.text_code_bytes()
        if e is None:
            e = csa.end_positions((lo, lo + 1))[0]
        visited = 0
        x1 = 0
        while True:
            new_depth = depth + 1
            if use_lf and new_depth > lmax:
                break
            if e >= n:
                break  # the occurrence ends the text: no further chain edge
            code1 = tlist[e]
            while pips and pips[-1] + depth > m:
                pips.pop()
                scores.pop()
            k = len(pips)
            if not k and not gaps:
                break
            live = (
                live_rows[new_depth]
                if new_depth < n_live
                else row_live(new_depth, use_sf)
            )
            t_end = e + 1
            child_pips: list = []
            child_scores: list = []
            child_gaps: list = []
            if k:
                x1 += k
                for pip, fscore in zip(pips, scores):
                    col = pip + depth
                    score = fscore + (sa if qlist[col - 1] == code1 else sb)
                    if use_sf:
                        bound = h_budget - (m - col) * sa - 1
                        if live > bound:
                            bound = live
                    else:
                        bound = 0
                    if score <= bound:
                        continue
                    if score > fgoe:
                        frontier = fgoe_row_frontier(
                            score, col, m, scheme, bound, counter
                        )
                        child_gaps.append((pip, frontier))
                        for ccol, (m_val, _ga) in frontier.items():
                            if m_val >= h_thr:
                                results.add(
                                    t_end, ccol, m_val, t_end - new_depth + 1
                                )
                        continue
                    child_pips.append(pip)
                    child_scores.append(score)
                    if score >= h_thr:
                        results.add(t_end, col, score, t_end - new_depth + 1)
            if gaps:
                char = code_chars[code1]
                if len(gaps) == 1:
                    new_frontiers = [advance_row(
                        gaps[0][1], char, query, m, scheme, live, counter,
                        col_floor=col_floor,
                    )]
                else:
                    new_frontiers = reuse.advance_forks(
                        [fr for _p, fr in gaps], char, query, m, scheme,
                        live, counter, col_floor,
                    )
                for (gap_pip, _old), frontier in zip(gaps, new_frontiers):
                    if not frontier:
                        continue
                    for j, (m_val, _ga) in frontier.items():
                        # Phantom guard: see _advance_forks.
                        if j > m:
                            continue
                        if m_val >= h_thr:
                            results.add(
                                t_end, j, m_val, t_end - new_depth + 1
                            )
                    child_gaps.append((gap_pip, frontier))
            if not child_pips and not child_gaps:
                break
            pips, scores, gaps = child_pips, child_scores, child_gaps
            depth = new_depth
            e = t_end
            visited += 1
        stats.nodes_visited += visited
        counter.x1 += x1

    def _advance_forks(
        self,
        node_forks: list[Fork],
        char: str,
        query: str,
        depth: int,
        plan: FilterPlan,
        h_thr: int,
        counter: CostCounter,
        reuse: ReuseEngine,
        rng: tuple[int, int],
        results: ResultSet,
        stats: SearchStats,
        gbm: GlobalBitMatrix | None,
    ) -> list[Fork]:
        """Advance every fork one row for one child character."""
        live = plan.row_live_threshold(depth, self.use_score_filter)
        ends: list[int] | None = None
        scheme = self.scheme
        sa, sb = scheme.sa, scheme.sb
        m, h_budget = plan.m, plan.threshold
        fgoe = plan.fgoe_bound
        use_sf = self.use_score_filter
        survivors: list[Fork] = []
        gap_forks: list[Fork] = []
        for fork in node_forks:
            if fork.phase == NGR:
                # Inlined advance_ngr (Eq. 3 diagonal walk) — hot path.
                col = fork.pip + depth - 1
                if col > m:
                    continue
                score = fork.score + (sa if query[col - 1] == char else sb)
                counter.x1 += 1
                if use_sf:
                    bound = max(
                        live,
                        h_budget - (m - col) * sa - 1,
                    )
                else:
                    bound = 0
                if score <= bound:
                    continue
                if score > fgoe:
                    frontier = fgoe_row_frontier(
                        score, col, m, scheme, bound, counter
                    )
                    clone = Fork(fork.pip, GAP, 0, frontier)
                    for ccol, (m_val, _ga) in frontier.items():
                        if m_val >= h_thr or (gbm is not None and m_val >= sa):
                            if ends is None:
                                ends = self.csa.end_positions(rng)
                            if m_val >= h_thr:
                                for end in ends:
                                    results.add(end, ccol, m_val, end - depth + 1)
                            if gbm is not None and m_val >= sa:
                                gbm.mark(ends, ccol)
                else:
                    clone = Fork(fork.pip, NGR, score, _EMPTY_DICT)
                    if score >= h_thr or (gbm is not None and score >= sa):
                        if ends is None:
                            ends = self.csa.end_positions(rng)
                        if score >= h_thr:
                            for end in ends:
                                results.add(end, col, score, end - depth + 1)
                        if gbm is not None and score >= sa:
                            gbm.mark(ends, col)
                survivors.append(clone)
            else:
                gap_forks.append(fork)

        if gap_forks:
            new_frontiers = reuse.advance_forks(
                [f.frontier for f in gap_forks], char, query, plan.m,
                self.scheme, live, counter, plan.col_floor(use_sf),
            )
            sa = self.scheme.sa
            for fork, frontier in zip(gap_forks, new_frontiers):
                if not frontier:
                    continue
                for j, (m_val, _ga) in frontier.items():
                    # Defense in depth: a frontier cell past column m can
                    # only be a phantom from a bad reuse copy; it must never
                    # become a reported hit with p_end > len(query).
                    if j > m:
                        continue
                    if m_val >= h_thr or (gbm is not None and m_val >= sa):
                        if ends is None:
                            ends = self.csa.end_positions(rng)
                        if m_val >= h_thr:
                            for end in ends:
                                results.add(end, j, m_val, end - depth + 1)
                        if gbm is not None and m_val >= sa:
                            gbm.mark(ends, j)
                survivors.append(Fork(fork.pip, GAP, 0, frontier))
        return survivors

    # ------------------------------------------------------------- utility
    def materialize(self, hit: Hit, query: str) -> PairwiseAlignment:
        """Recover the operations of one hit with a windowed traceback DP.

        The window spans the hit's text range and the query region that can
        reach ``p_end``; the returned alignment's score is at least the hit's
        (the window may contain an even better local alignment).

        The query side can be longer than the text side by the total number
        of inserted query characters, which a single ``+ |sg|`` pad only
        covers for one short gap run; the window is therefore expanded
        (doubling the pad) until the recovered score reaches the hit's score
        or the window hits the start of the query.

        Start-unknown hits (``t_start == START_UNKNOWN``) get a pessimistic
        ``2 * len(query)`` text window; the sentinel is compared explicitly
        rather than by falsiness (positions are 1-based, so 0 is only ever
        the sentinel — but the explicit check keeps the invariant visible
        and survives any future signed/optional start representation).
        """
        if hit.t_start != START_UNKNOWN:
            t_lo = max(1, hit.t_start)
        else:
            t_lo = max(1, hit.t_end - 2 * len(query))
        text_window = self.text[t_lo - 1 : hit.t_end]
        span = hit.t_end - t_lo + 1 + abs(self.scheme.sg)
        while True:
            p_lo = max(1, hit.p_end - span)
            query_window = query[p_lo - 1 : hit.p_end]
            alignment = align_pair(text_window, query_window, self.scheme)
            if alignment.score >= hit.score or p_lo == 1:
                return alignment
            span *= 2
