"""Local filtering (Sec. 3.1): length, score and q-prefix filters.

These are thin, heavily-tested helpers over :class:`ScoringScheme`'s derived
quantities.  They exist as their own module so the ablation benchmarks can
toggle each filter and so tests can probe each theorem in isolation:

* **Theorem 1 (length)** — only rows ``ceil(H/sa) <= i <= Lmax`` can host a
  result; the engine also uses ``Lmax`` as its traversal depth cap.
* **Theorem 2 (score)** — a cell is dead when its score cannot be lifted back
  to ``H`` by the at-most-one-match-per-column budget.  NGR and FGOE cells
  take the full bound per cell (:func:`dead_threshold_cell`).  Gap-region
  rows take the row term ``H - (Lmax - i) * sa - 1`` with the BWT-SW
  positivity floor ``0`` as one row-wide ``live``
  (:meth:`FilterPlan.row_live_threshold`) and the column term
  ``H - (m - j) * sa - 1`` as one intercept (:meth:`FilterPlan.col_floor`)
  that :func:`repro.align.recurrences.advance_row` ramps per column.  The
  row term is invariant under the column shifts that Sec. 4 reuse relies
  on; the column term is not, so reuse keys pin the column where it can
  bind (:mod:`repro.core.reuse`).
* **Theorem 3 (q-prefix)** — every surviving alignment starts with ``q``
  exact matches, so DP begins only at fork seeds located through the q-gram
  inverted index of ``P``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.scoring.scheme import ScoringScheme


@dataclass(frozen=True)
class FilterPlan:
    """Pre-computed filter bounds for one (query, threshold) search."""

    q: int
    min_row: int
    lmax: int
    fgoe_bound: int
    threshold: int
    m: int

    def row_live_threshold(self, i: int, use_score_filter: bool = True) -> int:
        """Liveness bound for every cell of row ``i`` (shift-invariant part).

        Always at least 0 (the positivity rule); with the score filter on it
        adds Theorem 2's remaining-rows budget.
        """
        if not use_score_filter:
            return 0
        return max(0, self.threshold - (self.lmax - i) * self.sa_cached - 1)

    # sa is stored denormalised to keep row_live_threshold allocation-free.
    sa_cached: int = 0

    def col_floor(self, use_score_filter: bool = True) -> int | None:
        """Theorem 2's column term as one intercept: ``H - m * sa - 1``.

        A cell at column ``j`` scoring at most ``col_floor + j * sa`` cannot
        reach ``H`` in the ``m - j`` columns left.  ``None`` with the score
        filter off.
        """
        if not use_score_filter:
            return None
        return self.threshold - self.m * self.sa_cached - 1

    def cell_dead(self, i: int, j: int, score: int) -> bool:
        """Full Theorem 2 check for one cell (includes the column budget)."""
        bound = max(
            0,
            self.threshold - (self.m - j) * self.sa_cached - 1,
            self.threshold - (self.lmax - i) * self.sa_cached - 1,
        )
        return score <= bound


def make_filter_plan(
    scheme: ScoringScheme, m: int, threshold: int
) -> FilterPlan:
    """Build the :class:`FilterPlan` for a query of length ``m``."""
    min_row, lmax = scheme.length_bounds(m, threshold)
    return FilterPlan(
        q=scheme.q,
        min_row=min_row,
        lmax=lmax,
        fgoe_bound=scheme.fgoe_bound,
        threshold=threshold,
        m=m,
        sa_cached=scheme.sa,
    )


def dead_threshold_cell(
    scheme: ScoringScheme, i: int, j: int, m: int, threshold: int, lmax: int
) -> int:
    """Theorem 2 bound for an individual cell (used by NGR advances)."""
    return max(
        0,
        threshold - (m - j) * scheme.sa - 1,
        threshold - (lmax - i) * scheme.sa - 1,
    )
