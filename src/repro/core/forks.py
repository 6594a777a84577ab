"""Fork areas (Sec. 3.1.3, Fig. 2): EMR -> NGR -> FGOE -> gap region.

A *fork* is everything a single exact q-prefix match seeds in a matrix
``M_X``:

* **EMR** — rows ``1..q`` on the seed diagonal are exact matches; their
  scores ``i * sa`` are *assigned*, not calculated (the engine materialises
  the fork at row ``q`` directly).
* **NGR** — past row ``q`` the fork walks its diagonal with the gap-free
  recurrence (Eq. 3) while its score stays ``<= |sg + ss|``: opening a gap
  from such a score could never stay positive, and no cell to the left of
  the diagonal exists inside this fork, so diagonal-only is exact.
* **FGOE** — the first cell whose score exceeds ``|sg + ss|`` switches the
  fork to its *gap region*: a sparse affine-DP cone grown by
  :func:`repro.align.recurrences.advance_row`.

Forks are advanced independently (every DP path belongs to exactly one fork
— its first q columns pin the start) and the accumulator takes cell-wise
maxima, which both preserves exactness and enables the Sec. 4 reuse copies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.align.recurrences import NEG, CostCounter, Frontier
from repro.core.filters import FilterPlan
from repro.scoring.scheme import ScoringScheme

NGR = "ngr"
GAP = "gap"
DEAD = "dead"


@dataclass(slots=True)
class Fork:
    """One fork of the current suffix-trie path."""

    pip: int  # 1-based fork start column in P
    phase: str = NGR
    score: int = 0  # NGR diagonal score (valid while phase == NGR)
    frontier: Frontier = field(default_factory=dict)  # valid in GAP phase

    def diagonal_column(self, depth: int) -> int:
        """Column of the fork diagonal at row ``depth``: ``pip + depth - 1``."""
        return self.pip + depth - 1

    def is_alive(self) -> bool:
        return self.phase != DEAD

    def result_cells(self, threshold: int) -> list[tuple[int, int]]:
        """``(column, score)`` pairs at or above the reporting threshold."""
        if self.phase == NGR:
            return []  # NGR results are recorded by the engine per advance
        return [
            (j, cell[0]) for j, cell in self.frontier.items() if cell[0] >= threshold
        ]


def split_cohort(
    forks: "list[Fork]",
) -> tuple[list[int], list[int], list[tuple[int, Frontier]]]:
    """Partition seed forks into the level sweep's cohort form.

    Returns ``(pips, scores, gaps)``: the NGR cohort as parallel pip/score
    lists (ascending pips — seeds arrive in column order) plus the gap
    forks as ``(pip, frontier)`` pairs, in one pass.
    """
    pips: list[int] = []
    scores: list[int] = []
    gaps: list[tuple[int, Frontier]] = []
    for fork in forks:
        if fork.phase == NGR:
            pips.append(fork.pip)
            scores.append(fork.score)
        else:
            gaps.append((fork.pip, fork.frontier))
    return pips, scores, gaps


def fgoe_row_frontier(
    score: int,
    col: int,
    m: int,
    scheme: ScoringScheme,
    live: int,
    counter: CostCounter | None = None,
) -> Frontier:
    """Frontier of an FGOE row: the FGOE cell plus its same-row gap tail.

    The paper (Sec. 3.1.3): "From the FGOE (l, pi_p + l - 1), we need to
    calculate another two extension entries (l, pi_p + l) and
    (l + 1, pi_p + l - 1)."  The below-cell comes from the next row advance;
    the same-row cells are the horizontal gap chain computed here:
    ``M(l, col + r) = score + sg + r * ss`` while it stays live.
    """
    frontier: Frontier = {col: (score, NEG)}
    e_val = score + scheme.sg + scheme.ss
    j = col + 1
    while j <= m and e_val > live:
        if counter is not None:
            counter.cell(1)  # Gb-only boundary cell
        frontier[j] = (e_val, NEG)
        e_val += scheme.ss
        j += 1
    return frontier


def seed_fork(
    pip: int,
    plan: FilterPlan,
    scheme: ScoringScheme,
    live: int = 0,
    counter: CostCounter | None = None,
) -> Fork:
    """Create a fork at row ``q`` with its EMR score ``q * sa``.

    If ``q * sa`` already exceeds the FGOE bound (small ``|sg + ss|``), the
    fork is born directly in its gap phase, including the FGOE row tail.
    """
    score = plan.q * scheme.sa
    fork = Fork(pip=pip, score=score)
    if score > plan.fgoe_bound:
        fork.phase = GAP
        fork.frontier = fgoe_row_frontier(
            score, fork.diagonal_column(plan.q), plan.m, scheme, live, counter
        )
    return fork


def advance_ngr(
    fork: Fork,
    x_char: str,
    query: str,
    depth: int,
    plan: FilterPlan,
    scheme: ScoringScheme,
    counter: CostCounter | None,
    use_score_filter: bool = True,
) -> int:
    """Advance an NGR-phase fork one row along its diagonal (Eq. 3).

    Returns the new diagonal score (the fork's phase/score are updated in
    place; a fork whose diagonal leaves the query or dies under the score
    filter transitions to ``DEAD``).
    """
    j = fork.diagonal_column(depth)
    if j > plan.m:
        fork.phase = DEAD
        return NEG
    score = fork.score + (scheme.sa if query[j - 1] == x_char else scheme.sb)
    if counter is not None:
        counter.cell(1)
    if use_score_filter:
        bound = max(
            0,
            plan.threshold - (plan.m - j) * scheme.sa - 1,
            plan.threshold - (plan.lmax - depth) * scheme.sa - 1,
        )
    else:
        bound = 0
    if score <= bound:
        fork.phase = DEAD
        return NEG
    fork.score = score
    if score > plan.fgoe_bound:
        fork.phase = GAP
        fork.frontier = fgoe_row_frontier(
            score, j, plan.m, scheme, bound, counter
        )
    return score
