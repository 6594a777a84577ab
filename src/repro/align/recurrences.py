"""Sparse affine-gap DP row advance shared by BWT-SW and ALAE gap regions.

A *frontier* is the sparse representation of one DP matrix row: a dict mapping
1-based query columns ``j`` to ``(M, Ga)`` where ``M = M_X(i, j)`` and
``Ga = Ga(i, j)`` (best score with ``X[i]`` aligned to a gap).  ``Gb`` never
needs storing across rows — it propagates left-to-right *within* a row, which
is why :func:`advance_row` sweeps columns in increasing order (the paper's
Sec. 4.3 makes the same observation when it keeps only one byte for ``Ga`` and
a per-column vector for ``Gb``).

Soundness of the pruning baked in here (mirrored by unit tests):

* cells with ``M <= live`` are dropped entirely — Theorem 2: a non-positive
  anchored prefix is dominated by a later-starting suffix path, and the
  ``live > 0`` variants encode the threshold/Lmax budget arguments;
* with a column floor, cells with ``M <= col_floor + j * sa`` are dropped
  too — Theorem 2's column budget: the ``m - j`` query columns left can
  add at most ``(m - j) * sa``, too little to reach ``H``;
* ``Ga``/``Gb`` values ``<= 0`` are clamped to ``-inf``: since
  ``M >= Ga, M >= Gb`` and pure gap chains only decay, a non-positive
  auxiliary score can never participate in a live cell later.
"""

from __future__ import annotations

from repro.scoring.scheme import ScoringScheme

#: -infinity sentinel for scores (large enough to survive additions).
NEG = -(10**9)
#: Values below this are treated as absent.
NEG_HALF = NEG // 2

#: A frontier cell: (M, Ga).
Cell = tuple[int, int]
Frontier = dict[int, Cell]


class CostCounter:
    """Accumulates per-cell calculation counts into cost classes.

    ``mode='alae'`` classifies each cell by how many of its three recurrence
    inputs (diagonal, vertical ``Ga``, horizontal ``Gb``) were live — the
    Table 4 x1/x2/x3 classes.  ``mode='bwtsw'`` charges every cell x3, since
    BWT-SW always evaluates all three auxiliary scores.
    """

    __slots__ = ("x1", "x2", "x3", "_bwtsw")

    def __init__(self, mode: str = "alae") -> None:
        self.x1 = 0
        self.x2 = 0
        self.x3 = 0
        self._bwtsw = mode == "bwtsw"

    def cell(self, live_inputs: int) -> None:
        """Record one calculated entry with the given number of live inputs."""
        if self._bwtsw or live_inputs >= 3:
            self.x3 += 1
        elif live_inputs == 2:
            self.x2 += 1
        else:
            self.x1 += 1

    def charge(self, live_inputs: int, count: int) -> None:
        """Record ``count`` identical entries in one call.

        Bulk form of :meth:`cell` for engines that compute whole regions at
        a known cost class — BLAST's ungapped diagonal walk (one input per
        step, x1) and its windowed gapped DP (all three inputs per cell,
        x3) charge entire extensions at once instead of per cell.
        """
        if self._bwtsw or live_inputs >= 3:
            self.x3 += count
        elif live_inputs == 2:
            self.x2 += count
        else:
            self.x1 += count

    @property
    def total(self) -> int:
        return self.x1 + self.x2 + self.x3


def advance_row(
    frontier: Frontier,
    x_char: str,
    query: str,
    m: int,
    scheme: ScoringScheme,
    live: int,
    counter: CostCounter | None = None,
    dense: bool = False,
    col_floor: int | None = None,
) -> Frontier:
    """Compute row ``i`` of the anchored DP from row ``i - 1``.

    Parameters
    ----------
    frontier:
        Sparse row ``i - 1``: ``{j: (M, Ga)}`` with all ``M > 0``.
    x_char:
        The new text character ``X[i]``.
    query:
        The query ``P`` as a plain 0-based string (column ``j`` reads
        ``query[j - 1]``).
    m:
        Query length.
    scheme:
        Scoring scheme.
    live:
        Liveness threshold for this row: cells with ``M <= live`` are
        dropped.  ``0`` gives plain BWT-SW pruning; ALAE passes the Theorem 2
        bound for the row.
    counter:
        Optional :class:`CostCounter` receiving one event per calculated cell.
    dense:
        Emulate the original BWT-SW accounting: every candidate derived from
        a live parent is *computed* (and charged — all three recurrence
        inputs, hence the x3 class) even when its value comes out
        non-positive and is immediately discarded.  ALAE's fork sweep
        (``dense=False``) charges only the cells its fork geometry
        materialises.
    col_floor:
        Theorem 2's column budget as one intercept (ALAE passes
        ``H - m * sa - 1``): a cell at column ``j`` scoring at most
        ``col_floor + j * sa`` cannot reach ``H`` in the columns left, so
        it is neither kept nor fed into ``Gb``, and the skip and stop
        tests use the same per-column bound.  The row keeps exactly the
        unfloored row's cells above the floor, with equal values (what a
        dropped cell feeds stays below the floor), and charges no more
        cells.  ``None`` (BWT-SW, the score filter off) applies ``live``
        alone.

    Returns
    -------
    Frontier
        Sparse row ``i`` (possibly empty).
    """
    sa, sb = scheme.sa, scheme.sb
    ss = scheme.ss
    go = scheme.sg + scheme.ss

    # Single left-to-right merge over the (ascending) frontier: each source
    # cell contributes its vertical candidate at its own column and at most
    # one pending diagonal candidate at the next column, and ``Gb``
    # propagates as the running ``e_val`` — no intermediate candidate dicts
    # or column sort.  A column is *calculated* (and charged to the cost
    # counter) exactly when it has a positive diagonal or vertical
    # candidate, or a live horizontal score — identical to the classic
    # two-phase formulation (the engine-equivalence and fuzz suites compare
    # the counters bit-for-bit).
    src = list(frontier.items())
    ns = len(src)
    if not ns:
        return {}
    # A cell's bound is max(live, col_floor + j * sa): ``live`` up to
    # column ``j_live``, the column term past it.
    j_live = m if col_floor is None else (live - col_floor) // sa
    new: Frontier = {}
    dead_candidates = 0
    n1 = n2 = n3 = 0  # local cost-class tallies, flushed once at the end
    e_val = NEG  # Gb at the column currently being processed
    pend_d = NEG  # pending diagonal candidate (for column pend_col)
    pend_col = -1
    si = 0
    j = src[0][0]
    while True:
        bound = live if j <= j_live else col_floor + j * sa
        if j == pend_col:
            d = pend_d
            pend_d = NEG
        else:
            d = NEG
        if si < ns and src[si][0] == j:
            mv, ga_val = src[si][1]
            si += 1
            # Vertical: Ga(i, j) = max(Ga(i-1, j) + ss, M(i-1, j) + sg + ss).
            g = ga_val + ss
            h = mv + go
            if h > g:
                g = h
            if g <= 0:
                g = NEG
                if dense:
                    dead_candidates += 1
            # Diagonal into column j + 1.
            if j < m:
                dd = mv + (sa if query[j] == x_char else sb)
                if dd > 0:
                    pend_d = dd
                    pend_col = j + 1
                elif dense:
                    dead_candidates += 1
        else:
            g = NEG

        if d == NEG and g == NEG:
            # No candidate here: live horizontal extension keeps the column
            # calculated, otherwise jump to the next candidate column.
            if e_val <= bound:
                if pend_d > NEG:
                    nxt = pend_col
                    if si < ns and src[si][0] < nxt:
                        nxt = src[si][0]
                elif si < ns:
                    nxt = src[si][0]
                else:
                    break
                e_val = NEG
                j = nxt
                continue

        m_val = d
        if g > m_val:
            m_val = g
        if e_val > m_val:
            m_val = e_val

        if counter is not None:
            inputs = (
                (1 if d > NEG_HALF else 0)
                + (1 if g > NEG_HALF else 0)
                + (1 if e_val > NEG_HALF else 0)
            )
            if inputs >= 3:
                n3 += 1
            elif inputs == 2:
                n2 += 1
            else:
                n1 += 1

        if m_val > bound:
            new[j] = (m_val, g if g > NEG_HALF else NEG)
            feed = m_val + go
        else:
            feed = NEG

        # Gb for the next column: max(Gb + ss, M + sg + ss), clamped at 0.
        e_val = e_val + ss if e_val > NEG_HALF else NEG
        if feed > e_val:
            e_val = feed
        if e_val <= 0:
            e_val = NEG

        if pend_d == NEG and si >= ns and e_val <= bound:
            break
        j += 1
        if j > m:
            break
    if counter is not None:
        if counter._bwtsw:
            counter.x3 += n1 + n2 + n3 + dead_candidates
        else:
            counter.x1 += n1 + dead_candidates
            counter.x2 += n2
            counter.x3 += n3
    return new


def dense_seed_row(
    x_char: str,
    char_positions: dict[str, list[int]],
    scheme: ScoringScheme,
    counter: CostCounter | None = None,
    m: int = 0,
) -> Frontier:
    """Row 1 of BWT-SW's matrix for a path starting with ``x_char``.

    Row 0 is all zeros (``M_X(0, j) = 0``), so row 1 is ``delta(X[1], P[j])``
    at every column — positive exactly at the match columns.  BWT-SW computes
    the full dense row, so the counter is charged ``m`` cells.
    """
    if counter is not None:
        for _ in range(m):
            counter.cell(3)
    return {j: (scheme.sa, NEG) for j in char_positions.get(x_char, [])}
