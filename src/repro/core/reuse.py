"""Score reuse between forks (Sec. 4) via frontier memoisation.

Lemmas 2/3 and Theorem 5 say: two forks of the same matrix whose gap regions
look identical after shifting — same relative scores, and the same upcoming
query characters — produce identical continuations, so the later fork's
columns can be *copied* from the earlier fork's.  The paper discovers such
duplicates with the common prefix tree (Algorithm 2, ``repro.core.cptree``)
and copies column ranges in ``calMatrixByColumn``.

This engine realises the same sharing with a hash memo, which composes
cleanly with the suffix-trie traversal: when several forks of the current
path advance one row, each fork's *reuse key* is

    (relative frontier, upcoming P characters, right-edge distance class)

and forks with equal keys are advanced once; the others receive the shifted
copy and their cells are accounted as *reused* (Eq. 6's numerator).  The
right-edge class is ``-1`` ("far") unless the frontier could reach column
``m`` this row, in which case the exact distance is part of the key — two
forks at different distances from the edge may genuinely diverge there.

Row advances drop cells under Theorem 2's full bound: the shift-invariant
row term ``live`` (``FilterPlan.row_live_threshold``) and the column term
``col_floor + j * sa`` (``FilterPlan.col_floor``), which is not shift
invariant.  Where the column term cannot bind within the advance's reach
(``col_floor + (last + reach) * sa <= live``) the advance equals the
unfloored one and the key above stands; where it can, the key also pins
the exact last column, so only forks at the same columns share.
"""

from __future__ import annotations

from repro.align.recurrences import CostCounter, Frontier, advance_row
from repro.scoring.scheme import ScoringScheme

ReuseKey = tuple


def frontier_reuse_key(
    frontier: Frontier,
    query: str,
    m: int,
    scheme: ScoringScheme,
    live: int = 0,
    col_floor: int | None = None,
) -> ReuseKey:
    """Compute the memo key for one fork's frontier (see module docstring)."""
    cols = sorted(frontier)
    base = cols[0]
    rel = tuple((j - base, frontier[j][0], frontier[j][1]) for j in cols)
    # Upcoming query characters consumed by the diagonal moves.
    window = tuple(query[j] for j in cols if j < m)  # query[j] == P[j+1]
    # Right-edge divergence: how far can this row reach past the last column?
    # One advance can first step diagonally past the last column (+sa) and
    # only then open the horizontal gap chain, so the chain budget must
    # include that diagonal gain: with the bare ``max_m + sg + ss`` budget,
    # schemes with ``sa > -ss`` let two forks at different distances from
    # column ``m`` both key as "far" and share an advance that actually
    # diverges at the truncation boundary (the shifted copy gains phantom
    # columns past ``m`` or loses legitimate cells).
    max_m = max(frontier[j][0] for j in cols)
    reach = (
        max(0, (max_m + scheme.sa + scheme.sg + scheme.ss) // (-scheme.ss)) + 2
    )
    last = cols[-1]
    room = m - last
    edge = room if room <= reach else -1
    if col_floor is not None and col_floor + (last + reach) * scheme.sa > live:
        return (rel, window, edge, last)
    return (rel, window, edge)


class ReuseEngine:
    """Per-row memoisation of fork advances (the Sec. 4 reuse mechanism)."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.reused_cells = 0
        self.memo_hits = 0
        self.memo_misses = 0

    def advance_forks(
        self,
        frontiers: list[Frontier],
        x_char: str,
        query: str,
        m: int,
        scheme: ScoringScheme,
        live: int,
        counter: CostCounter | None,
        col_floor: int | None = None,
    ) -> list[Frontier]:
        """Advance every fork frontier one row, sharing identical advances.

        ``live`` and ``col_floor`` are :func:`advance_row`'s bounds.
        Returns the new frontiers, positionally matching the input list
        (empty dict = fork died).
        """
        def advance(fr: Frontier) -> Frontier:
            return advance_row(
                fr, x_char, query, m, scheme, live, counter, col_floor=col_floor
            )

        if not self.enabled or len(frontiers) < 2:
            return [advance(fr) for fr in frontiers]

        # Cheap pre-grouping: full reuse keys are only built for frontiers
        # whose (size, score multiset) signature collides — the common case
        # of all-distinct frontiers costs one tuple per fork.
        sigs = [
            (len(fr), sum(cell[0] for cell in fr.values())) if fr else None
            for fr in frontiers
        ]
        sig_counts: dict[tuple, int] = {}
        for sig in sigs:
            if sig is not None:
                sig_counts[sig] = sig_counts.get(sig, 0) + 1

        memo: dict[ReuseKey, tuple[int, Frontier]] = {}
        out: list[Frontier] = []
        for fr, sig in zip(frontiers, sigs):
            if not fr:
                out.append({})
                continue
            if sig_counts[sig] < 2:
                out.append(advance(fr))
                continue
            key = frontier_reuse_key(fr, query, m, scheme, live, col_floor)
            base = min(fr)
            cached = memo.get(key)
            if cached is not None:
                self.memo_hits += 1
                src_base, src_new = cached
                shift = base - src_base
                copied = {j + shift: cell for j, cell in src_new.items()}
                self.reused_cells += len(copied)
                out.append(copied)
                continue
            self.memo_misses += 1
            new_fr = advance(fr)
            memo[key] = (base, new_fr)
            out.append(new_fr)
        return out
