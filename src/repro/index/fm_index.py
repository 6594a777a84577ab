"""FM-index: the compressed suffix array of Sec. 2.3 / Sec. 5.

Combines the BWT with

* the ``C`` array (``C[c]`` = number of characters smaller than ``c``),
* checkpointed occurrence counts ``Occ(c, i)`` (one checkpoint row every
  ``occ_block`` positions), the part of the index a store serializes,
* a resident rank table built from the BWT whenever an index is constructed
  or opened and never written to disk: for every position and every code
  ``1..sigma`` one ``uint8`` count of that code since the last checkpoint,
  so ``Occ(c, i)`` is two lookups, and a batch of ranks is two gathers
  (:meth:`FMIndex.step_array`, :meth:`FMIndex.extend_all`), and
* a sampled suffix array for ``locate`` (every ``sa_sample``-th text position
  is kept; other positions walk the LF mapping until a sample is hit).

``backward_search`` implements Ferragina-Manzini backward search: each step
prepends one character to the pattern in O(1) rank queries, so the SA range of
a length-q pattern is found in O(q) steps exactly as the paper requires.

The reported :meth:`size_bytes` models the space the paper's implementation
would use (2-bit packed BWT for DNA, ceil(log2(sigma+1))-bit otherwise) so the
Fig. 11 index-size experiment reproduces the paper's accounting rather than
CPython object overheads.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import IndexError_
from repro.index.bwt import bwt_transform

#: An empty SA range.
EMPTY = (0, 0)

#: Widest checkpoint span the rank table's ``uint8`` counts can cover: a
#: count since the last checkpoint never exceeds ``span - 1``.
RANK_SPAN_MAX = 256
#: Table rows filled per build pass; bounds the build's temporaries to a
#: few hundred KiB whatever the text length.
_RANK_CHUNK = 1 << 14


class FMIndex:
    """FM-index over an integer code array (codes ``>= 1``; 0 = sentinel).

    Parameters
    ----------
    codes:
        The text as a 1-d array of character codes in ``[1, sigma]``.
    sigma:
        Alphabet size (codes run from 1 to ``sigma`` inclusive).
    occ_block:
        Checkpoint spacing for the Occ structure.
    sa_sample:
        Suffix-array sampling rate for ``locate``.
    """

    def __init__(
        self,
        codes: np.ndarray,
        sigma: int,
        occ_block: int = 128,
        sa_sample: int = 16,
    ) -> None:
        codes = np.asarray(codes, dtype=np.int64)
        if codes.size and (codes.min() < 1 or codes.max() > sigma):
            raise IndexError_("codes must lie in [1, sigma]")
        if occ_block < 1:
            raise IndexError_(f"occ_block must be >= 1, got {occ_block}")
        if sa_sample < 1:
            raise IndexError_(f"sa_sample must be >= 1, got {sa_sample}")
        self.sigma = int(sigma)
        self.n = int(codes.size)
        self._occ_block = int(occ_block)
        self._sa_sample = int(sa_sample)

        bwt, sa = bwt_transform(codes)
        if sigma > 255:
            raise IndexError_("alphabets larger than 255 are not supported")
        # The BWT is kept as a bytes object (O(1) scalar reads) with a uint8
        # array view over the same buffer for the batched paths.
        self._bwt = bytes(bwt.astype(np.uint8))
        self._bwt_arr = np.frombuffer(self._bwt, dtype=np.uint8)
        self._sa_pos: np.ndarray | None = None
        size = self.n + 1

        # C array: C[c] = #characters (including sentinel) strictly smaller.
        counts = np.bincount(bwt, minlength=sigma + 1)
        self._C = np.concatenate(([0], np.cumsum(counts)))[: sigma + 2]
        self._C_list: list[int] = self._C.tolist()

        # Occ checkpoints: occ_ckpt[b, c] = #occurrences of c in bwt[0 : b*B].
        nblocks = size // self._occ_block + 1
        ckpt = np.zeros((nblocks, sigma + 1), dtype=np.int64)
        for b in range(1, nblocks):
            lo, hi = (b - 1) * self._occ_block, b * self._occ_block
            ckpt[b] = ckpt[b - 1] + np.bincount(bwt[lo:hi], minlength=sigma + 1)
        self._occ_ckpt = ckpt

        # Sampled SA: keep entries whose *text position* is a multiple of the
        # sample rate; store row -> position in a dict for O(1) hits.
        mask = sa % self._sa_sample == 0
        self._sa_samples = dict(
            zip(np.nonzero(mask)[0].tolist(), sa[mask].tolist())
        )
        self._build_rank()

    # -------------------------------------------------------- serialization
    @classmethod
    def from_components(
        cls,
        bwt: np.ndarray,
        c_array: np.ndarray,
        occ_ckpt: np.ndarray,
        sa_rows: np.ndarray,
        sa_positions: np.ndarray,
        *,
        sigma: int,
        occ_block: int,
        sa_sample: int,
    ) -> "FMIndex":
        """Rebuild an index from previously exported components.

        The expensive suffix-array construction is skipped entirely; the
        remaining cost is materialising the hot-path representations (the
        BWT byte string, the rank table and the sampled-SA dict) from the
        given arrays, which may be read-only ``numpy.memmap`` views —
        loading them is a sequential page-in, not a rebuild.
        """
        fm = cls.__new__(cls)
        fm.sigma = int(sigma)
        fm.n = int(len(bwt)) - 1
        fm._occ_block = int(occ_block)
        fm._sa_sample = int(sa_sample)
        fm._bwt = np.asarray(bwt, dtype=np.uint8).tobytes()
        fm._bwt_arr = np.frombuffer(fm._bwt, dtype=np.uint8)
        fm._sa_pos = None
        fm._C = np.asarray(c_array, dtype=np.int64)
        occ_ckpt = np.asarray(occ_ckpt)
        expected_rows = (fm.n + 1) // fm._occ_block + 1
        if fm._C.size != sigma + 2:
            raise IndexError_(
                f"C array has {fm._C.size} entries, expected {sigma + 2}"
            )
        if occ_ckpt.shape != (expected_rows, sigma + 1):
            raise IndexError_(
                f"Occ checkpoints shaped {occ_ckpt.shape}, expected "
                f"{(expected_rows, sigma + 1)}"
            )
        if len(sa_rows) != len(sa_positions):
            raise IndexError_("sampled-SA rows and positions differ in length")
        fm._C_list = fm._C.tolist()
        fm._occ_ckpt = occ_ckpt
        fm._sa_samples = dict(
            zip(
                np.asarray(sa_rows, dtype=np.int64).tolist(),
                np.asarray(sa_positions, dtype=np.int64).tolist(),
            )
        )
        fm._build_rank()
        return fm

    def _build_rank(self) -> None:
        """Build the resident rank table from the BWT (never serialized).

        With span ``s = min(occ_block, RANK_SPAN_MAX)``, row ``i`` of the
        table holds, for codes ``1..sigma``, the count of that code in
        ``bwt[s * (i // s) : i]`` as one ``uint8``; adding checkpoint row
        ``i // s`` gives ``Occ(c, i)``.  Those checkpoints are resident too,
        derived from the table for every span, so rank never reads the
        stored (possibly memory-mapped) checkpoints.  The table costs
        ``(n + 2) * sigma`` bytes and is filled in chunks, so the build
        allocates no full-length temporaries; the checkpoints and a copy
        with ``C`` folded in for the batched paths cost ``16 * sigma``
        bytes per span.
        """
        sigma = self.sigma
        size = self.n + 1
        span = min(self._occ_block, RANK_SPAN_MAX)
        rows = size + 1  # Occ is defined for every i in [0, size]
        table = bytearray(rows * sigma)
        view = np.frombuffer(table, dtype=np.uint8).reshape(rows, sigma)
        codes = np.arange(1, sigma + 1, dtype=np.uint8)
        chunk = -(-_RANK_CHUNK // span) * span  # whole spans per pass
        for start in range(0, rows, chunk):
            stop = min(start + chunk, rows)
            spans = -(-(stop - start) // span)
            seg = np.zeros(spans * span, dtype=np.uint8)  # pad: sentinel code
            part = self._bwt_arr[start:size][: stop - start]
            seg[: part.size] = part
            # Row r of a span counts the rows before it: shift the one-hot
            # rows down by one, then a running sum within each span.
            counts = np.zeros((spans, span, sigma), dtype=np.uint8)
            before = seg.reshape(spans, span)[:, :-1, None]
            counts[:, 1:] = before == codes
            np.cumsum(counts, axis=1, dtype=np.uint8, out=counts)
            view[start:stop] = counts.reshape(-1, sigma)[: stop - start]
        self._sentinel = self._bwt.index(0)
        # Checkpoint b counts codes 1..sigma in bwt[0 : b * span]: the last
        # row of each span plus that row's own character, summed over spans.
        marks = np.arange(span, size + 1, span)
        last = marks - 1
        per_span = view[last].astype(np.int64)
        per_span += self._bwt_arr[last, None] == codes
        ckpt = np.zeros((marks.size + 1, sigma), dtype=np.int64)
        np.cumsum(per_span, axis=0, out=ckpt[1:])
        self._rank_span = span
        # Scalar rank reads the checkpoints through a memoryview: Python
        # ints without a per-entry int object resident.
        self._rank_ckpt = memoryview(ckpt)
        # The batched paths all want C[c] + Occ(c, i): fold C in once.
        self._step_ckpt = ckpt + self._C[1 : sigma + 1]
        self._rank = table
        self._rank_arr = view

    def components(self) -> "dict[str, np.ndarray]":
        """Export every array a store needs to rebuild this index.

        Keys match :meth:`from_components` parameters; the sampled SA is
        split into parallel ``sa_rows`` / ``sa_positions`` arrays in
        ascending row order so the export is deterministic.
        """
        rows = sorted(self._sa_samples)
        return {
            "bwt": np.frombuffer(self._bwt, dtype=np.uint8),
            "c_array": np.asarray(self._C, dtype=np.int64),
            "occ_ckpt": np.asarray(self._occ_ckpt, dtype=np.int64),
            "sa_rows": np.asarray(rows, dtype=np.int64),
            "sa_positions": np.asarray(
                [self._sa_samples[r] for r in rows], dtype=np.int64
            ),
        }

    # ------------------------------------------------------------------ rank
    def occ(self, c: int, i: int) -> int:
        """Number of occurrences of code ``c`` in ``bwt[0:i]``."""
        if not c:  # the sentinel occurs once, at row ``_sentinel``
            return 1 if i > self._sentinel else 0
        return (
            self._rank_ckpt[i // self._rank_span, c - 1]
            + self._rank[i * self.sigma + c - 1]
        )

    def step_array(self, codes: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """``C[c] + Occ(c, i)`` for every pair ``(codes[k], positions[k])``.

        The batched LF / backward-search step (codes ``>= 1``): one
        checkpoint gather plus one rank-table gather, whatever the number
        of pairs.
        """
        sigma = self.sigma
        col = codes - 1
        return np.take(
            self._step_ckpt, positions // self._rank_span * sigma + col
        ) + np.take(self._rank_arr, positions * sigma + col)

    def lf(self, i: int) -> int:
        """LF mapping: row of the suffix starting one position earlier."""
        c = self._bwt[i]
        return self._C_list[c] + self.occ(c, i)

    # --------------------------------------------------------------- search
    def extend_left(self, rng: tuple[int, int], c: int) -> tuple[int, int]:
        """One backward-search step: SA range of ``c + pattern``.

        ``rng`` is the half-open SA range ``[lo, hi)`` of ``pattern``.
        Returns the (possibly empty) range of the extended pattern.
        """
        lo, hi = rng
        if lo >= hi:
            return EMPTY
        c_base = self._C_list[c]
        new_lo = c_base + self.occ(c, lo)
        new_hi = c_base + self.occ(c, hi)
        if new_lo >= new_hi:
            return EMPTY
        return (new_lo, new_hi)

    def extend_all(
        self, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Backward-search steps for many ranges and every code at once.

        ``lo``/``hi`` are parallel arrays of half-open SA ranges.  Returns
        ``(lo_all, hi_all)`` shaped ``(len(lo), sigma)``: column ``c - 1``
        holds the range of ``c + pattern`` (empty where ``hi <= lo``).  The
        sentinel is never an extension, so it has no column.
        """
        span = self._rank_span
        step = self._step_ckpt
        table = self._rank_arr
        lo_all = np.take(step, lo // span, axis=0) + np.take(table, lo, axis=0)
        hi_all = np.take(step, hi // span, axis=0) + np.take(table, hi, axis=0)
        return lo_all, hi_all

    def full_range(self) -> tuple[int, int]:
        """SA range of the empty pattern (every suffix)."""
        return (0, self.n + 1)

    def backward_search(self, pattern: np.ndarray) -> tuple[int, int]:
        """SA range of ``pattern`` (code array), processed right-to-left."""
        rng = self.full_range()
        for c in reversed(np.asarray(pattern, dtype=np.int64)):
            rng = self.extend_left(rng, int(c))
            if rng == EMPTY:
                return EMPTY
        return rng

    def backward_search_all(
        self, patterns: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """SA ranges of equal-length patterns (one per row of ``patterns``).

        Batched :meth:`backward_search`: one rank-table gather per pattern
        column for all rows at once.  Returns parallel ``(lo, hi)`` arrays;
        absent patterns come back as the empty range ``(0, 0)``.
        """
        patterns = np.asarray(patterns, dtype=np.intp)
        rows = patterns.shape[0]
        lo = np.zeros(rows, dtype=np.int64)
        hi = np.full(rows, self.n + 1, dtype=np.int64)
        # Occ is monotone, so a range that empties stays empty (hi <= lo).
        for c in patterns.T[::-1]:
            lo = self.step_array(c, lo)
            hi = self.step_array(c, hi)
        empty = hi <= lo
        lo[empty] = 0
        hi[empty] = 0
        return lo, hi

    def count(self, pattern: np.ndarray) -> int:
        """Number of occurrences of ``pattern`` in the text."""
        lo, hi = self.backward_search(pattern)
        return hi - lo

    # --------------------------------------------------------------- locate
    def locate_row(self, row: int) -> int:
        """Text position of the suffix in SA row ``row`` (sampled-SA walk)."""
        steps = 0
        r = row
        while r not in self._sa_samples:
            r = self.lf(r)
            steps += 1
        return (self._sa_samples[r] + steps) % (self.n + 1)

    #: Below this range width the per-call numpy overhead of the batched
    #: walk exceeds the scalar walk's cost; both produce identical output.
    _BATCH_LOCATE_MIN = 6

    def _sa_pos_array(self) -> np.ndarray:
        """Sampled SA as a dense row-indexed array (-1 = unsampled).

        Built lazily on first batched locate: the dict stays the scalar hot
        path's O(1) structure, the array is what lets one iteration resolve
        every sampled row of a batch with a single gather.
        """
        arr = self._sa_pos
        if arr is None:
            arr = np.full(self.n + 2, -1, dtype=np.int64)
            if self._sa_samples:
                rows = np.fromiter(
                    self._sa_samples.keys(), np.int64, len(self._sa_samples)
                )
                arr[rows] = np.fromiter(
                    self._sa_samples.values(), np.int64, len(self._sa_samples)
                )
            self._sa_pos = arr
        return arr

    def locate_array(self, rng: tuple[int, int]) -> np.ndarray:
        """Text positions of every suffix in ``[lo, hi)`` as an ndarray.

        Wide ranges walk the LF mapping for *all* unresolved rows per
        iteration: one gather against the dense sampled-SA array resolves
        the rows that hit a sample, and one batched LF step (a gather
        through the rank table) advances the rest.  Narrow ranges fall back
        to the scalar :meth:`locate_row` walk, which is cheaper below
        ``_BATCH_LOCATE_MIN`` rows; results are identical.
        """
        lo, hi = rng
        count = hi - lo
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if count < self._BATCH_LOCATE_MIN:
            return np.array(
                [self.locate_row(r) for r in range(lo, hi)], dtype=np.int64
            )
        sa_pos = self._sa_pos_array()
        bwt_arr = self._bwt_arr
        rows = np.arange(lo, hi, dtype=np.int64)
        out = np.empty(count, dtype=np.int64)
        pending = np.arange(count)
        steps = 0
        while pending.size:
            r = rows[pending]
            pos = sa_pos[r]
            resolved = pos >= 0
            if resolved.any():
                out[pending[resolved]] = pos[resolved] + steps
                keep = ~resolved
                pending = pending[keep]
                if not pending.size:
                    break
                r = r[keep]
            # Batched LF: rows[p] <- C[c] + Occ(c, row) for c = bwt[row].
            # The sentinel's row is always sampled (its suffix starts at
            # text position 0), so every pending row holds a real code.
            rows[pending] = self.step_array(bwt_arr[r].astype(np.intp), r)
            steps += 1
        out %= self.n + 1
        return out

    def locate(self, rng: tuple[int, int]) -> list[int]:
        """Text positions of every suffix in the SA range ``[lo, hi)``."""
        lo, hi = rng
        if hi - lo < self._BATCH_LOCATE_MIN:
            return [self.locate_row(r) for r in range(lo, hi)]
        return self.locate_array(rng).tolist()

    # ----------------------------------------------------------------- size
    def size_bytes(self) -> dict[str, int]:
        """Modelled index size breakdown (paper-style accounting, Fig. 11).

        The ``actual`` sub-dict reports what the components really occupy
        when serialized by ``repro.store`` (1 byte/BWT char, 64-bit
        checkpoint counters, 64+64-bit sampled-SA pairs), so benchmarks can
        print the paper's model and the on-disk truth side by side.
        """
        bits_per_char = max(1, math.ceil(math.log2(self.sigma + 1)))
        bwt_bytes = math.ceil((self.n + 1) * bits_per_char / 8)
        occ_bytes = self._occ_ckpt.size * 4  # 32-bit checkpoint counters
        sa_bytes = len(self._sa_samples) * 8  # row->pos pairs, 32+32 bits
        c_bytes = self._C.size * 4
        actual = {
            "bwt": len(self._bwt),
            "occ_checkpoints": int(self._occ_ckpt.size) * 8,
            "sa_samples": len(self._sa_samples) * 16,
            "c_array": int(self._C.size) * 8,
        }
        actual["total"] = sum(actual.values())
        return {
            "bwt": bwt_bytes,
            "occ_checkpoints": occ_bytes,
            "sa_samples": sa_bytes,
            "c_array": c_bytes,
            "total": bwt_bytes + occ_bytes + sa_bytes + c_bytes,
            "actual": actual,
        }
