"""Suffix-trie emulation over the reversed text (Sec. 5).

The ALAE/BWT-SW traversal needs to grow a text substring ``X`` one character
to the *right* (``X -> Xc``) while tracking all its occurrences.  Following
the paper, we build the FM-index of the reversed text ``T^-1``: appending
``c`` to ``X`` prepends ``c`` to ``X^-1``, which is exactly one backward-search
step.  The three trie operations of Sec. 5 map to:

1. *exact q-gram membership* -> :meth:`range_of` (O(q) backward steps), or
   :meth:`ranges_of` for every q-gram of a query at once;
2. *occurrence end positions* -> :meth:`end_positions` (an occurrence of
   ``X^-1`` starting at position ``p`` of ``T^-1`` is an occurrence of ``X``
   **ending** at position ``n - 1 - p`` of ``T``, 0-based);
3. *subtree traversal* -> :meth:`extend` per alphabet character, non-empty
   ranges being the existing trie edges (the engine's level sweep takes
   every edge of many nodes at once through :meth:`FMIndex.extend_all`).
"""

from __future__ import annotations

import numpy as np

from repro.alphabet import Alphabet
from repro.errors import IndexError_
from repro.index.fm_index import EMPTY, FMIndex

#: The empty SA range, re-exported for traversal code.
EMPTY_RANGE = EMPTY


class ReversedTextIndex:
    """Compressed-suffix-array view of a text supporting rightward extension."""

    def __init__(
        self,
        text: str,
        alphabet: Alphabet,
        occ_block: int = 128,
        sa_sample: int = 16,
    ) -> None:
        alphabet.validate(text)
        self.alphabet = alphabet
        self.text = text
        self.n = len(text)
        if self.n == 0:
            raise IndexError_("cannot index an empty text")
        # Codes are shifted by +1 so 0 stays free for the sentinel.
        rev_codes = alphabet.encode(text[::-1]).astype(np.int64) + 1
        self._fm = FMIndex(
            rev_codes, alphabet.size, occ_block=occ_block, sa_sample=sa_sample
        )

    # -------------------------------------------------------- serialization
    @classmethod
    def from_fm_index(
        cls, text: str, alphabet: Alphabet, fm: FMIndex
    ) -> "ReversedTextIndex":
        """Wrap a prebuilt reversed-text FM-index (e.g. loaded from a store).

        ``fm`` must index ``text`` *reversed* with codes shifted by +1, as
        built by the regular constructor; the text itself is trusted (it
        came from the same store) and is not re-validated.
        """
        if fm.n != len(text):
            raise IndexError_(
                f"FM-index covers {fm.n} characters, text has {len(text)}"
            )
        index = cls.__new__(cls)
        index.alphabet = alphabet
        index.text = text
        index.n = len(text)
        index._fm = fm
        return index

    def fm_components(self) -> "dict[str, np.ndarray]":
        """Export the underlying FM-index arrays for serialization."""
        return self._fm.components()

    # ------------------------------------------------------------- traversal
    def root(self) -> tuple[int, int]:
        """SA range of the empty path (the conceptual trie root)."""
        return self._fm.full_range()

    def extend(self, rng: tuple[int, int], char: str) -> tuple[int, int]:
        """SA range of ``X + char`` given the range of ``X`` (may be empty)."""
        code = self.alphabet.index(char) + 1
        return self._fm.extend_left(rng, code)

    def extend_code(self, rng: tuple[int, int], code: int) -> tuple[int, int]:
        """Like :meth:`extend` but takes a pre-computed ``alphabet code + 1``.

        The traversal engines call this once per (node, character); skipping
        the per-call character lookup measurably matters there.
        """
        return self._fm.extend_left(rng, code)

    def char_codes(self) -> list[tuple[str, int]]:
        """``(char, code)`` pairs accepted by :meth:`extend_code`."""
        return [(c, i + 1) for i, c in enumerate(self.alphabet.chars)]

    def text_code_bytes(self) -> bytes:
        """The text as shifted code points (``alphabet code + 1``), cached.

        Built lazily: text-mode chains read one character per row, and
        indexing ``bytes`` yields a plain int as fast as a list would, at
        one byte per character instead of a pointer.
        """
        codes = getattr(self, "_text_code_bytes", None)
        if codes is None:
            codes = (self.alphabet.encode(self.text) + np.uint8(1)).tobytes()
            self._text_code_bytes = codes
        return codes

    def query_codes(self, query: str) -> np.ndarray:
        """``query`` as shifted code points (``alphabet code + 1``).

        Matches the code space of :meth:`extend_code` and
        :meth:`FMIndex.extend_all`, so the engine's per-fork character
        comparisons become integer array compares against a child's code.
        """
        return self.alphabet.encode(query).astype(np.int64) + 1

    def range_of(self, substring: str) -> tuple[int, int]:
        """SA range of ``substring`` as a path from the trie root."""
        rng = self.root()
        for char in substring:
            rng = self.extend(rng, char)
            if rng == EMPTY_RANGE:
                return EMPTY_RANGE
        return rng

    def ranges_of(self, substrings: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`range_of` for many equal-length substrings at once.

        Returns parallel ``(lo, hi)`` arrays; absent substrings get
        :data:`EMPTY_RANGE`.  A length-``q`` batch costs ``q`` batched
        backward-search steps, not ``q`` per substring.
        """
        if not substrings:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        codes = self.alphabet.encode("".join(substrings)).astype(np.intp) + 1
        codes = codes.reshape(len(substrings), -1)
        # Appending a character to X prepends it to the reversed pattern.
        return self._fm.backward_search_all(codes[:, ::-1])

    def contains(self, substring: str) -> bool:
        """Whether ``substring`` occurs in the text."""
        return self.range_of(substring) != EMPTY_RANGE

    def occurrence_count(self, rng: tuple[int, int]) -> int:
        """Number of occurrences represented by a (path) SA range."""
        return max(0, rng[1] - rng[0])

    # --------------------------------------------------------------- locate
    def end_positions(self, rng: tuple[int, int]) -> list[int]:
        """1-based *end* positions in ``T`` of every occurrence in ``rng``.

        End positions are what the accumulator ``A(i, j)`` is keyed on: a path
        of depth ``d`` ending at 1-based position ``e`` starts at
        ``e - d + 1``.
        """
        ends = []
        for p in self._fm.locate(rng):
            if p >= self.n:  # the sentinel row; not a real occurrence
                continue
            ends.append(self.n - p)  # 0-based n-1-p, converted to 1-based
        return ends

    def end_positions_array(self, rng: tuple[int, int]) -> np.ndarray:
        """:meth:`end_positions` as an ndarray via the batched locate."""
        pos = self._fm.locate_array(rng)
        return self.n - pos[pos < self.n]

    # ----------------------------------------------------------------- size
    def size_bytes(self) -> dict[str, int]:
        """Modelled size of the underlying FM-index (Fig. 11)."""
        return self._fm.size_bytes()
