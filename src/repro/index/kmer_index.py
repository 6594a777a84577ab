"""Hash index of the text's k-mers — the seeding substrate of the BLAST baseline.

BLAST decomposes the *query* into words and looks them up against the
database; we invert the roles at build time (index the text once, scan query
words at search time), which is the standard in-memory arrangement.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np


class KmerIndex:
    """Map every k-mer of a text to the numpy array of its 1-based starts."""

    def __init__(self, text: str, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.text = text
        self.k = k
        buckets: dict[str, list[int]] = defaultdict(list)
        for start0 in range(len(text) - k + 1):
            buckets[text[start0 : start0 + k]].append(start0 + 1)
        self._buckets = {
            kmer: np.asarray(pos, dtype=np.int64) for kmer, pos in buckets.items()
        }

    def positions(self, kmer: str) -> np.ndarray:
        """Sorted 1-based start positions of ``kmer`` in the text."""
        return self._buckets.get(kmer, np.empty(0, dtype=np.int64))

    def __contains__(self, kmer: str) -> bool:
        return kmer in self._buckets

    def __len__(self) -> int:
        return len(self._buckets)
