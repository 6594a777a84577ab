"""Persistent index store: build once, mmap-serve forever.

The paper's premise is that the reversed-text compressed suffix array and
the dominate index are built *once per database* and amortized over every
query; :class:`IndexStore` makes that literal across processes.  ``build``
runs the expensive constructions (suffix array, BWT, Occ checkpoints,
domination scan), ``save`` serializes every array into the versioned binary
format of :mod:`repro.store.format`, and ``open`` maps the arrays back with
``numpy.memmap`` — no suffix-array work, reads are zero-copy and pages load
lazily.  :meth:`engine` then assembles a ready
:class:`~repro.core.alae.ALAE` around the mapped arrays (materialising the
hot-path representations, a sequential page-in), and :meth:`database` restores the
:class:`~repro.io.database.SequenceDatabase` offset/id table, so a serving
process cold-starts in milliseconds instead of rebuild time.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.alphabet import DNA, PROTEIN, Alphabet
from repro.core.alae import ALAE
from repro.core.domination import DominationIndex
from repro.errors import StoreError
from repro.index.csa import ReversedTextIndex
from repro.index.fm_index import FMIndex
from repro.io.database import SequenceDatabase
from repro.io.fasta import FastaRecord
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme
from repro.store.format import (
    header_prefix_crc,
    map_array,
    read_header,
    verify_file,
    write_store,
)

#: Well-known alphabets resolved by character set when reopening a store.
_KNOWN_ALPHABETS = {DNA.chars: DNA, PROTEIN.chars: PROTEIN}


def _fingerprint(
    alphabet: Alphabet,
    scheme: ScoringScheme,
    occ_block: int,
    sa_sample: int,
    q: int,
) -> dict:
    return {
        "alphabet_name": alphabet.name,
        "alphabet_chars": alphabet.chars,
        "scheme": list(scheme.as_tuple()),
        "occ_block": int(occ_block),
        "sa_sample": int(sa_sample),
        "q": int(q),
    }


def fingerprint_key(fingerprint: dict) -> str:
    """Canonical one-line form of a fingerprint (cache keys, messages)."""
    scheme = ",".join(str(s) for s in fingerprint["scheme"])
    return (
        f"{fingerprint['alphabet_name']}:{fingerprint['alphabet_chars']}"
        f"|<{scheme}>|occ={fingerprint['occ_block']}"
        f"|sa={fingerprint['sa_sample']}|q={fingerprint['q']}"
    )


def _encode_grams(items: list, q: int) -> dict[str, np.ndarray]:
    """Fixed-width encoding of :meth:`DominationIndex.export_items` rows."""
    k = len(items)
    grams = np.zeros((k, q), dtype=np.uint8)
    preds = np.zeros((k, q), dtype=np.uint8)
    status = np.zeros(k, dtype=np.uint8)
    for row, (gram, predecessor, multi) in enumerate(items):
        grams[row] = np.frombuffer(gram.encode("ascii"), dtype=np.uint8)
        if multi:
            status[row] = 1
        elif predecessor is not None:
            status[row] = 2
            preds[row] = np.frombuffer(
                predecessor.encode("ascii"), dtype=np.uint8
            )
    return {"dom_grams": grams, "dom_status": status, "dom_preds": preds}


def _decode_grams(
    grams: np.ndarray, status: np.ndarray, preds: np.ndarray
) -> list:
    gram_blob = np.ascontiguousarray(grams).tobytes()
    pred_blob = np.ascontiguousarray(preds).tobytes()
    q = grams.shape[1] if grams.ndim == 2 else 0
    items = []
    for row, flag in enumerate(np.asarray(status).tolist()):
        gram = gram_blob[row * q : (row + 1) * q].decode("ascii")
        if flag == 1:
            items.append((gram, None, True))
        elif flag == 2:
            pred = pred_blob[row * q : (row + 1) * q].decode("ascii")
            items.append((gram, pred, False))
        else:
            items.append((gram, None, False))
    return items


class IndexStore:
    """Everything a serving process needs, as named raw arrays.

    Instances come from :meth:`build` (arrays in memory, ready to
    :meth:`save`) or :meth:`open` (arrays memory-mapped read-only from a
    saved file).  Either way :meth:`database` and :meth:`engine` assemble —
    and cache — the runtime objects.

    A store holds the paper's Fig. 11 contents: the database, the BWT
    index and the dominate index.  Files written by earlier versions also
    carry BLAST seed postings (``kmer_*`` arrays, plus an ``aux`` header
    entry outside the fingerprint); those arrays are ignored, so such
    stores still open, verify and serve.
    """

    def __init__(
        self, header: dict, arrays: dict[str, np.ndarray], path: Path | None
    ) -> None:
        self._header = header
        self._arrays = arrays
        self._path = path
        self._header_crc: int | None = None
        self._database: SequenceDatabase | None = None
        self._engines: dict[tuple, ALAE] = {}
        # Instances are shared across threads via StoreCache; the lock keeps
        # the expensive lazy materializations single-flight.
        self._materialize_lock = threading.RLock()

    # -------------------------------------------------------------- factory
    @classmethod
    def build(
        cls,
        database: SequenceDatabase | Sequence[FastaRecord] | str | Path,
        *,
        alphabet: Alphabet = DNA,
        scheme: ScoringScheme = DEFAULT_SCHEME,
        occ_block: int = 128,
        sa_sample: int = 16,
    ) -> "IndexStore":
        """Run every offline construction and capture the results as arrays."""
        database = SequenceDatabase.coerce(database)
        for record in database.records:
            if "\n" in record.header:
                raise StoreError(
                    f"header {record.identifier!r} contains a newline and "
                    f"cannot be serialized"
                )
        text = database.text
        csa = ReversedTextIndex(
            text, alphabet, occ_block=occ_block, sa_sample=sa_sample
        )
        domination = DominationIndex(text, scheme.q)

        arrays: dict[str, np.ndarray] = {
            "db_text": np.frombuffer(text.encode("ascii"), dtype=np.uint8),
            "db_offsets": np.asarray(database.boundaries(), dtype=np.int64),
            "db_headers": np.frombuffer(
                "\n".join(r.header for r in database.records).encode("utf-8"),
                dtype=np.uint8,
            ),
        }
        for name, array in csa.fm_components().items():
            arrays[f"fm_{name}"] = array
        arrays.update(_encode_grams(domination.export_items(), scheme.q))

        header = {
            "fingerprint": _fingerprint(
                alphabet, scheme, occ_block, sa_sample, scheme.q
            ),
            "database": {
                "records": len(database),
                "total_length": database.total_length,
            },
        }
        store = cls(header, arrays, path=None)
        store._database = database
        return store

    def save(self, path: str | Path) -> Path:
        """Serialize to ``path`` (atomic rename); the store becomes reopenable."""
        self._path = write_store(path, self._header, self._arrays)
        self._header_crc = header_prefix_crc(self._path)
        return self._path

    @classmethod
    def open(cls, path: str | Path) -> "IndexStore":
        """Map a saved store read-only; array bytes are not copied or read yet."""
        path = Path(path)
        header, data_start = read_header(path)
        arrays = {
            spec["name"]: map_array(path, data_start, spec)
            for spec in header["arrays"]
        }
        required = {
            "db_text", "db_offsets", "db_headers", "fm_bwt", "fm_c_array",
            "fm_occ_ckpt", "fm_sa_rows", "fm_sa_positions", "dom_grams",
            "dom_status", "dom_preds",
        }
        missing = required - set(arrays)
        if missing:
            raise StoreError(
                f"{path}: store is missing arrays {sorted(missing)}"
            )
        store = cls(header, arrays, path=path)
        store._header_crc = header_prefix_crc(path)
        return store

    @staticmethod
    def verify(path: str | Path) -> list[str]:
        """Recompute all checksums; return problems (empty list = intact)."""
        return verify_file(path)

    # ----------------------------------------------------------- inspection
    @property
    def path(self) -> Path | None:
        """Where the store lives on disk (``None`` until saved)."""
        return self._path

    @property
    def header_crc(self) -> int | None:
        """CRC-32 of the on-disk header (``None`` until saved or opened).

        Covers the fingerprint and the whole array table, so it identifies
        the file contents this store was loaded from — spawn workers use it
        to refuse a store that was rebuilt in place under the parent.
        """
        return self._header_crc

    @property
    def header(self) -> dict:
        return self._header

    @property
    def fingerprint(self) -> dict:
        return self._header["fingerprint"]

    @property
    def fingerprint_key(self) -> str:
        return fingerprint_key(self.fingerprint)

    @property
    def alphabet(self) -> Alphabet:
        chars = self.fingerprint["alphabet_chars"]
        known = _KNOWN_ALPHABETS.get(chars)
        if known is not None and known.name == self.fingerprint["alphabet_name"]:
            return known
        return Alphabet(self.fingerprint["alphabet_name"], chars)

    @property
    def scheme(self) -> ScoringScheme:
        return ScoringScheme(*self.fingerprint["scheme"])

    def array(self, name: str) -> np.ndarray:
        try:
            return self._arrays[name]
        except KeyError:
            raise StoreError(f"store has no array {name!r}") from None

    def size_bytes(self) -> dict[str, int]:
        """Serialized bytes per array plus the total payload."""
        sizes = {name: int(a.nbytes) for name, a in self._arrays.items()}
        sizes["total"] = sum(sizes.values())
        return sizes

    # ------------------------------------------------------- compatibility
    def check_alphabet(self, alphabet: Alphabet) -> None:
        if alphabet.chars != self.fingerprint["alphabet_chars"]:
            raise StoreError(
                f"store was built for alphabet "
                f"{self.fingerprint['alphabet_name']!r} "
                f"({self.fingerprint['alphabet_chars']}), not "
                f"{alphabet.name!r} ({alphabet.chars})"
            )

    def check_scheme(self, scheme: ScoringScheme) -> None:
        if list(scheme.as_tuple()) != list(self.fingerprint["scheme"]):
            built = ScoringScheme(*self.fingerprint["scheme"])
            raise StoreError(
                f"store was built for scheme {built}, not {scheme}; "
                f"the dominate index depends on q and cannot be reused"
            )

    # ------------------------------------------------------ materialization
    def database(self) -> SequenceDatabase:
        """The database, rebuilt from the offset/id table (cached)."""
        with self._materialize_lock:
            if self._database is None:
                text = self.array("db_text").tobytes().decode("ascii")
                headers_blob = self.array("db_headers").tobytes().decode("utf-8")
                self._database = SequenceDatabase.from_concatenated(
                    text,
                    self.array("db_offsets").tolist(),
                    headers_blob.split("\n"),
                )
            return self._database

    def engine(self, **toggles) -> ALAE:
        """An :class:`ALAE` engine over the stored indexes (cached per toggles).

        ``toggles`` are the engine's ``use_*`` keyword arguments; structural
        parameters (``occ_block``, ``sa_sample``, the scheme) are fixed by
        the store's fingerprint.
        """
        key = tuple(sorted(toggles.items()))
        with self._materialize_lock:
            if key not in self._engines:
                fingerprint = self.fingerprint
                fm = FMIndex.from_components(
                    self.array("fm_bwt"),
                    self.array("fm_c_array"),
                    self.array("fm_occ_ckpt"),
                    self.array("fm_sa_rows"),
                    self.array("fm_sa_positions"),
                    sigma=self.alphabet.size,
                    occ_block=fingerprint["occ_block"],
                    sa_sample=fingerprint["sa_sample"],
                )
                database = self.database()
                csa = ReversedTextIndex.from_fm_index(
                    database.text, self.alphabet, fm
                )
                domination = None
                if toggles.get("use_domination", True):
                    domination = DominationIndex.from_items(
                        _decode_grams(
                            self.array("dom_grams"),
                            self.array("dom_status"),
                            self.array("dom_preds"),
                        ),
                        q=fingerprint["q"],
                        n=len(database.text),
                    )
                try:
                    self._engines[key] = ALAE.from_prebuilt(
                        csa,
                        scheme=self.scheme,
                        domination=domination,
                        **toggles,
                    )
                except TypeError as exc:
                    raise StoreError(
                        f"unsupported engine option for a store-backed "
                        f"engine: {exc}"
                    ) from None
            return self._engines[key]
