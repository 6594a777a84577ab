"""Sharded index stores: horizontal partitioning of one database (manifest).

The paper serves queries over *all* database sequences concatenated into a
single text (Sec. 2.2); a single :class:`~repro.store.IndexStore` makes that
text's indexes persistent, but one store still means one index build, one
file, one core.  :class:`ShardedStore` is the horizontal-partitioning step:
a :class:`~repro.io.database.ShardPlan` splits the record collection into K
balanced shards (greedy bin-packing on sequence length, never splitting a
record), each shard becomes its own ``IndexStore`` — built independently,
so builds parallelise across cores — and a small versioned, checksummed
**manifest** ties them back together:

``fingerprint``
    The shared build parameters (alphabet, scheme, FM parameters); every
    shard store must carry the identical fingerprint.
``records``
    The global id table: every record's identifier and length *in original
    concatenation order*, so global offsets — and therefore globally
    ordered merged results — are reconstructable without touching a shard.
``shards``
    One entry per shard: relative file name, the shard store's header
    CRC-32 (a swapped or rebuilt shard file is detected at open, not
    served), the original record indices it holds, and its text length.

The manifest itself is JSON wrapped in a magic/version/CRC envelope and
written atomically, mirroring the guarantees of the binary store format on
a human-readable file.
"""

from __future__ import annotations

import json
import multiprocessing
import zlib
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

from repro.alphabet import DNA, Alphabet
from repro.errors import StoreError
from repro.io.database import SequenceDatabase, ShardPlan
from repro.io.fasta import FastaRecord
from repro.scoring.scheme import DEFAULT_SCHEME, ScoringScheme
from repro.store.cache import default_store_cache
from repro.store.format import MAGIC as STORE_MAGIC
from repro.store.store import IndexStore, _fingerprint, fingerprint_key

#: Manifest magic: distinguishes a shard manifest from a binary store.
MANIFEST_MAGIC = "REPROSHD"

#: Bumped on any change to the manifest schema.
MANIFEST_VERSION = 1


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )


def manifest_payload_crc(payload: dict) -> int:
    """CRC-32 of a manifest payload's canonical JSON form.

    This is the checksum stored in the manifest envelope, so it is the
    on-disk identity of a sharded index: serving layers compare it to
    detect in-place rebuilds (spawn-worker safety, hot reload).
    """
    return zlib.crc32(_canonical(payload))


def write_manifest(path: str | Path, payload: dict) -> Path:
    """Write a checksummed manifest envelope atomically (tmp + rename)."""
    path = Path(path)
    envelope = {
        "magic": MANIFEST_MAGIC,
        "format_version": MANIFEST_VERSION,
        "crc32": manifest_payload_crc(payload),
        "payload": payload,
    }
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(envelope, sort_keys=True, indent=1) + "\n")
    tmp.replace(path)
    return path


def read_manifest(path: str | Path) -> dict:
    """Validate a manifest envelope and return its payload.

    Raises :class:`StoreError` on bad magic, version skew, malformed JSON or
    a payload that fails its CRC.
    """
    path = Path(path)
    try:
        raw = path.read_text()
    except OSError as exc:
        raise StoreError(f"cannot read shard manifest {path}: {exc}") from None
    try:
        envelope = json.loads(raw)
    except ValueError:
        raise StoreError(f"{path}: manifest is not valid JSON") from None
    if not isinstance(envelope, dict) or envelope.get("magic") != MANIFEST_MAGIC:
        raise StoreError(f"{path}: not a shard manifest (bad magic)")
    version = envelope.get("format_version")
    if version != MANIFEST_VERSION:
        raise StoreError(
            f"{path}: manifest version {version} != supported "
            f"{MANIFEST_VERSION}; rebuild with `repro index build --shards`"
        )
    payload = envelope.get("payload")
    if not isinstance(payload, dict):
        raise StoreError(f"{path}: manifest has no payload")
    if manifest_payload_crc(payload) != envelope.get("crc32"):
        raise StoreError(f"{path}: manifest checksum mismatch (corrupt)")
    return payload


def is_manifest(path: str | Path) -> bool:
    """Sniff whether ``path`` is a shard manifest (vs a binary store).

    A binary store starts with the 8-byte ``REPROIDX`` magic; anything else
    that parses as a manifest envelope is sharded.  Used by the CLI and the
    service layer so ``--index`` accepts either transparently.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(STORE_MAGIC))
    except OSError as exc:
        raise StoreError(f"cannot read index store {path}: {exc}") from None
    if head == STORE_MAGIC:
        return False
    try:
        read_manifest(path)
    except StoreError:
        return False
    return True


def _shard_name(manifest_name: str, shard: int) -> str:
    return f"{manifest_name}.shard{shard:03d}.idx"


def _build_shard_store(
    task: "tuple[int, list[FastaRecord], str, Alphabet, ScoringScheme, int, int]",
) -> tuple[int, int]:
    """Build and save one shard store; returns ``(shard, header_crc)``.

    Module-level so fork *and* spawn pools can run it; the records travel
    by pickle (spawn) or arrive copy-on-write (fork).
    """
    shard, records, dest, alphabet, scheme, occ_block, sa_sample = task
    store = IndexStore.build(
        SequenceDatabase(records),
        alphabet=alphabet,
        scheme=scheme,
        occ_block=occ_block,
        sa_sample=sa_sample,
    )
    store.save(dest)
    return shard, store.header_crc


class ShardedStore:
    """K :class:`IndexStore` files plus the manifest that merges them.

    Instances come from :meth:`build` (which writes every shard store and
    the manifest) or :meth:`open` (which reads the manifest; shard stores
    are opened lazily through the process-wide store cache and validated
    against the manifest's per-shard header CRCs and shared fingerprint).
    """

    def __init__(self, path: Path, payload: dict) -> None:
        self._path = Path(path)
        self._payload = payload
        self._stores: dict[int, IndexStore] = {}
        offsets, pos = [], 0
        for spec in payload["records"]:
            offsets.append(pos)
            pos += int(spec["length"])
        self._global_offsets = offsets
        self._total_length = pos

    # -------------------------------------------------------------- factory
    @classmethod
    def build(
        cls,
        database: SequenceDatabase | Sequence[FastaRecord] | str | Path,
        path: str | Path,
        *,
        shards: int,
        alphabet: Alphabet = DNA,
        scheme: ScoringScheme = DEFAULT_SCHEME,
        occ_block: int = 128,
        sa_sample: int = 16,
        build_workers: int = 1,
    ) -> "ShardedStore":
        """Partition, build every shard store, write the manifest, reopen.

        ``build_workers > 1`` builds shards in a process pool (fork where
        available, spawn otherwise) — index construction is CPU-bound
        Python, so this is the multi-core build path a single
        ``IndexStore.build`` cannot offer.
        """
        database = SequenceDatabase.coerce(database)
        path = Path(path)
        plan = ShardPlan.balanced(database, shards)
        tasks = [
            (
                shard,
                [database.records[i] for i in assigned],
                str(path.with_name(_shard_name(path.name, shard))),
                alphabet,
                scheme,
                occ_block,
                sa_sample,
            )
            for shard, assigned in enumerate(plan.assignments)
        ]
        crcs: dict[int, int] = {}
        workers = min(build_workers, len(tasks))
        methods = multiprocessing.get_all_start_methods()
        if workers > 1 and methods:
            method = "fork" if "fork" in methods else "spawn"
            with ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context(method),
            ) as pool:
                for shard, crc in pool.map(_build_shard_store, tasks):
                    crcs[shard] = crc
        else:
            for task in tasks:
                shard, crc = _build_shard_store(task)
                crcs[shard] = crc
        lengths = database.record_lengths()
        payload = {
            "fingerprint": _fingerprint(
                alphabet, scheme, occ_block, sa_sample, scheme.q
            ),
            "records": [
                {"id": record.identifier, "length": lengths[i]}
                for i, record in enumerate(database.records)
            ],
            "shards": [
                {
                    "path": _shard_name(path.name, shard),
                    "header_crc": crcs[shard],
                    "records": list(assigned),
                    "total_length": sum(lengths[i] for i in assigned),
                }
                for shard, assigned in enumerate(plan.assignments)
            ],
        }
        write_manifest(path, payload)
        return cls.open(path)

    @classmethod
    def open(cls, path: str | Path) -> "ShardedStore":
        """Read and validate the manifest; shard stores open on first use."""
        path = Path(path)
        payload = read_manifest(path)
        for key in ("fingerprint", "records", "shards"):
            if key not in payload:
                raise StoreError(f"{path}: manifest is missing {key!r}")
        if not payload["shards"]:
            raise StoreError(f"{path}: manifest lists no shards")
        seen: set[int] = set()
        for spec in payload["shards"]:
            indices = spec["records"]
            if seen.intersection(indices):
                raise StoreError(
                    f"{path}: manifest assigns a record to two shards"
                )
            seen.update(indices)
        if seen != set(range(len(payload["records"]))):
            raise StoreError(
                f"{path}: manifest shard assignments do not cover the "
                f"record table exactly"
            )
        return cls(path, payload)

    @staticmethod
    def verify(path: str | Path) -> list[str]:
        """Deep-verify manifest + every shard; return problems (empty = ok).

        Checks the manifest envelope CRC, every shard file's full checksum
        tree (:meth:`IndexStore.verify`), each shard's header CRC against
        the manifest (a shard rebuilt or swapped behind the manifest is a
        finding, not a silent divergence), the shared fingerprint, and that
        each shard's record identifiers/lengths match the global id table.
        """
        path = Path(path)
        try:
            store = ShardedStore.open(path)
        except StoreError as exc:
            return [str(exc)]
        problems: list[str] = []
        for shard, spec in enumerate(store._payload["shards"]):
            shard_path = store.shard_path(shard)
            if not shard_path.exists():
                problems.append(f"shard {shard}: missing file {shard_path}")
                continue
            problems.extend(IndexStore.verify(shard_path))
            try:
                opened = IndexStore.open(shard_path)
            except StoreError as exc:
                problems.append(str(exc))
                continue
            if opened.header_crc != spec["header_crc"]:
                problems.append(
                    f"shard {shard}: header CRC {opened.header_crc:#010x} "
                    f"!= manifest {spec['header_crc']:#010x} (rebuilt or "
                    f"swapped behind the manifest)"
                )
            if opened.fingerprint != store.fingerprint:
                problems.append(
                    f"shard {shard}: fingerprint {opened.fingerprint_key} "
                    f"!= manifest {store.fingerprint_key}"
                )
            records = opened.database().records
            table = store._payload["records"]
            expected = [
                (table[i]["id"], int(table[i]["length"]))
                for i in spec["records"]
            ]
            got = [(r.identifier, len(r.sequence)) for r in records]
            if expected != got:
                problems.append(
                    f"shard {shard}: records disagree with the manifest id "
                    f"table"
                )
        return problems

    # ----------------------------------------------------------- inspection
    @property
    def path(self) -> Path:
        return self._path

    @property
    def payload(self) -> dict:
        return self._payload

    @property
    def fingerprint(self) -> dict:
        return self._payload["fingerprint"]

    @property
    def fingerprint_key(self) -> str:
        return fingerprint_key(self.fingerprint)

    @property
    def shard_count(self) -> int:
        return len(self._payload["shards"])

    @property
    def record_count(self) -> int:
        return len(self._payload["records"])

    @property
    def total_length(self) -> int:
        """Total text length across every record (the unsharded ``n``)."""
        return self._total_length

    @property
    def record_ids(self) -> list[str]:
        return [spec["id"] for spec in self._payload["records"]]

    @property
    def global_offsets(self) -> list[int]:
        """0-based global start of every record in *original* order."""
        return list(self._global_offsets)

    def shard_path(self, shard: int) -> Path:
        return self._path.with_name(self._payload["shards"][shard]["path"])

    def shard_records(self, shard: int) -> list[int]:
        """Original record indices served by one shard (ascending)."""
        return list(self._payload["shards"][shard]["records"])

    def shard_lengths(self) -> list[int]:
        return [int(s["total_length"]) for s in self._payload["shards"]]

    # ------------------------------------------------------------- shards
    def store(self, shard: int) -> IndexStore:
        """One shard's :class:`IndexStore`, opened via the process cache.

        The first open of each shard is validated against the manifest: a
        header CRC or fingerprint mismatch (the shard was rebuilt or the
        file swapped after the manifest was written) is a hard error.
        """
        cached = self._stores.get(shard)
        if cached is not None:
            return cached
        spec = self._payload["shards"][shard]
        opened = default_store_cache().get(self.shard_path(shard))
        if opened.header_crc != spec["header_crc"]:
            raise StoreError(
                f"{self.shard_path(shard)}: header CRC "
                f"{opened.header_crc:#010x} != manifest "
                f"{spec['header_crc']:#010x}; the shard was rebuilt or "
                f"replaced after the manifest was written — rebuild the "
                f"sharded index"
            )
        if opened.fingerprint != self.fingerprint:
            raise StoreError(
                f"{self.shard_path(shard)}: fingerprint "
                f"{opened.fingerprint_key} != manifest "
                f"{self.fingerprint_key}"
            )
        self._stores[shard] = opened
        return opened

    def stores(self) -> list[IndexStore]:
        """Every shard store (opens any not yet opened)."""
        return [self.store(i) for i in range(self.shard_count)]

    def database(self) -> SequenceDatabase:
        """The *original* database, re-assembled in original record order.

        Mainly for tests and tooling: serving never needs the full
        concatenation — that is the point of sharding.
        """
        by_original: dict[int, FastaRecord] = {}
        for shard in range(self.shard_count):
            records = self.store(shard).database().records
            for local, original in enumerate(self.shard_records(shard)):
                by_original[original] = records[local]
        return SequenceDatabase(
            [by_original[i] for i in range(self.record_count)]
        )

    # ------------------------------------------------------- compatibility
    def check_alphabet(self, alphabet: Alphabet) -> None:
        if alphabet.chars != self.fingerprint["alphabet_chars"]:
            raise StoreError(
                f"sharded store was built for alphabet "
                f"{self.fingerprint['alphabet_name']!r} "
                f"({self.fingerprint['alphabet_chars']}), not "
                f"{alphabet.name!r} ({alphabet.chars})"
            )

    def check_scheme(self, scheme: ScoringScheme) -> None:
        if list(scheme.as_tuple()) != list(self.fingerprint["scheme"]):
            built = ScoringScheme(*self.fingerprint["scheme"])
            raise StoreError(
                f"sharded store was built for scheme {built}, not {scheme}; "
                f"the dominate index depends on q and cannot be reused"
            )
