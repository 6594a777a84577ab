"""Persistent index store: versioned on-disk serialization of built indexes.

Build once (``IndexStore.build(...).save(path)`` or ``repro index build``),
then serve forever: ``IndexStore.open(path)`` memory-maps every array and
hands warmed engines to :class:`~repro.service.SearchService` — including
spawn-based process pools whose workers reopen the store by path instead of
requiring fork.
"""

from repro.errors import StoreError
from repro.store.cache import StoreCache, default_store_cache
from repro.store.format import ALIGNMENT, FORMAT_VERSION, MAGIC
from repro.store.sharded import (
    MANIFEST_MAGIC,
    MANIFEST_VERSION,
    ShardedStore,
    is_manifest,
    manifest_payload_crc,
    read_manifest,
    write_manifest,
)
from repro.store.store import IndexStore, fingerprint_key

__all__ = [
    "IndexStore",
    "ShardedStore",
    "StoreCache",
    "StoreError",
    "default_store_cache",
    "fingerprint_key",
    "is_manifest",
    "manifest_payload_crc",
    "read_manifest",
    "write_manifest",
    "MAGIC",
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "FORMAT_VERSION",
    "ALIGNMENT",
]
