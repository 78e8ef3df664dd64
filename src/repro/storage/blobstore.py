"""Checkpoint blob store — the simulation's Minio.

Checkpoints are opaque blobs keyed by ``(instance, checkpoint_id)``.  The
store models upload/restore durations through the cost model (latency +
size/bandwidth); the runtime charges those durations in virtual time.  The
store itself is infallible and durable, matching the paper's assumption
that Minio survives worker failures.

Incremental (changelog) checkpoints store **delta blobs** that are only
meaningful relative to a predecessor: ``BlobMeta.base_key`` links a delta
to the blob it chains onto (DESIGN.md section 10).
:meth:`BlobStore.chain_keys` walks that chain back to the self-contained
base so recovery can plan a base+delta restore, and
:meth:`BlobStore.chain_size` is what that restore fetches: the store is
the one record of it.

A blob is deleted once no recovery can read it: the runtime collects every
blob strictly older than an instance's checkpoint in the floor line (UNC,
CIC) or in the newest complete round (COOR), except the chain that
checkpoint stands on (DESIGN.md section 8).  ``bytes_written -
bytes_deleted == total_bytes()`` holds after any sequence of puts,
overwrites and deletes: an overwrite bills the new write and counts the
bytes it replaced as deleted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True)
class BlobMeta:
    """Descriptor of one stored blob."""

    size_bytes: int
    #: predecessor blob this delta chains onto (None: self-contained base)
    base_key: str | None = None


@dataclass
class BlobStore:
    """In-memory durable blob store with size accounting."""

    _blobs: dict[str, Any] = field(default_factory=dict)
    _meta: dict[str, BlobMeta] = field(default_factory=dict)
    bytes_written: int = 0
    #: billed bytes no longer resident: deleted, or replaced by an overwrite
    bytes_deleted: int = 0

    def put(self, key: str, value: Any, size_bytes: int,
            base_key: str | None = None) -> BlobMeta:
        """Store ``value`` under ``key``; an overwrite deletes the old blob."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        if base_key is not None and base_key not in self._blobs:
            raise KeyError(
                f"delta blob {key!r} chains onto missing base {base_key!r}"
            )
        replaced = self._meta.get(key)
        if replaced is not None:
            self.bytes_deleted += replaced.size_bytes
        meta = BlobMeta(size_bytes, base_key)
        self._blobs[key] = value
        self._meta[key] = meta
        self.bytes_written += size_bytes
        return meta

    def get(self, key: str) -> Any:
        """Fetch a blob; KeyError if missing (a bug in the caller)."""
        return self._blobs[key]

    def delete(self, key: str) -> None:
        """Drop a blob no recovery can read; KeyError if missing."""
        del self._blobs[key]
        self.bytes_deleted += self._meta.pop(key).size_bytes

    def __contains__(self, key: str) -> bool:
        return key in self._blobs

    def __len__(self) -> int:
        return len(self._blobs)

    def total_bytes(self) -> int:
        """Billed bytes currently retained."""
        return sum(m.size_bytes for m in self._meta.values())

    # -- delta chains ----------------------------------------------------- #

    def chain_keys(self, key: str) -> list[str]:
        """The blob keys a restore of ``key`` must fetch, base first.

        A self-contained blob yields ``[key]``; a delta yields its whole
        ancestor chain down to the base.
        """
        chain = [key]
        meta = self._meta[key]
        while meta.base_key is not None:
            chain.append(meta.base_key)
            meta = self._meta[meta.base_key]
        chain.reverse()
        return chain

    def chain_size(self, key: str) -> tuple[int, int]:
        """What a restore of ``key`` fetches: ``(blobs, billed bytes)``
        of its whole chain."""
        chain = self.chain_keys(key)
        return len(chain), sum(self._meta[k].size_bytes for k in chain)
