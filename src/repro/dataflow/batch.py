"""Columnar record batches: the engine's one data representation
(DESIGN.md section 15).

A :class:`RecordBatch` carries the four per-record fields of
:class:`~repro.dataflow.records.StreamRecord` as parallel columns
(``rids``, ``payloads``, ``source_ts``, ``sizes``) instead of a list of
record objects.  Router buffers, messages, replay and channel state all
hold batches, so the hot loops run on C-speed primitives — list
``extend`` for routing, one ``set.isdisjoint`` probe and one
``set.update`` insert for rid dedup
(:meth:`~repro.dataflow.runtime.Job.process_records`), numpy uint64
kernels for lineage derivation
(:func:`~repro.dataflow.records.derived_rids`).

Two properties the rest of the engine relies on:

* **boundaries** — a batch staged onto a
  :class:`~repro.dataflow.channels.RouterBuffer` makes a buffer ready at
  exactly the record that crosses the batch-size threshold, and
  destination buffers are created in first-occurrence order, so
  messages, sequence numbers and checkpoint cursors do not depend on how
  the producer's output happened to be batched;
* **ordering** — iteration yields :class:`StreamRecord` views in column
  order (the fallback for operators that only define ``process``).

Batches are *logically immutable once routed*: the builder methods
(``extend*``) are for constructing a batch; after a batch is handed to
the router or a message, nothing mutates its columns, so downstream
kernels may alias them (e.g. a map output sharing the input's
``source_ts`` column).
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.dataflow.records import StreamRecord

__all__ = ["RecordBatch", "group_indices"]


def group_indices(keys: Sequence[Any]) -> dict[Any, list[int]]:
    """Group column positions by key, in first-occurrence order.

    One pass over the key column builds ``key -> [positions]`` with dict
    insertion order equal to the order each key first appears.  The
    rescaled-replay reinjection scatters old-topology messages over the
    new destinations with it; the keyed operator kernels fold a batch in
    one pass over a running ``key -> value`` dict instead and need no
    positions (DESIGN.md sections 16 and 22).
    """
    groups: dict[Any, list[int]] = {}
    get = groups.get
    for i, key in enumerate(keys):
        group = get(key)
        if group is None:
            groups[key] = [i]
        else:
            group.append(i)
    return groups


class RecordBatch:
    """A columnar batch of stream records (four parallel columns)."""

    __slots__ = ("rids", "payloads", "source_ts", "sizes")

    def __init__(self, rids: list[int], payloads: list[Any],
                 source_ts: list[float], sizes: list[int]) -> None:
        """Wrap the four given columns (shared, not copied)."""
        self.rids = rids
        self.payloads = payloads
        self.source_ts = source_ts
        self.sizes = sizes

    # -- sizing ----------------------------------------------------------- #

    def __len__(self) -> int:
        """Number of records in the batch."""
        return len(self.rids)

    # -- record views ------------------------------------------------------ #

    def __iter__(self) -> Iterator[StreamRecord]:
        """Yield per-record views in column order (``process`` fallback)."""
        for rid, payload, ts, size in zip(self.rids, self.payloads,
                                          self.source_ts, self.sizes):
            yield StreamRecord(rid=rid, payload=payload, source_ts=ts,
                               size_bytes=size)

    def __repr__(self) -> str:
        """Compact debugging form (count and byte total only)."""
        return f"RecordBatch(n={len(self.rids)}, bytes={sum(self.sizes)})"

    # -- builders ----------------------------------------------------------- #

    def extend_records(self, records: Iterable[StreamRecord]) -> None:
        """Append per-record objects, decomposed into the columns."""
        for record in records:
            self.rids.append(record.rid)
            self.payloads.append(record.payload)
            self.source_ts.append(record.source_ts)
            self.sizes.append(record.size_bytes)

    def extend(self, other: "RecordBatch") -> None:
        """Append every row of ``other`` (column-wise)."""
        self.rids.extend(other.rids)
        self.payloads.extend(other.payloads)
        self.source_ts.extend(other.source_ts)
        self.sizes.extend(other.sizes)

    def extend_select(self, other: "RecordBatch", indices: list[int]) -> None:
        """Append the selected rows of ``other``."""
        rids = other.rids
        payloads = other.payloads
        source_ts = other.source_ts
        sizes = other.sizes
        self.rids.extend([rids[i] for i in indices])
        self.payloads.extend([payloads[i] for i in indices])
        self.source_ts.extend([source_ts[i] for i in indices])
        self.sizes.extend([sizes[i] for i in indices])

    def select(self, indices: list[int]) -> "RecordBatch":
        """A new batch holding the selected rows (filter/dedup survivors)."""
        rids = self.rids
        payloads = self.payloads
        source_ts = self.source_ts
        sizes = self.sizes
        return RecordBatch(
            [rids[i] for i in indices],
            [payloads[i] for i in indices],
            [source_ts[i] for i in indices],
            [sizes[i] for i in indices],
        )
