"""Columnar record batches: the engine's one data representation
(DESIGN.md section 15).

A :class:`RecordBatch` carries the four fields of a record as parallel
columns (``rids``, ``payloads``, ``source_ts``, ``sizes``); there is no
record object.  ``source_ts`` is the availability timestamp of the
record's *origin* input, kept across derivations — end-to-end latency is
measured against it (paper Section V).  Router buffers, messages, replay
and channel state all hold batches, so the hot loops run on C-speed
primitives — list ``extend`` for routing, one ``set.isdisjoint`` probe
and one ``set.update`` insert for rid dedup
(:meth:`~repro.dataflow.runtime.Job.process_records`), numpy uint64
kernels for lineage derivation
(:func:`~repro.dataflow.records.derived_rids`).

A batch staged onto a :class:`~repro.dataflow.channels.RouterBuffer`
makes a buffer ready at exactly the record that crosses the batch-size
threshold, and destination buffers are created in first-occurrence
order, so messages, sequence numbers and checkpoint cursors do not
depend on how the producer's output happened to be batched.

An operator kernel reads the columns in row order (``zip(batch.rids,
batch.payloads, ...)`` or a loop over ``batch.payloads``) and returns a
new batch: a 1-to-1 kernel takes its rids from
:func:`~repro.dataflow.records.derived_rids` of the input's ``rids`` and
may share the input's ``source_ts`` column.  Batches are *logically
immutable once routed*: the builder methods (``extend*``) are for
constructing a batch; after a batch is handed to the router or a
message, nothing mutates its columns, so downstream kernels may alias
them (e.g. a map output sharing the input's ``source_ts`` column).
"""

from __future__ import annotations

from typing import Any, Sequence

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

    # -- builders ----------------------------------------------------------- #

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
