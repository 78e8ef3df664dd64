"""Replayable partitioned log — the simulation's Apache Kafka.

The paper uses Kafka as a replayable fault-tolerant source: on recovery the
sources rewind to the offsets stored in their checkpoints.  Only two Kafka
properties matter to the experiments and both are modelled here:

* records become *available* at a timestamp (the input rate), and a consumer
  can never read past ``now``;
* offsets are stable, so rewinding to a checkpointed offset re-reads exactly
  the same records.

End-to-end latency is measured from ``LogRecord.available_at`` (paper
Section V: "from the moment it is available in the input queue").
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from operator import lt
from typing import Any, Iterator, overload


@dataclass(slots=True)
class LogRecord:
    """One record of a partition, as ``Partition.records`` shows it.

    ``available_at`` is the virtual time at which the record exists for
    consumers; ``payload`` is the workload event; ``size_bytes`` drives the
    serialization/network cost model.  The log does not store these: a
    partition keeps columns and builds a ``LogRecord`` per record read
    through the row views, so mutating one changes nothing.
    """

    offset: int
    available_at: float
    payload: Any
    size_bytes: int


class _RecordView(Sequence[LogRecord]):
    """Read-only row view of a partition's columns, in offset order."""

    __slots__ = ("_partition",)

    def __init__(self, partition: Partition) -> None:
        self._partition = partition

    def __len__(self) -> int:
        return len(self._partition.times)

    @overload
    def __getitem__(self, item: int) -> LogRecord: ...
    @overload
    def __getitem__(self, item: slice) -> list[LogRecord]: ...

    def __getitem__(self, item: int | slice) -> LogRecord | list[LogRecord]:
        partition = self._partition
        if isinstance(item, slice):
            offsets = range(len(partition.times))[item]
            return list(map(LogRecord, offsets, partition.times[item],
                            partition.payloads[item], partition.sizes[item]))
        offset = range(len(partition.times))[item]
        return LogRecord(offset, partition.times[offset],
                         partition.payloads[offset], partition.sizes[offset])

    def __iter__(self) -> Iterator[LogRecord]:
        partition = self._partition
        return map(LogRecord, count(), partition.times, partition.payloads,
                   partition.sizes)


class Partition:
    """An append-only, offset-addressed record sequence, stored as columns.

    ``times``, ``payloads`` and ``sizes`` are parallel lists indexed by
    offset; readers slice them and must not mutate them.  Writers go
    through :meth:`append` / :meth:`extend_columns`, which keep
    availability non-decreasing (``times`` is bisected on every poll).
    """

    __slots__ = ("topic", "index", "times", "payloads", "sizes", "rid_cache")

    def __init__(self, topic: str, index: int):
        self.topic = topic
        self.index = index
        self.times: list[float] = []
        self.payloads: list[Any] = []
        self.sizes: list[int] = []
        #: the consuming engine's ``(rid prefix, lineage id per offset)``,
        #: the ids as an ``array('Q')`` of 8-byte words, derived on first
        #: poll and shared by every run replaying this log; any write
        #: drops it, so a short column is never served
        self.rid_cache: tuple[int, array] | None = None

    def __len__(self) -> int:
        return len(self.times)

    @property
    def records(self) -> Sequence[LogRecord]:
        """Every appended record, in offset order (a read-only row view)."""
        return _RecordView(self)

    def append(self, available_at: float, payload: Any, size_bytes: int) -> int:
        """Append one record and return its offset.

        Availability timestamps must be non-decreasing.
        """
        times = self.times
        if times and available_at < times[-1]:
            raise ValueError(
                f"out-of-order availability: {available_at} < {times[-1]}"
            )
        times.append(available_at)
        self.payloads.append(payload)
        self.sizes.append(size_bytes)
        self.rid_cache = None
        return len(times) - 1

    def extend_columns(self, times: list[float], payloads: list[Any],
                       sizes: list[int]) -> None:
        """Bulk append of three parallel columns.

        Accepts and rejects exactly what appending the rows one by one
        would (same ``ValueError``), except that a rejected call appends
        nothing at all.
        """
        if not len(times) == len(payloads) == len(sizes):
            raise ValueError(
                f"unequal column lengths: {len(times)} times, "
                f"{len(payloads)} payloads, {len(sizes)} sizes"
            )
        # the comparison ``append`` makes, over the last stored time and
        # the new ones.  With no neighbour ``<`` its predecessor the list
        # is one timsort run, so ``sorted`` is one C pass that returns
        # the same objects in the same order; and ``sorted`` never leaves
        # such a neighbour pair behind, so an equal result means there is
        # none (DESIGN.md section 20).  Only a mismatch pays for the
        # pairwise scan that names the first pair
        joined = [*self.times[-1:], *times]
        if sorted(joined) != joined:
            out_of_order = list(map(lt, joined[1:], joined))
            if True in out_of_order:
                first = out_of_order.index(True)
                raise ValueError(
                    f"out-of-order availability: {joined[first + 1]} < "
                    f"{joined[first]}"
                )
        self.times.extend(times)
        self.payloads.extend(payloads)
        self.sizes.extend(sizes)
        self.rid_cache = None

    def poll_end(self, offset: int, now: float, max_records: int) -> int:
        """One past the last offset a poll from ``offset`` may read at ``now``.

        At most ``max_records`` records, none available later than ``now``;
        a result ``<= offset`` means there is nothing to read.
        """
        return min(bisect_right(self.times, now), offset + max_records)


class PartitionedLog:
    """A topic with N partitions (one per parallel source instance)."""

    def __init__(self, topic: str, num_partitions: int):
        if num_partitions <= 0:
            raise ValueError("num_partitions must be positive")
        self.topic = topic
        self.partitions = [Partition(topic, i) for i in range(num_partitions)]

    @classmethod
    def round_robin(cls, topic: str, num_partitions: int, times: list[float],
                    payloads: list[Any], size_bytes: int) -> PartitionedLog:
        """Deal one global timeline out to ``num_partitions`` partitions.

        Partition ``i`` takes every ``num_partitions``-th row starting at
        ``i`` — what appending row ``k`` to partition ``k % num_partitions``
        builds.  A stride of a non-decreasing timeline is non-decreasing,
        which :meth:`Partition.extend_columns` checks all the same.  Every
        row carries the one modelled wire size of the topic's event class.
        """
        log = cls(topic, num_partitions)
        for i, partition in enumerate(log.partitions):
            stride = times[i::num_partitions]
            partition.extend_columns(stride, payloads[i::num_partitions],
                                     [size_bytes] * len(stride))
        return log

    def __len__(self) -> int:
        return sum(len(p) for p in self.partitions)

    def partition(self, index: int) -> Partition:
        """The partition at ``index``."""
        return self.partitions[index]
