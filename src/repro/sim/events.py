"""Event primitives for the discrete-event simulator.

Events are callbacks scheduled at a virtual timestamp.  Ties are broken by a
monotonically increasing sequence number so that execution order is fully
deterministic for a given schedule order — a requirement for reproducible
experiments and for the exactly-once recovery tests, which re-run the same
workload twice and compare state.

A scheduled event *is* its heap entry: the four-slot list
``[time, seq, fn, args]`` that :meth:`EventQueue.push` builds is both what
the heap orders and the handle the caller gets back — one allocation per
event.  List comparison runs entirely in C (floats, then ints) and, since
sequence numbers are unique, never reaches the callback slot.

Cancellation is lazy (:meth:`EventQueue.cancel` blanks the callback slot,
the entry stays in the heap and is skipped when it surfaces), which keeps
scheduling O(log n) — but a workload that cancels and reschedules
constantly would grow the heap without bound.  The queue therefore tracks
its cancelled debt and compacts when cancelled entries are both numerous
and the majority of the heap; compaction only removes entries ``pop``
would skip anyway, and heap order is a total order on unique
``(time, seq)`` pairs, so the live-event pop sequence is provably
unchanged.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable

#: a scheduled event, which is its own heap entry: ``[time, seq, fn, args]``
#: (``fn`` is ``None`` once cancelled).  Treat it as opaque outside
#: ``repro.sim`` — hand it back to :meth:`EventQueue.cancel` /
#: :meth:`repro.sim.simulator.Simulator.cancel`.
EventHandle = list[Any]


class EventQueue:
    """A priority queue of :data:`EventHandle` entries, deterministically ordered."""

    __slots__ = ("_heap", "_seq", "_cancelled")

    #: compaction threshold: rebuild the heap once at least this many
    #: cancelled entries sit in it *and* they are at least half of it —
    #: the half condition amortises compaction to O(1) per cancellation,
    #: the floor keeps tiny queues from compacting on every cancel
    COMPACT_MIN_CANCELLED = 256

    def __init__(self) -> None:
        self._heap: list[EventHandle] = []
        self._seq = 0
        self._cancelled = 0

    def __len__(self) -> int:
        """Live (non-cancelled) events currently scheduled."""
        return len(self._heap) - self._cancelled

    def push(self, time: float, fn: Callable[..., Any], args: tuple = ()) -> EventHandle:
        """Schedule ``fn(*args)`` at virtual time ``time``."""
        seq = self._seq
        self._seq = seq + 1
        entry: EventHandle = [time, seq, fn, args]
        heapq.heappush(self._heap, entry)
        return entry

    def pop(self, limit: float = math.inf) -> EventHandle | None:
        """Remove and return the next live event no later than ``limit``.

        Returns ``None`` when the queue is empty or its next event lies
        after ``limit`` (an event at exactly ``limit`` is returned).
        Cancelled entries surfacing on the way are discarded.
        """
        heap = self._heap
        while heap:
            if heap[0][0] > limit:
                return None
            entry = heapq.heappop(heap)
            if entry[2] is not None:
                return entry
            self._cancelled -= 1
        return None

    def cancel(self, entry: EventHandle) -> None:
        """Mark a pending event so :meth:`pop` skips it (idempotent).

        Only for entries still in the queue: an already executed event
        has nothing left to cancel.
        """
        if entry[2] is None:
            return
        entry[2] = None
        entry[3] = ()
        self._cancelled += 1
        if (self._cancelled >= self.COMPACT_MIN_CANCELLED
                and self._cancelled * 2 >= len(self._heap)):
            self._compact()

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
        self._cancelled = 0

    def _compact(self) -> None:
        """Rebuild the heap without its cancelled entries.

        Pop order is unchanged: a heap pops entries in ascending
        ``(time, seq)`` order — a *total* order, since sequence numbers
        are unique — whatever its internal layout, and compaction only
        removes entries :meth:`pop` would skip anyway.
        """
        self._heap = [entry for entry in self._heap if entry[2] is not None]
        heapq.heapify(self._heap)
        self._cancelled = 0
