"""Event primitives for the discrete-event simulator.

Events are callbacks scheduled at a virtual timestamp.  Ties are broken by a
monotonically increasing sequence number so that execution order is fully
deterministic for a given schedule order — a requirement for reproducible
experiments and for the exactly-once recovery tests, which re-run the same
workload twice and compare state.

A scheduled event *is* its heap entry: the four-slot list
``[time, seq, fn, args]`` that a scheduling call pushes is all the heap
orders — one allocation per event.  List comparison runs entirely in C
(floats, then ints) and, since sequence numbers are unique, never reaches
the callback slot.  No event is ever cancelled: stale work is dropped by
the epoch guards of the callbacks themselves (DESIGN.md section 2).
"""

from __future__ import annotations

import math
from heapq import heappop
from typing import Any


class EventQueue:
    """A priority queue of ``[time, seq, fn, args]`` entries, in time order.

    The scheduling calls (:meth:`repro.sim.simulator.Simulator.schedule`,
    ``schedule_at``) and the engine's per-message callers push onto
    ``_heap`` themselves, drawing sequence numbers from ``_seq``.
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: list[list[Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        """Events currently scheduled."""
        return len(self._heap)

    def pop(self, limit: float = math.inf) -> list[Any] | None:
        """Remove and return the next event no later than ``limit``.

        Returns ``None`` when the queue is empty or its next event lies
        after ``limit`` (an event at exactly ``limit`` is returned).
        """
        heap = self._heap
        if heap and heap[0][0] <= limit:
            return heappop(heap)
        return None

    def clear(self) -> None:
        """Drop every pending event."""
        self._heap.clear()
