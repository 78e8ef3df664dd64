"""Virtual-time discrete-event simulator.

A :class:`Simulator` owns the virtual clock and an event queue.  Components
schedule callbacks with :meth:`Simulator.schedule` (relative delay) or
:meth:`Simulator.schedule_at` (absolute time) and the loop executes them in
timestamp order.  The clock only moves when events execute, so simulated
seconds are free — only the *number* of events costs wall-clock time.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Any, Callable

from repro.sim.collector import collector_paused
from repro.sim.events import EventHandle, EventQueue


class SimulationError(RuntimeError):
    """Raised on invalid scheduling (e.g. scheduling in the past)."""


class Simulator:
    """Deterministic single-threaded discrete-event loop."""

    __slots__ = ("now", "_queue", "_running", "_stopped")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------ #
    # Scheduling
    # ------------------------------------------------------------------ #

    # Both scheduling calls push the heap entry themselves (the body of
    # EventQueue.push, minus its frame), and so do the engine's three
    # per-message callers (the task completion, the DATA arrival, the
    # poll reschedule — DESIGN.md section 19), each behind the same guard.
    # The guards are written so that NaN fails them: a NaN time would
    # become ``now`` and every later relative schedule would inherit it.

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` virtual seconds."""
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay {delay!r}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        entry: EventHandle = [self.now + delay, seq, fn, args]
        heappush(queue._heap, entry)
        return entry

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at absolute virtual time ``time``."""
        if not time >= self.now:
            raise SimulationError(f"cannot schedule at {time!r}, now is {self.now!r}")
        queue = self._queue
        seq = queue._seq
        queue._seq = seq + 1
        entry: EventHandle = [time, seq, fn, args]
        heappush(queue._heap, entry)
        return entry

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a still-pending event returned by a scheduling call."""
        self._queue.cancel(handle)

    def clear(self) -> None:
        """Drop every pending event (and the callbacks they hold)."""
        self._queue.clear()

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def pending_events(self) -> int:
        """Events still scheduled (cancelled ones excluded)."""
        return len(self._queue)

    def stop(self) -> None:
        """Request the run loop to halt after the current event."""
        self._stopped = True

    def _loop(self, limit: float) -> None:
        """Execute events no later than ``limit`` until none is left.

        The cyclic collector is paused for the duration of the loop (see
        :mod:`repro.sim.collector`): the loop allocates millions of
        containers (heap entries, batches, messages) that die by reference
        count — simulator callbacks leave no unreachable cycles
        (``tests/test_sim_simulator.py`` guards that on real runs).
        """
        if self._running:
            raise SimulationError("simulator is re-entrant only via schedule()")
        self._running = True
        self._stopped = False
        pop = self._queue.pop
        try:
            with collector_paused():
                while not self._stopped:
                    entry = pop(limit)
                    if entry is None:
                        break
                    self.now = entry[0]
                    entry[2](*entry[3])
        finally:
            self._running = False

    def run_until(self, t_end: float) -> None:
        """Execute events with timestamp <= ``t_end``; clock ends at ``t_end``.

        Events scheduled exactly at ``t_end`` are executed.
        """
        self._loop(t_end)
        if not self._stopped and self.now < t_end:
            self.now = t_end

    def run(self) -> None:
        """Execute until the event queue drains (or :meth:`stop` is called)."""
        self._loop(math.inf)
