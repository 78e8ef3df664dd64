"""Scoped pause of the cyclic garbage collector.

The event loop and the input generators allocate containers by the
hundred thousand that all die by reference count (or are meant to live:
the generated log), while every collection they would trigger
re-traverses the live input logs, send logs and operator state to find
nothing.  Both therefore run with the collector paused — and both are
guarded by tier-1 tests asserting ``gc.collect()`` finds nothing
unreachable right after them, the invariant that makes pausing safe
(``tests/test_sim_simulator.py``, DESIGN.md sections 19 and 20).

This is the only ``gc.disable()`` call site in ``src/`` (a CI grep holds
it to that): a second, hand-rolled copy is how a pause ends up not
restored on an error path.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause the cyclic collector; restore the caller's setting on exit.

    Nesting is safe: an inner pause sees the collector already off and
    leaves it off on its way out.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()
