"""Host-speed calibration: what lets a noisy VM give steady numbers.

On small shared VMs the same code runs up to 1.5x slower for milliseconds
to minutes at a time (contention for the core, not steal: CPU time moves
with wall time), so even the minimum of many samples drifts with the
host's mood.  The slowdown is common to all single-threaded Python code,
though, so every timed section is bracketed by runs of a fixed kernel with
the simulator's instruction mix — small-object allocation, dict stores,
heap pushes and pops — and reported as *time relative to the kernel*,
scaled to a host on which the kernel takes :data:`NOMINAL_S`.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time

#: the kernel's time on the reference host (this repo's 2-vCPU CI box at
#: its best); normalised seconds read like that host's seconds
NOMINAL_S = 0.0035
#: calibrate for at least this share of a timed section's own duration,
#: so long sections get an estimate of the host as good as their own
SHARE = 0.15
_KERNEL_STEPS = 3700


class _Cell:
    __slots__ = ("rank", "weight", "pair")

    def __init__(self, rank: int, weight: float, pair: tuple[int, int]) -> None:
        self.rank = rank
        self.weight = weight
        self.pair = pair


def spin() -> float:
    """Run the kernel once; its wall time in seconds.

    Garbage collection is off inside: the kernel's allocations must not
    trigger a traversal of whatever the program under test left behind.
    """
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    heap: list[tuple[int, int, _Cell]] = []
    cells = []
    index = {}
    push, pop = heapq.heappush, heapq.heappop
    for step in range(_KERNEL_STEPS):
        cell = _Cell(step, float(step), (step, step + 1))
        cells.append(cell)
        index[step] = cell
        push(heap, ((step * 7919) % 10007, step, cell))
    total = 0
    while heap:
        total += pop(heap)[1]
    elapsed = time.perf_counter() - start
    if collecting:
        gc.enable()
    if total != sum(cell.rank for cell in cells) or len(index) != len(cells):
        raise AssertionError("calibration kernel miscounted")
    return elapsed


def bracket(before: list[float], elapsed: float) -> float:
    """The kernel's mean time around a section that took ``elapsed`` seconds.

    ``before`` holds kernel runs made just before the section; as many
    follow it, and more until :data:`SHARE` of ``elapsed`` is spent.  The
    mean, not the median: the section's own time is its mean exposure to
    the host's fast and slow moments, and the estimate must match that.
    """
    samples = before + [spin() for _ in before]
    spent = sum(samples[len(before):])
    while spent < SHARE * elapsed:
        samples.append(spin())
        spent += samples[-1]
    return statistics.fmean(samples)


def normalised(seconds: float, kernel_s: float, sensitivity: float = 1.0) -> float:
    """``seconds`` as they would read on the reference host.

    ``sensitivity`` is how strongly the timed code follows the kernel
    through the host's slow spells (1: fully; 0: not at all, raw seconds).
    """
    return seconds * (NOMINAL_S / kernel_s) ** sensitivity
