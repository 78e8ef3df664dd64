"""Experiment scales.

The paper's grid (parallelism 5..100, 60-second runs) is expensive in a
pure-Python simulation, so three scales are provided:

* ``quick``   — CI smoke: tiny grids, short windows (seconds of wall time);
* ``default`` — the shape-reproducing grid (minutes of wall time);
* ``full``    — the paper's exact grid (tens of minutes of wall time).

Select one with ``repro run|all --scale quick|default|full``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ExperimentScale:
    """All knobs that trade fidelity for wall-clock time."""

    name: str
    #: parallelism grid for Figs. 7, 8, 11 (paper: 5,10,30,50,70,100)
    parallelism_grid: tuple[int, ...]
    #: parallelism grid for the latency series, Figs. 9/10 (paper: 10,30,50)
    latency_grid: tuple[int, ...]
    #: worker counts for Tables II and III (paper: 10, 50)
    table_workers: tuple[int, ...]
    #: worker counts for Table IV (paper: 5, 10)
    cyclic_workers: tuple[int, ...]
    #: measured window of failure/latency runs (paper: 60 s)
    duration: float
    #: warmup before the measured window (paper: 30 s)
    warmup: float
    #: failure instant within the window (paper: 18 s)
    failure_at: float
    #: probe length for MST searches
    probe_duration: float
    probe_warmup: float
    #: bisection depth of MST searches
    mst_iterations: int
    #: hot-item ratios for Figs. 12/13 (paper: 10%, 20%, 30%)
    hot_ratios: tuple[float, ...] = (0.10, 0.20, 0.30)
    seed: int = 7


_SCALES = {
    "quick": ExperimentScale(
        name="quick",
        parallelism_grid=(4,),
        latency_grid=(4,),
        table_workers=(4,),
        cyclic_workers=(4,),
        duration=24.0,
        warmup=6.0,
        failure_at=10.0,
        probe_duration=8.0,
        probe_warmup=4.0,
        mst_iterations=2,
        hot_ratios=(0.10, 0.30),
    ),
    "default": ExperimentScale(
        name="default",
        parallelism_grid=(5, 10, 30),
        latency_grid=(10, 30),
        table_workers=(10, 50),
        cyclic_workers=(5, 10),
        duration=60.0,
        warmup=10.0,
        failure_at=18.0,
        probe_duration=10.0,
        probe_warmup=5.0,
        mst_iterations=3,
    ),
    "full": ExperimentScale(
        name="full",
        parallelism_grid=(5, 10, 30, 50, 70, 100),
        latency_grid=(10, 30, 50),
        table_workers=(10, 50),
        cyclic_workers=(5, 10),
        duration=60.0,
        warmup=30.0,
        failure_at=18.0,
        probe_duration=12.0,
        probe_warmup=6.0,
        mst_iterations=4,
    ),
}


def scale_by_name(name: str) -> ExperimentScale:
    """Look an experiment scale up by name ('quick'|'default'|'full')."""
    return _SCALES[name]
