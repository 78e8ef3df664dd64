"""Discrete-event simulation substrate.

The paper's testbed is a real docker cluster; this package replaces it with
a deterministic virtual-time event loop (see DESIGN.md section 2).  All
durations in the simulation are *virtual seconds* — they never consume wall
clock time, which is what lets the benchmark harness sweep the paper's
parameter grid on a laptop.
"""

from repro.sim.events import EventHandle, EventQueue
from repro.sim.simulator import Simulator
from repro.sim.costs import CostModel
from repro.sim.rng import RngRegistry
from repro.sim.failure import (
    AdaptiveIntervalController,
    FailureEvent,
    FailureInjector,
    FailureScenario,
    parse_scenario,
    scenario_from_config,
    young_daly_interval,
)

__all__ = [
    "EventHandle",
    "EventQueue",
    "Simulator",
    "CostModel",
    "RngRegistry",
    "AdaptiveIntervalController",
    "FailureEvent",
    "FailureInjector",
    "FailureScenario",
    "parse_scenario",
    "scenario_from_config",
    "young_daly_interval",
]
