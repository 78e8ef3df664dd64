"""The Styx-like streaming dataflow testbed (paper Section IV).

A :class:`~repro.dataflow.graph.LogicalGraph` describes operators and edges;
:class:`~repro.dataflow.runtime.Job` deploys one parallel instance of every
operator onto each simulated worker (the paper's deployment model), wires
FIFO channels between instances, and executes the dataflow on the
discrete-event simulator under a pluggable checkpointing protocol.
"""

from repro.dataflow.graph import LogicalGraph, Partitioning, EdgeSpec, OperatorSpec
from repro.dataflow.operators import (
    Operator,
    SourceOperator,
    MapOperator,
    FilterOperator,
    IncrementalJoinOperator,
    WindowedJoinOperator,
    WindowedCountOperator,
    SinkOperator,
)
from repro.dataflow.state import ValueState, KeyedMapState, KeyedListState
from repro.dataflow.results import RunResult
from repro.dataflow.runtime import Job

__all__ = [
    "LogicalGraph",
    "Partitioning",
    "EdgeSpec",
    "OperatorSpec",
    "Operator",
    "SourceOperator",
    "MapOperator",
    "FilterOperator",
    "IncrementalJoinOperator",
    "WindowedJoinOperator",
    "WindowedCountOperator",
    "SinkOperator",
    "ValueState",
    "KeyedMapState",
    "KeyedListState",
    "Job",
    "RunResult",
]
