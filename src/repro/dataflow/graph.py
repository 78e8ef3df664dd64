"""Logical dataflow graphs.

A graph is a set of named operators and directed edges.  Edges carry a
partitioning strategy (forward / key-hash) and a destination
*port* so multi-input operators (joins) can tell their inputs apart.
A graph may have cycles; the coordinated protocols reject them at
deployment, exactly as in the paper (Section III-A drawbacks).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable


class GraphError(ValueError):
    """Raised for malformed dataflow graphs."""


class UnsupportedTopologyError(GraphError):
    """Raised when a protocol cannot run on the given topology."""


class Partitioning(enum.Enum):
    """How records are routed from a producer instance to consumer instances."""

    #: instance i sends to instance i (requires equal parallelism)
    FORWARD = "forward"
    #: route by hash of a key extracted from the record payload
    KEY = "key"


@dataclass(frozen=True)
class EdgeSpec:
    """A directed edge in the logical graph."""

    edge_id: int
    src: str
    dst: str
    partitioning: Partitioning
    key_fn: Callable[[Any], Any] | None
    port: str

    def __post_init__(self) -> None:
        if self.partitioning is Partitioning.KEY and self.key_fn is None:
            raise GraphError(f"edge {self.src}->{self.dst}: KEY partitioning needs key_fn")


@dataclass
class OperatorSpec:
    """A named operator in the logical graph."""

    name: str
    factory: Callable[[], Any]
    stateful: bool = False
    is_source: bool = False
    source_topic: str | None = None

    def __post_init__(self) -> None:
        if self.is_source and not self.source_topic:
            raise GraphError(f"source operator {self.name!r} needs a topic")


class LogicalGraph:
    """Builder and container for a dataflow topology."""

    def __init__(self, name: str = "job") -> None:
        self.name = name
        self.operators: dict[str, OperatorSpec] = {}
        self.edges: list[EdgeSpec] = []
        self._next_edge_id = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_source(self, name: str, topic: str, factory: Callable[[], Any]) -> "LogicalGraph":
        """Add a source operator that pulls from log partition ``topic``."""
        self._add(OperatorSpec(name, factory, stateful=True, is_source=True, source_topic=topic))
        return self

    def add_operator(
        self, name: str, factory: Callable[[], Any], stateful: bool = False
    ) -> "LogicalGraph":
        """Add a non-source operator."""
        self._add(OperatorSpec(name, factory, stateful=stateful))
        return self

    def _add(self, spec: OperatorSpec) -> None:
        if spec.name in self.operators:
            raise GraphError(f"duplicate operator name {spec.name!r}")
        self.operators[spec.name] = spec

    def connect(
        self,
        src: str,
        dst: str,
        partitioning: Partitioning = Partitioning.FORWARD,
        key_fn: Callable[[Any], Any] | None = None,
        port: str = "in",
    ) -> "LogicalGraph":
        """Add an edge ``src -> dst``."""
        for name in (src, dst):
            if name not in self.operators:
                raise GraphError(f"unknown operator {name!r}")
        if self.operators[dst].is_source:
            raise GraphError(f"cannot connect into source {dst!r}")
        edge = EdgeSpec(self._next_edge_id, src, dst, partitioning, key_fn, port)
        self._next_edge_id += 1
        self.edges.append(edge)
        return self

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def out_edges(self, name: str) -> list[EdgeSpec]:
        """Edges leaving operator ``name``."""
        return [e for e in self.edges if e.src == name]

    def in_edges(self, name: str) -> list[EdgeSpec]:
        """Edges entering operator ``name``."""
        return [e for e in self.edges if e.dst == name]

    def sources(self) -> list[OperatorSpec]:
        """Operator specs marked as sources."""
        return [spec for spec in self.operators.values() if spec.is_source]

    def operator_order(self) -> list[str]:
        """Stable order of operator names (insertion order)."""
        return list(self.operators)

    def has_cycle(self) -> bool:
        """True if the edge set contains a directed cycle.

        Kahn's algorithm: peel operators with no remaining inbound edge;
        whatever cannot be peeled sits on (or behind) a cycle.  Iterative
        on purpose — a recursive local function is a reference cycle of
        its own, i.e. cyclic garbage per call (DESIGN.md section 20).
        """
        adjacency: dict[str, list[str]] = {name: [] for name in self.operators}
        inbound = {name: 0 for name in self.operators}
        for edge in self.edges:
            adjacency[edge.src].append(edge.dst)
            inbound[edge.dst] += 1
        ready = [name for name, count in inbound.items() if count == 0]
        peeled = 0
        while ready:
            peeled += 1
            for nxt in adjacency[ready.pop()]:
                inbound[nxt] -= 1
                if inbound[nxt] == 0:
                    ready.append(nxt)
        return peeled < len(self.operators)

    def validate(self) -> None:
        """Check structural invariants; raise :class:`GraphError` on problems.

        A cycle is no such problem: whether one can run depends on the
        protocol and the channels (``repro.dataflow.runtime.check_topology``).
        A source with inbound edges is not checked here: :meth:`connect`,
        the only way to add an edge, refuses one.
        """
        if not self.operators:
            raise GraphError("graph has no operators")
        if not self.sources():
            raise GraphError("graph has no source operators")
        for spec in self.operators.values():
            if not spec.is_source and not self.in_edges(spec.name):
                raise GraphError(f"operator {spec.name!r} is unreachable (no inputs)")

    def describe(self) -> str:
        """Human-readable topology summary (used by examples)."""
        lines = [f"graph {self.name!r}:"]
        for spec in self.operators.values():
            kind = "source" if spec.is_source else ("stateful" if spec.stateful else "stateless")
            lines.append(f"  {spec.name} [{kind}]")
        for edge in self.edges:
            lines.append(
                f"  {edge.src} -> {edge.dst} ({edge.partitioning.value}, port={edge.port})"
            )
        return "\n".join(lines)


def validate_rescale(graph: LogicalGraph, from_parallelism: int,
                     to_parallelism: int, max_key_groups: int) -> None:
    """Check that a checkpoint taken at ``from_parallelism`` can be
    restored at ``to_parallelism``.

    The target must be a positive parallelism within the key-group space
    (an instance with no key groups could never receive keyed records).
    A rescaled restore can then only re-shard state that is addressed by
    key groups: a stateful non-source operator must be fed exclusively by
    KEY edges (its keyed state is split/merged along the routing groups;
    state behind a FORWARD edge has no key address to move it by).

    Sources are exempt: their state is the per-partition input cursor,
    re-bound by the partition assignment instead of key groups.
    """
    from repro.dataflow.keygroups import validate_key_space

    validate_key_space(to_parallelism, max_key_groups,
                       context="rescale target parallelism")
    if to_parallelism == from_parallelism:
        return
    for edge in graph.edges:
        dst = graph.operators[edge.dst]
        if (dst.stateful and not dst.is_source
                and edge.partitioning is not Partitioning.KEY):
            raise GraphError(
                f"cannot rescale {from_parallelism}->{to_parallelism}: "
                f"stateful operator {edge.dst!r} is fed by a "
                f"{edge.partitioning.value} edge from {edge.src!r}; only "
                "key-addressed state can be repartitioned"
            )
