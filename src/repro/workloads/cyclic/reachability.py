"""The cyclic reachability query (paper Fig. 6, adapted from FFP [21]).

Given temporal streams of directed links and source nodes, compute every
node reachable from a source together with the path.  The execution graph::

    links    --key(src)-->   JOIN --fwd--> SELECT --fwd--> PROJECT --fwd--> SINK
    srcnodes --key(node)-->   ^                                |
                              +------- key(reach) -------------+   (feedback)

* **JOIN** stores links by start node and reachability facts ("sources")
  by their frontier node; link/source arrivals probe the opposite side.
  Deletion events remove the affected links / reachability facts.
* **SELECT** discards pairs whose link end is already on the path (cycle
  guard).
* **PROJECT** builds the extended reachability fact, emits it as output
  and feeds it back into the join — the dataflow cycle that COOR's aligned
  markers cannot handle (deadlock) but UNC/CIC run fine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import (
    FilterOperator,
    Operator,
    OperatorContext,
    SinkOperator,
    SourceOperator,
)
from repro.dataflow.records import StreamRecord, joined_rid
from repro.dataflow.state import KeyedListState
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.cyclic.generator import (
    CyclicGenerator,
    LinkEvent,
    SourceEvent,
)
from repro.workloads.spec import QuerySpec

PAIR_SIZE = 96
FACT_SIZE = 72


@dataclass(frozen=True, slots=True)
class ReachFact:
    """'origin reaches ``reach`` via ``path``' — flows on the feedback loop."""

    origin: int
    reach: int
    path: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        """Serialized size used by the cost model."""
        return FACT_SIZE + 8 * len(self.path)


@dataclass(frozen=True, slots=True)
class JoinPair:
    """A reachability fact meeting a link that extends it."""

    fact: ReachFact
    link_src: int
    link_dst: int

    @property
    def size_bytes(self) -> int:
        """Serialized size used by the cost model."""
        return PAIR_SIZE + 8 * len(self.fact.path)


class ReachJoinOperator(Operator):
    """Symmetric join of links (by start node) and facts (by frontier node)."""

    cpu_per_record = 0.0030

    def open(self, ctx: OperatorContext) -> None:
        """Register the link and reachable-set states."""
        super().open(ctx)
        #: start node -> [dst, ...]
        self._links = self.states.register("links", KeyedListState(entry_bytes=24))
        #: frontier node -> [(origin, path), ...]
        self._facts = self.states.register("facts", KeyedListState(entry_bytes=64))
        #: origin -> [frontier keys holding facts of this origin] (delete index)
        self._origins = self.states.register("origins", KeyedListState(entry_bytes=16))

    # -- helpers --------------------------------------------------------- #

    def _emit_pair(self, fact_rid: int, fact: ReachFact, link_rid: int,
                   src: int, dst: int, source_ts: float) -> StreamRecord:
        pair = JoinPair(fact=fact, link_src=src, link_dst=dst)
        return StreamRecord(
            rid=joined_rid(self.ctx.op_name, fact_rid, link_rid),
            payload=pair,
            source_ts=source_ts,
            size_bytes=pair.size_bytes,
        )

    def _store_fact(self, record: StreamRecord, fact: ReachFact) -> list[StreamRecord]:
        self._facts.append(fact.reach, (record.rid, fact, record.source_ts),
                           size_bytes=48 + 8 * len(fact.path))
        self._origins.append(fact.origin, fact.reach)
        outputs = []
        for dst, link_rid in self._links.get(fact.reach):
            outputs.append(
                self._emit_pair(record.rid, fact, link_rid,
                                fact.reach, dst, record.source_ts)
            )
        return outputs

    # -- processing ------------------------------------------------------ #

    def process(self, record: StreamRecord, port: str) -> list[StreamRecord]:
        """Join new links/facts and emit newly reachable pairs."""
        payload = record.payload
        if port == "link":
            event: LinkEvent = payload
            if event.add:
                self._links.append(event.src, (event.dst, record.rid))
                outputs = []
                for fact_rid, fact, fact_ts in self._facts.get(event.src):
                    outputs.append(
                        self._emit_pair(fact_rid, fact, record.rid,
                                        event.src, event.dst,
                                        max(record.source_ts, fact_ts))
                    )
                return outputs
            self._links.remove_value(event.src, lambda item: item[0] == event.dst)
            return []
        if port == "source":
            if isinstance(payload, SourceEvent):
                if payload.add:
                    fact = ReachFact(payload.node, payload.node, (payload.node,))
                    return self._store_fact(record, fact)
                # deletion: drop every fact of this origin via the index
                for frontier in self._origins.get(payload.node):
                    self._facts.remove_value(
                        frontier, lambda item: item[1].origin == payload.node
                    )
                self._origins.delete(payload.node)
                return []
            fact: ReachFact = payload  # feedback from PROJECT
            return self._store_fact(record, fact)
        raise ValueError(f"unknown port {port!r}")


class ProjectOperator(Operator):
    """Extend the path with the link end and emit the new reachability fact."""

    cpu_per_record = 0.0015

    def process(self, record: StreamRecord, port: str) -> list[StreamRecord]:
        """Project join pairs back into reachability facts (the cycle)."""
        pair: JoinPair = record.payload
        fact = ReachFact(
            origin=pair.fact.origin,
            reach=pair.link_dst,
            path=pair.fact.path + (pair.link_dst,),
        )
        return [record.derive(self.ctx.op_name, fact, fact.size_bytes)]


def build_reachability(parallelism: int) -> LogicalGraph:
    """Assemble the Fig. 6 execution graph (contains a directed cycle)."""
    graph = LogicalGraph("reachability")
    graph.add_source("source_links", "links", SourceOperator)
    graph.add_source("source_nodes", "srcnodes", SourceOperator)
    graph.add_operator("join_reach", ReachJoinOperator, stateful=True)
    graph.add_operator(
        "select_acyclic",
        lambda: FilterOperator(
            lambda pair: pair.link_dst not in pair.fact.path
        ),
    )
    graph.add_operator("project_extend", ProjectOperator)
    graph.add_operator("sink", SinkOperator)
    graph.connect("source_links", "join_reach", Partitioning.KEY,
                  key_fn=lambda e: e.src, port="link")
    graph.connect("source_nodes", "join_reach", Partitioning.KEY,
                  key_fn=lambda e: e.node, port="source")
    graph.connect("join_reach", "select_acyclic", Partitioning.FORWARD)
    graph.connect("select_acyclic", "project_extend", Partitioning.FORWARD)
    graph.connect("project_extend", "sink", Partitioning.FORWARD)
    # the feedback loop that makes the dataflow cyclic
    graph.connect("project_extend", "join_reach", Partitioning.KEY,
                  key_fn=lambda fact: fact.reach, port="source")
    return graph


def _cyclic_inputs(rate: float, until: float, parallelism: int,
                   hot_ratio: float, seed: int,
                   arrival: ArrivalProcess | None = None) -> dict[str, PartitionedLog]:
    if hot_ratio:  # the event mix draws nodes uniformly: no key is hot
        raise ValueError(f"reachability has no hot keys, got {hot_ratio}")
    generator = CyclicGenerator(parallelism, seed=seed)
    links, srcnodes = generator.logs(rate, until, arrival=arrival)
    return {"links": links, "srcnodes": srcnodes}


REACHABILITY = QuerySpec(
    name="reachability",
    description="cyclic reachability query with feedback loop (Fig. 6)",
    build_graph=build_reachability,
    build_inputs=_cyclic_inputs,
    capacity_per_worker=170.0,
    cyclic=True,
)
