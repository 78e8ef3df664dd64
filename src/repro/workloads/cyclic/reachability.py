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
from operator import attrgetter

from repro.dataflow.batch import RecordBatch
from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import (
    FilterOperator,
    MapOperator,
    Operator,
    OperatorContext,
    SinkOperator,
    SourceOperator,
)
from repro.dataflow.records import joined_rid
from repro.dataflow.state import KeyedListState
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.cyclic.generator import CyclicGenerator, SourceEvent
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
        #: start node -> [(dst, link rid), ...]
        self._links = self.states.register("links", KeyedListState(entry_bytes=24))
        #: frontier node -> [(fact rid, fact, source_ts), ...]
        self._facts = self.states.register("facts", KeyedListState(entry_bytes=64))
        #: origin -> [frontier keys holding facts of this origin] (delete index)
        self._origins = self.states.register("origins", KeyedListState(entry_bytes=16))

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Join new links / facts and emit the newly reachable pairs.

        A batch arrives on one port and its rows run in column order, so
        an add and a delete of one link or origin in the same batch act
        as they would a message apart.  A pair's rid is the
        order-invariant ``joined_rid`` of its fact and its link.
        """
        op = self.ctx.op_name
        links, facts, origins = self._links, self._facts, self._origins
        rids: list[int] = []
        pairs: list[JoinPair] = []
        times: list[float] = []
        rows = zip(batch.rids, batch.payloads, batch.source_ts)
        if port == "link":
            for rid, event, ts in rows:
                src, dst = event.src, event.dst
                if not event.add:
                    links.remove_value(src, lambda item: item[0] == dst)
                    continue
                links.append(src, (dst, rid))
                for fact_rid, fact, fact_ts in facts.get(src):
                    rids.append(joined_rid(op, fact_rid, rid))
                    pairs.append(JoinPair(fact, src, dst))
                    times.append(ts if ts >= fact_ts else fact_ts)
        elif port == "source":
            for rid, payload, ts in rows:
                if isinstance(payload, SourceEvent):
                    node = payload.node
                    if not payload.add:
                        # drop every fact of this origin via the index
                        for frontier in origins.get(node):
                            facts.remove_value(
                                frontier, lambda item: item[1].origin == node)
                        origins.delete(node)
                        continue
                    fact = ReachFact(node, node, (node,))
                else:
                    fact = payload  # feedback from PROJECT
                reach = fact.reach
                facts.append(reach, (rid, fact, ts),
                             size_bytes=48 + 8 * len(fact.path))
                origins.append(fact.origin, reach)
                for dst, link_rid in links.get(reach):
                    rids.append(joined_rid(op, rid, link_rid))
                    pairs.append(JoinPair(fact, reach, dst))
                    times.append(ts)
        else:
            raise ValueError(f"unknown port {port!r}")
        if not rids:
            return None
        return RecordBatch(rids, pairs, times,
                           [pair.size_bytes for pair in pairs])


def extend_path(pair: JoinPair) -> ReachFact:
    """PROJECT: the fact extended by its link's end (the cycle's payload)."""
    fact = pair.fact
    return ReachFact(fact.origin, pair.link_dst, fact.path + (pair.link_dst,))


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
    graph.add_operator("project_extend",
                       lambda: MapOperator(extend_path,
                                           out_size=attrgetter("size_bytes")))
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
