"""Reference algorithms the suite holds ``repro.core`` and
``repro.dataflow`` to.

The runtime answers each question about a run's checkpoints with one
algorithm in :mod:`repro.core.checkpoint_graph`.  This module keeps the
literal forms the tests compare them with (DESIGN.md section 8):

* :func:`rollback_propagation` — the paper's Algorithm 1 on Wang's
  checkpoint graph (orphan edges plus same-instance successor edges),
  with the graph helpers it walks: :func:`successors`,
  :func:`reachable_from`, :func:`orphan_edges`;
* :func:`reclaimable_checkpoints` — everything strictly below the
  maximal consistent line;
* :class:`ExecutionHistory` — Netzer and Xu's Z-path search: interval
  edges rebuilt from every message sent, one search per checkpoint.  It
  places a message its receiver has not processed in the receiver's open
  interval; ``zcycle_analysis`` counts delivered messages only, so the
  two are compared on histories without messages in flight
  (:func:`delivered_history`, :func:`graph_of`);
* :class:`MessageListLog` — one channel's send log as the sent
  ``Message`` objects themselves, the representation
  :class:`~repro.core.recovery.ChannelLog` replaced (DESIGN.md
  section 8, "The send log is columnar");
* :func:`derived_rid` — the scalar lineage id of one derived record,
  which :func:`~repro.dataflow.records.derived_rids` computes a column
  at a time (DESIGN.md section 15).
"""

from __future__ import annotations

import zlib
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.core.base import CheckpointMeta, InstanceKey
from repro.core.checkpoint_graph import (
    CheckpointGraph,
    ZCycleResult,
    maximal_consistent_line,
    zcycle_analysis,
)
from repro.dataflow.channels import ChannelId, Message
from repro.dataflow.records import mix_rid

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.runtime import Job

Node = tuple[InstanceKey, int]
Interval = tuple[InstanceKey, int]


# --------------------------------------------------------------------- #
# Wang's checkpoint graph and Algorithm 1
# --------------------------------------------------------------------- #

def successors(graph: CheckpointGraph, node: Node) -> frozenset[Node]:
    """Outgoing edges: orphan edges plus the same-instance successor edge.

    ``c(i,x) -> c(j,y)`` when some message sent by ``i`` after ``c(i,x)``
    was processed by ``j`` before ``c(j,y)`` — with cursors,
    ``c(j,y).received > c(i,x).sent`` on a channel ``i -> j``.
    """
    instance, ckpt_id = node
    metas = graph.checkpoints[instance]
    ids = [m.checkpoint_id for m in metas]
    position = ids.index(ckpt_id)
    meta = metas[position]
    out: set[Node] = set()
    for channel, sender, receiver in graph.channels:
        if sender != instance:
            continue
        sent = meta.sent_cursor(channel)
        for r_meta in graph.checkpoints[receiver]:
            if r_meta.received_cursor(channel) > sent:
                out.add((receiver, r_meta.checkpoint_id))
    if position + 1 < len(ids):
        out.add((instance, ids[position + 1]))
    return frozenset(out)


def orphan_edges(graph: CheckpointGraph) -> dict[Node, set[Node]]:
    """All orphan edges (successor edges excluded)."""
    edges: dict[Node, set[Node]] = {}
    for instance, metas in graph.checkpoints.items():
        ids = [m.checkpoint_id for m in metas]
        for position, meta in enumerate(metas):
            node = (instance, meta.checkpoint_id)
            succ = set(successors(graph, node))
            if position + 1 < len(ids):
                succ.discard((instance, ids[position + 1]))
            if succ:
                edges[node] = succ
    return edges


def reachable_from(graph: CheckpointGraph, start: Node) -> set[Node]:
    """All nodes strictly reachable from ``start`` (path length >= 1)."""
    seen: set[Node] = set()
    frontier = list(successors(graph, start))
    while frontier:
        node = frontier.pop()
        if node in seen:
            continue
        seen.add(node)
        frontier.extend(successors(graph, node))
    return seen


def rollback_propagation(
        graph: CheckpointGraph) -> dict[InstanceKey, CheckpointMeta]:
    """Paper Algorithm 1: root set of freshest checkpoints, mark members
    strictly reachable from other members, replace marked members with
    their predecessor, repeat."""
    by_instance = {
        instance: {m.checkpoint_id: m for m in metas}
        for instance, metas in graph.checkpoints.items()
    }
    ordered_ids = {
        instance: [m.checkpoint_id for m in metas]
        for instance, metas in graph.checkpoints.items()
    }
    root: dict[InstanceKey, int] = {
        instance: ids[-1] for instance, ids in ordered_ids.items()
    }
    while True:
        root_nodes = sorted(root.items())
        marked: set[InstanceKey] = set()
        for node in root_nodes:
            for other in root_nodes:
                if other == node:
                    continue
                if node in reachable_from(graph, other):
                    marked.add(node[0])
                    break
        if not marked:
            break
        for instance in sorted(marked):
            ids = ordered_ids[instance]
            position = ids.index(root[instance])
            if position == 0:
                raise RuntimeError(
                    f"rollback propagation fell past the initial checkpoint of {instance}"
                )
            root[instance] = ids[position - 1]
    line = {
        instance: by_instance[instance][ckpt_id] for instance, ckpt_id in root.items()
    }
    return line


def reclaimable_checkpoints(graph: CheckpointGraph) -> list[Node]:
    """Checkpoints strictly older than the maximal consistent line.

    Once a consistent line ``L`` exists, rollback propagation never moves
    below it (sent cursors are monotone), so nothing older than ``L`` is
    ever restored again.  The implicit initial checkpoints are never
    reported.
    """
    line = maximal_consistent_line(graph)
    return [
        (instance, meta.checkpoint_id)
        for instance, metas in graph.checkpoints.items()
        for meta in metas
        if 0 < meta.checkpoint_id < line[instance].checkpoint_id
    ]


# --------------------------------------------------------------------- #
# Netzer–Xu Z-path search over the send log
# --------------------------------------------------------------------- #

@dataclass
class ExecutionHistory:
    """Everything the Z-path search needs about one run."""

    #: per instance: checkpoints oldest-first INCLUDING the initial one
    checkpoints: dict[InstanceKey, list[CheckpointMeta]]
    #: (channel, seq) for every data message that was sent
    messages: list[tuple[ChannelId, int]]
    #: channel -> (sender instance, receiver instance)
    endpoints: dict[ChannelId, tuple[InstanceKey, InstanceKey]]

    _edges: dict[Interval, set[Interval]] = field(default_factory=dict)
    _built: bool = False

    @classmethod
    def from_job(cls, job: "Job") -> "ExecutionHistory":
        """Collect the history of a finished job from its cursors: each
        channel carried messages 1 up to its sender's live ``last_sent``
        (the send log keeps only what a recovery could still replay)."""
        edges_by_id = {edge.edge_id: edge for edge in job.graph.edges}
        endpoints = {
            channel: ((edges_by_id[channel[0]].src, channel[1]), dst.key)
            for channel, dst in job.channel_dst.items()
        }
        messages = [
            (channel, seq)
            for channel, (sender, _) in endpoints.items()
            for seq in range(1, job.instance(sender).out_seq.get(channel, 0) + 1)
        ]
        checkpoints = {
            key: job.registry.with_initial(key) for key in job.instance_keys()
        }
        return cls(checkpoints=checkpoints, messages=messages, endpoints=endpoints)

    def _interval_of(self, metas: list[CheckpointMeta], channel: ChannelId,
                     seq: int, sent: bool) -> int:
        """Largest checkpoint id whose cursor is still below ``seq``.

        Interval ``x`` is the execution span after checkpoint ``x`` and
        before the next one; cursors are non-decreasing in id.
        """
        interval = 0
        for meta in metas:
            cursor = meta.sent_cursor(channel) if sent else meta.received_cursor(channel)
            if cursor < seq:
                interval = meta.checkpoint_id
            else:
                break
        return interval

    def interval_edges(self) -> dict[Interval, set[Interval]]:
        """Message edges between (instance, interval) nodes.

        A logged message its receiver has not processed lands in the
        receiver's open (last) interval.
        """
        if not self._built:
            for channel, seq in self.messages:
                sender, receiver = self.endpoints[channel]
                send_iv = self._interval_of(self.checkpoints[sender], channel, seq, True)
                recv_iv = self._interval_of(self.checkpoints[receiver], channel, seq, False)
                self._edges.setdefault((sender, send_iv), set()).add((receiver, recv_iv))
            self._built = True
        return self._edges

    def has_zcycle(self, instance: InstanceKey, checkpoint_id: int) -> bool:
        """Is there a zigzag path from checkpoint ``(instance, id)`` to itself?

        Start: any message sent by ``instance`` in interval >= id.
        Step: from a message received by ``q`` in interval ``b``, continue
        with any message sent by ``q`` in interval >= ``b`` (zigzag).
        Goal: a message received by ``instance`` in interval <= id - 1.
        """
        if checkpoint_id <= 0:
            return False  # the initial checkpoint cannot be on a Z-cycle
        edges = self.interval_edges()
        sends_by_process: dict[InstanceKey, list[int]] = {}
        for (proc, interval) in edges:
            sends_by_process.setdefault(proc, []).append(interval)
        for intervals in sends_by_process.values():
            intervals.sort()

        start_targets: list[Interval] = []
        for interval in sends_by_process.get(instance, []):
            if interval >= checkpoint_id:
                start_targets.extend(edges[(instance, interval)])
        seen: set[Interval] = set()
        frontier = list(start_targets)
        while frontier:
            proc, arrived = frontier.pop()
            if proc == instance and arrived <= checkpoint_id - 1:
                return True
            if (proc, arrived) in seen:
                continue
            seen.add((proc, arrived))
            for send_iv in sends_by_process.get(proc, []):
                if send_iv >= arrived:
                    frontier.extend(edges[(proc, send_iv)])
        return False

    def useless_checkpoints(self) -> list[tuple[InstanceKey, int]]:
        """All real (non-initial) checkpoints lying on a Z-cycle."""
        return [
            (instance, meta.checkpoint_id)
            for instance, metas in self.checkpoints.items()
            for meta in metas
            if meta.checkpoint_id > 0 and self.has_zcycle(instance, meta.checkpoint_id)
        ]

    def domino_depth(self) -> int:
        """Longest run of consecutive useless checkpoints on one instance."""
        useless = set(self.useless_checkpoints())
        worst = 0
        for instance, metas in self.checkpoints.items():
            run = 0
            for meta in metas:
                if (instance, meta.checkpoint_id) in useless:
                    run += 1
                    worst = max(worst, run)
                else:
                    run = 0
        return worst


def delivered_history(job: "Job") -> ExecutionHistory:
    """The job's history without the messages still in flight."""
    history = ExecutionHistory.from_job(job)
    received = {
        channel: receiver.last_received.get(channel, 0)
        for channel, receiver in job.channel_dst.items()
    }
    return ExecutionHistory(
        checkpoints=history.checkpoints,
        messages=[(channel, seq) for channel, seq in history.messages
                  if seq <= received[channel]],
        endpoints=history.endpoints,
    )


def history_of(graph: CheckpointGraph,
               counts: dict[ChannelId, int]) -> ExecutionHistory:
    """The search's view of ``graph`` when each channel carried messages
    ``1..counts[channel]``."""
    return ExecutionHistory(
        checkpoints=graph.checkpoints,
        messages=[(channel, seq) for channel, n in counts.items()
                  for seq in range(1, n + 1)],
        endpoints={channel: (s, r) for channel, s, r in graph.channels},
    )


def graph_of(history: ExecutionHistory
             ) -> tuple[CheckpointGraph, dict[ChannelId, int]]:
    """The history as ``zcycle_analysis`` reads it: the checkpoints, the
    channels, and every logged message delivered (each channel's log must
    number its messages 1..n)."""
    seqs: dict[ChannelId, list[int]] = {}
    for channel, seq in history.messages:
        seqs.setdefault(channel, []).append(seq)
    for channel, logged in seqs.items():
        assert sorted(logged) == list(range(1, len(logged) + 1)), channel
    channels = [
        (channel, sender, receiver)
        for channel, (sender, receiver) in history.endpoints.items()
    ]
    delivered = {channel: len(logged) for channel, logged in seqs.items()}
    return CheckpointGraph(history.checkpoints, channels), delivered


def assert_scc_agrees(history: ExecutionHistory) -> ZCycleResult:
    """``zcycle_analysis`` finds the useless set and the domino depth the
    Z-path search finds, every logged message delivered."""
    result = zcycle_analysis(*graph_of(history))
    assert result.useless == history.useless_checkpoints()
    assert result.domino_depth == history.domino_depth()
    return result


def assert_job_agrees(job: "Job") -> ZCycleResult:
    """The same on a real run, over the messages delivered so far."""
    result = job.protocol.zcycle_analysis()
    history = delivered_history(job)
    assert result.useless == history.useless_checkpoints()
    assert result.domino_depth == history.domino_depth()
    return result


# --------------------------------------------------------------------- #
# The send log as a list of messages
# --------------------------------------------------------------------- #

class MessageListLog:
    """One channel's send log kept as the sent messages, in ``seq`` order,
    with :class:`~repro.core.recovery.ChannelLog`'s operations."""

    def __init__(self) -> None:
        self.messages: list[Message] = []

    def __len__(self) -> int:
        return len(self.messages)

    @property
    def seqs(self) -> list[int]:
        return [msg.seq for msg in self.messages]

    def append(self, msg: Message) -> None:
        self.messages.append(msg)

    def drop_through(self, seq: int) -> None:
        del self.messages[:bisect_right(self.messages, seq,
                                        key=attrgetter("seq"))]

    def drop_after(self, seq: int) -> None:
        while self.messages and self.messages[-1].seq > seq:
            self.messages.pop()

    def window(self, channel: ChannelId, after: int,
               through: int) -> list[Message]:
        return [msg for msg in self.messages if after < msg.seq <= through]


# --------------------------------------------------------------------- #
# The scalar derived rid
# --------------------------------------------------------------------- #

def derived_rid(op_name: str, parent_rid: int) -> int:
    """Lineage id of the one record operator ``op_name`` derives from
    ``parent_rid``: the operator name's crc32, the parent and 1, mixed."""
    return mix_rid(zlib.crc32(op_name.encode("utf-8")), parent_rid, 1)
