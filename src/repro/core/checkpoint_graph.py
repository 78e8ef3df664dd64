"""Checkpoint graph: the recovery line and the useless checkpoints of a run.

A :class:`CheckpointGraph` holds every checkpoint of every instance (with
the per-channel sequence cursors captured in each) and the channels
between instances.  It answers two questions, one algorithm each:

* :func:`maximal_consistent_line` — the recovery line.  A line is
  consistent when no receiver's checkpoint counts a message its sender's
  checkpoint has not sent (``received > sent`` on a channel is an orphan).
  Consistent lines are closed under component-wise maximum, so greedily
  rolling back any receiver that observes an orphan converges to the
  unique most-recent consistent line — the one the paper's Algorithm 1
  finds by rollback propagation (tests hold the two equal).
* :func:`zcycle_analysis` — the checkpoints no consistent line can contain
  (Netzer and Xu's *useless* checkpoints, the ones on a Z-cycle), from one
  strongly-connected-components pass over checkpoint intervals.  Analysis
  only: no run calls it (DESIGN.md section 8).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.base import CheckpointMeta, InstanceKey
from repro.metrics.collectors import KIND_INITIAL
from repro.dataflow.channels import ChannelId

Node = tuple[InstanceKey, int]


@dataclass
class CheckpointGraph:
    """Checkpoints per instance plus the channel topology between instances.

    ``checkpoints`` must include the implicit *initial* checkpoint of every
    instance (id 0) so rollback can always terminate.
    """

    #: all checkpoints per instance, oldest first, INCLUDING the initial one
    checkpoints: dict[InstanceKey, list[CheckpointMeta]]
    #: channels between instances: (channel, sender_key, receiver_key)
    channels: list[tuple[ChannelId, InstanceKey, InstanceKey]]

    def __post_init__(self) -> None:
        for instance, metas in self.checkpoints.items():
            if not metas:
                raise ValueError(f"instance {instance} has no checkpoints (needs initial)")
            ids = [m.checkpoint_id for m in metas]
            if ids != sorted(ids):
                raise ValueError(f"checkpoints of {instance} not ordered: {ids}")

    def line_is_consistent(self, line: dict[InstanceKey, CheckpointMeta]) -> bool:
        """No-orphan check of a candidate recovery line (Definition 5)."""
        for channel, sender, receiver in self.channels:
            sent = line[sender].sent_cursor(channel)
            received = line[receiver].received_cursor(channel)
            if received > sent:
                return False
        return True


def maximal_consistent_line(
        graph: CheckpointGraph) -> dict[InstanceKey, CheckpointMeta]:
    """Direct fixpoint: roll back any receiver that observes an orphan.

    UNC and CIC run it once per round of checkpoint registrations, over
    every channel, so the orphan test reads the cursor dicts without a
    call (a channel missing from a dict has cursor 0).
    """
    ordered = graph.checkpoints
    position = {instance: len(metas) - 1 for instance, metas in ordered.items()}
    changed = True
    while changed:
        changed = False
        for channel, sender, receiver in graph.channels:
            received = ordered[receiver][position[receiver]].last_received
            if channel not in received:
                continue  # received nothing: cannot observe an orphan
            sent = ordered[sender][position[sender]].last_sent
            if received[channel] > (sent[channel] if channel in sent else 0):
                if position[receiver] == 0:
                    raise RuntimeError(
                        f"no consistent line: cannot roll {receiver} past initial"
                    )
                position[receiver] -= 1
                changed = True
    return {instance: ordered[instance][position[instance]]
            for instance in ordered}


def invalid_checkpoint_count(
    graph: CheckpointGraph, line: dict[InstanceKey, CheckpointMeta]
) -> int:
    """Durable checkpoints strictly newer than the line (Table III numerator).

    The implicit initial checkpoints are never counted — they are not real
    durable checkpoints.
    """
    count = 0
    for instance, metas in graph.checkpoints.items():
        chosen = line[instance].checkpoint_id
        count += sum(
            1 for m in metas if m.checkpoint_id > chosen and m.kind != KIND_INITIAL
        )
    return count


@dataclass
class ZCycleResult:
    """The useless checkpoints of a history and how deep they run."""
    #: (instance, checkpoint id) of every checkpoint on a Z-cycle, in
    #: graph order (instances as listed, oldest checkpoint first)
    useless: list[Node]
    #: longest run of consecutive useless checkpoints on one instance
    domino_depth: int


def zcycle_analysis(graph: CheckpointGraph,
                    delivered: dict[ChannelId, int]) -> ZCycleResult:
    """Every useless checkpoint, from one SCC pass over checkpoint intervals.

    Interval ``k`` of an instance runs from its ``k``-th checkpoint (the
    initial one is number 0) to the next; the last interval is still
    open.  The graph has an edge from each interval to the next one of
    the same instance, and one from each delivered message's send
    interval to its receive interval.  ``delivered[channel]`` is how many
    messages the channel's receiver has processed (its live receive
    cursor), so message ``seq <= delivered`` was sent in the interval
    after the last sender checkpoint whose sent cursor is below ``seq``,
    and received likewise: one merge of the two cursor lists per channel
    finds every message edge.

    A path in this graph is a zigzag path (a message may leave an
    interval before another one arrives in it), so checkpoint ``k >= 1``
    lies on a Z-cycle exactly when interval ``k`` reaches interval
    ``k - 1``, i.e. when the two share a strongly connected component
    (Netzer and Xu 1995, in the interval form of Wang 1997).  A message
    still in flight has no receive event and is on no zigzag path.
    """
    base: dict[InstanceKey, int] = {}
    adjacency: list[list[int]] = []
    for instance, metas in graph.checkpoints.items():
        base[instance] = first = len(adjacency)
        # each interval leads to the next one of its instance
        adjacency.extend([first + k + 1] for k in range(len(metas) - 1))
        adjacency.append([])
    for channel, sender, receiver in graph.channels:
        count = delivered.get(channel, 0)
        # each list ends in ``count``, the bound of the open interval
        sent = [m.sent_cursor(channel) for m in graph.checkpoints[sender][1:]]
        received = [m.received_cursor(channel) for m in graph.checkpoints[receiver][1:]]
        sent.append(count)
        received.append(count)
        # messages (seq, next seq] share one send and one receive interval
        send_iv = receive_iv = seq = 0
        while seq < count:
            while sent[send_iv] <= seq:
                send_iv += 1
            while received[receive_iv] <= seq:
                receive_iv += 1
            adjacency[base[sender] + send_iv].append(base[receiver] + receive_iv)
            seq = min(sent[send_iv], received[receive_iv], count)
    component = _components(adjacency)
    useless: list[Node] = []
    depth = 0
    for instance, metas in graph.checkpoints.items():
        first = base[instance]
        run = 0
        for k in range(1, len(metas)):
            if component[first + k] == component[first + k - 1]:
                useless.append((instance, metas[k].checkpoint_id))
                run += 1
                depth = max(depth, run)
            else:
                run = 0
    return ZCycleResult(useless=useless, domino_depth=depth)


def _components(adjacency: list[list[int]]) -> list[int]:
    """Strongly connected component of every node (Tarjan, iterative).

    Each node is labelled with its component's root; two nodes share a
    component exactly when their labels are equal.
    """
    size = len(adjacency)
    index = [-1] * size
    low = [0] * size
    component = [-1] * size
    on_stack = [False] * size
    stack: list[int] = []
    counter = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adjacency[root]))]
        while work:
            node, edges = work[-1]
            for succ in edges:
                if index[succ] < 0:
                    index[succ] = low[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(adjacency[succ])))
                    break
                if on_stack[succ] and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component[member] = node
                        if member == node:
                            break
    return component
