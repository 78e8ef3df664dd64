"""Checkpoint graph and the rollback propagation algorithm (paper Alg. 1).

The checkpoint graph (Wang et al. [47]) has checkpoints as nodes and a
directed edge ``c(i,x) -> c(j,y)`` when

* ``i != j`` and at least one *orphan* message exists: sent by operator
  instance ``i`` **after** ``c(i,x)`` and processed by ``j`` **before**
  ``c(j,y)``; with per-channel sequence cursors captured in every
  checkpoint this reduces to the pure cursor comparison
  ``c(j,y).received > c(i,x).sent`` on some channel ``i -> j``; or
* ``i == j`` and ``y == x + 1`` (consecutive checkpoints of one instance).

Two equivalent recovery-line algorithms are provided:

* :func:`rollback_propagation` — the paper's Algorithm 1, literally: root
  set of freshest checkpoints, mark members strictly reachable from other
  members, replace marked members with their predecessor, repeat.
* :func:`maximal_consistent_line` — a direct fixpoint on cursor
  comparisons.  Consistent lines are closed under component-wise maximum,
  so greedily rolling back any receiver that observes an orphan converges
  to the unique most-recent consistent line.

The property-based tests assert both return identical lines on random
executions; the runtime uses the fixpoint (linear-ish) variant while the
graph variant documents fidelity to the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    _by_sender: dict[InstanceKey, list[tuple[ChannelId, InstanceKey]]] = field(
        default_factory=dict
    )
    _memo: dict[Node, frozenset[Node]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for instance, metas in self.checkpoints.items():
            if not metas:
                raise ValueError(f"instance {instance} has no checkpoints (needs initial)")
            ids = [m.checkpoint_id for m in metas]
            if ids != sorted(ids):
                raise ValueError(f"checkpoints of {instance} not ordered: {ids}")
        for channel, sender, receiver in self.channels:
            self._by_sender.setdefault(sender, []).append((channel, receiver))

    # -- graph structure (computed lazily) -------------------------------- #

    def _meta(self, node: Node) -> CheckpointMeta:
        instance, ckpt_id = node
        for meta in self.checkpoints[instance]:
            if meta.checkpoint_id == ckpt_id:
                return meta
        raise KeyError(f"unknown checkpoint {node}")

    def successors(self, node: Node) -> frozenset[Node]:
        """Outgoing edges: orphan edges plus the same-instance successor edge."""
        cached = self._memo.get(node)
        if cached is not None:
            return cached
        instance, ckpt_id = node
        meta = self._meta(node)
        out: set[Node] = set()
        for channel, receiver in self._by_sender.get(instance, ()):
            sent = meta.sent_cursor(channel)
            for r_meta in self.checkpoints[receiver]:
                if r_meta.received_cursor(channel) > sent:
                    out.add((receiver, r_meta.checkpoint_id))
        ids = [m.checkpoint_id for m in self.checkpoints[instance]]
        position = ids.index(ckpt_id)
        if position + 1 < len(ids):
            out.add((instance, ids[position + 1]))
        result = frozenset(out)
        self._memo[node] = result
        return result

    def orphan_edges(self) -> dict[Node, set[Node]]:
        """All orphan edges (successor edges excluded) — test/analysis helper."""
        edges: dict[Node, set[Node]] = {}
        for instance, metas in self.checkpoints.items():
            ids = [m.checkpoint_id for m in metas]
            for meta in metas:
                node = (instance, meta.checkpoint_id)
                position = ids.index(meta.checkpoint_id)
                succ = set(self.successors(node))
                if position + 1 < len(ids):
                    succ.discard((instance, ids[position + 1]))
                if succ:
                    edges[node] = succ
        return edges

    def reachable_from(self, start: Node) -> set[Node]:
        """All nodes strictly reachable from ``start`` (path length >= 1)."""
        seen: set[Node] = set()
        frontier = list(self.successors(start))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(self.successors(node))
        return seen

    # -- consistency -------------------------------------------------------- #

    def line_is_consistent(self, line: dict[InstanceKey, CheckpointMeta]) -> bool:
        """No-orphan check of a candidate recovery line (Definition 5)."""
        for channel, sender, receiver in self.channels:
            sent = line[sender].sent_cursor(channel)
            received = line[receiver].received_cursor(channel)
            if received > sent:
                return False
        return True


@dataclass
class RecoveryLineResult:
    """Outcome of the recovery-line fixpoint: the chosen line per instance."""
    line: dict[InstanceKey, CheckpointMeta]
    #: checkpoints discarded while searching (the run's invalid checkpoints)
    pruned: list[Node]


def rollback_propagation(graph: CheckpointGraph) -> RecoveryLineResult:
    """Paper Algorithm 1 on the checkpoint graph."""
    by_instance = {
        instance: {m.checkpoint_id: m for m in metas}
        for instance, metas in graph.checkpoints.items()
    }
    ordered_ids = {
        instance: [m.checkpoint_id for m in metas]
        for instance, metas in graph.checkpoints.items()
    }
    # step 1: freshest checkpoint of every instance forms the root set
    root: dict[InstanceKey, int] = {
        instance: ids[-1] for instance, ids in ordered_ids.items()
    }
    pruned: list[Node] = []
    while True:
        root_nodes = sorted((instance, ckpt_id) for instance, ckpt_id in root.items())
        marked: set[InstanceKey] = set()
        for node in root_nodes:
            for other in root_nodes:
                if other == node:
                    continue
                if node in graph.reachable_from(other):
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
            pruned.append((instance, root[instance]))
            root[instance] = ids[position - 1]
    line = {
        instance: by_instance[instance][ckpt_id] for instance, ckpt_id in root.items()
    }
    return RecoveryLineResult(line=line, pruned=pruned)


def maximal_consistent_line(graph: CheckpointGraph) -> RecoveryLineResult:
    """Direct fixpoint: roll back any receiver that observes an orphan."""
    ordered = {instance: list(metas) for instance, metas in graph.checkpoints.items()}
    position = {instance: len(metas) - 1 for instance, metas in ordered.items()}
    pruned: list[Node] = []
    changed = True
    while changed:
        changed = False
        for channel, sender, receiver in graph.channels:
            s_meta = ordered[sender][position[sender]]
            r_meta = ordered[receiver][position[receiver]]
            if r_meta.received_cursor(channel) > s_meta.sent_cursor(channel):
                if position[receiver] == 0:
                    raise RuntimeError(
                        f"no consistent line: cannot roll {receiver} past initial"
                    )
                pruned.append((receiver, r_meta.checkpoint_id))
                position[receiver] -= 1
                changed = True
    line = {instance: ordered[instance][position[instance]] for instance in ordered}
    return RecoveryLineResult(line=line, pruned=pruned)


def reclaimable_checkpoints(graph: CheckpointGraph) -> list[Node]:
    """Checkpoints strictly older than the current maximal consistent line.

    The classic reclamation result (Wang et al. [47]): once a consistent
    line ``L`` exists, rollback propagation never moves below it —
    rolling an instance back to its ``L`` checkpoint leaves no orphans
    against any combination of newer checkpoints, because sent-cursors
    are monotone — so nothing older than ``L`` is ever restored again.
    An analysis result only: no run collects anything (DESIGN.md
    section 8).  The implicit initial checkpoints are never reported
    (there is nothing stored for them).
    """
    line = maximal_consistent_line(graph).line
    return [
        (instance, meta.checkpoint_id)
        for instance, metas in graph.checkpoints.items()
        for meta in metas
        if 0 < meta.checkpoint_id < line[instance].checkpoint_id
    ]


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
