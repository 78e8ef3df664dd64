"""Simulated workers and operator instances.

Each worker models one CPU (the paper pins one CPU per worker): tasks —
message processing, checkpoints, timers, source polls, linger flushes — run
one at a time for a virtual duration computed from the cost model.  The
worker also owns channel blocking for COOR alignment: data arriving on a
blocked channel is buffered and re-enqueued in order on unblock.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any

from repro.dataflow.channels import ChannelId, Message, RouterBuffer
from repro.dataflow.graph import EdgeSpec, OperatorSpec
from repro.dataflow.operators import Operator, OperatorContext
from repro.dataflow.records import source_rid_prefix
from repro.sim.simulator import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import CheckpointMeta
    from repro.dataflow.runtime import Job


class RidSnapshot:
    """A dedup set, stored as what it added to its parent's.

    A checkpoint payload holds one node; the set it stands for is the
    union of ``added`` along the ``parent`` links.  ``added`` is the
    instance's rid journal at the moment of the checkpoint, handed over
    rather than copied, so taking a checkpoint costs what was admitted
    since the previous one and every checkpoint of an instance shares its
    history with the ones before it.  A rollback continues from the node
    it restored, and the checkpoints of the timeline it abandoned stay
    restorable (DESIGN.md section 21).

    The one change a node ever sees is :meth:`cut`, at the floor line:
    no recovery reaches below it, so the rids the node stands for are
    never offered again.  A cut node keeps its ``count``; the bottom
    node of a chain stands for ``count - len(added)`` rids it no longer
    holds (:meth:`forgotten`), and ``count`` is still the size of the
    set (DESIGN.md section 8).
    """

    __slots__ = ("parent", "added", "count")

    def __init__(self, parent: "RidSnapshot | None", added: list[int],
                 count: int) -> None:
        self.parent = parent
        self.added = added
        #: size of the set this node stands for
        self.count = count

    @classmethod
    def root(cls, rids: set[int], forgotten: int = 0) -> "RidSnapshot":
        """A self-contained node standing for ``rids`` and ``forgotten``
        more that a cut dropped."""
        return cls(None, sorted(rids), len(rids) + forgotten)

    def extend(self, added: list[int]) -> "RidSnapshot":
        """The node standing for this set plus the new rids ``added``."""
        return RidSnapshot(self, added, self.count + len(added))

    def segments(self) -> list[list[int]]:
        """The ``added`` lists whose union is this set, root first."""
        segments = []
        node: RidSnapshot | None = self
        while node is not None:
            segments.append(node.added)
            node = node.parent
        segments.reverse()
        return segments

    def materialize(self) -> set[int]:
        """A fresh ``set`` of the rids the chain still holds."""
        return set().union(*self.segments())

    def forgotten(self) -> int:
        """How many of the rids this node stands for a cut dropped."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node.count - len(node.added)

    def cut(self) -> None:
        """Drop the rids this node stands for; keep their number."""
        self.parent = None
        self.added = []


#: the dedup set of an instance that has processed nothing
NO_RIDS = RidSnapshot(None, [], 0)


class RepeatedRidError(RuntimeError):
    """An instance that was never rolled back journaled a lineage id twice.

    Until its first restore an instance admits without probing: channels
    are FIFO and exactly-once while no worker has failed and a lineage id
    is a bijection of its parent's, so nothing can be offered twice
    (DESIGN.md section 23).  The first time such a history becomes a set
    its size must therefore equal the number of rids journaled; when it
    does not, the engine delivered a record twice with no failure to
    excuse it, and a dedup probe would have hidden that as a skipped
    duplicate.
    """

    def __init__(self, instance: tuple[str, int], journaled: int,
                 distinct: int) -> None:
        super().__init__(
            f"{instance}: {journaled} lineage ids journaled before the "
            f"first restore, {distinct} distinct — a record was admitted "
            "twice while nothing could repeat"
        )
        self.instance = instance
        self.journaled = journaled
        self.distinct = distinct


#: what the payload of an initial checkpoint would hold beside its state
_NOTHING_DONE: dict[str, Any] = {"source_cursors": {}}


def fold_chain(spec: OperatorSpec, payloads: list[dict[str, Any]],
               context: OperatorContext | None = None,
               ) -> tuple[Operator, RidSnapshot]:
    """The operator and the dedup history a list of payloads stands for.

    ``[]`` is the initial checkpoint, ``[snapshot]`` a full one,
    ``[snapshot, *deltas]`` a changelog chain, base first: a fresh
    operator opened against ``context``, the snapshot restored into it
    and each delta's per-state diffs folded on top.  The dedup history
    is the node the last payload sealed, as any cut at the floor line
    left it.  Every restore starts here: :meth:`InstanceRuntime.restore`
    keeps the operator, a rescaled restore (``context=None``) reads the
    state back out of it and merges several (DESIGN.md sections 10 and
    11).
    """
    operator = spec.factory()
    operator.open(context)
    if not payloads:
        return operator, NO_RIDS
    operator.states.restore(payloads[0]["states"])
    for delta in payloads[1:]:
        operator.states.apply_delta(delta["states"])
    return operator, payloads[-1]["processed_rids"]


def folded_snapshot(spec: OperatorSpec,
                    payloads: list[dict[str, Any]]) -> dict[str, Any]:
    """What a rescaled restore reads of one old instance's checkpoint.

    The chain folded on a scratch operator and read back out as one
    state snapshot, beside the dedup history and the source cursors:
    the part :meth:`InstanceRuntime.restore_rescaled` merges.
    """
    operator, head = fold_chain(spec, payloads)
    last = payloads[-1] if payloads else _NOTHING_DONE
    return {
        "states": operator.states.snapshot(),
        "processed_rids": head,
        "source_cursors": last["source_cursors"],
    }


class InstanceRuntime(OperatorContext):
    """One parallel instance of an operator, hosted on one worker."""

    def __init__(self, job: "Job", spec: OperatorSpec, index: int, worker: "WorkerRuntime") -> None:
        self.job = job
        self.spec = spec
        self.index = index
        self.worker = worker
        self.key = (spec.name, index)
        self.op_name = spec.name
        self.parallelism = job.parallelism

        self.operator = spec.factory()
        self.in_channels: list[ChannelId] = []
        self.in_port_by_edge: dict[int, str] = {}
        self.out_edges: list[EdgeSpec] = []
        self.router: RouterBuffer | None = None  # wired by the job

        #: per outbound channel: last assigned message sequence number
        self.out_seq: dict[ChannelId, int] = {}
        #: per inbound channel: last processed message sequence number
        self.last_received: dict[ChannelId, int] = {}
        #: lineage ids already applied to state (UNC/CIC dedup), as the
        #: set admission probes — ``None`` until the first restore: no
        #: rid can be offered twice before a rollback, so until then the
        #: history exists as ``rid_head`` + ``rid_journal`` only
        #: (DESIGN.md section 23); read it through ``processed_rids``
        self.rid_set: set[int] | None = None
        #: rids admitted since ``rid_head``, in order; the next
        #: checkpoint seals it into a node (and a changelog delta ships
        #: exactly that segment)
        self.rid_journal: list[int] = []
        #: the dedup set as of the last checkpoint or restore
        #: (its bottom node counts the rids a cut at the floor line
        #: dropped: ``rid_head.forgotten()``, DESIGN.md section 8)
        self.rid_head = NO_RIDS
        self.checkpoint_counter = 0
        #: monotone floor for checkpoint durability: a later checkpoint of
        #: this instance never becomes durable before an earlier one (a
        #: small delta must not overtake its still-uploading parent)
        self.durable_floor = 0.0
        #: input partitions this source instance owns -> next offset to read.
        #: At the initial deployment each source owns exactly its own
        #: partition; a rescaled deployment spreads the fixed partition set
        #: over the current instances (contiguous balanced ranges).
        self.source_cursors: dict[int, int] = {}
        #: per owned partition: precomputed rid prefix (sources only)
        self.rid_prefixes: dict[int, int] = {}
        #: protocol-private per-instance structure (e.g. HMNR vectors)
        self.proto: Any = None
        #: is this instance blocked on channel credits?  While True its
        #: worker defers the instance's tasks — the simulated equivalent
        #: of a task thread blocking on a network-buffer request
        #: (DESIGN.md section 13)
        self.credit_blocked = False
        #: outbound channels currently parked awaiting credits
        self.parked_channels: set[ChannelId] = set()
        #: cached credit gate for RouterBuffer drains (built lazily by the
        #: transport; one closure per instance keeps the per-batch flush
        #: path allocation-free)
        self.credit_gate: Any = None
        #: reusable poll task tuple (sources only)
        self.poll_task = ("poll", self)
        if spec.is_source:
            self.assign_source_partitions([index])

    def assign_source_partitions(self, partitions: list[int]) -> None:
        """Bind this source instance to its owned input partitions."""
        self.source_cursors = {q: 0 for q in partitions}
        self.rid_prefixes = {
            q: source_rid_prefix(self.spec.source_topic, q) for q in partitions
        }

    # -- OperatorContext ------------------------------------------------- #

    def now(self) -> float:
        """Current virtual time (OperatorContext hook).

        Constant for the duration of one CPU task: the worker computes a
        task's virtual cost first and advances the clock only when the task
        completes, so every record of a batch observes the same ``now()``.
        The batched stateful kernels (DESIGN.md section 16) lean on this —
        window ids and sweep deadlines are batch-constant by construction.
        """
        return self.job.sim.now

    def register_timer(self, at: float, tag: Any) -> None:
        """Forward a timer registration to the job (OperatorContext hook)."""
        self.job.register_timer(self, at, tag)

    def record_outputs(self, source_ts: list[float]) -> None:
        """Report a batch of sink records to the metrics (OperatorContext hook)."""
        self.job.metrics.record_output_batch(self.job.sim.now, source_ts)

    # -- bookkeeping -------------------------------------------------------- #

    @property
    def processed_rids(self) -> set[int]:
        """Every lineage id admitted so far, as the live dedup set.

        An instance that has never been restored holds no set
        (``rid_set`` is ``None``); reading this builds it from
        ``rid_head`` and ``rid_journal``, checks that no rid was
        journaled twice (:class:`RepeatedRidError`) and installs it, so
        admission probes it from then on — the same transition a restore
        makes.  For tests and tools: the data path reads ``rid_set``.
        """
        rids = self.rid_set
        if rids is None:
            rids = self.rid_head.materialize()
            rids.update(self.rid_journal)
            journaled = self.rid_head.count + len(self.rid_journal)
            distinct = self.rid_head.forgotten() + len(rids)
            if distinct != journaled:
                raise RepeatedRidError(self.key, journaled, distinct)
            self.rid_set = rids
        return rids

    @property
    def state_bytes(self) -> int:
        """Approximate checkpoint payload: operator state + dedup set + cursors.

        The dedup set is charged 8 bytes per lineage id whether or not
        the host holds it as a set: before the first restore its size is
        that of the sealed history plus the journal, and a cut at the
        floor line changes neither (the head's bottom node counts what
        it dropped).
        """
        base = self.operator.state_bytes
        rids = self.rid_set
        base += (self.rid_head.count + len(self.rid_journal) if rids is None
                 else self.rid_head.forgotten() + len(rids)) * 8
        base += (len(self.out_seq) + len(self.last_received)) * 12
        return base

    def open(self) -> None:
        """Instantiate and open the operator against this context."""
        self.operator.open(self)

    def seal_rids(self) -> RidSnapshot:
        """Close the journal into a node standing for the dedup history.

        The journal is handed to the node and a new one started.  While
        there is no set the journal *is* the history since the head.
        Once there is one, should it ever have been changed behind the
        journal, the sizes no longer add up and the node is a
        self-contained root instead — a checkpoint never stands for less
        than the live set.
        """
        head = self.rid_head
        journal = self.rid_journal
        rids = self.rid_set
        if (rids is None
                or head.count + len(journal) == head.forgotten() + len(rids)):
            head = head.extend(journal)
        else:
            head = RidSnapshot.root(rids, head.forgotten())
        self.rid_head = head
        self.rid_journal = []
        return head

    def install_rids(self, head: RidSnapshot) -> None:
        """Make ``head`` the dedup set; later checkpoints branch from it.

        Every rollback ends here (or in :meth:`restore_rescaled`), and a
        rollback is what makes a repeated rid possible: from this call
        on the instance holds a set and admission probes it.  The first
        call is also where a history that was only journaled is checked
        (:class:`RepeatedRidError`).
        """
        rids = head.materialize()
        cut = head.forgotten()
        if self.rid_set is None and cut + len(rids) != head.count:
            raise RepeatedRidError(self.key, head.count, cut + len(rids))
        self.rid_set = rids
        self.rid_head = head
        self.rid_journal = []

    def cut_rids(self, segment: list[int]) -> None:
        """Cut the dedup history at the checkpoint that sealed ``segment``.

        That checkpoint is the instance's in the floor line: every rid
        admitted at or before it arrived at or below the instance's
        cursors there, no later replay window reaches such a message and
        no sender re-executes below the line, so none of them is offered
        again (DESIGN.md section 8).  The node on the live chain that
        holds ``segment`` drops its parent and its rids but keeps its
        count, and the live set drops the same rids.  A segment no longer
        on the live chain (already cut, or below a root) cuts nothing.
        """
        node: RidSnapshot | None = self.rid_head
        while node is not None and node.added is not segment:
            node = node.parent
        if node is None:
            return
        rids = self.rid_set
        if rids is not None:
            for dropped in node.segments():
                rids.difference_update(dropped)
        node.cut()

    def capture_snapshot(self) -> dict[str, Any]:
        """Copy everything a rollback needs to reinstall this instance
        that its checkpoint's metadata does not hold (the channel
        cursors live there)."""
        return self._payload(self.operator.states.snapshot())

    def capture_delta(self) -> tuple[dict[str, Any], int]:
        """Capture only what changed since the last checkpoint.

        Returns ``(payload, delta_bytes)``: a payload of the snapshot's
        shape whose operator states are per-state deltas.  Its sealed
        node ships only the segment admitted since the last checkpoint,
        and the channel cursors, shipped whole in the metadata, are
        billed here beside it.  Tracking is reset, so the next delta
        starts from this checkpoint.
        """
        states_delta, delta_bytes = self.operator.states.snapshot_delta()
        payload = self._payload(states_delta)
        delta_bytes += len(payload["processed_rids"].added) * 8
        delta_bytes += (len(self.out_seq) + len(self.last_received)) * 12
        self.operator.states.mark_clean()
        return payload, delta_bytes

    def _payload(self, states: Any) -> dict[str, Any]:
        """The one payload format: ``states`` beside the sealed dedup
        node, the source cursors and the protocol's extra."""
        return {
            "states": states,
            "processed_rids": self.seal_rids(),
            "source_cursors": dict(self.source_cursors),
            "extra": self.job.protocol.capture_extra(self),
        }

    def restore(self, meta: "CheckpointMeta",
                payloads: list[dict[str, Any]]) -> None:
        """Roll back to the checkpoint ``meta``, which ``payloads`` folds to.

        What :func:`fold_chain` folds becomes the operator and the dedup
        set, the channel cursors come from ``meta``, source cursors and
        protocol extras from the last payload, and the chain the
        instance's checkpoints were building is cut.  ``[]``, the initial
        checkpoint, puts a source back at the start of the partitions it
        owns and runs neither restore hook: no extra was captured, and
        the timer ``on_restore`` re-registers is one a freshly deployed
        operator does not have.
        """
        self.operator, head = fold_chain(self.spec, payloads, self)
        last = payloads[-1] if payloads else _NOTHING_DONE
        self.out_seq = dict(meta.last_sent)
        self.last_received = dict(meta.last_received)
        self.install_rids(head)
        cursors = last["source_cursors"]
        self.source_cursors = {q: cursors.get(q, 0)
                               for q in self.source_cursors}
        if self.router is not None:
            self.router.clear()
        self.job.chain_tracker.on_restored(self)
        if payloads:
            self.job.protocol.restore_extra(self, last["extra"])
            self.operator.on_restore()

    def restore_rescaled(self, parts: list[dict[str, Any]],
                         p_old: int) -> None:
        """Restore this instance from the *old* topology's checkpoints.

        ``parts`` holds the :func:`folded_snapshot` of each old instance
        of this operator, in instance order.  Keyed state is merged from
        the group slices this instance now owns; dedup sets are the union
        of every contributor's (sound because every edge routes a record
        to one instance: a lineage id was only ever processed where its
        key routed, so a hit in the union implies the effect is in the
        merged state).  Channel cursors reset — the rescaled topology is a
        fresh channel epoch and exactly-once across it rests on rid dedup.
        Source instances re-bind the input-partition cursors of the
        partitions they now own from the old owners' checkpoints.
        """
        from repro.dataflow.keygroups import group_owner, group_range

        job = self.job
        max_groups = job.max_key_groups
        groups = group_range(self.index, job.parallelism, max_groups)
        primary = (group_owner(groups.start, p_old, max_groups)
                   if len(groups) else 0)
        self.operator = self.spec.factory()
        self.operator.open(self)
        self.operator.states.restore_rescaled(
            [part["states"] for part in parts], groups, max_groups, primary
        )
        self.out_seq = {}
        self.last_received = {}
        rids: set[int] = set()
        cut = 0
        for part in parts:
            rids.update(*part["processed_rids"].segments())
            cut += part["processed_rids"].forgotten()
        # the union has no history in the new topology: a root of its
        # own, counting what the contributors' cuts dropped (and no count
        # to hold it to — after an earlier rescale the contributors
        # overlap by construction)
        self.rid_set = rids
        self.rid_head = RidSnapshot.root(rids, cut)
        self.rid_journal = []
        if self.spec.is_source:
            self.source_cursors = {
                q: parts[group_owner(q, p_old, job.initial_parallelism)]
                ["source_cursors"].get(q, 0)
                for q in self.source_cursors
            }
        if self.router is not None:
            self.router.clear()
        self.job.chain_tracker.on_restored(self)
        # protocol extras (e.g. CIC vectors) are sized for the old
        # instance count; the protocol rebuilds them in on_rescaled
        self.job.protocol.restore_extra(self, None)
        self.operator.on_restore()


class WorkerRuntime:
    """One simulated machine: a CPU, its operator instances, its channel state."""

    def __init__(self, job: "Job", index: int) -> None:
        self.job = job
        self.index = index
        self.alive = True
        self.instances: dict[str, InstanceRuntime] = {}
        self._tasks: deque[tuple] = deque()
        self._busy = False
        self.blocked: set[ChannelId] = set()
        self._blocked_buf: dict[ChannelId, deque[Message]] = {}
        #: tasks deferred because their instance is credit-blocked,
        #: per operator name, in arrival order
        self._deferred: dict[str, deque[tuple]] = {}
        #: :meth:`_start_next` bound once: the task-completion callback
        #: every task pushes (``Job.release`` clears it with the rest)
        self._completion = self._start_next

    # ------------------------------------------------------------------ #
    # Channel blocking (arrivals themselves land through Transport.deliver)
    # ------------------------------------------------------------------ #

    def block_channel(self, channel: ChannelId) -> None:
        """Buffer instead of deliver on ``channel`` (COOR alignment)."""
        self.blocked.add(channel)
        transport = self.job.transport
        if transport.bounded:
            transport.note_channel_blocked(channel)

    def unblock_channel(self, channel: ChannelId) -> None:
        """Release a channel and re-enqueue everything buffered on it, in order."""
        self.blocked.discard(channel)
        transport = self.job.transport
        if transport.bounded:
            transport.note_channel_unblocked(channel)
        buffered = self._blocked_buf.pop(channel, None)
        if buffered:
            for msg in buffered:
                self.enqueue(("data", channel, msg))

    # ------------------------------------------------------------------ #
    # CPU loop
    # ------------------------------------------------------------------ #

    def enqueue(self, task: tuple) -> None:
        """Append a task to this worker's CPU queue and start it if idle."""
        if not self.alive:
            return
        self._tasks.append(task)
        if not self._busy and not self.job.recovering:
            self._start_next()

    def enqueue_front(self, task: tuple) -> None:
        """Jump the queue (unaligned checkpoints charge their CPU this way)."""
        if not self.alive:
            return
        self._tasks.appendleft(task)
        if not self._busy and not self.job.recovering:
            self._start_next()

    def charge_cpu(self, duration: float) -> None:
        """Charge CPU time for work whose effects already happened.

        Used by control-plane actions (e.g. an unaligned snapshot captured
        at marker arrival): the state capture is immediate, but the worker
        still pays the time before resuming normal tasks.
        """
        self.enqueue_front(("cpu", duration))

    def kick(self) -> None:
        """Resume task processing (after recovery)."""
        if not self._busy and self._tasks:
            self._start_next()

    def pending_data_messages(self, channel: ChannelId) -> list[Message]:
        """Arrived-but-unprocessed data messages of one channel, in order.

        Unaligned checkpoints persist these as channel state: they were sent
        before the upstream snapshot (FIFO puts them ahead of the marker)
        but their effects are not in this instance's snapshot yet.  The
        scan must also cover tasks *deferred by credit blocking* — they
        were popped off the CPU queue while the destination instance
        awaited channel credits and are older than anything still queued,
        so they come first.  The alignment buffer holds none: unaligned
        COOR never barrier-blocks a channel.
        """
        queued: list[Message] = []
        instance = self.job.channel_dst.get(channel)
        if instance is not None:
            deferred = self._deferred.get(instance.op_name)
            if deferred:
                queued.extend(
                    task[2] for task in deferred
                    if task[0] == "data" and task[1] == channel
                )
        queued.extend(
            task[2] for task in self._tasks
            if task[0] == "data" and task[1] == channel
        )
        return queued

    def _start_next(self) -> None:
        """Run the next runnable task; also the task-completion callback.

        ``data`` and ``poll`` tasks — five in six of everything a worker
        runs — dispatch straight from here; the rare kinds go through
        :meth:`_run`.  A task whose instance is credit-blocked is deferred
        (in order) so the rest of the worker progresses.  ``flush``/
        ``cpu``/``unpark`` tasks belong to no instance and are never
        deferred: the linger flush is worker-wide (its gated drains skip
        parked buffers anyway), charged CPU is already-spent time, and
        the unpark task is the unblocking event itself.  The task's
        completion — this method again, after its virtual duration — is
        pushed onto the event heap here, behind ``Simulator.schedule``'s
        guard (DESIGN.md section 19).
        """
        job = self.job
        if not self.alive or job.recovering:
            self._busy = False
            return
        tasks = self._tasks
        while tasks:
            task = tasks.popleft()
            kind = task[0]
            owner: InstanceRuntime | None
            if kind == "data":
                # the one lookup of the message's receiver: _run_data
                # takes it from here
                owner = receiver = job.channel_dst[task[1]]
            elif kind in ("poll", "ckpt", "timer"):
                owner = task[1]
            else:
                owner = None
            if owner is not None and owner.credit_blocked:
                self._deferred.setdefault(owner.op_name, deque()).append(task)
                continue
            self._busy = True
            if kind == "data":
                duration = self._run_data(receiver, task[1], task[2])
            elif kind == "poll":
                duration = job.run_source_poll(task[1])
            else:
                duration = self._run(task)
            # the completion: Simulator.schedule's guard and push, inline
            if not duration >= 0:
                raise SimulationError(f"negative or NaN delay {duration!r}")
            sim = job.sim
            queue = sim._queue
            seq = queue._seq
            queue._seq = seq + 1
            heappush(queue._heap, [sim.now + duration, seq, self._completion, ()])
            return
        self._busy = False

    def release_instance(self, instance: "InstanceRuntime") -> None:
        """Credits returned: re-queue the instance's deferred tasks, in order.

        The CPU restart is *scheduled*, never run synchronously: a release
        can fire from inside a forced flush between a checkpoint's flush
        and its state capture (the unaligned protocol snapshots at marker
        arrival, outside any CPU task) — running a deferred data task in
        that window would apply input whose outputs the captured cursors
        do not cover, breaking the rollback's no-dropping guarantee.
        """
        deferred = self._deferred.pop(instance.op_name, None)
        if deferred:
            self._tasks.extendleft(reversed(deferred))
        if not self._busy and self._tasks:
            self.job.sim.schedule(0.0, self.kick)

    def _run(self, task: tuple) -> float:
        """Dispatch the rare task kinds (everything but ``data``/``poll``)."""
        kind = task[0]
        if kind == "ckpt":
            _, instance, ckpt_kind, round_id = task
            return self.job.execute_checkpoint(instance, ckpt_kind, round_id)
        if kind == "timer":
            return self._run_timer(task[1], task[2])
        if kind == "flush":
            return self._run_flush()
        if kind == "cpu":
            return task[1]
        if kind == "unpark":
            _, instance, edge_id, dst = task
            return self.job.transport.finish_unpark(instance, edge_id, dst)
        raise AssertionError(f"unknown task kind {kind!r}")

    def _run_data(self, instance: InstanceRuntime, channel: ChannelId,
                  msg: Message) -> float:
        """Consume one data message on ``instance``, the channel's receiver.

        The deserialization cost is ``CostModel.serialize_cost`` written
        out, operands in its order, so the float is the same bit for bit.
        """
        job = self.job
        transport = job.transport
        if transport.capacity > 0:
            # consuming the message returns its credits to the sender
            transport.on_consumed(channel, msg)
        cost_model = job.cost
        cost = (cost_model.serialize_message_base
                + (msg.payload_bytes + msg.protocol_bytes)
                * cost_model.serialize_per_byte)
        protocol = job.protocol
        if protocol.hooks_receive:
            cost += protocol.on_data_received(instance, channel, msg)
        if msg.seq > instance.last_received.get(channel, 0):
            instance.last_received[channel] = msg.seq
        cost += job.process_records(instance, msg.records,
                                    instance.in_port_by_edge[channel[0]])
        return cost

    def _run_timer(self, instance: InstanceRuntime, tag: Any) -> float:
        # a timer task is queued only in the epoch it was registered in
        # (Job.register_timer), and a rollback clears the queue
        instance.operator.on_timer(tag)
        return 0.0002 + self.job.transport.flush_ready(instance)

    def _run_flush(self) -> float:
        """Linger flush: drain every router that has something staged."""
        transport = self.job.transport
        cost = 1e-5
        for instance in self.instances.values():
            if instance.router._staged:
                cost += transport.flush_all(instance)
        return cost

    # ------------------------------------------------------------------ #
    # Failure / recovery support
    # ------------------------------------------------------------------ #

    def kill(self) -> None:
        """The failure injector stops this worker instantly."""
        self.alive = False
        self._tasks.clear()
        self._deferred.clear()
        self._busy = False

    def reset_for_recovery(self) -> None:
        """Drop all queued work and channel buffers before the rollback."""
        self._tasks.clear()
        self._deferred.clear()
        self._busy = False
        self.blocked.clear()
        self._blocked_buf.clear()
        for instance in self.instances.values():
            instance.credit_blocked = False
            instance.parked_channels.clear()
            if instance.router is not None:
                instance.router.clear()

    def has_staged_records(self) -> bool:
        """Does any router of this worker hold staged records (linger check)?"""
        for instance in self.instances.values():
            if instance.router._staged:
                return True
        return False

    def has_record_work(self) -> bool:
        """Does this worker hold any record-bearing work right now?

        The per-worker half of the deterministic drain barrier
        (:meth:`Job.data_quiescent`): queued or credit-deferred data
        tasks, alignment-buffered messages, and staged router output all
        count; perpetual poll/linger/timer chains deliberately do not —
        they carry no records themselves.
        """
        if self._blocked_buf:
            return True
        for task in self._tasks:
            if task[0] == "data":
                return True
        for deferred in self._deferred.values():
            for task in deferred:
                if task[0] == "data":
                    return True
        for instance in self.instances.values():
            router = instance.router
            if router is not None and router.staged_records:
                return True
        return False
