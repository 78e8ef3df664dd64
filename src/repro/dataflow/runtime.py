"""Job engine: deploy a logical graph onto simulated workers and run it.

Deployment model (paper Section VII-A): parallelism ``p`` means ``p``
workers, and **each worker hosts one parallel instance of every operator**.
Channels connect instance pairs per edge partitioning.  The runtime is
protocol-agnostic; all checkpointing behaviour is injected through the
:class:`~repro.core.base.CheckpointProtocol` hooks.

The module is a façade over four layers (DESIGN.md sections 3 and 13):

* :mod:`repro.dataflow.results` — :class:`RunResult` and its derived
  metrics;
* :mod:`repro.dataflow.transport` — message transmission, per-channel
  FIFO ordering, and bounded channels with credit-based flow control;
* :mod:`repro.dataflow.lifecycle` — the failure -> detect -> recover ->
  rescale orchestration;
* the engine itself (this module) — wiring, the operator data path,
  source polling, timers, and checkpoint scheduling.

The run loop: sources poll their log partitions on a self-clocking chain;
every message delivery / checkpoint / timer / flush is a CPU task on the
destination worker with a virtual duration from the cost model; failures
kill workers mid-run and detection triggers the protocol's recovery plan.
"""

from __future__ import annotations

from array import array
from dataclasses import replace
from heapq import heappush
from typing import Any

from repro.core.base import PROTOCOLS, CheckpointMeta, CheckpointRegistry, create_protocol
from repro.core.recovery import ChannelLog
from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import ChannelId
from repro.dataflow.coordinator import Coordinator
from repro.dataflow.graph import (
    EdgeSpec,
    LogicalGraph,
    Partitioning,
    UnsupportedTopologyError,
    validate_rescale,
)
from repro.dataflow.keygroups import validate_key_space
from repro.dataflow.lifecycle import LifecycleManager
from repro.dataflow.records import source_rid_column
from repro.dataflow.results import RunResult
from repro.dataflow.state import ChainTracker
from repro.dataflow.transport import Transport
from repro.dataflow.worker import InstanceRuntime, WorkerRuntime
from repro.metrics.collectors import (
    KIND_INITIAL,
    KIND_RESCALE,
    UNCOORDINATED_KINDS,
    CheckpointEvent,
    MetricsCollector,
)
from repro.sim.costs import RuntimeConfig
from repro.sim.rng import RngRegistry
from repro.sim.simulator import SimulationError, Simulator
from repro.storage.kafka import Partition, PartitionedLog

__all__ = ["InstanceKey", "Job"]

InstanceKey = tuple[str, int]


def source_rids(partition: Partition, prefix: int) -> array:
    """The lineage id of every offset of ``partition``, derived once.

    The ids are a function of ``prefix`` (topic and partition index) and
    the offset alone, so every job replaying the log reads the same
    column: the runs sharing a memoised log, and a rescaled deployment
    whose sources own other partitions than before.  The prefix is kept
    beside the column, so a job naming the topic differently derives its
    own instead of reading another's; the partition drops the cache on
    every write.

    The column is an ``array('Q')`` of 8-byte words, not a list of
    ``int`` objects: a poll turns its slice into ints
    (``rids[cursor:end].tolist()``), so the only ints a source rid keeps
    alive are the ones the dedup history still holds, and a cut at the
    floor line frees them (DESIGN.md section 8).
    """
    cached = partition.rid_cache
    if cached is None or cached[0] != prefix:
        cached = partition.rid_cache = (
            prefix, source_rid_column(prefix, len(partition.times)))
    return cached[1]


def check_topology(graph: LogicalGraph, protocol: str,
                   channel_capacity_bytes: int | None) -> None:
    """Refuse a cyclic ``graph`` under a protocol or a channel bound it
    cannot run with; :class:`Job` and ``repro query`` both ask this."""
    if not graph.has_cycle():
        return
    if not PROTOCOLS[protocol].supports_cycles:
        raise UnsupportedTopologyError(
            f"protocol {protocol!r} cannot run on cyclic dataflows "
            "(marker deadlock — paper Section III-A)"
        )
    if (channel_capacity_bytes or 0) > 0:
        raise UnsupportedTopologyError(
            f"channel_capacity_bytes={channel_capacity_bytes} cannot run on "
            "cyclic dataflows: credit-based flow control on a cycle can "
            "deadlock (DESIGN.md section 13)"
        )


class Job:
    """One deployed streaming query under one checkpointing protocol."""

    def __init__(
        self,
        graph: LogicalGraph,
        protocol: str,
        parallelism: int,
        inputs: dict[str, PartitionedLog],
        config: RuntimeConfig | None = None,
    ) -> None:
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self.graph = graph
        self.parallelism = parallelism
        #: the deployed parallelism, which is also the number of
        #: input-log partitions per topic: fixed for the job's life, a
        #: rescaled recovery re-spreads them over the new source instances
        self.initial_parallelism = parallelism
        self.config = config or RuntimeConfig()
        self.cost = self.config.cost_model
        self.max_key_groups = self.config.max_key_groups
        validate_key_space(parallelism, self.max_key_groups, context="job parallelism")
        self.inputs = inputs
        self.sim = Simulator()
        self.metrics = MetricsCollector()
        self.rng = RngRegistry(self.config.seed)
        self.chain_tracker = ChainTracker(self.config.state_backend,
                                          self.cost.delta_overhead_bytes)
        if self.config.rescale_to is not None:
            validate_rescale(graph, parallelism, self.config.rescale_to,
                             self.max_key_groups)
        self.lifecycle = LifecycleManager(self)
        #: Young–Daly interval controller (None under the fixed policy);
        #: protocols consult lifecycle.checkpoint_interval_now() each tick
        self.interval_controller = self.lifecycle.build_interval_controller()
        self.recovering = False
        self.epoch = 0
        #: bumped on every rescaled redeploy; stale durability callbacks
        #: from the previous topology check it and drop themselves
        self.deploy_epoch = 0
        self.completed_rounds: set[int] = set()

        self.protocol = create_protocol(protocol, self)
        check_topology(graph, protocol, self.config.channel_capacity_bytes)
        graph.validate()
        for spec in graph.sources():
            if spec.source_topic not in inputs:
                raise ValueError(f"missing input log for topic {spec.source_topic!r}")
            if len(inputs[spec.source_topic].partitions) != parallelism:
                raise ValueError(
                    f"topic {spec.source_topic!r} must have {parallelism} partitions"
                )

        self.coordinator = Coordinator(self)
        self.workers: list[WorkerRuntime] = [
            WorkerRuntime(self, i) for i in range(parallelism)
        ]
        #: durable per-channel send log (UNC/CIC upstream backup)
        self.send_log: dict[ChannelId, ChannelLog] = {}
        #: per instance, the key of every resident checkpoint blob, oldest
        #: first (:meth:`collect_below` frees them)
        self.resident: dict[InstanceKey, list[str]] = {}
        self.channel_dst: dict[ChannelId, InstanceRuntime] = {}
        #: :meth:`_enqueue_poll` bound once: the callback every poll
        #: reschedule pushes (:meth:`release` clears it with the rest)
        self._poll_callback = self._enqueue_poll
        self.transport = Transport(self)
        self.lifecycle.wire_topology()

    # -- wiring helpers and introspection --------------------------------- #

    def edge_channel_dsts(self, edge: EdgeSpec, src_index: int) -> list[int]:
        """Destination instance indices reachable on ``edge`` from ``src_index``."""
        if edge.partitioning is Partitioning.FORWARD:
            return [src_index]
        return list(range(self.parallelism))

    def instance_keys(self) -> list[InstanceKey]:
        """Every (operator, index) pair in deterministic order."""
        return [
            (name, idx)
            for name in self.graph.operator_order()
            for idx in range(self.parallelism)
        ]

    def instance(self, key: InstanceKey) -> InstanceRuntime:
        """The runtime instance deployed under ``key``."""
        return self.workers[key[1]].instances[key[0]]

    def instances(self) -> list[InstanceRuntime]:
        """Every instance, in :meth:`instance_keys` order."""
        return [self.instance(key) for key in self.instance_keys()]

    @property
    def registry(self) -> CheckpointRegistry:
        """The coordinator's durable checkpoint registry."""
        return self.coordinator.registry

    @property
    def n_instances(self) -> int:
        """Operators times parallelism (instances in the deployment)."""
        return len(self.graph.operators) * self.parallelism

    def instance_ordinal(self, key: InstanceKey) -> int:
        """Dense 0..n_instances-1 index (used by CIC vectors)."""
        order = self.graph.operator_order().index(key[0])
        return order * self.parallelism + key[1]

    # ------------------------------------------------------------------ #
    # Data path (flushing and transmission live in job.transport)
    # ------------------------------------------------------------------ #

    def process_records(self, instance: InstanceRuntime,
                        batch: RecordBatch | None, port: str) -> float:
        """Run operator logic over a batch; returns virtual CPU cost.

        Every input — polled batches, delivered messages, replayed and
        reinjected channel state — takes this one path.  Under a protocol
        that dedups, admission depends on whether the instance has ever
        been rolled back.  Until then nothing can be offered twice —
        channels are FIFO and exactly-once while no worker has failed,
        and a lineage id is a bijection of its parent's — so the instance
        holds no set and the rid column is only journaled.  Every restore
        installs the set (``InstanceRuntime.install_rids`` /
        ``restore_rescaled``), and from then on the column is admitted
        with one probe and one insert (below), repeats dropped first
        occurrence wins (DESIGN.md sections 22 and 23).  The operator
        consumes the whole batch in one
        :meth:`~repro.dataflow.operators.Operator.process_batch` call, and
        the outputs route once.  CPU is charged as
        ``cpu_per_record * records_processed``.
        """
        if batch is None:
            return 0.0
        rids = batch.rids
        n = len(rids)
        if not n:
            return 0.0
        router = instance.router
        if self.protocol.requires_dedup:
            seen = instance.rid_set
            if seen is None:
                # never restored, so nothing can be offered twice
                instance.rid_journal.extend(rids)
            else:
                fresh = seen.isdisjoint(rids)
                if fresh:
                    # nothing already processed: insert the whole column.
                    # The set then grew by n, or the batch repeats a rid —
                    # and since none of them was in the set before, taking
                    # them all out again restores exactly the state before
                    grown = len(seen) + n
                    seen.update(rids)
                    if len(seen) != grown:
                        seen.difference_update(rids)
                        fresh = False
                if fresh:
                    instance.rid_journal.extend(rids)
                else:
                    batch = self._dedup_batch(instance, batch)
                    n = len(batch.rids)
                    if not n:
                        return (self.transport.flush_ready(instance)
                                if router._n_ready else 0.0)
        operator = instance.operator
        outputs = operator.process_batch(batch, port)
        cost = operator.cpu_per_record * n
        if outputs is not None and outputs.rids:
            router.route_batch(outputs)
        if router._n_ready:
            # only a router with a buffer at the batch threshold is asked
            cost += self.transport.flush_ready(instance)
        return cost

    def _dedup_batch(self, instance: InstanceRuntime,
                     batch: RecordBatch) -> RecordBatch:
        """Drop already-processed rids from a batch (slow path, dups present).

        First occurrence wins (also within the batch); survivors journal
        in arrival order.
        """
        seen = instance.processed_rids
        journal = instance.rid_journal
        keep: list[int] = []
        duplicates = 0
        for i, rid in enumerate(batch.rids):
            if rid in seen:
                duplicates += 1
                continue
            seen.add(rid)
            journal.append(rid)
            keep.append(i)
        self.metrics.duplicates_skipped += duplicates
        if len(keep) == len(batch.rids):
            return batch
        return batch.select(keep)

    # -- sources ----------------------------------------------------------- #

    def start_source_polls(self) -> None:
        """Kick off each source instance's self-clocking poll chain."""
        jitter = self.rng.stream("source-poll")
        for spec in self.graph.sources():
            for idx in range(self.parallelism):
                instance = self.instance((spec.name, idx))
                offset = jitter.uniform(0, self.cost.source_poll_interval)
                # repro-lint: disable=RL006 -- poll chain is epoch-agnostic by design: _enqueue_poll re-checks worker.alive and recovering at fire time
                self.sim.schedule(offset, self._enqueue_poll, instance)

    def _enqueue_poll(self, instance: InstanceRuntime) -> None:
        worker = instance.worker
        if worker.alive and not self.recovering:
            worker.enqueue(instance.poll_task)

    def run_source_poll(self, instance: InstanceRuntime) -> float:
        """Poll task: pull one batch of available records through the source op.

        The instance polls every input partition it owns — exactly one
        before a rescale, a contiguous balanced range after one.  The log
        is columnar (DESIGN.md section 20), so a poll is a bisect for the
        high-watermark and one slice per batch column; the lineage ids
        come from the partition's cached rid column.
        """
        partitions = self.inputs[instance.spec.source_topic].partitions
        now = self.sim.now
        max_poll = self.cost.source_max_poll
        cursors = instance.source_cursors
        cost = 1e-5
        for part_index, cursor in cursors.items():
            partition = partitions[part_index]
            end = partition.poll_end(cursor, now, max_poll)
            if end <= cursor:
                continue
            self.metrics.record_ingest(now, end - cursor)
            rids = source_rids(partition, instance.rid_prefixes[part_index])
            batch = RecordBatch(
                rids[cursor:end].tolist(),
                partition.payloads[cursor:end],
                partition.times[cursor:end],
                partition.sizes[cursor:end],
            )
            cursors[part_index] = end
            cost += self.process_records(instance, batch, "in")
        # the next poll: Simulator.schedule's guard and push, inline.  The
        # chain is epoch-agnostic: _enqueue_poll re-checks liveness and
        # recovery when it fires
        delay = self.cost.source_poll_interval
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay {delay!r}")
        queue = self.sim._queue
        seq = queue._seq
        queue._seq = seq + 1
        heappush(queue._heap, [now + delay, seq, self._poll_callback, (instance,)])
        return cost

    # -- timers and linger flushes ------------------------------------------ #

    def register_timer(self, instance: InstanceRuntime, at: float, tag: Any) -> None:
        """Schedule ``on_timer(tag)`` for ``instance`` at virtual time ``at``."""
        epoch = self.epoch

        def fire() -> None:
            worker = instance.worker
            if worker.alive and not self.recovering and epoch == self.epoch:
                worker.enqueue(("timer", instance, tag, epoch))

        self.sim.schedule_at(max(at, self.sim.now), fire)

    def _linger_tick(self) -> None:
        """One batched tick for every worker (a single simulator event).

        Workers are visited in index order — the same order the per-worker
        chains used to fire in — and the staged check is an O(1) counter
        read per instance, so an idle tick costs almost nothing.
        """
        if not self.recovering:
            for worker in self.workers:
                if worker.alive and worker.has_staged_records():
                    worker.enqueue(("flush",))
        # repro-lint: disable=RL006 -- perpetual global tick; deliberately survives every epoch and re-checks recovering each firing
        self.sim.schedule(self.cost.linger, self._linger_tick)

    # ------------------------------------------------------------------ #
    # Checkpoint execution (shared by every protocol)
    # ------------------------------------------------------------------ #

    def enqueue_checkpoint(self, instance: InstanceRuntime, kind: str,
                           round_id: int | None = None,
                           priority: bool = False) -> None:
        """Queue a snapshot task on the instance's worker CPU."""
        task = ("ckpt", instance, kind, round_id)
        if priority:
            instance.worker.enqueue_front(task)
        else:
            instance.worker.enqueue(task)

    def execute_checkpoint(self, instance: InstanceRuntime, kind: str,
                           round_id: int | None) -> float:
        """Take a snapshot now; returns the synchronous CPU cost.

        Staged router buffers are flushed *before* capturing state so the
        sent-cursor covers every record produced from pre-checkpoint input
        (otherwise those records would be dropped by a rollback — see the
        no-dropping half of the consistency definition).
        """
        cost = self.transport.flush_all(instance, force=True)
        cost += self.protocol.on_checkpoint_started(instance, kind, round_id)
        meta, payload = self.capture_checkpoint(instance, kind, round_id)
        # the synchronous part serializes what gets written: a changelog
        # delta forks/encodes only the dirty entries
        cost += self.cost.snapshot_sync_cost(meta.upload_bytes)
        self.schedule_durable(
            instance, cost + self.cost.blob_upload_delay(meta.upload_bytes),
            meta, payload)
        return cost

    def capture_checkpoint(self, instance: InstanceRuntime, kind: str,
                           round_id: int | None,
                           ) -> tuple[CheckpointMeta, dict[str, Any]]:
        """The one write step: capture ``instance`` now and describe it.

        Allocates the checkpoint id and blob key, has the chain tracker
        capture a snapshot or a delta, and stamps the metadata with the
        cursors as they stand — so it runs after whatever the caller
        flushes or sends first (a marker sent before it is covered by
        ``last_sent``, one sent after it is not).  Returns the metadata,
        not yet durable, and the payload for the blob store; the caller
        charges the synchronous cost and decides when durability is
        scheduled (:meth:`schedule_durable`).

        The synthetic baseline of a rescaled restore
        (:data:`~repro.metrics.collectors.KIND_RESCALE`) goes around the
        tracker: its bytes already live in the store, so it is a whole
        snapshot that uploads nothing, and the instance's next checkpoint
        starts a chain of its own instead of a delta onto it.
        """
        instance.checkpoint_counter += 1
        name, index = instance.key
        blob_key = f"{name}/{index}/{instance.checkpoint_counter}"
        # capturing seals the rid journal and re-arms change tracking: it
        # moves no byte, so the size is read once, here
        state_bytes = instance.state_bytes
        if kind == KIND_RESCALE:
            payload, upload_bytes, base_key = (
                instance.capture_snapshot(), 0, None)
        else:
            payload, upload_bytes, base_key = self.chain_tracker.capture(
                instance, blob_key, state_bytes)
        meta = CheckpointMeta(
            instance=instance.key,
            checkpoint_id=instance.checkpoint_counter,
            kind=kind,
            round_id=round_id,
            started_at=self.sim.now,
            durable_at=-1.0,  # stamped when the upload is acknowledged
            state_bytes=state_bytes,
            blob_key=blob_key,
            last_sent=dict(instance.out_seq),
            last_received=dict(instance.last_received),
            upload_bytes=upload_bytes,
            base_key=base_key,
        )
        return meta, payload

    def schedule_durable(self, instance: InstanceRuntime, delay: float,
                         meta: CheckpointMeta, payload: dict[str, Any]) -> None:
        """Schedule a checkpoint's durability, clamped to per-instance order.

        A small changelog delta could finish uploading before its larger,
        earlier-started parent; registering it first would break both the
        registry's id monotonicity and the chain invariant (a durable delta
        whose base is not yet fetchable).  The clamp makes durability
        per-instance FIFO, matching an ordered upload queue.
        """
        at = max(self.sim.now + delay,
                 instance.durable_floor + self.cost.channel_epsilon)
        instance.durable_floor = at
        # the callee is handed both epochs: it drops itself if a rescaled
        # redeploy came in between, and a recovery in between keeps the
        # checkpoint out of the registry (it belongs to the timeline the
        # rollback abandoned)
        self.sim.schedule_at(at, self._checkpoint_durable, meta, payload,
                             self.deploy_epoch, self.epoch)

    def _checkpoint_durable(self, meta: CheckpointMeta, payload: dict[str, Any],
                            deploy_epoch: int, epoch: int) -> None:
        """The one commit: the upload is acknowledged, the checkpoint exists."""
        if deploy_epoch != self.deploy_epoch:
            return  # upload outlived a rescaled redeploy; its instance is gone
        now = self.sim.now
        durable = replace(meta, durable_at=now)
        self.store_checkpoint(durable, payload, durable.upload_bytes)
        self.metrics.record_checkpoint(
            CheckpointEvent(
                instance=durable.instance,
                kind=durable.kind,
                started_at=durable.started_at,
                durable_at=now,
                state_bytes=durable.state_bytes,
                upload_bytes=durable.upload_bytes,
                round_id=durable.round_id,
            )
        )
        self.coordinator.send_metadata(durable, epoch)
        if durable.kind in UNCOORDINATED_KINDS:
            # the uncoordinated family's unit of checkpoint cost; the
            # coordinated family reports round durations instead
            self.lifecycle.note_checkpoint_duration(now - durable.started_at)

    def store_checkpoint(self, meta: CheckpointMeta, payload: dict[str, Any],
                         size_bytes: int) -> None:
        """Put a checkpoint's payload in the blob store, billed
        ``size_bytes``, and keep it resident until :meth:`collect_below`."""
        self.coordinator.blobstore.put(
            meta.blob_key, payload, size_bytes, base_key=meta.base_key)
        self.resident.setdefault(meta.instance, []).append(meta.blob_key)

    def collect_below(self, line: dict[InstanceKey, CheckpointMeta]) -> None:
        """Free what no recovery can read below ``line`` any more.

        ``line`` is one no later recovery passes below: the floor line of
        UNC/CIC, or COOR's newest complete round.  Per instance, every
        resident blob strictly older than its checkpoint in ``line`` is
        deleted, except the chain that checkpoint stands on, and the
        dedup history is cut at that checkpoint
        (:meth:`InstanceRuntime.cut_rids`; DESIGN.md section 8).  The
        registry and the checkpoint events stay: ``zcycle_analysis`` and
        the figures read them.  No virtual time is charged.
        """
        store = self.coordinator.blobstore
        for key, meta in line.items():
            if meta.kind == KIND_INITIAL:
                continue
            resident = self.resident[key]
            position = resident.index(meta.blob_key)
            if position:
                chain = store.chain_keys(meta.blob_key)
                kept = []
                for blob_key in resident[:position]:
                    if blob_key in chain:
                        kept.append(blob_key)
                    else:
                        store.delete(blob_key)
                resident[:position] = kept
            # the rids this checkpoint sealed (a node already cut holds
            # a new list)
            self.instance(key).cut_rids(
                store.get(meta.blob_key)["processed_rids"].added)

    # ------------------------------------------------------------------ #
    # Run loop
    # ------------------------------------------------------------------ #

    def data_quiescent(self) -> bool:
        """Is every input record either fully processed or still unread?

        True when no record-bearing work exists anywhere: not recovering,
        nothing on the wire (:attr:`Transport.pending_data`), no worker
        holds queued/deferred data tasks, alignment buffers or staged
        router output, and every source cursor has consumed its whole
        partition.  Perpetual poll/linger chains and pending checkpoints
        are deliberately ignored — they carry no records, and neither
        does a timer (:meth:`Operator.on_timer` emits nothing).
        """
        if self.recovering or self.transport.pending_data:
            return False
        for worker in self.workers:
            if worker.has_record_work():
                return False
        for spec in self.graph.sources():
            log = self.inputs[spec.source_topic]
            for idx in range(self.parallelism):
                instance = self.instance((spec.name, idx))
                for part_index, cursor in instance.source_cursors.items():
                    if cursor < len(log.partition(part_index)):
                        return False
        return True

    def drain(self) -> float:
        """Deterministic drain barrier: run until :meth:`data_quiescent`.

        Replaces timing-dependent "run a bit longer and hope" windows in
        tests: the simulator advances in 0.25 s slices until every
        produced record has landed (including post-failure replay), or
        raises after 120 virtual seconds — a wedged pipeline is a bug,
        not a reason to widen a window.  Returns the virtual time at
        which quiescence was observed.
        """
        deadline = self.sim.now + 120.0
        while not self.data_quiescent():
            if self.sim.now >= deadline:
                raise RuntimeError(
                    f"drain barrier: pipeline failed to quiesce within 120 "
                    f"virtual seconds (pending_data="
                    f"{self.transport.pending_data}, recovering="
                    f"{self.recovering})"
                )
            self.sim.run_until(min(self.sim.now + 0.25, deadline))
        return self.sim.now

    def release(self) -> None:
        """Take a finished job apart so that it dies by reference count.

        A deployment is a web of back-references — instance -> worker ->
        job, operator -> its context, the poll task naming its own
        instance, the transport's bound arrival seam, timers and callbacks
        pending in the event queue — so dropping the last outside
        reference to a job frees nothing: operator state, dedup sets and
        what the send log still holds (the messages above the floor line
        under UNC/CIC, DESIGN.md section 8) wait for whenever a full
        collection next happens to run (DESIGN.md section 20).  This cuts every such edge at the few
        hubs they all pass through; the pieces then go as the caller's
        reference does.  The :class:`RunResult` holds only the metrics and
        stays valid; the job itself is unusable afterwards, so only the
        owner of a job that nothing will inspect again may call this.
        """
        self.sim.clear()
        del self.transport.arrive
        for worker in (*self.lifecycle.retired_workers, *self.workers):
            for instance in worker.instances.values():
                vars(instance).clear()
            vars(worker).clear()
        vars(self).clear()

    def run(self, rate: float = 0.0, query_name: str = "",
            drain: bool = False) -> RunResult:
        """Execute the job for warmup + duration virtual seconds.

        ``drain=True`` appends the deterministic drain barrier after the
        measurement window, so callers comparing final state (differential
        suites) observe a quiescent pipeline instead of racing in-flight
        records.
        """
        config = self.config
        self.protocol.on_job_start()
        self.start_source_polls()
        self._linger_tick()
        self.lifecycle.arm_failure_injector()
        self.sim.run_until(config.warmup + config.duration)
        if drain:
            self.drain()
        self.transport.finalize()
        return RunResult(
            query=query_name or self.graph.name,
            protocol=self.protocol.name,
            parallelism=self.initial_parallelism,
            rate=rate,
            warmup=config.warmup,
            duration=config.duration,
            metrics=self.metrics,
            checkpoint_interval=config.checkpoint_interval,
            completed_rounds=set(self.completed_rounds),
            final_parallelism=self.parallelism,
        )
