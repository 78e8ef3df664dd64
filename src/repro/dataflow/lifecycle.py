"""Failure, recovery and rescale orchestration for one deployed job.

The :class:`LifecycleManager` owns the failure-to-recovery pipeline:
kill handling, detection, restart-cost modelling, rollback application,
in-flight replay, and the elastic rescale-on-recovery path (DESIGN.md
section 11) that tears the physical topology down and re-wires it at a
different parallelism.  The failure injector calls its ``on_fail`` /
``on_detect`` directly, and protocols read the checkpoint interval from
``job.lifecycle`` and report durations to it; everything downstream of
those entry points lives here.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.base import CheckpointMeta, InstanceKey, RecoveryPlan
from repro.dataflow.batch import RecordBatch, group_indices
from repro.dataflow.channels import ChannelId, DATA, Message, key_destinations
from repro.dataflow.graph import Partitioning, validate_rescale
from repro.dataflow.keygroups import group_range
from repro.dataflow.worker import InstanceRuntime, WorkerRuntime, folded_snapshot
from repro.metrics.collectors import KIND_INITIAL, KIND_RESCALE, RecoveryRecord

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.runtime import Job
    from repro.sim.failure import AdaptiveIntervalController


class LifecycleManager:
    """Deployment, failure detection, rollback, replay and rescale.

    Owns the parts of a job's life that are not the steady-state data
    path: wiring the physical topology (initially and on a rescaled
    redeploy), arming the failure injector, reacting to kills, and the
    adaptive checkpoint-interval controller that couples the two
    (DESIGN.md section 12).
    """

    def __init__(self, job: "Job") -> None:
        self.job = job
        #: workers of the deployments a rescale replaced.  Pending timers
        #: may still name their instances, so they stay intact (dead) to
        #: the end of the run, where :meth:`Job.release` takes them apart
        self.retired_workers: list[WorkerRuntime] = []

    # ------------------------------------------------------------------ #
    # Deployment wiring
    # ------------------------------------------------------------------ #

    def build_interval_controller(self) -> AdaptiveIntervalController | None:
        """The Young–Daly controller, or None under the fixed policy."""
        from repro.sim.failure import AdaptiveIntervalController

        config = self.job.config
        if config.interval_policy not in ("fixed", "adaptive"):
            raise ValueError(
                f"interval_policy={config.interval_policy!r}; "
                "choose 'fixed' or 'adaptive'"
            )
        if config.interval_policy != "adaptive":
            return None
        return AdaptiveIntervalController(
            initial_interval=config.checkpoint_interval,
            updates=self.job.metrics.interval_updates,
        )

    def wire_topology(self) -> None:
        """Deploy instances, routers and channels at the job's current
        parallelism (initial deploy and rescaled redeploys)."""
        from repro.dataflow.channels import RouterBuffer

        job = self.job
        for name, spec in job.graph.operators.items():
            for idx in range(job.parallelism):
                job.workers[idx].instances[name] = InstanceRuntime(
                    job, spec, idx, job.workers[idx])
        for worker in job.workers:
            for instance in worker.instances.values():
                out_edges = job.graph.out_edges(instance.op_name)
                instance.out_edges = out_edges
                instance.router = RouterBuffer(
                    out_edges, instance.index, job.parallelism,
                    job.max_key_groups, job.cost.batch_max_records,
                )
                for edge in job.graph.in_edges(instance.op_name):
                    instance.in_port_by_edge[edge.edge_id] = edge.port
                    if edge.partitioning is Partitioning.FORWARD:
                        src_indices = [instance.index]
                    else:
                        src_indices = list(range(job.parallelism))
                    for src_idx in src_indices:
                        channel = (edge.edge_id, src_idx, instance.index)
                        instance.in_channels.append(channel)
                        job.channel_dst[channel] = instance
                instance.open()

    def arm_failure_injector(self) -> None:
        """Arm the configured failure scenario's injector, if any."""
        from repro.sim.failure import FailureInjector, scenario_from_config

        job = self.job
        config = job.config
        scenario = scenario_from_config(config)
        if scenario is None:
            return
        events = scenario.events(
            config.warmup, config.warmup + config.duration,
            job.rng.stream("failure-scenario"),
        )
        injector = FailureInjector(
            job.sim, events,
            detection_delay=job.cost.detection_delay,
            on_fail=self.on_fail,
            on_detect=self.on_detect,
            # resolve a scenario's raw worker draw against the LIVE
            # parallelism (a rescale may have changed it by kill time)
            worker_resolver=lambda index: index % job.parallelism,
        )
        injector.arm()

    # ------------------------------------------------------------------ #
    # Adaptive checkpoint interval (DESIGN.md section 12)
    # ------------------------------------------------------------------ #

    def checkpoint_interval_now(self) -> float:
        """The interval checkpoint timers should use for their next tick.

        The fixed policy returns the configured constant; the adaptive
        policy returns the controller's current Young–Daly interval.
        Protocols re-consult this every tick so interval changes take
        effect at the next scheduling decision.
        """
        controller = self.job.interval_controller
        if controller is not None:
            return controller.interval
        return self.job.config.checkpoint_interval

    def note_checkpoint_duration(self, duration: float) -> None:
        """Feed one completed checkpoint's duration to the controller.

        The coordinated family reports completed *round* durations (the
        round is its unit of checkpoint cost); the uncoordinated family
        reports per-instance local/forced checkpoints.
        """
        job = self.job
        if job.interval_controller is None:
            return
        job.interval_controller.observe_checkpoint(job.sim.now, duration)

    # ------------------------------------------------------------------ #
    # Failure and recovery
    # ------------------------------------------------------------------ #

    def on_fail(self, worker_index: int) -> None:
        """A failure event fired: kill the targeted worker."""
        job = self.job
        recoveries = job.metrics.recoveries
        if not recoveries or recoveries[-1].applied_at is not None:
            recoveries.append(RecoveryRecord(killed_at=job.sim.now))
        recoveries[-1].workers.append(worker_index)  # a folded kill appends
        if job.recovering:
            return  # the pipeline is already down; fold into this recovery
        if job.interval_controller is not None:
            job.interval_controller.observe_failure(job.sim.now)
        # a planned kill may target an index beyond a downscaled deployment
        job.workers[worker_index % job.parallelism].kill()

    def pending_rescale_target(self) -> int | None:
        """The target parallelism if the upcoming recovery must rescale."""
        job = self.job
        config = job.config
        # the open record is the upcoming recovery (all earlier ones applied)
        if (config.rescale_to is None or config.rescale_to == job.parallelism
                or len(job.metrics.recoveries) != config.rescale_at):
            return None
        return config.rescale_to

    def on_detect(self, worker_index: int) -> None:
        """Detection fired: plan the recovery and schedule its application."""
        job = self.job
        worker_index %= job.parallelism
        if job.recovering or job.workers[worker_index].alive:
            return  # folded into an in-flight recovery / already replaced
        plan = job.protocol.build_recovery_plan()
        plan.rescale_to = self.pending_rescale_target()
        record = job.metrics.recoveries[-1]
        record.detected_at = job.sim.now
        record.line = (
            tuple(sorted(
                (key, meta.checkpoint_id, meta.kind)
                for key, meta in plan.line.items()
            )),
            tuple(sorted(
                (channel, tuple(m.seq for m in messages))
                for channel, messages in plan.replay.items() if messages
            )),
        )
        record.invalid_checkpoints = plan.invalid_checkpoints
        record.total_checkpoints = plan.total_checkpoints
        record.replayed_messages = plan.replayed_messages
        record.replayed_records = plan.replayed_records
        job.recovering = True
        job.epoch += 1
        for worker in job.workers:
            worker.reset_for_recovery()
        # close wire/credit state NOW: the parked batches died with the
        # routers above, so their blocked time must stop at detection —
        # not accrue across the restart window (the pipeline is globally
        # down; nobody is "awaiting credits")
        job.transport.reset()
        restart = self.restart_duration(plan)
        job.sim.schedule(restart, self.apply_recovery, plan)

    def restart_duration(self, plan: RecoveryPlan) -> float:
        """How long until every worker is restored and ready (paper Fig. 11).

        Every new worker issues ranged fetches against the blobs of the
        old instances whose group ranges overlap its own — at an unchanged
        parallelism, its own instances' — paying the full per-blob chain
        latency but only its byte share of each chain.  Replay-log fetches
        re-home to ``old destination % p_new``.
        """
        job = self.job
        cost_model = job.cost
        groups = job.max_key_groups
        p_old = 1 + max(idx for _, idx in plan.line)
        p_new = plan.rescale_to or job.parallelism
        new_ranges = [group_range(j, p_new, groups) for j in range(p_new)]
        per_worker = [0.0] * p_new
        store = job.coordinator.blobstore
        for key, meta in plan.line.items():
            if meta.kind == KIND_INITIAL:
                continue
            old_range = group_range(key[1], p_old, groups)
            n_blobs, chain_bytes = store.chain_size(meta.blob_key)
            for j, new_range in enumerate(new_ranges):
                overlap = (min(old_range.stop, new_range.stop)
                           - max(old_range.start, new_range.start))
                if overlap <= 0:
                    continue
                share = overlap / len(old_range)
                per_worker[j] += cost_model.chain_restore_delay(
                    int(chain_bytes * share), n_blobs
                )
        for channel, messages in plan.replay.items():
            dst_worker = channel[2] % p_new
            nbytes = sum(m.total_bytes for m in messages)
            per_worker[dst_worker] += nbytes / cost_model.log_fetch_bandwidth
            per_worker[dst_worker] += len(messages) * cost_model.replay_prep_per_message
        # each case keeps its own addition order: one ulp here moves
        # restart_time in every recorded digest
        base = (cost_model.restart_base if p_new == p_old
                else cost_model.restart_base + cost_model.rescale_base)
        workers = max(p_old, p_new)
        orchestration = base + cost_model.restart_per_worker * workers
        return orchestration + max(per_worker)

    def apply_recovery(self, plan: RecoveryPlan) -> None:
        """Restore the recovery line and resume processing."""
        job = self.job
        line_parallelism = 1 + max(idx for _, idx in plan.line)
        target = plan.rescale_to or job.parallelism
        if target != job.parallelism or line_parallelism != job.parallelism:
            self.apply_rescaled_recovery(plan, target)
            return
        for key, meta in plan.line.items():
            job.instance(key).restore(meta, self.line_payloads(meta))
        self.abandon_rolled_back_timeline(plan.line)
        job.transport.reset()
        for worker in job.workers:
            worker.alive = True  # replacement container
        job.metrics.recoveries[-1].applied_at = job.sim.now
        job.recovering = False
        job.protocol.on_recovery_applied(plan)
        # replay in-flight messages (UNC/CIC): deterministic channel order
        for channel in sorted(plan.replay):
            for msg in plan.replay[channel]:
                job.transport.transmit(channel, msg)
        self.resume_after_recovery()

    def abandon_rolled_back_timeline(
            self, line: dict[InstanceKey, CheckpointMeta]) -> None:
        """Keep only the timeline ``line`` lies on.

        The registry stops offering the checkpoints newer than the line,
        and each channel's send log is cut to what the sender's line
        checkpoint had sent: the restored sender sends the rest again
        under the same sequence numbers, so every log stays one strictly
        increasing timeline.
        """
        job = self.job
        job.registry.roll_back_to(line)
        edges_by_id = {edge.edge_id: edge for edge in job.graph.edges}
        for channel, log in job.send_log.items():
            sender = (edges_by_id[channel[0]].src, channel[1])
            log.drop_after(line[sender].sent_cursor(channel))

    def resume_after_recovery(self) -> None:
        """Restart source polling and worker CPUs after a rollback."""
        job = self.job
        for spec in job.graph.sources():
            for idx in range(job.parallelism):
                job._enqueue_poll(job.instance((spec.name, idx)))
        for worker in job.workers:
            worker.kick()

    # ------------------------------------------------------------------ #
    # Rescale-on-recovery (DESIGN.md section 11)
    # ------------------------------------------------------------------ #

    def apply_rescaled_recovery(self, plan: RecoveryPlan, p_new: int) -> None:
        """Restore the recovery line at a different parallelism.

        The checkpoints of the line were taken by ``p_old`` instances; the
        replacement deployment runs ``p_new``.  Keyed state moves along its
        key groups, source cursors along their input partitions, replayed
        in-flight records are re-routed to the groups' new owners, and a
        synthetic baseline checkpoint per new instance becomes the recovery
        floor of the new topology (everything older describes instances
        that no longer exist).
        """
        job = self.job
        graph = job.graph
        p_old = 1 + max(idx for _, idx in plan.line)
        validate_rescale(graph, p_old, p_new, job.max_key_groups)
        # fold every old instance's checkpoint (base + delta chain, or
        # nothing) into the one snapshot the new instances merge from
        parts: dict[str, list[dict]] = {
            name: [
                folded_snapshot(spec, self.line_payloads(plan.line[(name, i)]))
                for i in range(p_old)
            ]
            for name, spec in graph.operators.items()
        }
        self.rebuild_topology(p_new)
        for name in graph.operators:
            for j in range(p_new):
                job.instance((name, j)).restore_rescaled(parts[name], p_old)
        job.protocol.on_rescaled(plan)
        for worker in job.workers:
            worker.alive = True
        record = job.metrics.recoveries[-1]
        record.applied_at = job.sim.now
        job.recovering = False
        # re-route the line's in-flight messages through the new topology,
        # then stamp the synthetic baseline *after* the senders' cursors
        # advanced: a later rollback to the baseline finds the re-injected
        # messages inside its replay windows instead of losing them
        injected = self.reinject_replay(plan, p_new)
        self.install_rescale_baseline(injected)
        record.rescale = (p_old, p_new)
        for instance in job.instances():
            for group, nbytes in instance.operator.states.group_sizes(
                    job.max_key_groups).items():
                record.group_state_bytes[group] = (
                    record.group_state_bytes.get(group, 0) + nbytes)
        job.protocol.on_recovery_applied(plan)
        self.resume_after_recovery()

    def line_payloads(self, meta: CheckpointMeta) -> list[dict]:
        """The payloads a restore of ``meta`` folds, base first.

        None for the initial checkpoint, one for a full snapshot, the
        snapshot and every delta since for a changelog checkpoint.
        """
        if meta.kind == KIND_INITIAL:
            return []
        store = self.job.coordinator.blobstore
        return [store.get(key) for key in store.chain_keys(meta.blob_key)]

    def rebuild_topology(self, p_new: int) -> None:
        """Tear the physical deployment down and re-wire it at ``p_new``.

        Logical identities survive (graph, input logs, blob store, metrics);
        everything addressed by instance index or channel id is rebuilt.
        Old workers are killed so callbacks scheduled against them no-op,
        and per-operator checkpoint counters carry forward so blob keys
        stay unique across deploy epochs.
        """
        job = self.job
        carried = {
            name: max(
                job.workers[i].instances[name].checkpoint_counter
                for i in range(job.parallelism)
            )
            for name in job.graph.operators
        }
        for worker in job.workers:
            worker.kill()
        self.retired_workers.extend(job.workers)
        job.deploy_epoch += 1
        job.parallelism = p_new
        job.coordinator.registry.clear()
        job.send_log.clear()
        job.transport.reset()
        job.channel_dst.clear()
        job.workers = [WorkerRuntime(job, i) for i in range(p_new)]
        self.wire_topology()
        for name, spec in job.graph.operators.items():
            for j in range(p_new):
                instance = job.instance((name, j))
                instance.checkpoint_counter = carried[name]
                if spec.is_source:
                    instance.assign_source_partitions(list(
                        group_range(j, p_new, job.initial_parallelism)
                    ))

    def reinject_replay(self, plan: RecoveryPlan,
                        p_new: int) -> dict[ChannelId, list[Message]]:
        """Re-route the line's in-flight records through the new topology.

        Replayed messages were addressed to channels of the old deployment;
        their records are re-partitioned (key -> group -> new owner) and
        sent from ``old source index % p_new`` through the normal send
        hooks, so the uncoordinated family logs them into the new epoch's
        send log.  Returns the injected messages per new channel (the
        unaligned protocol persists them as baseline channel state).
        """
        job = self.job
        edges_by_id = {edge.edge_id: edge for edge in job.graph.edges}
        # the new shape's routing table, probed as a router probes it
        table = key_destinations(p_new, job.max_key_groups)
        entries, derive = table.entries, table.derive
        buckets: dict[tuple[int, int, int], RecordBatch] = {}
        for channel in sorted(plan.replay):
            edge = edges_by_id[channel[0]]
            src = channel[1] % p_new
            for msg in plan.replay[channel]:
                batch = msg.records
                if edge.partitioning is Partitioning.KEY:
                    dsts = [entries[key] if key in entries else derive(key)
                            for key in map(edge.key_fn, batch.payloads)]
                    for dst, idxs in group_indices(dsts).items():
                        buckets.setdefault(
                            (edge.edge_id, src, dst),
                            RecordBatch([], [], [], [])
                        ).extend_select(batch, idxs)
                else:  # FORWARD (BROADCAST was rejected by validation)
                    buckets.setdefault(
                        (edge.edge_id, src, src),
                        RecordBatch([], [], [], [])).extend(batch)
        injected: dict[ChannelId, list[Message]] = {}
        for (edge_id, src, dst) in sorted(buckets):
            records = buckets[(edge_id, src, dst)]
            sender = job.instance((edges_by_id[edge_id].src, src))
            nbytes = sum(records.sizes)
            channel = (edge_id, src, dst)
            seq = sender.out_seq.get(channel, 0) + 1
            sender.out_seq[channel] = seq
            msg = Message(
                channel=channel, seq=seq, kind=DATA, records=records,
                payload_bytes=nbytes,
            )
            if job.protocol.hooks_send:
                job.protocol.on_send(sender, channel, msg)
            job.metrics.record_message(msg.payload_bytes, msg.protocol_bytes,
                                       len(records))
            job.transport.transmit(channel, msg)
            injected.setdefault(channel, []).append(msg)
        return injected

    def install_rescale_baseline(
            self, injected: dict[ChannelId, list[Message]]) -> None:
        """Checkpoint every new instance as the post-rescale recovery floor.

        The baseline is bookkeeping, not a measured checkpoint: its bytes
        already live in the store (they were fetched from the old blobs),
        so it uploads nothing, becomes durable immediately and records no
        metrics event.  Senders' cursors cover the re-injected replay
        messages while receivers' are empty, so those messages sit inside
        the baseline's replay windows.  No recovery passes below the
        baseline, so every blob of the old topology is deleted first
        (DESIGN.md section 8).
        """
        job = self.job
        store = job.coordinator.blobstore
        for resident in job.resident.values():
            for blob_key in resident:
                store.delete(blob_key)
        job.resident.clear()
        metas: dict = {}
        now = job.sim.now
        for instance in job.instances():
            meta, payload = job.capture_checkpoint(instance, KIND_RESCALE, None)
            if job.protocol.channel_state_in_snapshot:
                payload["channel_state"] = {
                    channel: list(messages)
                    for channel, messages in injected.items()
                    if job.channel_dst.get(channel) is instance
                }
            job.store_checkpoint(meta, payload, meta.state_bytes)
            metas[instance.key] = replace(meta, durable_at=now)
        job.protocol.install_rescale_baseline(metas)
