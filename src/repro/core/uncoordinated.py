"""Uncoordinated checkpointing (UNC, paper Section III-B).

Every operator instance snapshots on its own timer (same interval as COOR,
per-instance phase jitter).  Exactly-once needs three extra mechanisms, all
implemented here or in the runtime:

* **message logging** — every data message is appended to a durable
  per-channel send log at send time (upstream backup); the CPU tax of the
  append is the protocol's main failure-free cost.  Once per round of
  checkpoint registrations the log drops every message at or below its
  receiver's cursor in the *floor line*, the maximal consistent line of
  the registered checkpoints: no later recovery replays one, and none
  reads a checkpoint below it, so those blobs and the dedup history
  they stand on are collected too (DESIGN.md section 8);
* **recovery-line search** — the rollback propagation fixpoint over the
  checkpoint graph built from per-channel cursors
  (:mod:`repro.core.checkpoint_graph`);
* **replay + dedup** — in-flight messages of the chosen line are replayed
  from the log and receivers deduplicate by record lineage id.

Checkpoint metadata (cursors) is shipped to the coordinator — the protocol's
only message overhead, which is why Table II shows ~1.00–1.01x for UNC.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import TYPE_CHECKING

from repro.core.base import (
    initial_checkpoint,
    CheckpointMeta,
    CheckpointProtocol,
    InstanceKey,
    RecoveryPlan,
    register_protocol,
)
from repro.core.checkpoint_graph import (
    CheckpointGraph,
    ZCycleResult,
    invalid_checkpoint_count,
    maximal_consistent_line,
    zcycle_analysis,
)
from repro.core.recovery import build_replay_sets, message_seq
from repro.dataflow.channels import ChannelId, Message
from repro.metrics.collectors import KIND_LOCAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.runtime import Job
    from repro.dataflow.worker import InstanceRuntime

#: a local timer first fires at ``interval * (0.5 + U(0, TIMER_JITTER))``,
#: so the instances' checkpoints do not all land on one instant
TIMER_JITTER = 0.25


@register_protocol
class UncoordinatedProtocol(CheckpointProtocol):
    """Independent checkpoints + upstream backup + rollback propagation."""

    name = "unc"
    requires_logging = True
    supports_cycles = True

    VALID_SEMANTICS = ("exactly-once", "at-least-once", "at-most-once")

    # ------------------------------------------------------------------ #
    # Processing semantics (paper Definitions 1-3)
    # ------------------------------------------------------------------ #

    def __init__(self, job: "Job") -> None:
        """Resolve the configured processing guarantee once, at deploy time.

        * ``exactly-once`` — the paper's evaluated mode: message logging,
          recovery-line search, replay, lineage-id dedup.
        * ``at-least-once`` — logging and replay but no recovery-line
          search and no dedup: recovery restores the *latest* checkpoints;
          orphan messages get re-applied ("one or more times").
        * ``at-most-once`` — bare uncoordinated checkpoints: a consistent
          line is still chosen (duplicates are forbidden) but nothing is
          logged or replayed, so in-flight messages are lost — the paper's
          *gap recovery*.

        An unknown value raises here, so a bad ``unc_semantics`` fails
        ``Job(...)`` instead of the first worker task in virtual time.
        """
        super().__init__(job)
        semantics = job.config.unc_semantics
        if semantics not in self.VALID_SEMANTICS:
            raise ValueError(
                f"unc_semantics={semantics!r}; choose one of {self.VALID_SEMANTICS}"
            )
        #: the configured processing guarantee
        self.semantics: str = semantics
        #: does this semantics mode append to the durable send log?
        self.logs_messages = semantics != "at-most-once"
        self.requires_dedup = semantics == "exactly-once"
        #: the floor line: the maximal consistent line of the registered
        #: checkpoints when the send logs were last truncated (the initial
        #: checkpoints until then)
        self.floor: dict[InstanceKey, CheckpointMeta] = {}
        #: registrations until the next truncation
        self._registrations_left = 0
        #: ``(deploy epoch, *_wiring())`` of the last deployment asked about
        self._wired: tuple[
            int, dict[ChannelId, tuple[InstanceKey, InstanceKey]],
            list[tuple[ChannelId, InstanceKey, InstanceKey]]] = (-1, {}, [])

    # ------------------------------------------------------------------ #
    # Local checkpoint timers
    # ------------------------------------------------------------------ #

    def _participating_instances(self) -> list["InstanceRuntime"]:
        """Who runs a local checkpoint timer.

        Stateless non-source operators may be excluded (a flexibility of the
        uncoordinated family the paper highlights); sources always
        participate because their checkpoint stores the input offset.
        """
        instances = []
        for instance in self.job.instances():
            spec = instance.spec
            if spec.is_source or spec.stateful or self.job.config.unc_checkpoint_stateless:
                instances.append(instance)
        return instances

    def _schedule_for(self, instance: "InstanceRuntime") -> tuple[float | None, float]:
        """(interval override, first-fire phase) for one local timer.

        ``per_operator_schedules`` pins an explicit interval — the
        uncoordinated family's configurability the paper highlights (e.g.
        align a windowed operator's snapshots with its window boundary,
        when its state is smallest).  A ``None`` interval means "consult
        the job each tick", which is how the adaptive interval policy
        reaches every non-overridden timer.
        """
        config = self.job.config
        overrides = config.per_operator_schedules or {}
        if instance.op_name in overrides:
            interval, phase = overrides[instance.op_name]
            return interval, phase
        rng = self.job.rng.stream("unc-timers")
        interval = self.job.checkpoint_interval_now()
        phase = interval * (0.5 + rng.uniform(0.0, TIMER_JITTER))
        return None, phase

    def on_job_start(self) -> None:
        """Install one local checkpoint timer per participating instance,
        and collect the send log as checkpoints register."""
        self._reset_floor()
        if self.logs_messages:
            self.job.coordinator.add_metadata_listener(self._on_metadata)
        self._start_timers()

    def _start_timers(self) -> None:
        """Arm each participating instance's (jittered) timer chain."""
        for instance in self._participating_instances():
            interval, phase = self._schedule_for(instance)
            self.job.sim.schedule(phase, self._timer_tick, instance, interval,
                                  self.job.deploy_epoch)

    def _timer_tick(self, instance: "InstanceRuntime", interval: float | None,
                    deploy_epoch: int = 0) -> None:
        """Take a local checkpoint and reschedule.

        ``interval`` is a per-operator override; ``None`` re-consults the
        job's current (possibly adaptive) interval every tick.
        """
        job = self.job
        if deploy_epoch != job.deploy_epoch:
            return  # timer chain of a pre-rescale deployment; let it die
        if instance.worker.alive and not job.recovering:
            job.enqueue_checkpoint(instance, KIND_LOCAL, None)
        period = interval if interval is not None else job.checkpoint_interval_now()
        job.sim.schedule(period, self._timer_tick, instance, interval,
                         deploy_epoch)

    def on_rescaled(self, plan: RecoveryPlan) -> None:
        """Start local checkpoint timers for the replacement instances; the
        floor restarts with the registry and the logs, which the redeploy
        cleared."""
        self._reset_floor()
        self._start_timers()

    # ------------------------------------------------------------------ #
    # Message logging (upstream backup)
    # ------------------------------------------------------------------ #

    def on_send(self, instance: "InstanceRuntime", channel: ChannelId, msg: Message) -> float:
        """Append the message to the durable per-channel send log."""
        if not self.logs_messages:
            return 0.0
        job = self.job
        job.send_log.setdefault(channel, []).append(msg)
        return job.cost.log_append_cost(len(msg.records.rids), msg.payload_bytes)

    def _reset_floor(self) -> None:
        """Start the floor line at the deployment's initial checkpoints."""
        self.floor = {key: initial_checkpoint(key)
                      for key in self.job.instance_keys()}
        self._registrations_left = len(self.floor)

    def _on_metadata(self, meta: CheckpointMeta) -> None:
        """Once per round of registrations (as many as the deployment has
        instances), raise the floor line, truncate the logs below it and
        collect the checkpoints below it."""
        self._registrations_left -= 1
        if not self._registrations_left:
            self._registrations_left = len(self.floor)
            self.floor = self.floor_line()
            self.truncate_logs(self.floor)
            self.job.collect_below(self.floor)

    def floor_line(self) -> dict[InstanceKey, CheckpointMeta]:
        """The maximal consistent line of the registered checkpoints.

        It never falls (DESIGN.md section 8), so each instance's search
        starts at its checkpoint in the current floor, not at the initial
        one.
        """
        registry = self.job.registry
        graph = CheckpointGraph(
            checkpoints={key: registry.since(meta)
                         for key, meta in self.floor.items()},
            channels=self._wiring()[1])
        return maximal_consistent_line(graph).line

    def truncate_logs(self, floor: dict[InstanceKey, CheckpointMeta]) -> None:
        """Drop every logged message that its receiver's checkpoint in
        ``floor`` already counts: no later replay window reaches it."""
        endpoints = self._wiring()[0]
        for channel, messages in self.job.send_log.items():
            received = floor[endpoints[channel][1]].last_received
            if channel in received:
                del messages[:bisect_right(messages, received[channel],
                                           key=message_seq)]

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def _wiring(self) -> tuple[dict[ChannelId, tuple[InstanceKey, InstanceKey]],
                               list[tuple[ChannelId, InstanceKey, InstanceKey]]]:
        """The deployment's channels, as ``channel -> (sender, receiver)``
        and as ``(channel, sender, receiver)`` in the same order, built
        once per deploy epoch."""
        job = self.job
        epoch, endpoints, channels = self._wired
        if epoch != job.deploy_epoch:
            edges_by_id = {edge.edge_id: edge for edge in job.graph.edges}
            endpoints = {
                channel: ((edges_by_id[channel[0]].src, channel[1]), receiver.key)
                for channel, receiver in job.channel_dst.items()
            }
            channels = [(channel, sender, receiver)
                        for channel, (sender, receiver) in endpoints.items()]
            self._wired = (job.deploy_epoch, endpoints, channels)
        return endpoints, channels

    def build_checkpoint_graph(self) -> CheckpointGraph:
        """Assemble the rollback-propagation graph from cursors."""
        job = self.job
        checkpoints = {
            key: job.registry.with_initial(key) for key in job.instance_keys()
        }
        return CheckpointGraph(checkpoints=checkpoints,
                               channels=self._wiring()[1])

    def zcycle_analysis(self) -> ZCycleResult:
        """The useless checkpoints of the run so far (analysis only).

        Every registered checkpoint, and each channel's messages up to its
        receiver's live receive cursor (DESIGN.md section 8).
        """
        delivered = {
            channel: receiver.last_received.get(channel, 0)
            for channel, receiver in self.job.channel_dst.items()
        }
        return zcycle_analysis(self.build_checkpoint_graph(), delivered)

    def build_recovery_plan(self, now: float) -> RecoveryPlan:
        """Run the recovery-line search (or the weaker-semantics shortcut)."""
        job = self.job
        graph = self.build_checkpoint_graph()
        if self.semantics == "at-least-once":
            # no recovery-line search: restore the freshest checkpoints;
            # orphans re-apply effects ("one or more times"), no data lost
            line = {
                key: (job.registry.latest(key) or initial_checkpoint(key))
                for key in job.instance_keys()
            }
            invalid = 0
        else:
            result = maximal_consistent_line(graph)
            line = result.line
            invalid = invalid_checkpoint_count(graph, line)
        if self.logs_messages:
            replay = build_replay_sets(line, job.send_log, self._wiring()[0])
        else:
            replay = {}  # at-most-once: in-flight messages are simply gone
        return RecoveryPlan(
            line=line,
            replay=replay,
            invalid_checkpoints=invalid,
            total_checkpoints=job.registry.total(),
            computed_at=now,
        )
