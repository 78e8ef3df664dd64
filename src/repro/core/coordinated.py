"""Coordinated aligned checkpointing (COOR, paper Section III-A).

Chandy–Lamport adapted to acyclic streaming dataflows, i.e. Flink-style
aligned checkpoints:

* the coordinator initiates a round every ``checkpoint_interval`` (only if
  the previous round completed) by telling every source instance to
  snapshot and forward a marker on all outgoing channels;
* a non-source instance blocks each inbound channel on marker arrival and
  buffers its traffic (*alignment*); once markers arrived on **all**
  inbound channels it snapshots, forwards markers, and unblocks;
* the round is complete when every instance's checkpoint is durable; only
  completed rounds are valid recovery lines, so completing one collects
  every older checkpoint (DESIGN.md section 8).

No message logging, no dedup, zero invalid checkpoints — and no support
for cyclic graphs (an operator would wait forever for a marker that must
come from itself).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.base import (
    CheckpointMeta,
    CheckpointProtocol,
    RecoveryPlan,
    initial_checkpoint,
    register_protocol,
)
from repro.dataflow.channels import ChannelId, Message
from repro.metrics.collectors import KIND_COOR, KIND_ROUND, CheckpointEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import InstanceKey
    from repro.dataflow.runtime import Job
    from repro.dataflow.worker import InstanceRuntime


@register_protocol
class CoordinatedProtocol(CheckpointProtocol):
    """Marker-based aligned rounds driven by the coordinator."""

    name = "coor"
    requires_logging = False
    supports_cycles = False
    #: does a round's trigger jump the source's task queue?
    trigger_priority = False

    def __init__(self, job: "Job") -> None:
        super().__init__(job)
        self._round = 0
        self._active_round: int | None = None
        self._round_started: dict[int, float] = {}
        #: round -> instance -> durable CheckpointMeta, from the newest
        #: complete round on
        self._round_metas: dict[int, dict] = {}
        #: instance key -> {"round": id, "got": set of channels}
        self._align: dict = {}
        self._latest_complete: int | None = None

    # ------------------------------------------------------------------ #
    # Round scheduling
    # ------------------------------------------------------------------ #

    def on_job_start(self) -> None:
        """Start the round timer."""
        self.job.sim.schedule(self.job.lifecycle.checkpoint_interval_now(), self._round_tick)

    def _round_tick(self) -> None:
        """Start a round if none is active; reschedule at the current
        interval (re-consulted each tick so the adaptive policy applies)."""
        job = self.job
        if not job.recovering and self._active_round is None:
            self._start_round()
        job.sim.schedule(job.lifecycle.checkpoint_interval_now(), self._round_tick)

    def _start_round(self) -> None:
        job = self.job
        self._round += 1
        round_id = self._round
        self._active_round = round_id
        self._round_started[round_id] = job.sim.now
        self._round_metas[round_id] = {}
        size = job.cost.metadata_message_bytes
        for spec in job.graph.sources():
            for idx in range(job.parallelism):
                instance = job.instance((spec.name, idx))
                job.coordinator.send_control_to_worker(
                    idx,
                    size,
                    (lambda inst=instance: job.enqueue_checkpoint(
                        inst, KIND_COOR, round_id, self.trigger_priority)),
                )

    # ------------------------------------------------------------------ #
    # Marker handling and alignment
    # ------------------------------------------------------------------ #

    def on_marker(self, instance: "InstanceRuntime", channel: ChannelId, msg: Message) -> None:
        """Align: block the channel, snapshot once all markers arrived."""
        round_id, _sender_cursor = msg.meta
        state = self._align.get(instance.key)
        if state is None or state["round"] != round_id:
            state = {"round": round_id, "got": set()}
            self._align[instance.key] = state
        state["got"].add(channel)
        instance.worker.block_channel(channel)
        if len(state["got"]) == len(instance.in_channels):
            self.job.enqueue_checkpoint(instance, KIND_COOR, round_id)

    def on_checkpoint_started(self, instance: "InstanceRuntime", kind: str,
                              round_id: int | None) -> float:
        """Forward markers downstream and release the aligned channels."""
        if kind != KIND_COOR:
            return 0.0
        cost = self.job.transport.send_marker(instance, round_id)
        state = self._align.pop(instance.key, None)
        if state is not None:
            for channel in state["got"]:
                instance.worker.unblock_channel(channel)
        return cost

    # ------------------------------------------------------------------ #
    # Round completion
    # ------------------------------------------------------------------ #

    def on_metadata(self, meta: CheckpointMeta) -> None:
        """Count a round's durable checkpoints; complete it on the last."""
        if meta.kind != KIND_COOR or meta.round_id not in self._round_metas:
            return
        round_id = meta.round_id
        metas = self._round_metas[round_id]
        metas[meta.instance] = meta
        if len(metas) == self.job.n_instances:
            self._complete_round(round_id)

    def _complete_round(self, round_id: int) -> None:
        job = self.job
        job.completed_rounds.add(round_id)
        self._latest_complete = round_id
        round_metas = self._round_metas[round_id].values()
        job.metrics.record_checkpoint(
            CheckpointEvent(
                instance=None,
                kind=KIND_ROUND,
                started_at=self._round_started[round_id],
                durable_at=job.sim.now,
                state_bytes=sum(m.state_bytes for m in round_metas),
                upload_bytes=sum(m.upload_bytes for m in round_metas),
                round_id=round_id,
            )
        )
        if self._active_round == round_id:
            self._active_round = None
        # recovery restores the newest complete round: nothing older is read
        job.collect_below(self._round_metas[round_id])
        for older in [r for r in self._round_metas if r < round_id]:
            del self._round_metas[older]
            del self._round_started[older]
        # the coordinated family's unit of checkpoint cost is the round:
        # the adaptive interval controller sizes its Young–Daly C term
        # from start-of-round to all-instances-durable
        job.lifecycle.note_checkpoint_duration(job.sim.now - self._round_started[round_id])

    # ------------------------------------------------------------------ #
    # Recovery
    # ------------------------------------------------------------------ #

    def build_recovery_plan(self) -> RecoveryPlan:
        """Restore the latest *completed* round (nothing to replay)."""
        job = self.job
        usable = len(job.completed_rounds) * job.n_instances
        if self._latest_complete is None:
            line = {key: initial_checkpoint(key) for key in job.instance_keys()}
        else:
            metas = self._round_metas[self._latest_complete]
            line = {key: metas[key] for key in job.instance_keys()}
        # aligned cuts have no in-flight messages: nothing to replay, and no
        # checkpoint of a completed round is ever invalid (paper Table III)
        return RecoveryPlan(
            line=line,
            replay={},
            invalid_checkpoints=0,
            total_checkpoints=usable,
        )

    def on_recovery_applied(self, plan: RecoveryPlan) -> None:
        """Abort any round that was in flight when the failure hit."""
        self._align.clear()
        self._active_round = None

    # ------------------------------------------------------------------ #
    # Rescale-on-recovery
    # ------------------------------------------------------------------ #

    def on_rescaled(self, plan: RecoveryPlan) -> None:
        """The alignment state referenced instances that no longer exist."""
        self._align.clear()
        self._active_round = None

    def install_rescale_baseline(self, metas: dict[InstanceKey, CheckpointMeta]) -> None:
        """Record the synthetic baseline as a *completed* round.

        COOR recovery lines are completed rounds; without this, a failure
        arriving before the first post-rescale round completes would fall
        back past the rescaled restore point.
        """
        super().install_rescale_baseline(metas)
        job = self.job
        self._round += 1
        round_id = self._round
        self._round_started[round_id] = job.sim.now
        self._round_metas[round_id] = dict(metas)
        job.completed_rounds.add(round_id)
        self._latest_complete = round_id
        self._active_round = None
