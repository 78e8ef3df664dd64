"""Unaligned coordinated checkpointing (extension beyond the paper).

The paper's introduction lists COOR's two drawbacks — alignment blocking
behind stragglers and marker starvation under backpressure — and cites
Flink's *unaligned checkpoints* as the production response.  This module
implements that variant so the repository can quantify the fix:

* rounds are scheduled exactly like COOR (same coordinator logic), except
  that the source trigger jumps the task queue;
* on the **first** marker of a round, an instance snapshots immediately
  (the marker "overtakes" the queued data: capture happens at arrival,
  the CPU time is charged as a priority task) and forwards markers on all
  outgoing channels at once — no blocking, no alignment;
* data that then arrives on channels whose marker is still in flight was
  sent *before* the sender's snapshot, so it is appended to the
  checkpoint's **channel state** (this is Flink persisting its in-flight
  network buffers); the checkpoint becomes durable once every channel's
  marker arrived and the enlarged blob is uploaded;
* recovery restores the snapshot, re-injects the channel state, and
  rewinds sources — no recovery-line search, no rid deduplication needed
  (the cut plus channel state is consistent by construction).

The ablation bench compares aligned vs unaligned under the paper's skewed
workload: the checkpoint-time explosion of Figure 12 disappears, at the
cost of checkpoints that grow with the backlog they absorb.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

from repro.core.base import CheckpointMeta, register_protocol
from repro.core.coordinated import CoordinatedProtocol
from repro.dataflow.channels import ChannelId, Message
from repro.metrics.collectors import KIND_COOR, KIND_INITIAL

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import RecoveryPlan
    from repro.dataflow.runtime import Job
    from repro.dataflow.worker import InstanceRuntime


class _PendingCheckpoint:
    """An unaligned checkpoint waiting for the remaining channel markers."""

    __slots__ = ("pending", "snapshot", "meta", "channel_state",
                 "channel_bytes")

    def __init__(self, pending: set[ChannelId], snapshot: dict,
                 meta: CheckpointMeta) -> None:
        self.pending = pending
        self.snapshot = snapshot
        self.meta = meta
        self.channel_state: dict[ChannelId, list[Message]] = {}
        self.channel_bytes = 0


@register_protocol
class UnalignedCoordinatedProtocol(CoordinatedProtocol):
    """COOR without alignment: snapshot on first marker + channel state."""

    name = "coor-unaligned"
    requires_logging = False
    supports_cycles = False
    #: checkpoint blobs persist in-flight channel state; a rescaled
    #: restore must carry the re-routed replay into its baseline blobs
    channel_state_in_snapshot = True
    #: the trigger is a control RPC: a backlogged worker still snapshots
    #: its source promptly, so markers enter the pipeline immediately —
    #: the whole point of the unaligned variant
    trigger_priority = True

    def __init__(self, job: "Job") -> None:
        super().__init__(job)
        self._pending: dict[tuple, _PendingCheckpoint] = {}

    # ------------------------------------------------------------------ #
    # Marker handling — no blocking, snapshot at first arrival
    # ------------------------------------------------------------------ #

    def on_marker(self, instance: "InstanceRuntime", channel: ChannelId,
                  msg: Message) -> None:
        """Snapshot on the first marker; absorb late channels' in-flight data."""
        round_id, sender_cursor = msg.meta
        pending = self._pending.get(instance.key)
        if pending is None or pending.meta.round_id != round_id:
            pending = self._begin_checkpoint(instance, round_id, first_channel=channel)
            self._pending[instance.key] = pending
        else:
            pending.pending.discard(channel)
        # channel state of this channel: messages already delivered but not
        # yet processed whose seq precedes the sender's snapshot cursor.
        # FIFO guarantees everything the sender sent pre-snapshot has been
        # delivered by the time its marker arrives, so the scan is complete.
        inflight = [
            m for m in instance.worker.pending_data_messages(channel)
            if m.seq <= sender_cursor
        ]
        if inflight:
            pending.channel_state[channel] = inflight
            pending.channel_bytes += sum(m.total_bytes for m in inflight)
        if not pending.pending:
            self._finalize_checkpoint(instance, pending)

    def _begin_checkpoint(self, instance: "InstanceRuntime", round_id: int,
                          first_channel: ChannelId) -> _PendingCheckpoint:
        job = self.job
        # the snapshot is captured NOW (marker overtakes queued work); the
        # CPU time for the flush + sync capture is charged as a priority
        # task; the flush is forced so batches parked by credit exhaustion
        # drain before the sent-cursor is captured
        cost = job.transport.flush_all(instance, force=True)
        meta, snapshot = job.capture_checkpoint(instance, KIND_COOR, round_id)
        cost += job.cost.snapshot_sync_cost(meta.upload_bytes)
        # forward markers immediately — they must not wait behind the queue
        cost += job.transport.send_marker(instance, round_id)
        instance.worker.charge_cpu(cost)
        pending = set(instance.in_channels)
        pending.discard(first_channel)
        return _PendingCheckpoint(pending, snapshot, meta)

    def on_data_received(self, instance: "InstanceRuntime", channel: ChannelId,
                         msg: Message) -> float:
        """Data processed between our snapshot and this channel's marker.

        Such a message was sent before the sender's snapshot (FIFO: its
        marker has not arrived yet) but its effects are not in our snapshot,
        so it is in-flight at the cut and must be persisted.  Together with
        the queue scan at marker arrival this covers every in-flight
        message exactly once.
        """
        pending = self._pending.get(instance.key)
        if pending is not None and channel in pending.pending:
            pending.channel_state.setdefault(channel, []).append(msg)
            pending.channel_bytes += msg.total_bytes
        return 0.0

    def _finalize_checkpoint(self, instance: "InstanceRuntime",
                             pending: _PendingCheckpoint) -> None:
        job = self.job
        del self._pending[instance.key]
        channel_bytes = pending.channel_bytes
        snapshot = dict(pending.snapshot)
        snapshot["channel_state"] = {
            ch: list(msgs) for ch, msgs in pending.channel_state.items()
        }
        # channel state is always persisted whole — it is new by definition —
        # and enlarges the stored blob, so future deltas' chains include it
        meta = replace(
            pending.meta,
            state_bytes=pending.meta.state_bytes + channel_bytes,
            upload_bytes=pending.meta.upload_bytes + channel_bytes,
        )
        job.schedule_durable(
            instance, job.cost.blob_upload_delay(meta.upload_bytes),
            meta, snapshot)

    # ------------------------------------------------------------------ #
    # Checkpoint lifecycle (sources still go through execute_checkpoint)
    # ------------------------------------------------------------------ #

    def on_checkpoint_started(self, instance: "InstanceRuntime",
                              round_id: int | None) -> float:
        """Unaligned capture happens at marker arrival, not here."""
        # sources: snapshot (already captured by the runtime) then markers;
        # there are no inbound channels so nothing to unblock
        return self.job.transport.send_marker(instance, round_id)

    # ------------------------------------------------------------------ #
    # Recovery — COOR's line plus channel-state replay
    # ------------------------------------------------------------------ #

    def build_recovery_plan(self) -> RecoveryPlan:
        """Restore the latest completed round plus its channel state."""
        plan = super().build_recovery_plan()
        replay: dict[ChannelId, list[Message]] = {}
        for meta in plan.line.values():
            if meta.kind == KIND_INITIAL:
                continue
            snapshot = self.job.coordinator.blobstore.get(meta.blob_key)
            for channel, messages in snapshot.get("channel_state", {}).items():
                replay.setdefault(channel, []).extend(messages)
        for messages in replay.values():
            messages.sort(key=lambda m: m.seq)
        plan.replay = replay
        return plan

    def on_recovery_applied(self, plan: RecoveryPlan) -> None:
        """Drop pending unaligned captures along with the aborted round."""
        super().on_recovery_applied(plan)
        self._pending.clear()

    def on_rescaled(self, plan: RecoveryPlan) -> None:
        """Reset alignment and pending captures for the new topology."""
        super().on_rescaled(plan)
        self._pending.clear()
