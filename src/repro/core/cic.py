"""Communication-induced checkpointing (CIC, paper Section III-C).

Built on top of UNC (inherits logging, timers, recovery) and adds the
HMNR-style loose coordination:

* every instance keeps a Lamport clock ``lc`` (incremented at each
  checkpoint), a vector clock ``ckpt`` of known checkpoint counts, the set
  ``sent_to`` of instances messaged since its last checkpoint, a ``taken``
  vector of Z-path signals and a ``known_lc`` vector (from which HMNR's
  ``greater`` booleans are derived as ``lc > known_lc[k]``);
* ``(lc, ckpt, known_lc, taken)`` is piggybacked on **every** data message;
  its modelled size is ``header + per_instance_bytes * n_instances``
  (paper Table II's overhead mechanism);
* on receive of ``m``, a **forced checkpoint** is taken *before* delivery
  when the clock-inversion pattern of a potential Z-cycle is detected:
  the receiver has sent since its last checkpoint, the sender's clock is
  ahead of the receiver's, and the sender is ahead of what it knows about
  some instance the receiver has sent to (or a Z-path signal targets the
  receiver).  After delivery the clocks/vectors merge.

Implementation note: piggybacks are shared immutable snapshots rebuilt only
when the sender's vectors change, and receivers merge a snapshot only when
they have not merged that exact snapshot on the channel before — the
semantics are per-message, but the O(n) vector work happens only around
checkpoints, keeping the simulation tractable at high parallelism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.base import register_protocol
from repro.core.uncoordinated import UncoordinatedProtocol
from repro.dataflow.channels import ChannelId, Message
from repro.metrics.collectors import KIND_FORCED

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import RecoveryPlan
    from repro.dataflow.worker import InstanceRuntime


@dataclass
class PiggybackSnapshot:
    """Immutable view of a sender's HMNR structures at some instant."""

    lc: int
    ckpt: tuple[int, ...]
    known_lc: tuple[int, ...]
    taken: tuple[bool, ...]

    def greater(self, ordinal: int) -> bool:
        """HMNR's ``greater[k]``: was the sender's clock ahead of k's?"""
        return self.lc > self.known_lc[ordinal]


@dataclass
class CicState:
    """Per-instance HMNR bookkeeping."""

    ordinal: int
    n: int
    lc: int = 0
    ckpt: list[int] = field(default_factory=list)
    known_lc: list[int] = field(default_factory=list)
    taken: list[bool] = field(default_factory=list)
    sent_to: set[int] = field(default_factory=set)
    _snapshot: PiggybackSnapshot | None = None
    #: per inbound channel: the last piggyback snapshot already merged
    #: (held by reference so identity checks cannot alias a recycled id)
    merged: dict[ChannelId, PiggybackSnapshot] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.ckpt:
            self.ckpt = [0] * self.n
        if not self.known_lc:
            self.known_lc = [0] * self.n
        if not self.taken:
            self.taken = [False] * self.n

    def invalidate(self) -> None:
        """Drop the cached piggyback snapshot (vectors changed)."""
        self._snapshot = None

    def snapshot(self) -> PiggybackSnapshot:
        """Shared immutable piggyback view (rebuilt only after changes)."""
        if self._snapshot is None:
            self._snapshot = PiggybackSnapshot(
                lc=self.lc,
                ckpt=tuple(self.ckpt),
                known_lc=tuple(self.known_lc),
                taken=tuple(self.taken),
            )
        return self._snapshot

    def on_checkpoint(self) -> None:
        """Local or forced checkpoint: advance the clock, reset interval data."""
        self.lc += 1
        self.ckpt[self.ordinal] += 1
        self.known_lc[self.ordinal] = self.lc
        self.sent_to.clear()
        self.taken = [False] * self.n
        self.invalidate()

    def capture(self) -> dict:
        """State embedded in the instance snapshot for rollback."""
        return {
            "lc": self.lc,
            "ckpt": list(self.ckpt),
            "known_lc": list(self.known_lc),
            "taken": list(self.taken),
            "sent_to": set(self.sent_to),
        }

    def restore(self, captured: dict) -> None:
        """Reinstall captured HMNR vectors on rollback."""
        self.lc = captured["lc"]
        self.ckpt = list(captured["ckpt"])
        self.known_lc = list(captured["known_lc"])
        self.taken = list(captured["taken"])
        self.sent_to = set(captured["sent_to"])
        self.merged.clear()
        self.invalidate()


@register_protocol
class CommunicationInducedProtocol(UncoordinatedProtocol):
    """UNC plus piggybacked clocks and forced checkpoints."""

    name = "cic"

    def on_job_start(self) -> None:
        """Create per-instance HMNR state and start the local timers."""
        self._install_states()
        super().on_job_start()

    def _install_states(self) -> None:
        """Build everything sized by the current deployment.

        Besides the per-instance HMNR state: each channel's receiver
        ordinal and the per-record piggyback size, both constant until the
        next rescale, so ``on_send`` looks them up instead of re-deriving
        them for every message.
        """
        job = self.job
        n = job.n_instances
        for instance in job.instances():
            instance.proto = CicState(
                ordinal=job.instance_ordinal(instance.key), n=n
            )
        self._receiver_ordinal: dict[ChannelId, int] = {
            channel: receiver.proto.ordinal
            for channel, receiver in job.channel_dst.items()
        }
        self._piggyback_per_record = job.cost.cic_piggyback_bytes(n)

    def on_rescaled(self, plan: RecoveryPlan) -> None:
        """HMNR vectors are sized by instance count: rebuild them fresh.

        The rescaled restore is a globally consistent cut (everything
        rolls back together and the baseline checkpoint re-anchors every
        clock), so restarting the clocks at zero is safe — Z-cycle
        prevention only reasons about messages of the new epoch.
        """
        self._install_states()
        super().on_rescaled(plan)

    # ------------------------------------------------------------------ #
    # Data-path hooks
    # ------------------------------------------------------------------ #

    def on_send(self, instance: "InstanceRuntime", channel: ChannelId, msg: Message) -> float:
        """Attach the piggyback, note the destination, log the message
        as sent."""
        state: CicState = instance.proto
        state.sent_to.add(self._receiver_ordinal[channel])
        msg.piggyback = state.snapshot()
        # one piggyback per logical (per-record) message — see CostModel
        msg.protocol_bytes += self._piggyback_per_record * max(
            1, len(msg.records.rids))
        return super().on_send(instance, channel, msg)  # upstream backup log

    def on_data_received(self, instance: "InstanceRuntime", channel: ChannelId,
                         msg: Message) -> float:
        """Force a checkpoint on Z-cycle danger, then merge clocks."""
        piggy: PiggybackSnapshot | None = msg.piggyback
        if piggy is None:  # replayed pre-protocol message or test message
            return 0.0
        state: CicState = instance.proto
        cost = 0.0
        if self._must_force(state, piggy):
            cost += self.job.execute_checkpoint(instance, KIND_FORCED, None)
            self.job.metrics.forced_checkpoints += 1
        self._merge(state, channel, piggy)
        return cost

    def _must_force(self, state: CicState, piggy: PiggybackSnapshot) -> bool:
        """Z-cycle prevention: checkpoint before delivering a dangerous message.

        The message is dangerous when delivering it would close a
        receive-after-send pattern in the receiver's current interval while
        the sender's clock runs ahead: HMNR's C1 (``sent_to`` against the
        sender's ``greater`` view) or C2 (a Z-path signal aimed at us).
        """
        if piggy.lc <= state.lc or not state.sent_to:
            return False
        if piggy.taken[state.ordinal]:
            return True
        return any(piggy.greater(k) for k in state.sent_to)

    def _merge(self, state: CicState, channel: ChannelId, piggy: PiggybackSnapshot) -> None:
        if state.merged.get(channel) is piggy:
            return  # same snapshot already merged on this channel
        state.merged[channel] = piggy
        changed = False
        if piggy.lc > state.lc:
            state.lc = piggy.lc
            state.known_lc[state.ordinal] = max(
                state.known_lc[state.ordinal], piggy.lc
            )
            changed = True
        for k in range(state.n):
            if piggy.ckpt[k] > state.ckpt[k]:
                state.ckpt[k] = piggy.ckpt[k]
                changed = True
            if piggy.known_lc[k] > state.known_lc[k]:
                state.known_lc[k] = piggy.known_lc[k]
                changed = True
            if piggy.taken[k] and not state.taken[k]:
                state.taken[k] = True
                changed = True
        if changed:
            state.invalidate()

    # ------------------------------------------------------------------ #
    # Checkpoint lifecycle
    # ------------------------------------------------------------------ #

    def on_checkpoint_started(self, instance: "InstanceRuntime", kind: str,
                              round_id: int | None) -> float:
        """Advance the HMNR clock at snapshot capture."""
        state: CicState = instance.proto
        state.on_checkpoint()
        return 0.0

    def capture_extra(self, instance: "InstanceRuntime") -> Any:
        """Embed the HMNR vectors in the snapshot payload."""
        state: CicState = instance.proto
        return state.capture()

    def restore_extra(self, instance: "InstanceRuntime", extra: Any) -> None:
        """Reinstall the HMNR vectors from a restored snapshot."""
        if extra is not None:
            state: CicState = instance.proto
            state.restore(extra)
