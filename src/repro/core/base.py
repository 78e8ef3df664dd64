"""Protocol interface, checkpoint metadata, and recovery plans.

The runtime (:mod:`repro.dataflow.runtime`) is protocol-agnostic: it calls
the hooks defined here at well-defined points (message send/receive, marker
arrival, timers, failure detection) and executes whatever
:class:`RecoveryPlan` the protocol produces.  This is the "isolated
comparison" property the paper built its testbed for (Section IV).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Any

from repro.dataflow.channels import ChannelId, Message
from repro.metrics.collectors import KIND_INITIAL

if TYPE_CHECKING:  # pragma: no cover - import cycle avoidance
    from repro.dataflow.runtime import Job, InstanceRuntime

InstanceKey = tuple[str, int]

_CHECKPOINT_ID = attrgetter("checkpoint_id")


@dataclass(frozen=True)
class CheckpointMeta:
    """Durable descriptor of one operator-instance checkpoint.

    ``last_sent`` / ``last_received`` are per-channel message-sequence
    cursors captured atomically with the snapshot; the checkpoint graph and
    replay-set computation work purely on these cursors (no log scanning).
    """

    instance: InstanceKey
    checkpoint_id: int
    kind: str  # a KIND_* constant from repro.metrics.collectors
    round_id: int | None
    started_at: float
    durable_at: float
    state_bytes: int
    blob_key: str
    last_sent: dict[ChannelId, int]
    last_received: dict[ChannelId, int]
    #: bytes actually uploaded for this checkpoint (< state_bytes for a
    #: changelog delta, 0 for the baseline of a rescaled restore)
    upload_bytes: int
    #: blob this checkpoint's delta chains onto (None: self-contained)
    base_key: str | None = None

    def sent_cursor(self, channel: ChannelId) -> int:
        """Send cursor captured for ``channel`` (0 if never sent)."""
        return self.last_sent.get(channel, 0)

    def received_cursor(self, channel: ChannelId) -> int:
        """Receive cursor captured for ``channel`` (0 if never received)."""
        return self.last_received.get(channel, 0)


def initial_checkpoint(instance: InstanceKey) -> CheckpointMeta:
    """The implicit 'virgin state' checkpoint every instance starts from."""
    return CheckpointMeta(
        instance=instance,
        checkpoint_id=0,
        kind=KIND_INITIAL,
        round_id=None,
        started_at=0.0,
        durable_at=0.0,
        state_bytes=0,
        blob_key="",
        last_sent={},
        last_received={},
        upload_bytes=0,
    )


class CheckpointRegistry:
    """Coordinator-side registry of durable checkpoints per instance."""

    def __init__(self) -> None:
        self._by_instance: dict[InstanceKey, list[CheckpointMeta]] = {}

    def register(self, meta: CheckpointMeta) -> None:
        """Append a durable checkpoint; ids must increase per instance."""
        entries = self._by_instance.setdefault(meta.instance, [])
        if entries and meta.checkpoint_id <= entries[-1].checkpoint_id:
            raise ValueError(
                f"checkpoint ids must increase per instance: {meta.instance} "
                f"{meta.checkpoint_id} after {entries[-1].checkpoint_id}"
            )
        entries.append(meta)

    def with_initial(self, instance: InstanceKey) -> list[CheckpointMeta]:
        """Checkpoints including the implicit initial one, oldest first."""
        return [initial_checkpoint(instance)] + self._by_instance.get(instance, [])

    def latest(self, instance: InstanceKey) -> CheckpointMeta | None:
        """Most recent durable checkpoint of ``instance`` (None if none)."""
        entries = self._by_instance.get(instance)
        return entries[-1] if entries else None

    def since(self, floor: CheckpointMeta) -> list[CheckpointMeta]:
        """``floor`` and every checkpoint of its instance newer than it,
        oldest first (``floor`` may be the initial checkpoint)."""
        entries = self._by_instance.get(floor.instance, [])
        return [floor, *entries[bisect_right(entries, floor.checkpoint_id,
                                             key=_CHECKPOINT_ID):]]

    def total(self) -> int:
        """Durable checkpoints across all instances."""
        return sum(len(v) for v in self._by_instance.values())

    def roll_back_to(self, line: dict[InstanceKey, CheckpointMeta]) -> None:
        """Forget every checkpoint newer than ``line``.

        A rollback abandons the timeline those checkpoints belong to:
        their blobs stay restorable, but no later recovery line may
        restore one of them.
        """
        for instance, entries in self._by_instance.items():
            keep = line[instance].checkpoint_id
            while entries and entries[-1].checkpoint_id > keep:
                entries.pop()

    def clear(self) -> None:
        """Forget every checkpoint (a rescaled redeploy starts a new epoch:
        pre-rescale metadata describes instances that no longer exist)."""
        self._by_instance.clear()


@dataclass
class RecoveryPlan:
    """What to restore and what to replay after a failure."""

    #: chosen recovery line: instance -> checkpoint (may be the initial one)
    line: dict[InstanceKey, CheckpointMeta]
    #: in-flight messages to replay into receivers: channel -> list of Message
    replay: dict[ChannelId, list[Message]] = field(default_factory=dict)
    #: checkpoints pruned by the recovery-line search (rolled back / unusable)
    invalid_checkpoints: int = 0
    #: durable checkpoints existing when the plan was computed
    total_checkpoints: int = 0
    #: restore at this parallelism instead of the line's (elastic
    #: rescale-on-recovery); None keeps the checkpoint's parallelism
    rescale_to: int | None = None

    @property
    def replayed_messages(self) -> int:
        """In-flight messages the plan will replay."""
        return sum(len(v) for v in self.replay.values())

    @property
    def replayed_records(self) -> int:
        """Records inside the replayed messages."""
        return sum(m.record_count for msgs in self.replay.values() for m in msgs)


class CheckpointProtocol:
    """Base class: a no-op protocol (also the Figure-7 baseline)."""

    name = "none"
    #: does the runtime need per-channel durable send logs + rid dedup?
    requires_logging = False
    #: can the protocol run on cyclic dataflow graphs?
    supports_cycles = True
    #: do checkpoint blobs persist in-flight channel state the runtime must
    #: carry into the synthetic baseline of a rescaled restore?
    channel_state_in_snapshot = False

    def __init__(self, job: "Job") -> None:
        self.job = job
        #: should receivers deduplicate by lineage id?  Log-based recovery
        #: needs dedup for exactly-once, so the default follows
        #: ``requires_logging``; the uncoordinated protocol narrows it for
        #: its weaker processing-semantics modes (paper Definitions 1-3).
        #: Fixed at construction — the data path reads it on every batch
        self.requires_dedup: bool = self.requires_logging
        #: does the protocol append every DATA message to the durable
        #: send log?  The uncoordinated family's at-most-once mode does not
        self.logs_messages: bool = self.requires_logging
        # the data path calls a per-message hook only where the class
        # overrides it: the base hooks are no-ops (DESIGN.md section 19)
        cls = type(self)
        #: does :meth:`on_send` need calling for each DATA message sent?
        self.hooks_send = cls.on_send is not CheckpointProtocol.on_send
        #: does :meth:`on_data_received` need calling for each one processed?
        self.hooks_receive = (cls.on_data_received
                              is not CheckpointProtocol.on_data_received)

    # -- lifecycle ------------------------------------------------------ #

    def on_job_start(self) -> None:
        """Install timers (checkpoint triggers / round scheduling)."""

    # -- data path hooks (return extra CPU seconds to charge) ------------- #
    # A subclass that leaves one of these two alone is never called for it
    # (``hooks_send`` / ``hooks_receive``, decided at construction).

    def on_send(self, instance: "InstanceRuntime", channel: ChannelId, msg: Message) -> float:
        """Called before a data message leaves the producer."""
        return 0.0

    def on_data_received(self, instance: "InstanceRuntime", channel: ChannelId,
                         msg: Message) -> float:
        """Called before a data message's records are processed."""
        return 0.0

    def on_marker(self, instance: "InstanceRuntime", channel: ChannelId, msg: Message) -> None:
        """Called on marker arrival (COOR only)."""
        raise NotImplementedError(f"{self.name} does not use markers")

    # -- checkpoint lifecycle ------------------------------------------- #

    def capture_extra(self, instance: "InstanceRuntime") -> Any:
        """Protocol-private state to embed in the snapshot (e.g. HMNR vectors)."""
        return None

    def restore_extra(self, instance: "InstanceRuntime", extra: Any) -> None:
        """Reinstall protocol-private state on recovery."""

    def on_checkpoint_started(self, instance: "InstanceRuntime",
                              round_id: int | None) -> float:
        """Hook at snapshot capture; returns extra CPU cost (e.g. markers)."""
        return 0.0

    def on_metadata(self, meta: CheckpointMeta) -> None:
        """A checkpoint's metadata reached the coordinator and registered."""

    # -- recovery ---------------------------------------------------------- #

    def build_recovery_plan(self) -> RecoveryPlan:
        """Pick the recovery line (and replay sets) after a failure."""
        line = {
            key: initial_checkpoint(key) for key in self.job.instance_keys()
        }
        return RecoveryPlan(line=line,
                            total_checkpoints=self.job.registry.total())

    def on_recovery_applied(self, plan: RecoveryPlan) -> None:
        """Reset protocol-internal runtime structures after a rollback."""

    # -- rescale-on-recovery --------------------------------------------- #

    def on_rescaled(self, plan: RecoveryPlan) -> None:
        """The job was redeployed at a new parallelism mid-recovery.

        Per-instance protocol structures (timers, vector clocks) refer to
        instances that no longer exist; subclasses rebuild them here.
        Called after the new topology is wired and restored, before the
        replay re-injection.
        """

    def install_rescale_baseline(self, metas: "dict[InstanceKey, CheckpointMeta]") -> None:
        """Register the synthetic post-rescale checkpoints as the new
        recovery floor (pre-rescale metadata was dropped with the old
        topology).  The uncoordinated family only needs the registry; the
        coordinated family additionally records them as a completed round.
        """
        for key in sorted(metas):
            self.job.registry.register(metas[key])


PROTOCOLS: dict[str, type] = {}


def register_protocol(cls: type) -> type:
    """Class decorator adding a protocol to the global registry."""
    PROTOCOLS[cls.name] = cls
    return cls


register_protocol(CheckpointProtocol)


def create_protocol(name: str, job: "Job") -> CheckpointProtocol:
    """Instantiate a registered protocol by name ('none'|'coor'|'unc'|'cic')."""
    try:
        cls = PROTOCOLS[name]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; known: {sorted(PROTOCOLS)}") from None
    return cls(job)
