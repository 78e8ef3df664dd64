"""Raw measurement collection during a run.

The collector is deliberately dumb: it records timestamped observations and
counters; all interpretation (percentile series, sustainability checks,
recovery detection) happens in :mod:`repro.metrics.series` and
:mod:`repro.experiments` after the run.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

# --------------------------------------------------------------------- #
# Checkpoint kinds
#
# Every protocol records its durable checkpoints under one of these kinds;
# the accounting in RunResult keys off the shared tuples below, so a new
# protocol (or a renamed kind) cannot silently fall out of one metric but
# not the other.
# --------------------------------------------------------------------- #

#: per-instance snapshot of a coordinated round (aligned COOR and the
#: unaligned variant both use this kind for their instance checkpoints)
KIND_COOR = "coor"
#: one summary event per *completed* coordinated round
KIND_ROUND = "round"
#: UNC/CIC local-timer checkpoint
KIND_LOCAL = "local"
#: CIC forced checkpoint (Z-cycle prevention)
KIND_FORCED = "forced"
#: the implicit virgin-state checkpoint (metadata only, never recorded here)
KIND_INITIAL = "initial"
#: synthetic baseline checkpoint installed by a rescaled restore — it is
#: registry bookkeeping (the post-rescale recovery floor), not a measured
#: checkpoint, so it appears in no accounting tuple below
KIND_RESCALE = "rescale"

#: instance-level events of the coordinated family (counted by Table III)
COORDINATED_INSTANCE_KINDS = (KIND_COOR,)
#: round-level events of the coordinated family (timed by Figure 8)
COORDINATED_ROUND_KINDS = (KIND_ROUND,)
#: events of the uncoordinated family (counted and timed directly)
UNCOORDINATED_KINDS = (KIND_LOCAL, KIND_FORCED)


@dataclass(frozen=True)
class CheckpointEvent:
    """One durable checkpoint (or completed coordinated round)."""

    instance: tuple[str, int] | None
    kind: str  # KIND_LOCAL | KIND_FORCED | KIND_COOR | KIND_ROUND
    started_at: float
    durable_at: float
    state_bytes: int
    #: bytes that actually crossed the wire for this checkpoint: equal to
    #: state_bytes for a full snapshot, the delta size for a changelog
    #: checkpoint
    upload_bytes: int
    round_id: int | None = None

    @property
    def duration(self) -> float:
        """Capture-start to durable duration."""
        return self.durable_at - self.started_at


@dataclass
class RecoveryRecord:
    """One recovery: ``LifecycleManager`` opens it at the kill, fills the
    plan in at the detection and closes it when the restore is applied."""

    killed_at: float
    #: workers killed while the recovery was open (a folded kill appends)
    workers: list[int] = field(default_factory=list)
    detected_at: float | None = None
    applied_at: float | None = None
    #: canonical (line, replay) signature of the recovery plan
    line: tuple | None = None
    invalid_checkpoints: int = 0
    total_checkpoints: int = 0
    replayed_messages: int = 0
    replayed_records: int = 0
    #: (from, to) parallelism of a rescaled restore, None otherwise
    rescale: tuple[int, int] | None = None
    #: keyed-state bytes per key group right after a rescaled restore
    group_state_bytes: dict[int, int] = field(default_factory=dict)

    @property
    def restart_time(self) -> float | None:
        """Detection -> ready-to-process duration (paper's restart time)."""
        if self.detected_at is None or self.applied_at is None:
            return None
        return self.applied_at - self.detected_at

    def group_imbalance(self) -> float:
        """max/mean of per-group state bytes after the rescale (1.0 = even)."""
        sizes = [v for v in self.group_state_bytes.values() if v > 0]
        if not sizes:
            return 1.0
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean > 0 else 1.0


@dataclass
class MetricsCollector:
    """Accumulates everything a run produces."""

    # -- latency / throughput ------------------------------------------- #
    #: per-second sink latencies: second -> end-to-end latencies, as a
    #: float64 column (8 bytes a sample)
    latencies: dict[int, array] = field(default_factory=dict)
    #: per-second latency digests (sample count, p50, p99) standing in for
    #: the raw ``latencies`` samples after
    #: :meth:`repro.dataflow.results.RunResult.compact` folded them (cache
    #: format v8, DESIGN.md section 18); ``None`` while raw samples are
    #: retained.  Shard partials never carry digests — the shard merge
    #: concatenates raw samples before taking percentiles.
    latency_digests: dict[int, tuple[int, float, float]] | None = None
    #: per-second count of records reaching sinks
    sink_counts: dict[int, int] = field(default_factory=dict)
    #: per-second count of records ingested by sources
    ingest_counts: dict[int, int] = field(default_factory=dict)

    # -- bytes ------------------------------------------------------------ #
    data_bytes: int = 0
    protocol_bytes: int = 0
    messages_sent: int = 0
    records_sent: int = 0

    # -- checkpointing ------------------------------------------------------ #
    checkpoints: list[CheckpointEvent] = field(default_factory=list)
    forced_checkpoints: int = 0
    duplicates_skipped: int = 0
    #: checkpoint bytes that crossed the wire (delta size under the
    #: changelog backend) vs the full state those checkpoints materialize;
    #: per-instance events only — round summaries would double-count
    checkpoint_bytes_uploaded: int = 0
    checkpoint_bytes_materialized: int = 0

    # -- failure / recovery --------------------------------------------------- #
    #: one RecoveryRecord per recovery, in kill order (a merged run holds
    #: each shard's records, shard after shard)
    recoveries: list[RecoveryRecord] = field(default_factory=list)
    #: (virtual time, interval) trajectory of the adaptive checkpoint-
    #: interval controller, which appends to this list; empty under the
    #: fixed policy
    interval_updates: list[tuple[float, float]] = field(default_factory=list)

    # -- transport backpressure (bounded channels, DESIGN.md §13) ---------- #
    #: per-channel cumulative seconds a sender spent parked awaiting
    #: credits; empty on unbounded channels
    blocked_time_by_channel: dict = field(default_factory=dict)
    #: sum of blocked_time_by_channel (channel-seconds of backpressure)
    blocked_time_total: float = 0.0
    #: the subset of blocked_time_total where the receiver had the channel
    #: barrier-blocked (COOR alignment) while the sender waited — the
    #: paper's alignment-stall pathology, isolated from plain queue
    #: saturation; structurally zero for protocols that never block
    #: channels (UNC/CIC/unaligned)
    blocked_time_aligned: float = 0.0
    #: batches parked by credit exhaustion over the whole run
    sends_parked: int = 0
    #: per-channel peak in-flight (transmitted, unconsumed) DATA bytes
    peak_in_flight_bytes: dict = field(default_factory=dict)
    #: peak of the total in-flight bytes across all channels
    peak_total_in_flight_bytes: int = 0

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_output_batch(self, now: float, source_ts: list[float]) -> None:
        """Count a batch of sink records and their end-to-end latencies
        (one call per batch delivered to a sink, values in column order)."""
        second = int(now)
        samples = self.latencies.get(second)
        if samples is None:
            samples = self.latencies[second] = array("d")
        samples.fromlist([now - ts for ts in source_ts])
        self.sink_counts[second] = self.sink_counts.get(second, 0) + len(source_ts)

    def record_ingest(self, now: float, count: int) -> None:
        """Count records pulled by sources in this second."""
        second = int(now)
        self.ingest_counts[second] = self.ingest_counts.get(second, 0) + count

    def record_message(self, payload_bytes: int, protocol_bytes: int, n_records: int) -> None:
        """Account one sent message's payload/protocol bytes."""
        self.data_bytes += payload_bytes
        self.protocol_bytes += protocol_bytes
        self.messages_sent += 1
        self.records_sent += n_records

    def record_checkpoint(self, event: CheckpointEvent) -> None:
        """Append a durable checkpoint event and its byte accounting."""
        self.checkpoints.append(event)
        if event.kind != KIND_ROUND:
            self.checkpoint_bytes_uploaded += event.upload_bytes
            self.checkpoint_bytes_materialized += event.state_bytes

    def record_blocked_time(self, channel, elapsed: float,
                            aligned_elapsed: float = 0.0) -> None:
        """A parked batch left (or the run ended): account its wait.

        ``aligned_elapsed`` is the measured overlap of the wait with the
        receiver's barrier-alignment windows (never more than ``elapsed``).
        """
        if elapsed <= 0:
            return
        self.blocked_time_by_channel[channel] = (
            self.blocked_time_by_channel.get(channel, 0.0) + elapsed
        )
        self.blocked_time_total += elapsed
        if aligned_elapsed > 0:
            self.blocked_time_aligned += min(aligned_elapsed, elapsed)

    def note_queue_depth(self, channel, depth_bytes: int,
                         total_bytes: int) -> None:
        """Track per-channel and total peak in-flight bytes (transmit time)."""
        if depth_bytes > self.peak_in_flight_bytes.get(channel, 0):
            self.peak_in_flight_bytes[channel] = depth_bytes
        if total_bytes > self.peak_total_in_flight_bytes:
            self.peak_total_in_flight_bytes = total_bytes

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #

    def first_failure(self, rescaled: bool = False) -> RecoveryRecord | None:
        """The paper's first-failure view: the records of the earliest kill.

        With ``rescaled`` only rescaled recoveries count.  A plain run has
        one record per kill instant; a merged run has one per shard,
        folded here: the earliest detection, the latest restore, and
        checkpoint, replay and group-byte counts summed.  ``None`` if the
        run had no such recovery.
        """
        records = [r for r in self.recoveries if not rescaled or r.rescale]
        if not records:
            return None
        killed_at = min(r.killed_at for r in records)
        first = [r for r in records if r.killed_at == killed_at]
        if len(first) == 1:
            return first[0]
        group_bytes: dict[int, int] = {}
        for record in first:
            for group, nbytes in record.group_state_bytes.items():
                group_bytes[group] = group_bytes.get(group, 0) + nbytes
        return RecoveryRecord(
            killed_at, [worker for r in first for worker in r.workers],
            min((r.detected_at for r in first if r.detected_at is not None),
                default=None),
            max((r.applied_at for r in first if r.applied_at is not None),
                default=None),
            invalid_checkpoints=sum(r.invalid_checkpoints for r in first),
            total_checkpoints=sum(r.total_checkpoints for r in first),
            replayed_messages=sum(r.replayed_messages for r in first),
            replayed_records=sum(r.replayed_records for r in first),
            rescale=first[0].rescale, group_state_bytes=group_bytes,
        )

    @property
    def replayed_records(self) -> int:
        """Records the first failure's recovery replayed (0 without one)."""
        first = self.first_failure()
        return first.replayed_records if first is not None else 0

    @property
    def recovery_lines(self) -> list[tuple]:
        """The (line, replay) signature of every planned recovery, in order."""
        return [record.line for record in self.recoveries
                if record.line is not None]

    @property
    def n_failures(self) -> int:
        """Injected kills over the whole run (one per worker hit)."""
        return sum(len(record.workers) for record in self.recoveries)

    @property
    def n_recoveries(self) -> int:
        """Recoveries planned (folded kills share one), applied or not."""
        return len(self.recovery_lines)

    def outages(self) -> list[list[float]]:
        """Interval union of the recoveries' ``[killed_at, applied_at]``
        spans in time order; a span the run ended inside ends at inf."""
        union: list[list[float]] = []
        for record in sorted(self.recoveries, key=lambda r: r.killed_at):
            end = math.inf if record.applied_at is None else record.applied_at
            if union and record.killed_at <= union[-1][1]:
                union[-1][1] = max(union[-1][1], end)
            else:
                union.append([record.killed_at, end])
        return union

    def downtime(self, start: float, end: float) -> float:
        """Virtual seconds of ``[start, end)`` spent down or recovering
        (an outage still open when the run ends is clipped at ``end``)."""
        return sum((max(0.0, min(stop, end) - max(begin, start))
                    for begin, stop in self.outages()), 0.0)

    def availability(self, start: float, end: float) -> float:
        """Fraction of ``[start, end)`` the pipeline was up (1.0 = no outage)."""
        span = end - start
        if span <= 0:
            return 1.0
        return 1.0 - self.downtime(start, end) / span

    def overhead_ratio(self) -> float:
        """(data + protocol bytes) / data bytes — Table II's metric."""
        if self.data_bytes == 0:
            return float("inf") if self.protocol_bytes else 1.0
        return (self.data_bytes + self.protocol_bytes) / self.data_bytes

    def total_sink_records(self, start: float = 0.0, end: float = float("inf")) -> int:
        """Sink records whose second falls in [start, end)."""
        return sum(
            count for second, count in self.sink_counts.items() if start <= second < end
        )
