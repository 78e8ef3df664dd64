"""Raw measurement collection during a run.

The collector is deliberately dumb: it records timestamped observations and
counters; all interpretation (percentile series, sustainability checks,
recovery detection) happens in :mod:`repro.metrics.series` and
:mod:`repro.experiments` after the run.
"""

from __future__ import annotations

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
class MetricsCollector:
    """Accumulates everything a run produces."""

    # -- latency / throughput ------------------------------------------- #
    #: per-second sink latencies: second -> list of end-to-end latencies
    latencies: dict[int, list[float]] = field(default_factory=dict)
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
    failure_at: float = -1.0
    detected_at: float = -1.0
    restart_completed_at: float = -1.0
    invalid_checkpoints: int = -1
    total_checkpoints_at_failure: int = -1
    replayed_messages: int = 0
    replayed_records: int = 0
    #: canonical (line, replay) signature of every recovery, in order —
    #: the differential backend tests compare these across state backends
    recovery_lines: list[tuple] = field(default_factory=list)
    #: one FailureRecord per injected kill, in injection order (the
    #: injector appends; repeated kills accumulate, never overwrite)
    failure_records: list = field(default_factory=list)
    #: [start, end] spans during which the pipeline was down (kill ->
    #: recovery applied); an unfinished outage has end == -1.0
    outages: list[list[float]] = field(default_factory=list)
    #: (virtual time, interval) trajectory of the adaptive checkpoint-
    #: interval controller; empty under the fixed policy
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

    # -- rescale-on-recovery ------------------------------------------------ #
    #: when the (first) rescaled restore was applied, -1 if none happened
    rescaled_at: float = -1.0
    #: parallelism before / after that rescaled restore
    rescale_from: int = -1
    rescale_to: int = -1
    #: keyed-state bytes per key group right after the rescaled restore —
    #: the repartitioning balance the figure harness reports on
    group_state_bytes: dict[int, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record_output_batch(self, now: float, source_ts: list[float]) -> None:
        """Count a batch of sink records and their end-to-end latencies
        (one call per batch delivered to a sink, values in column order)."""
        second = int(now)
        self.latencies.setdefault(second, []).extend([now - ts for ts in source_ts])
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

    def record_recovery_line(self, line_signature: tuple,
                             replay_signature: tuple) -> None:
        """Append one recovery's canonical (line, replay) signature."""
        self.recovery_lines.append((line_signature, replay_signature))

    def record_outage_start(self, now: float) -> None:
        """The pipeline went down (first kill of an outage)."""
        if self.outages and self.outages[-1][1] < 0:
            return  # a later kill folded into the outage already open
        self.outages.append([now, -1.0])

    def record_outage_end(self, now: float) -> None:
        """Recovery was applied; the pipeline is processing again."""
        if self.outages and self.outages[-1][1] < 0:
            self.outages[-1][1] = now

    def record_interval_update(self, now: float, interval: float) -> None:
        """The adaptive controller changed the checkpoint interval."""
        self.interval_updates.append((now, interval))

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

    def record_rescale(self, now: float, from_parallelism: int,
                       to_parallelism: int,
                       group_state_bytes: dict[int, int]) -> None:
        """Stamp a rescaled restore (the first one wins, like failure stamps)."""
        if self.rescaled_at < 0:
            self.rescaled_at = now
            self.rescale_from = from_parallelism
            self.rescale_to = to_parallelism
            self.group_state_bytes = dict(group_state_bytes)

    def group_imbalance(self) -> float:
        """max/mean of per-group state bytes after the rescale (1.0 = even)."""
        sizes = [v for v in self.group_state_bytes.values() if v > 0]
        if not sizes:
            return 1.0
        mean = sum(sizes) / len(sizes)
        return max(sizes) / mean if mean > 0 else 1.0

    # ------------------------------------------------------------------ #
    # Derived values
    # ------------------------------------------------------------------ #

    @property
    def restart_time(self) -> float:
        """Detection -> ready-to-process duration (paper's restart time)."""
        if self.restart_completed_at < 0 or self.detected_at < 0:
            return -1.0
        return self.restart_completed_at - self.detected_at

    @property
    def n_failures(self) -> int:
        """Injected kills over the whole run (one per worker hit)."""
        return len(self.failure_records)

    @property
    def n_recoveries(self) -> int:
        """Recoveries actually applied (folded kills share one)."""
        return len(self.recovery_lines)

    def downtime(self, start: float, end: float) -> float:
        """Virtual seconds of ``[start, end)`` spent down or recovering.

        An outage spans kill -> recovery-applied; an outage still open
        when the run ends is clipped at ``end``.
        """
        total = 0.0
        for outage_start, outage_end in self.outages:
            if outage_end < 0:
                outage_end = end
            total += max(0.0, min(outage_end, end) - max(outage_start, start))
        return total

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

    def avg_checkpoint_time(self, kinds: tuple[str, ...] | None = None) -> float:
        """Mean checkpoint duration in seconds over the selected kinds."""
        events = [
            e for e in self.checkpoints if kinds is None or e.kind in kinds
        ]
        if not events:
            return 0.0
        return sum(e.duration for e in events) / len(events)

    def total_sink_records(self, start: float = 0.0, end: float = float("inf")) -> int:
        """Sink records whose second falls in [start, end)."""
        return sum(
            count for second, count in self.sink_counts.items() if start <= second < end
        )

    def throughput(self, start: float, end: float) -> float:
        """Average sink records/second over [start, end)."""
        span = end - start
        if span <= 0:
            return 0.0
        return self.total_sink_records(start, end) / span
