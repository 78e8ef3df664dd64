"""Calibrated cost model for the simulated testbed.

Every virtual duration in the system comes from this module, so calibration
lives in one place.  The constants are chosen so the *relative* magnitudes
of the paper's results hold (DESIGN.md section 7): COOR's round time grows
with topology depth and parallelism, UNC pays a per-record logging tax of
roughly 10% throughput, CIC's piggyback roughly doubles message sizes at 10
workers and reaches ~2.5x at 50.

Units: seconds and bytes.  These are *virtual* seconds — see repro.sim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class CostModel:
    """CPU, network and storage cost constants for the simulation."""

    # -- network -------------------------------------------------------- #
    #: one-way propagation latency between any two workers
    network_latency: float = 0.0005
    #: bytes/second on an inter-worker link
    network_bandwidth: float = 200e6
    #: minimum spacing between deliveries on one channel (FIFO clamp)
    channel_epsilon: float = 1e-7

    # -- serialization (charged to the sending/receiving worker CPU) ----- #
    # The testbed (Styx) is a Python system: (de)serialization CPU scales
    # with message bytes and is a first-order cost.  This constant is what
    # turns CIC's piggyback into its Figure-7 throughput collapse.
    #: fixed CPU cost to serialize or deserialize one message
    serialize_message_base: float = 0.00025
    #: CPU cost per payload byte (serialize and deserialize each)
    serialize_per_byte: float = 5e-6

    # -- message logging (UNC / CIC upstream backup) ---------------------- #
    #: CPU cost to append one record to the durable send log
    log_append_per_record: float = 0.00035
    #: CPU cost per logged byte
    log_append_per_byte: float = 2e-9

    # -- checkpointing ---------------------------------------------------- #
    #: CPU cost to start a snapshot (sync part: fork state, write manifest)
    snapshot_base: float = 0.001
    #: CPU cost per byte of state serialized synchronously
    snapshot_per_byte: float = 1.5e-9
    #: blob store round-trip latency (upload ack / download first byte)
    blob_latency: float = 0.003
    #: blob store bandwidth, bytes/second (upload and restore)
    blob_bandwidth: float = 400e6
    #: size in bytes of a checkpoint-metadata control message
    metadata_message_bytes: int = 96
    #: size in bytes of a COOR marker message
    marker_bytes: int = 24

    # -- incremental (changelog) checkpoints ------------------------------- #
    #: framing/manifest bytes added to every delta blob (chain pointer,
    #: per-state headers) — keeps empty deltas from being free
    delta_overhead_bytes: int = 64
    #: extra restore latency per delta blob folded on top of the base
    #: (sequential fetch issue + apply pass per changelog segment)
    delta_replay_per_blob: float = 0.0008

    # -- CIC piggyback (HMNR clocks and vectors) -------------------------- #
    # The simulator batches records for transport efficiency, but the paper's
    # system (Styx) ships one record per message, each carrying the HMNR
    # piggyback.  CIC therefore charges the piggyback PER RECORD.  The two
    # constants are calibrated against Table II (~1.7-2.1x overhead at 10
    # workers rising to ~2.5x at 50) given our NexMark record sizes.
    #: fixed piggyback header per record-message (clock + flags + framing)
    cic_header_bytes: float = 80.0
    #: additional piggyback bytes per operator instance in the pipeline
    cic_per_instance_bytes: float = 0.5

    # -- failure handling -------------------------------------------------- #
    #: heartbeat-based failure detection delay
    detection_delay: float = 1.0
    #: coordinator orchestration cost per worker during restart
    restart_per_worker: float = 0.004
    #: fixed restart overhead (redeploy tasks, reopen channels)
    restart_base: float = 0.080
    #: extra orchestration overhead of a *rescaled* restart: recomputing
    #: the group assignment, redeploying a different worker count and
    #: issuing ranged state fetches (DESIGN.md section 11)
    rescale_base: float = 0.040
    #: bandwidth for fetching replay logs during restart, bytes/second
    log_fetch_bandwidth: float = 60e6
    #: per replayed message preparation cost during restart
    replay_prep_per_message: float = 0.00012

    # -- sources ------------------------------------------------------------ #
    #: source poll interval (Kafka consumer poll loop)
    source_poll_interval: float = 0.050
    #: max records pulled per poll per source instance
    source_max_poll: int = 500

    # -- batching / routing -------------------------------------------------- #
    #: max records buffered per outbound (edge, destination) before flush
    batch_max_records: int = 32
    #: linger before flushing non-full outbound buffers
    linger: float = 0.050

    def __post_init__(self) -> None:
        # a zero poll or batch bound reads nothing and still "succeeds";
        # a negative one silently reads wrong slices
        if self.source_max_poll <= 0:
            raise ValueError("source_max_poll must be positive")
        if self.batch_max_records <= 0:
            raise ValueError("batch_max_records must be positive")

    def network_delay(self, size_bytes: int) -> float:
        """One-way delivery delay for a message of ``size_bytes``."""
        return self.network_latency + size_bytes / self.network_bandwidth

    def serialize_cost(self, size_bytes: int) -> float:
        """CPU cost to serialize *or* deserialize one message."""
        return self.serialize_message_base + size_bytes * self.serialize_per_byte

    def log_append_cost(self, n_records: int, size_bytes: int) -> float:
        """CPU cost to append a batch to the durable send log."""
        return n_records * self.log_append_per_record + size_bytes * self.log_append_per_byte

    def snapshot_sync_cost(self, state_bytes: int) -> float:
        """Synchronous (CPU-blocking) part of taking a snapshot."""
        return self.snapshot_base + state_bytes * self.snapshot_per_byte

    def blob_upload_delay(self, size_bytes: int) -> float:
        """Asynchronous upload duration until the store acks durability."""
        return self.blob_latency + size_bytes / self.blob_bandwidth

    def chain_restore_delay(self, total_bytes: int, n_blobs: int) -> float:
        """Duration to fetch and materialize a base+delta checkpoint chain.

        ``n_blobs == 1`` is one blob's fetch, latency plus bytes over
        bandwidth: what the full-snapshot backend pays.
        """
        return (
            n_blobs * self.blob_latency
            + total_bytes / self.blob_bandwidth
            + (n_blobs - 1) * self.delta_replay_per_blob
        )

    def cic_piggyback_bytes(self, n_instances: int) -> int:
        """Per-record HMNR piggyback size for a pipeline of ``n_instances``."""
        return int(self.cic_header_bytes + n_instances * self.cic_per_instance_bytes)


@dataclass
class RuntimeConfig:
    """Knobs of one experiment run (paper Section VII-A)."""

    #: checkpoint interval for all protocols (coordinated round period /
    #: local timer period), seconds
    checkpoint_interval: float = 5.0
    #: whether stateless non-source operators take UNC checkpoints
    unc_checkpoint_stateless: bool = True
    #: per-operator (interval, phase) overrides for UNC/CIC local timers —
    #: the paper's Section III-B flexibility: e.g. schedule a windowed
    #: aggregation right after its window closes, when its state is minimal
    per_operator_schedules: dict | None = None
    #: processing guarantee for the uncoordinated family (paper Defs. 1-3):
    #: 'exactly-once' = logging + replay + dedup (the paper's evaluated mode),
    #: 'at-least-once' = logging + replay, no dedup (duplicates possible),
    #: 'at-most-once'  = bare checkpoints, no logs, no replay (gap recovery)
    unc_semantics: str = "exactly-once"
    #: checkpoint state backend: 'full' uploads the complete operator state
    #: every checkpoint, 'changelog' uploads only the writes since the last
    #: checkpoint as a delta chained onto it (DESIGN.md section 10)
    state_backend: str = "full"
    #: measured run duration (paper: 60 s)
    duration: float = 60.0
    #: warmup before measurement starts (paper: 30 s)
    warmup: float = 10.0
    #: size of the key-group address space routing and keyed state are
    #: partitioned over; fixed per deployment, bounds useful parallelism
    max_key_groups: int = 128
    #: per-channel credit budget in bytes for credit-based flow control
    #: (DESIGN.md section 13): senders whose channel holds this many
    #: unconsumed in-flight bytes park further batches and block until the
    #: receiver consumes.  0 (the default) disables the bound — channels
    #: are unbounded and backpressure never materialises, matching the
    #: pre-section-13 behaviour exactly
    channel_capacity_bytes: int = 0
    #: inject a failure at this offset into the measured window, or None
    failure_at: float | None = None
    #: index of the worker to kill
    failure_worker: int = 0
    #: failure-scenario spec string (DESIGN.md section 12), e.g.
    #: 'poisson:mtbf=12' or 'trace:5@0;13@1'; overrides the single-kill
    #: knobs above when set (see repro.sim.failure.parse_scenario)
    failure_scenario: str | None = None
    #: checkpoint-interval policy: 'fixed' keeps ``checkpoint_interval``,
    #: 'adaptive' retunes it to the Young–Daly optimum from observed
    #: checkpoint costs and inter-failure gaps (DESIGN.md section 12)
    interval_policy: str = "fixed"
    #: restore at this parallelism instead of the checkpoint's when the
    #: ``rescale_at``-th recovery is applied (None: never rescale)
    rescale_to: int | None = None
    #: which recovery applies the rescale (1 = the first failure's); an
    #: int >= 1, and ``rescale_to`` needs ``failure_at`` or
    #: ``failure_scenario`` set (DESIGN.md section 11)
    rescale_at: int = 1
    #: random seed for generators and jitter
    seed: int = 7
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        # a zero interval re-arms the round / local checkpoint timer at
        # the same virtual instant, so the run never advances (and a pool
        # worker given such a request never returns); NaN compares false
        # both ways, hence the chained form
        if not 0.0 < self.checkpoint_interval < math.inf:
            raise ValueError("checkpoint_interval must be a finite number "
                             f"> 0, got {self.checkpoint_interval!r}")
        for name, (interval, _phase) in (
                self.per_operator_schedules or {}).items():
            if interval is not None and not 0.0 < interval < math.inf:
                raise ValueError(
                    f"per_operator_schedules[{name!r}]: interval must be a "
                    f"finite number > 0, got {interval!r}")
        if not 0.0 <= self.warmup < math.inf:
            raise ValueError("warmup must be a finite number >= 0, "
                             f"got {self.warmup!r}")
        if (self.channel_capacity_bytes or 0) < 0:
            raise ValueError("channel_capacity_bytes must be >= 0, "
                             f"got {self.channel_capacity_bytes!r}")
        if self.max_key_groups < 1:
            raise ValueError("max_key_groups must be >= 1, "
                             f"got {self.max_key_groups!r}")
        if self.failure_at is not None and not math.isfinite(self.failure_at):
            raise ValueError("failure_at must be a finite number, "
                             f"got {self.failure_at!r}")
        # recoveries count from 1, and only a run that fails recovers: a
        # rescale no recovery applies would otherwise be skipped silently
        if (isinstance(self.rescale_at, bool)
                or not isinstance(self.rescale_at, int) or self.rescale_at < 1):
            raise ValueError("rescale_at must be an int >= 1, "
                             f"got {self.rescale_at!r}")
        if (self.rescale_to is not None and self.failure_at is None
                and not self.failure_scenario):
            raise ValueError(
                f"rescale_to={self.rescale_to!r} requires failure_at or "
                "failure_scenario (the rescale is applied by a recovery)")
        # a spec that cannot be parsed would otherwise surface when the
        # run arms its injector — or, for a NaN, never; so would a kill
        # planned outside the measured window, which can never fire
        from repro.sim.failure import scenario_from_config

        scenario = scenario_from_config(self)
        for at, _ in scenario.scripted if scenario is not None else ():
            if not 0.0 <= at < self.duration:
                spec = self.failure_scenario or scenario.describe()
                raise ValueError(
                    f"malformed failure scenario {spec!r}: a kill at "
                    f"+{at:g}s can never fire, the measured window is "
                    f"[0, {self.duration:g})s")
