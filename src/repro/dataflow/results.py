"""Run results and derived-metric accessors.

:class:`RunResult` is everything a finished run exposes to the experiment
harness: the raw :class:`~repro.metrics.collectors.MetricsCollector` plus
the protocol-aware derived metrics the paper's tables and figures are
built from (checkpoint accounting, restart/recovery times, availability,
goodput, sustainability).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.collectors import (
    COORDINATED_INSTANCE_KINDS,
    COORDINATED_ROUND_KINDS,
    UNCOORDINATED_KINDS,
    MetricsCollector,
)
from repro.metrics.series import LatencySeries, percentile


@dataclass
class RunResult:
    """Everything a finished run exposes to the experiment harness."""

    query: str
    protocol: str
    parallelism: int
    rate: float
    warmup: float
    duration: float
    metrics: MetricsCollector
    checkpoint_interval: float
    completed_rounds: set[int] = field(default_factory=set)
    #: parallelism the job ended at (an elastic recovery may have rescaled
    #: it away from ``parallelism``, the deployment's initial value)
    final_parallelism: int = 0

    def __post_init__(self) -> None:
        """Default the final parallelism to the deployed one."""
        if not self.final_parallelism:
            self.final_parallelism = self.parallelism

    @property
    def rescaled(self) -> bool:
        """Did an elastic recovery change the parallelism?"""
        return self.final_parallelism != self.parallelism

    def compact(self) -> "RunResult":
        """Fold rebuildable transient bulk out of the result (cache v8).

        The raw per-second latency samples dominate a pickled result
        (~98% of its bytes on a typical figure run) but every consumer
        reads them through :meth:`latency_series`, which only needs one
        (count, p50, p99) triple per second.  ``compact()`` precomputes
        those digests with the same nearest-rank
        :func:`~repro.metrics.series.percentile` the series would apply
        and drops the samples, so every derived metric stays
        byte-identical afterwards.  Shard partials must **not** be
        compacted — :func:`repro.experiments.sharding.merge_metrics`
        concatenates raw samples across shards before taking percentiles
        — so the executor only compacts top-level results.  Mutates in
        place and returns ``self``; idempotent.
        """
        metrics = self.metrics
        if metrics.latency_digests is None:
            metrics.latency_digests = {
                second: (len(values),
                         percentile(values, 50),
                         percentile(values, 99))
                for second, values in metrics.latencies.items()
            }
            metrics.latencies = {}
        return self

    def latency_series(self) -> LatencySeries:
        """Per-second p50/p99 with seconds relative to the measured window."""
        end = int(self.duration)
        digests = self.metrics.latency_digests
        if digests is not None:
            # compacted result: rebuild from the per-second digests.  The
            # warmup shift is injective (one absolute second maps to one
            # relative second), so each relative second's population is
            # exactly one digest's — the precomputed percentiles are the
            # ones from_latencies would recompute from raw samples.
            p50: dict[int, float] = {}
            p99: dict[int, float] = {}
            for second, (_, d50, d99) in digests.items():
                rel = second - int(self.warmup)
                if 0 <= rel < end:
                    p50[rel] = d50
                    p99[rel] = d99
            seconds = list(range(0, end))
            return LatencySeries(
                seconds=seconds,
                p50=[p50.get(second, 0.0) for second in seconds],
                p99=[p99.get(second, 0.0) for second in seconds],
            )
        shifted: dict[int, list[float]] = {}
        for second, values in self.metrics.latencies.items():
            rel = second - int(self.warmup)
            if 0 <= rel < end:
                shifted.setdefault(rel, []).extend(values)
        return LatencySeries.from_latencies(shifted, start=0, end=end)

    @property
    def is_coordinated(self) -> bool:
        """Is the protocol in the coordinated family (aligned or not)?"""
        return self.protocol.startswith("coor")

    def _measured_rounds(self) -> set[int]:
        """Completed coordinated rounds that became durable inside the window.

        Both checkpoint metrics use this set, so a round straddling the
        warmup boundary (e.g. a skew-stretched alignment that starts during
        warmup and completes mid-window) is either counted whole or not at
        all — never a partial count of its instance checkpoints.
        """
        return {
            e.round_id
            for e in self.metrics.checkpoints
            if e.kind in COORDINATED_ROUND_KINDS
            and e.round_id in self.completed_rounds
            and e.durable_at >= self.warmup
        }

    def avg_checkpoint_time(self) -> float:
        """Protocol-aware average checkpoint duration (paper Section V).

        Coordinated variants (aligned and unaligned) are timed per completed
        round; the uncoordinated family per local/forced checkpoint.  Only
        checkpoints of the measured window contribute — the same window and
        completed-round filters as :meth:`total_checkpoints`, so the two
        metrics always describe the same population.
        """
        if self.is_coordinated:
            rounds = self._measured_rounds()
            events = [
                e for e in self.metrics.checkpoints
                if e.kind in COORDINATED_ROUND_KINDS and e.round_id in rounds
            ]
        else:
            events = [
                e for e in self.metrics.checkpoints
                if e.kind in UNCOORDINATED_KINDS and e.durable_at >= self.warmup
            ]
        if not events:
            return 0.0
        return sum(e.duration for e in events) / len(events)

    def total_checkpoints(self) -> int:
        """Durable checkpoints counted the way Table III counts them.

        Only checkpoints taken inside the measured window count; both
        coordinated variants count the per-instance checkpoints of
        *completed* rounds (an unfinished round is unusable).
        """
        if self.is_coordinated:
            rounds = self._measured_rounds()
            return sum(
                1
                for e in self.metrics.checkpoints
                if e.kind in COORDINATED_INSTANCE_KINDS and e.round_id in rounds
            )
        return sum(
            1
            for e in self.metrics.checkpoints
            if e.kind in UNCOORDINATED_KINDS and e.durable_at >= self.warmup
        )

    def invalid_percentage(self) -> float:
        """Invalid checkpoints at the failure as a percentage (Table III)."""
        first = self.metrics.first_failure()
        if first is None or first.total_checkpoints <= 0:
            return 0.0
        return 100.0 * first.invalid_checkpoints / first.total_checkpoints

    def restart_time(self) -> float:
        """Detection -> ready-to-process duration (paper Fig. 11), or -1.0."""
        first = self.metrics.first_failure()
        restart = first.restart_time if first is not None else None
        return -1.0 if restart is None else restart

    def recovery_time(self) -> float:
        """Seconds until latency re-entered its stable band (paper Fig. 9)."""
        first = self.metrics.first_failure()
        if first is None or first.detected_at is None:
            return -1.0
        return self.latency_series().recovery_time(first.detected_at - self.warmup)

    def availability(self) -> float:
        """Fraction of the measured window the pipeline was up (1.0 = no
        outage); outages span kill -> recovery-applied."""
        return self.metrics.availability(self.warmup,
                                         self.warmup + self.duration)

    def goodput(self) -> float:
        """Records reaching sinks per second of *available* virtual time.

        Unlike raw throughput this does not dilute over downtime: a run
        that loses half its window to recoveries but processes at full
        speed while up keeps its goodput, making protocols comparable
        across failure scenarios of different severity.
        """
        start, end = self.warmup, self.warmup + self.duration
        up = (end - start) - self.metrics.downtime(start, end)
        if up <= 0:
            return 0.0
        return self.metrics.total_sink_records(start, end) / up

    def blocked_time(self) -> float:
        """Channel-seconds senders spent parked awaiting credits.

        Zero on unbounded channels (``channel_capacity_bytes=0``); under a
        capacity bound this is the cumulative backpressure signal of the
        run, summed over channels (DESIGN.md section 13).
        """
        return self.metrics.blocked_time_total

    def sustainable(self, expected_rate: float) -> bool:
        """Backpressure check used by the MST search (DESIGN.md section 6)."""
        series = self.latency_series()
        third = int(self.duration / 3)
        if series.is_growing(third, int(self.duration)):
            return False
        # absolute cap of one second: seconds-deep queues mean the probe
        # window was just too short to see the growth
        tail = [
            v for s, v in zip(series.seconds, series.p50)
            if s >= 2 * third and v > 0
        ]
        if tail and percentile(tail, 50) > 1.0:
            return False
        # sources must keep up with the offered rate: compare ingest in the
        # second half of the window against the offered rate.
        half_start = int(self.warmup + self.duration / 2)
        half_end = int(self.warmup + self.duration)
        ingested = sum(
            count
            for second, count in self.metrics.ingest_counts.items()
            if half_start <= second < half_end
        )
        span = half_end - half_start
        return ingested >= 0.93 * expected_rate * span
