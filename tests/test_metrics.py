"""Unit tests for metrics collection, percentile series and reporting."""

import pytest

from repro.dataflow.results import RunResult
from repro.metrics.collectors import (
    CheckpointEvent,
    MetricsCollector,
    RecoveryRecord,
)
from repro.metrics.report import format_series, format_table, shape_report
from repro.metrics.series import LatencySeries, percentile


# --------------------------------------------------------------------- #
# percentile
# --------------------------------------------------------------------- #

def test_percentile_empty_is_zero():
    assert percentile([], 50) == 0.0


def test_percentile_single_value():
    assert percentile([7.0], 50) == 7.0
    assert percentile([7.0], 99) == 7.0


def test_percentile_median_of_odd_list():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_percentile_extremes():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 100.0
    assert percentile(values, 99) == 99.0


def test_percentile_monotone_in_pct():
    values = [5.0, 1.0, 9.0, 3.0, 7.0]
    p50 = percentile(values, 50)
    p99 = percentile(values, 99)
    assert p50 <= p99


# --------------------------------------------------------------------- #
# MetricsCollector
# --------------------------------------------------------------------- #

def test_record_output_buckets_by_second():
    m = MetricsCollector()
    m.record_output_batch(now=3.4, source_ts=[3.0])
    m.record_output_batch(now=3.9, source_ts=[3.0])
    m.record_output_batch(now=4.1, source_ts=[4.0])
    assert len(m.latencies[3]) == 2
    assert m.sink_counts == {3: 2, 4: 1}


def test_record_message_accumulates_bytes():
    m = MetricsCollector()
    m.record_message(100, 20, 3)
    m.record_message(50, 0, 1)
    assert m.data_bytes == 150
    assert m.protocol_bytes == 20
    assert m.messages_sent == 2
    assert m.records_sent == 4


def test_overhead_ratio():
    m = MetricsCollector()
    m.record_message(100, 50, 1)
    assert m.overhead_ratio() == pytest.approx(1.5)


def test_overhead_ratio_no_data():
    m = MetricsCollector()
    assert m.overhead_ratio() == 1.0
    m.protocol_bytes = 10
    assert m.overhead_ratio() == float("inf")


def test_checkpoint_event_duration():
    e = CheckpointEvent(("op", 0), "local", 1.0, 1.25, 100, 100)
    assert e.duration == pytest.approx(0.25)


def test_avg_checkpoint_time_filters_kinds():
    """A run averages its protocol's own kinds: local and forced
    checkpoints under UNC, completed rounds under COOR."""
    m = MetricsCollector()
    m.record_checkpoint(CheckpointEvent(("a", 0), "local", 0.0, 0.1, 0, 0))
    m.record_checkpoint(CheckpointEvent(("a", 0), "forced", 0.0, 0.3, 0, 0))
    m.record_checkpoint(CheckpointEvent(None, "round", 0.0, 1.0, 0, 0,
                                        round_id=1))

    def result(protocol: str, completed_rounds: set[int]) -> RunResult:
        return RunResult(
            query="synthetic", protocol=protocol, parallelism=1, rate=1.0,
            warmup=0.0, duration=10.0, metrics=m, checkpoint_interval=5.0,
            completed_rounds=completed_rounds)

    assert result("unc", set()).avg_checkpoint_time() == pytest.approx(0.2)
    assert result("coor", {1}).avg_checkpoint_time() == pytest.approx(1.0)
    assert result("coor", set()).avg_checkpoint_time() == 0.0


def test_restart_time_requires_both_stamps():
    m = MetricsCollector()
    assert m.first_failure() is None
    m.recoveries.append(RecoveryRecord(killed_at=9.0, detected_at=10.0))
    assert m.first_failure().restart_time is None


def test_restart_time_computed():
    m = MetricsCollector()
    m.recoveries.append(RecoveryRecord(killed_at=9.0, detected_at=10.0,
                                       applied_at=10.4))
    assert m.first_failure().restart_time == pytest.approx(0.4)


def test_throughput_window():
    m = MetricsCollector()
    for s in range(10):
        m.sink_counts[s] = 100
    assert m.total_sink_records(2, 6) == 400
    assert m.total_sink_records(0, 5) == 500


# --------------------------------------------------------------------- #
# LatencySeries
# --------------------------------------------------------------------- #

def test_series_from_latencies_fills_gaps_with_zero():
    series = LatencySeries.from_latencies({0: [0.1], 2: [0.2, 0.4]}, 0, 4)
    assert series.seconds == [0, 1, 2, 3]
    assert series.p50 == [0.1, 0.0, 0.2, 0.0]


def test_series_pct_accessor():
    series = LatencySeries.from_latencies({0: [0.1]}, 0, 1)
    assert series.series(50) == series.p50
    assert series.series(99) == series.p99
    with pytest.raises(ValueError):
        series.series(90)


def test_stable_band_is_median_of_prefix():
    lat = {s: [0.1] for s in range(10)}
    lat[12] = [9.9]
    series = LatencySeries.from_latencies(lat, 0, 13)
    assert series.stable_band(before=10) == pytest.approx(0.1)


def test_recovery_time_detects_return_to_band():
    lat = {s: [0.1] for s in range(10)}
    for s in range(10, 15):
        lat[s] = [5.0]  # spike
    for s in range(15, 25):
        lat[s] = [0.11]  # recovered
    series = LatencySeries.from_latencies(lat, 0, 25)
    rec = series.recovery_time(detected_at=10.0)
    assert rec == pytest.approx(5.0)


def test_recovery_time_never_recovers():
    lat = {s: [0.1] for s in range(10)}
    for s in range(10, 30):
        lat[s] = [9.0]
    series = LatencySeries.from_latencies(lat, 0, 30)
    assert series.recovery_time(detected_at=10.0) == -1.0


def test_is_growing_detects_backpressure():
    growing = {s: [0.1 * (s + 1)] for s in range(20)}
    series = LatencySeries.from_latencies(growing, 0, 20)
    assert series.is_growing(0, 20)
    flat = {s: [0.1] for s in range(20)}
    series2 = LatencySeries.from_latencies(flat, 0, 20)
    assert not series2.is_growing(0, 20)


def test_is_growing_needs_enough_samples():
    series = LatencySeries.from_latencies({0: [0.1], 1: [9.0]}, 0, 2)
    assert not series.is_growing(0, 2)


# --------------------------------------------------------------------- #
# report rendering
# --------------------------------------------------------------------- #

def test_format_table_alignment_and_title():
    text = format_table(["a", "bb"], [[1, 2.5], [10, 0.125]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_table_na_for_negative_one():
    text = format_table(["x"], [[-1.0]])
    assert "n/a" in text


def test_format_series_steps():
    text = format_series("lat", list(range(10)), [0.1] * 10, step=5)
    assert "t=  0s" in text and "t=  5s" in text and "t=  3s" not in text


def test_shape_report_pass_fail():
    text = shape_report("claims:", [("good", True), ("bad", False)])
    assert "[PASS] good" in text
    assert "[FAIL] bad" in text
