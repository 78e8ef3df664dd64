"""Protocol-dependent checkpoint accounting (Table III / Figure 8 inputs).

The regression half of this module pins the unified accounting rules:
``total_checkpoints()`` and ``avg_checkpoint_time()`` must describe the
same population of checkpoints — same measured window, same
completed-round filter — for every protocol.  The seed code applied the
window filter to the count but not to the average, so a warmup-time
checkpoint could inflate the average while being excluded from the count.
"""

import pytest

from repro.dataflow.results import RunResult
from repro.metrics.collectors import (
    CheckpointEvent,
    KIND_COOR,
    KIND_FORCED,
    KIND_LOCAL,
    KIND_ROUND,
    MetricsCollector,
)

from tests.conftest import run_count_job


def make_result(protocol: str, events, completed_rounds=(), warmup=10.0,
                duration=20.0) -> RunResult:
    metrics = MetricsCollector()
    for event in events:
        metrics.record_checkpoint(event)
    return RunResult(
        query="synthetic", protocol=protocol, parallelism=2, rate=100.0,
        warmup=warmup, duration=duration, metrics=metrics,
        checkpoint_interval=5.0, completed_rounds=set(completed_rounds),
    )


def round_events(round_id, started, durable, instances=2):
    """A completed coordinated round: per-instance events + the summary."""
    events = [
        CheckpointEvent(instance=("op", i), kind=KIND_COOR, started_at=started,
                        durable_at=durable, state_bytes=10, upload_bytes=10,
                        round_id=round_id)
        for i in range(instances)
    ]
    events.append(
        CheckpointEvent(instance=None, kind=KIND_ROUND, started_at=started,
                        durable_at=durable, state_bytes=20, upload_bytes=20,
                        round_id=round_id)
    )
    return events


# --------------------------------------------------------------------- #
# Regression: both metrics share the window / completed-round filters
# --------------------------------------------------------------------- #

def test_coordinated_average_excludes_warmup_rounds():
    """Seed bug: a round fully inside warmup was averaged but not counted."""
    events = round_events(1, started=2.0, durable=4.0)       # warmup only
    events += round_events(2, started=12.0, durable=12.5)    # in window
    result = make_result("coor", events, completed_rounds=(1, 2))
    assert result.total_checkpoints() == 2
    assert result.avg_checkpoint_time() == pytest.approx(0.5)


def test_uncoordinated_average_excludes_warmup_checkpoints():
    events = [
        CheckpointEvent(instance=("op", 0), kind=KIND_LOCAL, started_at=1.0,
                        durable_at=1.5, state_bytes=10, upload_bytes=10),
        CheckpointEvent(instance=("op", 0), kind=KIND_LOCAL, started_at=15.0,
                        durable_at=15.1, state_bytes=10, upload_bytes=10),
    ]
    result = make_result("unc", events)
    assert result.total_checkpoints() == 1
    assert result.avg_checkpoint_time() == pytest.approx(0.1)


def test_straddling_round_counts_whole_in_both_metrics():
    """A round that starts in warmup but completes mid-window (the skewed
    COOR case the paper plots) contributes to both metrics, entirely."""
    events = round_events(1, started=8.0, durable=14.0)
    result = make_result("coor", events, completed_rounds=(1,))
    assert result.total_checkpoints() == 2
    assert result.avg_checkpoint_time() == pytest.approx(6.0)


def test_incomplete_round_is_invisible_to_both_metrics():
    events = round_events(1, started=12.0, durable=13.0)
    result = make_result("coor", events, completed_rounds=())
    assert result.total_checkpoints() == 0
    assert result.avg_checkpoint_time() == 0.0


def test_forced_checkpoints_count_for_cic():
    events = [
        CheckpointEvent(instance=("op", 0), kind=KIND_LOCAL, started_at=12.0,
                        durable_at=12.2, state_bytes=10, upload_bytes=10),
        CheckpointEvent(instance=("op", 1), kind=KIND_FORCED, started_at=14.0,
                        durable_at=14.4, state_bytes=10, upload_bytes=10),
    ]
    result = make_result("cic", events)
    assert result.total_checkpoints() == 2
    assert result.avg_checkpoint_time() == pytest.approx(0.3)


# --------------------------------------------------------------------- #
# Per-protocol integration: non-zero and mutually consistent
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("protocol", ["coor", "coor-unaligned", "unc", "cic"])
def test_metrics_nonzero_for_every_protocol(protocol):
    _, result = run_count_job(protocol, failure_at=None, duration=14.0,
                              checkpoint_interval=3.0)
    assert result.total_checkpoints() > 0, protocol
    assert result.avg_checkpoint_time() > 0.0, protocol


@pytest.mark.parametrize("protocol", ["coor", "coor-unaligned"])
def test_coordinated_variants_record_both_kinds(protocol):
    job, result = run_count_job(protocol, failure_at=None, duration=14.0,
                                checkpoint_interval=3.0)
    kinds = {e.kind for e in result.metrics.checkpoints}
    assert kinds == {KIND_COOR, KIND_ROUND}
    # every completed round contributes exactly n_instances checkpoints
    rounds = result._measured_rounds()
    assert rounds
    per_round = {
        r: sum(1 for e in result.metrics.checkpoints
               if e.kind == KIND_COOR and e.round_id == r)
        for r in rounds
    }
    assert all(n == job.n_instances for n in per_round.values()), per_round
    assert result.total_checkpoints() == sum(per_round.values())


def test_uncoordinated_records_only_local_kinds():
    _, result = run_count_job("unc", failure_at=None, duration=14.0,
                              checkpoint_interval=3.0)
    kinds = {e.kind for e in result.metrics.checkpoints}
    assert kinds == {KIND_LOCAL}
