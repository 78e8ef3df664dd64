"""Recovery-dynamics integration tests.

Covers the distinctions and edge cases the paper's Section II sets up:
exactly-once *processing* vs exactly-once *output*, virgin restarts,
round scheduling around failures, and timer staleness across rollbacks.
"""

import pytest

from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig
from repro.workloads.nexmark import QUERIES

from tests.conftest import run_count_job


def expected_counts(job):
    counts = {}
    for partition in job.inputs["events"].partitions:
        for r in partition.records:
            counts[r.payload.key] = counts.get(r.payload.key, 0) + 1
    return counts


def measured_counts(job):
    counts = {}
    for idx in range(job.parallelism):
        state = job.instance(("count", idx)).operator.states["counts"]
        for key, value in state.items():
            counts[key] = counts.get(key, 0) + value
    return counts


def test_exactly_once_processing_allows_duplicate_output():
    """Paper Section II-A: after recovery the system may re-emit output it
    had produced before the failure (exactly-once processing, not output).
    State stays exact while the sink observes more records than the input."""
    job, result = run_count_job("coor", parallelism=3, rate=300.0,
                                duration=16.0, failure_at=6.0)
    assert measured_counts(job) == expected_counts(job)  # state exact
    total_input = len(job.inputs["events"])
    total_output = sum(result.metrics.sink_counts.values())
    # rollback reprocessed some suffix of the input -> duplicated output
    assert total_output > total_input


def test_none_protocol_restarts_from_scratch():
    """Without checkpoints the only recovery line is the initial state:
    everything is reprocessed from offset zero, state still converges."""
    job, result = run_count_job("none", parallelism=2, rate=150.0,
                                duration=24.0, failure_at=4.0,
                                input_until=10.0)
    assert measured_counts(job) == expected_counts(job)
    # sources were rewound to the very beginning
    assert result.metrics.first_failure().detected_at > 0


def test_coor_rounds_never_overlap():
    job, result = run_count_job("coor", failure_at=None, duration=20.0,
                                checkpoint_interval=2.0)
    rounds = sorted(
        (e.started_at, e.durable_at)
        for e in result.metrics.checkpoints if e.kind == "round"
    )
    for (s1, d1), (s2, _) in zip(rounds, rounds[1:]):
        assert s2 >= d1, "a round started before the previous completed"


def test_restart_time_scales_with_replay_volume():
    """UNC restart includes fetching the replay log: more traffic at the
    failure point means a slower restart (paper Fig. 11 mechanism)."""
    _, light = run_count_job("unc", rate=150.0, duration=16.0, failure_at=6.0)
    _, heavy = run_count_job("unc", rate=450.0, duration=16.0, failure_at=6.0)
    assert heavy.metrics.replayed_records >= light.metrics.replayed_records
    assert heavy.restart_time() >= light.restart_time() * 0.9


def test_coor_restart_beats_unc_restart():
    _, coor = run_count_job("coor", rate=300.0, duration=16.0, failure_at=6.0)
    _, unc = run_count_job("unc", rate=300.0, duration=16.0, failure_at=6.0)
    assert coor.restart_time() <= unc.restart_time()


def test_windowed_operator_survives_recovery():
    """Q12's window timers must re-register after a rollback (no stale-epoch
    timer may fire into restored state)."""
    spec = QUERIES["q12"]
    inputs = spec.make_job_inputs(400.0, 20.0, 2, 0.0, 7)
    config = RuntimeConfig(checkpoint_interval=3.0, duration=24.0, warmup=2.0,
                           failure_at=8.0)
    job = Job(spec.build_graph(2), "unc", 2, inputs, config)
    result = job.run(rate=400.0, query_name="q12")
    # outputs keep flowing well after the recovery
    post = result.metrics.total_sink_records(
        start=result.metrics.first_failure().applied_at + 2)
    assert post > 0
    # window state only contains live windows (sweeps kept working)
    for idx in range(2):
        state = job.instance(("count_window", idx)).operator.states["counts"]
        for _, (window, count) in state.items():
            assert count >= 1


def test_failure_detection_and_restart_stamps_ordered():
    _, result = run_count_job("unc", failure_at=6.0)
    first = result.metrics.first_failure()
    assert first.killed_at < first.detected_at < first.applied_at
    assert first.detected_at - first.killed_at == pytest.approx(1.0)  # heartbeat


def test_throughput_recovers_after_failure():
    _, result = run_count_job("unc", rate=250.0, duration=24.0,
                              failure_at=5.0, input_until=22.0)
    series = result.latency_series()
    recovery = result.recovery_time()
    assert recovery > 0, "the pipeline should re-stabilise within the window"


def test_second_half_of_input_not_lost_when_failure_is_late():
    job, _ = run_count_job("unc", duration=20.0, failure_at=11.0,
                           input_until=14.0)
    assert measured_counts(job) == expected_counts(job)


@pytest.mark.parametrize("protocol", ["coor", "coor-unaligned", "unc", "cic"])
def test_all_protocols_deliver_after_recovery(protocol):
    _, result = run_count_job(protocol, rate=250.0, duration=20.0,
                              failure_at=6.0)
    post = result.metrics.total_sink_records(
        start=result.metrics.first_failure().applied_at + 1.0
    )
    assert post > 0
