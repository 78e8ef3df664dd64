"""Tests of the coordinated aligned protocol (COOR)."""

import pytest

from repro.dataflow.graph import UnsupportedTopologyError
from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig
from repro.workloads.cyclic import REACHABILITY

from tests.conftest import build_count_graph, make_event_log, run_count_job


def coor_job(parallelism=3, rate=300.0, duration=14.0, warmup=2.0,
             failure_at=None, interval=3.0):
    config = RuntimeConfig(
        checkpoint_interval=interval, duration=duration, warmup=warmup,
        failure_at=failure_at,
    )
    log = make_event_log(rate, warmup + duration - 2.0, parallelism)
    job = Job(build_count_graph(), "coor", parallelism, {"events": log}, config)
    result = job.run(rate=rate)
    return job, result


def test_rounds_complete_periodically():
    job, result = coor_job(duration=14.0, interval=3.0)
    rounds = [e for e in result.metrics.checkpoints if e.kind == "round"]
    assert len(rounds) >= 3
    assert job.completed_rounds


def test_round_checkpoints_cover_all_instances():
    job, result = coor_job()
    per_round = {}
    for e in result.metrics.checkpoints:
        if e.kind == "coor":
            per_round.setdefault(e.round_id, set()).add(e.instance)
    for round_id in job.completed_rounds:
        assert len(per_round[round_id]) == job.n_instances


def test_aligned_cut_has_no_inflight_messages():
    """The key COOR invariant: per channel, sent == received at the cut."""
    job, _ = coor_job()
    edges_by_id = {e.edge_id: e for e in job.graph.edges}
    for round_id in job.completed_rounds:
        metas = {
            m.instance: m
            for instance in job.instance_keys()
            for m in job.registry.with_initial(instance)[1:]
            if m.round_id == round_id
        }
        for channel, dst in job.channel_dst.items():
            sender = (edges_by_id[channel[0]].src, channel[1])
            sent = metas[sender].sent_cursor(channel)
            received = metas[dst.key].received_cursor(channel)
            assert sent == received, (
                f"round {round_id} channel {channel}: sent={sent} received={received}"
            )


def test_no_message_logging_under_coor():
    job, _ = coor_job()
    assert job.send_log == {}


def test_markers_counted_as_protocol_bytes():
    _, result = coor_job()
    assert result.metrics.protocol_bytes > 0
    assert result.metrics.overhead_ratio() < 1.1  # but tiny (Table II)


def test_recovery_uses_latest_completed_round():
    job, result = coor_job(duration=16.0, failure_at=8.0)
    first = result.metrics.first_failure()
    assert first.invalid_checkpoints == 0
    assert first.replayed_messages == 0
    assert result.restart_time() > 0


def test_recovery_without_any_completed_round_restarts_from_scratch():
    # failure before the first round completes
    job, result = coor_job(duration=12.0, failure_at=0.5, interval=50.0)
    assert result.metrics.first_failure().detected_at > 0
    # everything reprocessed from offset 0: sink totals still correct
    sink = sum(result.metrics.sink_counts.values())
    assert sink > 0


def test_exactly_once_state_after_failure():
    """Counting state equals the per-key input counts despite the failure."""
    job, result = run_count_job("coor", parallelism=3, rate=300.0,
                                duration=16.0, failure_at=5.0)
    expected: dict[int, int] = {}
    for partition in job.inputs["events"].partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured: dict[int, int] = {}
    for idx in range(job.parallelism):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    assert measured == expected


def test_coor_rejects_cyclic_graph():
    inputs = REACHABILITY.make_job_inputs(100.0, 5.0, 2)
    with pytest.raises(UnsupportedTopologyError):
        Job(REACHABILITY.build_graph(2), "coor", 2, inputs, RuntimeConfig())


def test_rounds_resume_after_recovery():
    job, result = coor_job(duration=20.0, failure_at=5.0, interval=3.0)
    applied_at = result.metrics.first_failure().applied_at
    post = [
        e for e in result.metrics.checkpoints
        if e.kind == "round" and e.started_at > applied_at
    ]
    assert post, "rounds must resume after the rollback"


def test_checkpoint_time_is_round_duration():
    _, result = coor_job()
    rounds = [e for e in result.metrics.checkpoints if e.kind == "round"]
    expected = sum(e.duration for e in rounds) / len(rounds)
    assert result.avg_checkpoint_time() == pytest.approx(expected)
