"""Tests of the unaligned coordinated protocol (extension, DESIGN.md §8)."""

import pytest

from repro.core import PROTOCOLS
from repro.dataflow.graph import UnsupportedTopologyError
from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig
from repro.workloads.cyclic import REACHABILITY

from tests.conftest import run_count_job


def test_registered_in_protocol_registry():
    assert "coor-unaligned" in PROTOCOLS


def test_rounds_complete_without_blocking():
    job, result = run_count_job("coor-unaligned", failure_at=None, duration=16.0)
    rounds = [e for e in result.metrics.checkpoints if e.kind == "round"]
    assert len(rounds) >= 3
    # no channel is ever blocked under the unaligned variant
    assert all(not w.blocked for w in job.workers)


def test_no_message_logging_or_dedup():
    job, _ = run_count_job("coor-unaligned", failure_at=None)
    assert job.send_log == {}
    assert not job.protocol.requires_logging


@pytest.mark.parametrize("failure_at", [3.0, 6.0, 9.0])
def test_exactly_once_state_after_failure(failure_at):
    job, _ = run_count_job("coor-unaligned", parallelism=3, rate=300.0,
                           duration=16.0, failure_at=failure_at)
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


def test_channel_state_is_replayed_on_recovery():
    _, result = run_count_job("coor-unaligned", rate=500.0, failure_at=6.0,
                              duration=18.0)
    # with traffic in flight, at least some checkpoints carry channel state
    first = result.metrics.first_failure()
    assert first.replayed_messages >= 0
    assert first.invalid_checkpoints == 0  # coordinated: none invalid


def test_faster_rounds_than_aligned():
    """Marker overtaking must shorten the round vs aligned COOR."""
    _, aligned = run_count_job("coor", rate=400.0, failure_at=None,
                               duration=16.0)
    _, unaligned = run_count_job("coor-unaligned", rate=400.0, failure_at=None,
                                 duration=16.0)
    assert unaligned.avg_checkpoint_time() <= aligned.avg_checkpoint_time()


def test_checkpoints_can_grow_with_channel_state():
    """Under load the checkpoint absorbs in-flight data (Flink behaviour)."""
    job, result = run_count_job("coor-unaligned", rate=450.0, failure_at=None,
                                duration=16.0)
    sizes = [e.state_bytes for e in result.metrics.checkpoints if e.kind == "coor"]
    assert sizes
    assert max(sizes) >= min(s for s in sizes if s > 0)


def test_still_rejects_cycles():
    inputs = REACHABILITY.make_job_inputs(100.0, 5.0, 2)
    with pytest.raises(UnsupportedTopologyError):
        Job(REACHABILITY.build_graph(2), "coor-unaligned", 2, inputs,
            RuntimeConfig())


def test_run_result_treats_it_as_coordinated():
    _, result = run_count_job("coor-unaligned", failure_at=None, duration=12.0)
    assert result.is_coordinated
    assert result.total_checkpoints() > 0  # counts 'coor' kind checkpoints


def test_skew_immunity_vs_aligned():
    """The extension's headline: no checkpoint-time explosion under skew."""
    from repro.experiments.runner import run_query
    from repro.workloads.nexmark import QUERIES

    spec = QUERIES["q12"]
    aligned = run_query(spec, "coor", 10, rate=1200.0, duration=30.0,
                        warmup=8.0, hot_ratio=0.3)
    unaligned = run_query(spec, "coor-unaligned", 10, rate=1200.0,
                          duration=30.0, warmup=8.0, hot_ratio=0.3)
    assert unaligned.avg_checkpoint_time() < aligned.avg_checkpoint_time() / 5
