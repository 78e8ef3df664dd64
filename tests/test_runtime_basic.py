"""Integration tests of the job runtime without failures."""

import pytest

from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import SinkOperator, SourceOperator
from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig

from tests.conftest import build_count_graph, make_event_log, run_count_job


def simple_job(protocol="none", parallelism=2, rate=200.0, duration=8.0,
               warmup=2.0, input_until=8.0):
    config = RuntimeConfig(duration=duration, warmup=warmup, failure_at=None)
    log = make_event_log(rate, input_until, parallelism)
    job = Job(build_count_graph(), protocol, parallelism, {"events": log}, config)
    return job, log


def test_pipeline_delivers_every_record_to_sink():
    job, log = simple_job()
    result = job.run(rate=200.0)
    # input stops at t=8, run ends at t=10: queues fully drain
    assert sum(result.metrics.sink_counts.values()) == len(log)


def test_ingest_counts_match_input():
    job, log = simple_job()
    result = job.run()
    assert sum(result.metrics.ingest_counts.values()) == len(log)


def test_parallelism_one_works():
    job, log = simple_job(parallelism=1)
    result = job.run()
    assert sum(result.metrics.sink_counts.values()) == len(log)


def test_latency_is_positive_and_bounded():
    job, _ = simple_job()
    result = job.run()
    latencies = [v for vs in result.metrics.latencies.values() for v in vs]
    assert latencies
    assert all(0 < v < 5.0 for v in latencies)


def test_counting_state_matches_input_distribution():
    job, log = simple_job()
    job.run()
    expected: dict[int, int] = {}
    for partition in log.partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured: dict[int, int] = {}
    for idx in range(job.parallelism):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    assert measured == expected


def test_keyed_routing_sends_key_to_single_instance():
    job, _ = simple_job(parallelism=3)
    job.run()
    owners: dict[int, list[int]] = {}
    for idx in range(3):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key in counts.keys():
            owners.setdefault(key, []).append(idx)
    from repro.dataflow.channels import hash_key
    from repro.dataflow.keygroups import group_owner, key_group

    assert all(len(v) == 1 for v in owners.values())
    groups = job.max_key_groups
    assert all(
        group_owner(key_group(hash_key(key), groups), 3, groups) == owner[0]
        for key, owner in owners.items()
    )


def test_channel_fifo_order_preserved():
    """Per-channel sequence numbers must arrive monotonically."""
    job, _ = simple_job()
    seen: dict[tuple, int] = {}
    original = job.transport.arrive

    def checking_deliver(channel, msg, deploy_epoch=0):
        if msg.kind == 0 and msg.seq:
            last = seen.get(channel, 0)
            assert msg.seq == last + 1, f"gap on {channel}: {last} -> {msg.seq}"
            seen[channel] = msg.seq
        original(channel, msg, deploy_epoch)

    job.transport.arrive = checking_deliver
    # transmit reads transport.arrive at send time, and nothing has been
    # sent before run(): every delivery goes through the checker
    job.run()
    assert seen  # at least some data messages flowed


def test_mismatched_partition_count_rejected():
    graph = build_count_graph()
    log = make_event_log(100.0, 2.0, parallelism=3)
    with pytest.raises(ValueError):
        Job(graph, "none", 2, {"events": log}, RuntimeConfig())


def test_missing_topic_rejected():
    graph = build_count_graph()
    with pytest.raises(ValueError):
        Job(graph, "none", 2, {}, RuntimeConfig())


def test_unknown_protocol_rejected():
    graph = build_count_graph()
    log = make_event_log(100.0, 2.0, 2)
    with pytest.raises(ValueError):
        Job(graph, "bogus", 2, {"events": log}, RuntimeConfig())


def test_zero_parallelism_rejected():
    with pytest.raises(ValueError):
        Job(build_count_graph(), "none", 0, {}, RuntimeConfig())


def test_instance_keys_and_ordinals():
    job, _ = simple_job(parallelism=2)
    keys = job.instance_keys()
    assert ("src", 0) in keys and ("sink", 1) in keys
    assert job.n_instances == 6
    ordinals = [job.instance_ordinal(k) for k in keys]
    assert sorted(ordinals) == list(range(6))


def test_run_result_carries_configuration():
    job, _ = simple_job(protocol="none")
    result = job.run(rate=123.0, query_name="count")
    assert result.query == "count"
    assert result.protocol == "none"
    assert result.parallelism == 2
    assert result.rate == 123.0


def test_deterministic_given_seed():
    r1 = simple_job()[0].run()
    r2 = simple_job()[0].run()
    assert r1.metrics.sink_counts == r2.metrics.sink_counts
    assert r1.metrics.data_bytes == r2.metrics.data_bytes


def test_no_protocol_bytes_without_checkpoints():
    job, _ = simple_job(protocol="none")
    result = job.run()
    assert result.metrics.protocol_bytes == 0
    assert result.metrics.overhead_ratio() == 1.0


def test_broadcast_edge_reaches_all_instances():
    graph = LogicalGraph("bcast")
    graph.add_source("src", "events", SourceOperator)
    graph.add_operator("sink", SinkOperator)
    graph.connect("src", "sink", Partitioning.BROADCAST)
    log = make_event_log(100.0, 4.0, 2)
    job = Job(graph, "none", 2, {"events": log},
              RuntimeConfig(duration=6.0, warmup=1.0, failure_at=None))
    result = job.run()
    # every record is duplicated to both sink instances
    assert sum(result.metrics.sink_counts.values()) == 2 * len(log)


def test_sustainable_run_reports_sustainable():
    _, result = run_count_job("none", rate=200.0, failure_at=None,
                              input_until=17.0)
    assert result.sustainable(200.0)


def test_overloaded_run_reports_unsustainable():
    _, result = run_count_job(
        "none", parallelism=1, rate=4000.0, failure_at=None,
        duration=16.0, input_until=18.0,
    )
    assert not result.sustainable(4000.0)


@pytest.mark.parametrize("negative", ["src", "count"])
def test_a_negative_task_duration_is_refused_when_the_task_completes(negative):
    """An operator whose ``cpu_per_record`` is negative makes a poll or a
    data task last less than nothing; the completion it schedules is
    refused with :class:`SimulationError`, not run in the past."""
    from repro.dataflow.operators import Operator
    from repro.sim.simulator import SimulationError

    graph = build_count_graph()
    spec = graph.operators[negative]
    factory = spec.factory

    def backwards() -> Operator:
        operator = factory()
        operator.cpu_per_record = -1.0
        return operator

    spec.factory = backwards
    log = make_event_log(200.0, 4.0, 2)
    job = Job(graph, "none", 2, {"events": log},
              RuntimeConfig(duration=4.0, warmup=1.0))
    with pytest.raises(SimulationError, match="negative or NaN delay"):
        job.run()
