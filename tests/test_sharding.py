"""Intra-run key-group sharding: split one run, merge identical results.

The acceptance property (DESIGN.md section 15): for a shardable pipeline,
running the shards of one configuration and merging them must reproduce
the unsharded run's drained per-key state and additive counters exactly —
sharding moves *where* a key's records simulate, never *what* they
compute.  The suite audits that equivalence against ground truth, locks
the structural validation, and pins the shard coordinates into the run
cache's address.
"""

import hashlib
import math
import pickle

import pytest

from repro.dataflow.graph import GraphError, LogicalGraph, Partitioning
from repro.dataflow.keygroups import group_range
from repro.dataflow.operators import MapOperator, SinkOperator, SourceOperator
from repro.dataflow.runtime import Job
from repro.metrics.collectors import MetricsCollector, RecoveryRecord
from repro.sim.costs import RuntimeConfig
from repro.workloads.spec import QuerySpec
from repro.experiments.parallel import (
    ParallelRunner,
    RunRequest,
    request_key,
)
from repro.experiments.sharding import (
    ShardingError,
    merge_metrics,
    merge_shard_results,
    run_sharded,
    shard_inputs,
    shard_requests,
    validate_shardable,
)

from tests.conftest import (
    CountPerKeyOperator,
    KeyedEvent,
    build_count_graph,
    make_event_log,
)


def _expected_counts(log):
    expected: dict[int, int] = {}
    for partition in log.partitions:
        for record in partition.records:
            key = record.payload.key
            expected[key] = expected.get(key, 0) + 1
    return expected


def _measured_counts(job, parallelism):
    measured: dict[int, int] = {}
    for idx in range(parallelism):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    return measured


# --------------------------------------------------------------------- #
# Input filtering
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("shard_count", [2, 3, 5])
def test_shard_inputs_partition_the_log(shard_count):
    """Shard slices are disjoint and their union is the whole log, with
    per-partition record order and timestamps preserved."""
    graph = build_count_graph()
    log = make_event_log(200.0, 6.0, 3)
    slices = [
        shard_inputs(graph, {"events": log}, index, shard_count, 128)["events"]
        for index in range(shard_count)
    ]
    assert sum(len(s) for s in slices) == len(log)
    for p_idx, partition in enumerate(log.partitions):
        originals = [(r.available_at, r.payload) for r in partition.records]
        recombined = sorted(
            ((r.available_at, r.payload)
             for s in slices for r in s.partitions[p_idx].records),
            key=lambda item: item[0],
        )
        assert recombined == originals
        for s in slices:  # offsets renumbered contiguously per slice
            offsets = [r.offset for r in s.partitions[p_idx].records]
            assert offsets == list(range(len(offsets)))
    # no slice is empty at these counts: 20 keys spread over 128 groups
    assert all(len(s) > 0 for s in slices)


def test_shard_inputs_never_mutate_the_original_log():
    graph = build_count_graph()
    log = make_event_log(100.0, 4.0, 2)
    before = len(log)
    shard_inputs(graph, {"events": log}, 0, 2, 128)
    assert len(log) == before


def _two_consumer_graph(second_key_fn) -> LogicalGraph:
    graph = LogicalGraph("fanout")
    graph.add_source("src", "events", SourceOperator)
    graph.add_operator("count", CountPerKeyOperator, stateful=True)
    graph.add_operator("audit", CountPerKeyOperator, stateful=True)
    graph.connect("src", "count", Partitioning.KEY, key_fn=lambda e: e.key)
    graph.connect("src", "audit", Partitioning.KEY, key_fn=second_key_fn)
    return graph


def test_shard_inputs_with_agreeing_source_out_edges():
    """Two out-edges keyed alike shard exactly as one does."""
    log = make_event_log(200.0, 4.0, 2)
    one = shard_inputs(build_count_graph(), {"events": log}, 1, 2, 128)
    two = shard_inputs(_two_consumer_graph(lambda e: e.key),
                       {"events": log}, 1, 2, 128)
    for a, b in zip(one["events"].partitions, two["events"].partitions):
        assert a.records[:] == b.records[:]


def test_shard_inputs_reject_out_edges_that_disagree_on_the_owner():
    log = make_event_log(200.0, 4.0, 2)
    graph = _two_consumer_graph(lambda e: e.key + 1)
    with pytest.raises(ShardingError, match="different key groups"):
        shard_inputs(graph, {"events": log}, 0, 2, 128)


# --------------------------------------------------------------------- #
# Structural validation
# --------------------------------------------------------------------- #


def _graph_with(source_partitioning=Partitioning.KEY,
                rekeyed=False, broadcast=False) -> LogicalGraph:
    graph = LogicalGraph("probe")
    graph.add_source("src", "events", SourceOperator)
    graph.add_operator("count", CountPerKeyOperator, stateful=True)
    graph.add_operator("sink", SinkOperator)
    key_fn = (lambda e: e.key) if source_partitioning is Partitioning.KEY else None
    graph.connect("src", "count", source_partitioning, key_fn=key_fn)
    if rekeyed:
        graph.connect("count", "sink", Partitioning.KEY, key_fn=lambda e: e.value)
    elif broadcast:
        graph.connect("count", "sink", Partitioning.BROADCAST)
    else:
        graph.connect("count", "sink", Partitioning.FORWARD)
    return graph


def test_validate_shardable_accepts_keyed_source_pipeline():
    validate_shardable(_graph_with())


def test_validate_shardable_rejects_forward_source_edge():
    with pytest.raises(ShardingError, match="forward"):
        validate_shardable(_graph_with(source_partitioning=Partitioning.FORWARD))


def test_validate_shardable_rejects_downstream_rekeying():
    with pytest.raises(ShardingError, match="re-keys"):
        validate_shardable(_graph_with(rekeyed=True))


def test_validate_shardable_rejects_broadcast():
    with pytest.raises(ShardingError, match="BROADCAST"):
        validate_shardable(_graph_with(broadcast=True))


def test_sharding_error_is_a_graph_error():
    assert issubclass(ShardingError, GraphError)


def test_shard_requests_reject_nested_sharding():
    request = RunRequest("q12", "unc", 2, 100.0)
    (first, _) = shard_requests(request, 2)
    with pytest.raises(ShardingError, match="re-sharded"):
        shard_requests(first, 2)


# --------------------------------------------------------------------- #
# Differential: sharded == unsharded == ground truth
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("shard_count", [2, 3])
def test_sharded_state_matches_unsharded_across_failure(shard_count):
    """Drained per-key state of the merged shards equals the unsharded
    run and the input-log ground truth, through a failure + recovery."""
    parallelism = 3
    log = make_event_log(300.0, 12.0, parallelism)

    def run(inputs):
        config = RuntimeConfig(checkpoint_interval=3.0, duration=14.0,
                               warmup=2.0, failure_at=6.0, seed=3)
        job = Job(build_count_graph(), "unc", parallelism,
                  inputs, config)
        job.run(drain=True)
        return job

    unsharded = run({"events": log})
    merged: dict[int, int] = {}
    sink_total = 0
    for index in range(shard_count):
        inputs = shard_inputs(build_count_graph(), {"events": log},
                              index, shard_count, 128)
        shard_job = run(inputs)
        for key, value in _measured_counts(shard_job, parallelism).items():
            merged[key] = merged.get(key, 0) + value
        sink_total += sum(shard_job.metrics.sink_counts.values())

    expected = _expected_counts(log)
    assert _measured_counts(unsharded, parallelism) == expected
    assert merged == expected
    # sink counts include recovery-replay duplicates (the sink does not
    # dedup), and how many duplicates a replay produces depends on each
    # shard's own checkpoint timing — so under failures the guarantee is
    # at-least-once delivery, not an exact total (the exact-total check
    # lives in the failure-free runner test below)
    assert sink_total >= sum(expected.values())


# --------------------------------------------------------------------- #
# Metric merging
# --------------------------------------------------------------------- #


def test_merge_metrics_additive_and_best_effort_fields():
    a, b = MetricsCollector(), MetricsCollector()
    a.sink_counts = {3: 10, 4: 2}
    b.sink_counts = {4: 5}
    a.latencies = {3: [0.1]}
    b.latencies = {3: [0.2], 5: [0.3]}
    a.data_bytes, b.data_bytes = 100, 50
    a.recoveries = [RecoveryRecord(killed_at=5.0, detected_at=6.5,
                                   applied_at=7.0, invalid_checkpoints=1,
                                   total_checkpoints=4)]
    b.recoveries = [
        RecoveryRecord(killed_at=5.0, detected_at=6.0, applied_at=8.5,
                       invalid_checkpoints=2, total_checkpoints=4),
        # killed as the first recovery applied: an open outage that
        # swallows everything after
        RecoveryRecord(killed_at=8.5),
    ]
    a.peak_total_in_flight_bytes, b.peak_total_in_flight_bytes = 300, 200

    merged = merge_metrics([a, b])
    assert merged.sink_counts == {3: 10, 4: 7}
    assert merged.latencies == {3: [0.1, 0.2], 5: [0.3]}
    assert merged.data_bytes == 150
    assert merged.recoveries == a.recoveries + b.recoveries
    assert merged.outages() == [[5.0, math.inf]]
    first = merged.first_failure()
    assert first.detected_at == 6.0
    assert first.applied_at == 8.5
    assert merged.peak_total_in_flight_bytes == 300
    assert first.invalid_checkpoints == 3
    assert first.total_checkpoints == 8


def test_merge_shard_results_requires_results():
    with pytest.raises(ShardingError):
        merge_shard_results([])


# --------------------------------------------------------------------- #
# Cache addressing
# --------------------------------------------------------------------- #


def test_shard_coordinates_are_part_of_the_cache_key():
    base = RunRequest("q12", "unc", 2, 100.0)
    keys = {
        request_key(base),
        request_key(shard_requests(base, 2)[0]),
        request_key(shard_requests(base, 2)[1]),
        request_key(shard_requests(base, 3)[0]),
    }
    assert len(keys) == 4


# --------------------------------------------------------------------- #
# End-to-end through the parallel runner
# --------------------------------------------------------------------- #


def _probe_spec() -> QuerySpec:
    """A registered-by-name spec whose input stops well before the run
    ends, so the unsharded run drains and sink totals are exact."""

    def build_graph(parallelism: int) -> LogicalGraph:
        return build_count_graph()

    def build_inputs(rate, until, parallelism, hot_ratio, seed, arrival=None):
        return {"events": make_event_log(rate, 8.0, parallelism, seed=seed)}

    return QuerySpec(
        name="_shard_probe",
        description="sharding integration probe",
        build_graph=build_graph,
        build_inputs=build_inputs,
        capacity_per_worker=500.0,
    )


def test_run_sharded_matches_unsharded_through_runner(tmp_path):
    from repro.workloads.nexmark.queries import QUERIES

    spec = _probe_spec()
    QUERIES[spec.name] = spec
    try:
        request = RunRequest(spec.name, "unc", 2, 240.0,
                             duration=16.0, warmup=2.0, seed=3)
        with ParallelRunner(jobs=2, cache_dir=tmp_path) as runner:
            unsharded = runner.run(request)
            sharded = run_sharded(request, 2, runner=runner)
            assert (sharded.metrics.total_sink_records()
                    == unsharded.metrics.total_sink_records() > 0)
            assert sharded.metrics.records_sent == unsharded.metrics.records_sent
            assert sharded.query == unsharded.query
            # every record was ingested exactly once across the shards
            assert (sum(sharded.metrics.ingest_counts.values())
                    == sum(unsharded.metrics.ingest_counts.values()))
            # second pass: every shard is served from the cache
            misses_before = runner.misses
            run_sharded(request, 2, runner=runner)
            assert runner.misses == misses_before
    finally:
        QUERIES.pop(spec.name, None)


#: sha256 of ``pickle.dumps`` of the merged result of a 2-way split of
#: q12 at 240 rec/s, by protocol
_MERGED_PICKLES = {
    "unc": "ca05be684f0552b726cc6715900f5c6c79f0a45d5b8ccdd9d8a8eae852d50d72",
    "none": "9def06620cbe4dc77c2fe1e2a72f83c311475b9a181a2f251b08f18734ad4a7f",
}


@pytest.mark.parametrize("jobs", [None, 1, 2])
@pytest.mark.parametrize("protocol", sorted(_MERGED_PICKLES))
def test_merged_result_is_the_same_bytes_whoever_ran_the_shards(protocol,
                                                                jobs):
    """No runner, a serial one, a pool: one merged pickle, two misses."""
    request = RunRequest("q12", protocol, 2, 240.0, duration=3.0, warmup=1.0,
                         checkpoint_interval=1.0, seed=7)
    if jobs is None:
        merged = run_sharded(request, 2)
    else:
        with ParallelRunner(jobs=jobs) as runner:
            merged = run_sharded(request, 2, runner)
        assert (runner.hits, runner.misses, runner.deduped) == (0, 2, 0)
    assert hashlib.sha256(pickle.dumps(merged)).hexdigest() \
        == _MERGED_PICKLES[protocol]


def test_sharded_latency_samples_union_to_the_unsharded_population():
    """Merged latency sample *count* equals the unsharded run's — every
    sink record contributes exactly one sample to exactly one shard."""
    parallelism = 2
    log = make_event_log(200.0, 8.0, parallelism)

    def run(inputs):
        config = RuntimeConfig(checkpoint_interval=3.0, duration=12.0,
                               warmup=2.0, failure_at=None, seed=3)
        job = Job(build_count_graph(), "coor", parallelism, inputs, config)
        return job.run(drain=True)

    unsharded = run({"events": log})
    parts = []
    for index in range(2):
        inputs = shard_inputs(build_count_graph(), {"events": log},
                              index, 2, 128)
        parts.append(run(inputs).metrics)
    merged = merge_metrics(parts)
    assert (sum(len(v) for v in merged.latencies.values())
            == sum(len(v) for v in unsharded.metrics.latencies.values()))


def test_group_ranges_cover_the_space():
    ranges = [group_range(i, 3, 128) for i in range(3)]
    covered = sorted(g for r in ranges for g in r)
    assert covered == list(range(128))
