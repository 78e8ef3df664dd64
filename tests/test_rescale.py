"""Differential suite for elastic rescale-on-recovery (DESIGN.md section 11).

The audit mirrors ``test_exactly_once``: run the keyed-counting pipeline
with a mid-run failure whose recovery *also rescales*, stop the input early
so all queues drain, and compare the key-merged final state against

* the per-key counts computed directly from the input log (exactly-once:
  nothing lost, nothing double-applied across the repartitioning), and
* the un-rescaled run's key-merged final state (the rescale must be
  semantically invisible).

Both directions (up 4->6, down 6->4) run for all four protocols and both
state backends.
"""

from dataclasses import replace

import pytest

from repro.dataflow.graph import (
    GraphError,
    LogicalGraph,
    Partitioning,
    validate_rescale,
)
from repro.dataflow.runtime import Job
from repro.experiments.parallel import RunRequest
from repro.sim.costs import RuntimeConfig
from tests.conftest import (
    CountPerKeyOperator,
    build_count_graph,
    make_event_log,
    run_count_job,
)

ALL_PROTOCOLS = ["coor", "coor-unaligned", "unc", "cic"]
BACKENDS = ["full", "changelog"]


RESCALE_REQUEST = RunRequest("q12", "unc", 4, 300.0, duration=8.0, warmup=2.0,
                             failure_at=3.0, rescale_to=6)


@pytest.mark.parametrize("knobs, names", [
    (dict(rescale_at=0), "rescale_at must be an int >= 1, got 0"),
    (dict(rescale_at=-1), "rescale_at must be an int >= 1, got -1"),
    (dict(rescale_at=True), "rescale_at must be an int >= 1, got True"),
    (dict(rescale_at=1.0), "rescale_at must be an int >= 1, got 1.0"),
    (dict(failure_at=None), "rescale_to=6 requires failure_at or "
                            "failure_scenario"),
])
def test_a_rescale_no_recovery_applies_cannot_be_configured(knobs, names):
    """Each of these used to run to the end at p = 4 without a word: no
    recovery is numbered 0 or -1, and a run that never fails never
    recovers."""
    with pytest.raises(ValueError) as raised:
        replace(RESCALE_REQUEST, **knobs).effective_config()
    assert names in str(raised.value)


def expected_counts(job) -> dict[int, int]:
    counts: dict[int, int] = {}
    for partition in job.inputs["events"].partitions:
        for r in partition.records:
            counts[r.payload.key] = counts.get(r.payload.key, 0) + 1
    return counts


def merged_counts(job) -> dict[int, int]:
    counts: dict[int, int] = {}
    for idx in range(job.parallelism):
        state = job.instance(("count", idx)).operator.states["counts"]
        for key, value in state.items():
            counts[key] = counts.get(key, 0) + value
    return counts


# --------------------------------------------------------------------- #
# Differential rescale equivalence
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("start,target", [(4, 6), (6, 4)])
def test_rescaled_recovery_matches_unrescaled(protocol, state_backend,
                                              start, target):
    job_plain, _ = run_count_job(protocol, parallelism=start,
                                 state_backend=state_backend)
    job_rescaled, result = run_count_job(protocol, parallelism=start,
                                         state_backend=state_backend,
                                         rescale_to=target)
    assert job_rescaled.parallelism == target
    assert result.final_parallelism == target
    assert result.rescaled
    expected = expected_counts(job_rescaled)
    assert merged_counts(job_rescaled) == expected
    assert merged_counts(job_plain) == expected


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_rescaled_state_lands_on_group_owners(protocol):
    """After the rescale every key lives only at its group's new owner."""
    from repro.dataflow.channels import hash_key
    from repro.dataflow.keygroups import group_owner, key_group

    job, _ = run_count_job(protocol, parallelism=4, rescale_to=6)
    groups = job.max_key_groups
    for idx in range(job.parallelism):
        state = job.instance(("count", idx)).operator.states["counts"]
        for key in state.keys():
            group = key_group(hash_key(key), groups)
            assert group_owner(group, job.parallelism, groups) == idx


@pytest.mark.parametrize("protocol", ["coor", "unc"])
@pytest.mark.parametrize("state_backend", BACKENDS)
def test_second_failure_after_rescale_still_exactly_once(protocol,
                                                         state_backend):
    """The synthetic baseline must anchor recoveries of the new topology."""
    config = RuntimeConfig(
        checkpoint_interval=3.0, duration=24.0, warmup=2.0,
        failure_scenario="trace:5.0@0;13.0@1", seed=3,
        state_backend=state_backend, rescale_to=6,
    )
    log = make_event_log(300.0, 20.0, 4, seed=3)
    job = Job(build_count_graph(), protocol, 4, {"events": log}, config)
    job.run(rate=300.0)
    assert sum(r.applied_at is not None for r in job.metrics.recoveries) == 2
    assert job.parallelism == 6
    assert merged_counts(job) == expected_counts(job)


def test_rescale_at_second_recovery():
    """rescale_at selects which recovery performs the redeploy."""
    config = RuntimeConfig(
        checkpoint_interval=3.0, duration=24.0, warmup=2.0,
        failure_scenario="trace:5.0@0;13.0@1", seed=3,
        rescale_to=6, rescale_at=2,
    )
    log = make_event_log(300.0, 20.0, 4, seed=3)
    job = Job(build_count_graph(), "unc", 4, {"events": log}, config)
    result = job.run(rate=300.0)
    assert job.parallelism == 6
    # the first recovery kept p=4; only the second rescaled
    rescale = result.metrics.first_failure(rescaled=True)
    assert rescale.applied_at > result.metrics.first_failure().detected_at + 1.0
    assert merged_counts(job) == expected_counts(job)


def test_rescale_records_group_metrics_and_restart_premium():
    _, plain = run_count_job("unc", parallelism=4)
    job, rescaled = run_count_job("unc", parallelism=4, rescale_to=6)
    m = rescaled.metrics.first_failure(rescaled=True)
    assert m.rescale == (4, 6)
    assert m.group_state_bytes  # per-group sizes captured at the rescale
    assert all(0 <= g < job.max_key_groups for g in m.group_state_bytes)
    assert m.group_imbalance() >= 1.0
    # the rescaled restore pays extra orchestration + group-range fan-in
    assert rescaled.restart_time() > plain.restart_time()
    # plain runs never stamp rescale fields
    assert plain.metrics.first_failure(rescaled=True) is None
    assert not plain.rescaled


def test_rescale_with_windowed_join_value_state():
    """Q8 carries a non-keyed ValueState (window id): it restores whole
    from the primary contributor while the keyed join sides re-shard."""
    from repro.experiments.runner import run_query
    from repro.workloads.nexmark import QUERIES

    result = run_query(
        QUERIES["q8"], "unc", 4, rate=300.0,
        duration=20.0, warmup=2.0, failure_at=6.0, rescale_to=6,
    )
    assert result.final_parallelism == 6
    post = result.metrics.total_sink_records(
        start=result.metrics.first_failure().applied_at + 1.0
    )
    assert post > 0  # windows keep closing and joining after the rescale


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_upscaled_sources_cover_all_partitions(protocol):
    """After 4->6 the four input partitions are fully consumed by the six
    source instances, each partition by exactly one owner."""
    job, _ = run_count_job(protocol, parallelism=4, rescale_to=6)
    log = job.inputs["events"]
    owners: dict[int, int] = {}
    for idx in range(job.parallelism):
        for q, cursor in job.instance(("src", idx)).source_cursors.items():
            assert q not in owners, "partition owned twice"
            owners[q] = idx
            assert cursor == len(log.partition(q))
    assert sorted(owners) == list(range(4))


# --------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------- #

def test_job_rejects_parallelism_beyond_key_groups():
    config = RuntimeConfig(max_key_groups=2)
    log = make_event_log(50.0, 1.0, 3)
    with pytest.raises(GraphError, match="exceeds max_key_groups"):
        Job(build_count_graph(), "unc", 3, {"events": log}, config)


def test_job_rejects_rescale_target_beyond_key_groups():
    config = RuntimeConfig(max_key_groups=4, rescale_to=6, failure_at=5.0)
    log = make_event_log(50.0, 1.0, 4)
    with pytest.raises(GraphError, match="exceeds max_key_groups"):
        Job(build_count_graph(), "unc", 4, {"events": log}, config)


def test_rescale_rejected_for_forward_fed_stateful_operator():
    graph = LogicalGraph("fwd-state")
    from repro.dataflow.operators import SinkOperator, SourceOperator

    graph.add_source("src", "events", SourceOperator)
    graph.add_operator("count", CountPerKeyOperator, stateful=True)
    graph.add_operator("sink", SinkOperator)
    graph.connect("src", "count", Partitioning.FORWARD)
    graph.connect("count", "sink", Partitioning.FORWARD)
    with pytest.raises(GraphError, match="only key-addressed state"):
        validate_rescale(graph, 4, 6, 128)
    # restoring at the same parallelism needs no resharding: allowed
    validate_rescale(graph, 4, 4, 128)


# --------------------------------------------------------------------- #
# Surface plumbing
# --------------------------------------------------------------------- #

def test_run_request_cache_key_includes_rescale():
    from repro.experiments.parallel import RunRequest, request_key

    base = RunRequest(query="q1", protocol="coor", parallelism=4, rate=100.0,
                      failure_at=5.0)
    rescaled = RunRequest(query="q1", protocol="coor", parallelism=4,
                          rate=100.0, failure_at=5.0, rescale_to=6)
    assert request_key(base) != request_key(rescaled)


def test_cli_query_with_rescale(capsys):
    from repro.cli import main

    code = main(["query", "q12", "--protocol", "unc", "--parallelism", "4",
                 "--rate", "300", "--duration", "16", "--warmup", "2",
                 "--failure-at", "5", "--rescale-to", "6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "workers=4->6" in out
    assert "rescaled         : 4 -> 6" in out


def test_cli_rescale_requires_failure(capsys):
    from repro.cli import main

    code = main(["query", "q12", "--protocol", "unc", "--rescale-to", "6"])
    assert code == 2
