"""Tests for the cyclic reachability query and its generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig
from repro.storage.kafka import PartitionedLog
from repro.workloads import columns
from repro.workloads.arrivals import parse_arrival
from repro.workloads.cyclic import REACHABILITY, CyclicGenerator
from repro.workloads.cyclic.generator import LinkEvent, SourceEvent
from repro.workloads.cyclic.reachability import (
    ReachFact,
    build_reachability,
)

from tests.test_nexmark_generator import (
    assert_rows_equal_constructed,
    log_columns,
)


# --------------------------------------------------------------------- #
# Generator
# --------------------------------------------------------------------- #

def test_generator_event_mix():
    gen = CyclicGenerator(2, seed=1)
    links, srcnodes = gen.logs(rate=2000.0, until=5.0)
    total = len(links) + len(srcnodes)
    assert total == 10_000
    link_share = len(links) / total
    assert 0.70 <= link_share <= 0.90  # 60% new + 20% delete (approx)


def test_generator_deletes_only_live_entities():
    links, srcnodes = CyclicGenerator(1, seed=2).logs(500.0, 4.0)
    deletions = 0
    for log, fields in ((links, ("src", "dst")), (srcnodes, ("node",))):
        multiplicity: dict[tuple[int, ...], int] = {}
        for r in log.partition(0).records:
            entity = tuple(getattr(r.payload, name) for name in fields)
            if r.payload.add:
                multiplicity[entity] = multiplicity.get(entity, 0) + 1
            else:
                assert multiplicity.get(entity, 0) > 0
                multiplicity[entity] -= 1
                deletions += 1
    assert deletions >= 300  # ~25 % of 2,000 events delete something


def test_generator_rejects_bad_arguments_before_generating():
    # CyclicGenerator(0) used to generate everything, then fail in the log
    with pytest.raises(ValueError, match="parallelism must be positive"):
        CyclicGenerator(0)
    gen = CyclicGenerator(2)
    for rate, until in ((float("nan"), 1.0), (float("inf"), 1.0),
                        (10.0, float("nan")), (10.0, float("inf")),
                        (-5.0, 1.0), (10.0, 0.0)):
        with pytest.raises(ValueError, match="rate and until must be positive"):
            gen.logs(rate, until)


def test_generator_determinism():
    a = CyclicGenerator(2, seed=5).logs(300.0, 2.0)
    b = CyclicGenerator(2, seed=5).logs(300.0, 2.0)
    assert [r.payload for r in a[0].partition(0).records] == \
           [r.payload for r in b[0].partition(0).records]


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6),
                               st.booleans()), max_size=30))
def test_bulk_events_equal_constructed_events(rows):
    srcs, dsts, adds = ([row[i] for row in rows] for i in range(3))
    assert_rows_equal_constructed(LinkEvent, srcs, dsts, adds)
    assert_rows_equal_constructed(SourceEvent, srcs, adds)


@pytest.mark.parametrize("arrival", [
    None, "mmpp:low=0.5,high=2,dwell_low=0.4,dwell_high=0.2"])
def test_block_size_does_not_show_in_the_logs(arrival, monkeypatch):
    """Rows are turned into event objects a block at a time; 7 events per
    block, with blocks that hold no source event at all, produces the
    default's logs, payload pickles included."""
    def generate():
        process = parse_arrival(arrival) if arrival else None
        return [log_columns(log) for log in
                CyclicGenerator(3, seed=11).logs(900.0, 2.0, arrival=process)]

    assert 900 * 2 < columns.BLOCK_EVENTS  # the default: one block
    whole = generate()
    monkeypatch.setattr(columns, "BLOCK_EVENTS", 7)
    assert generate() == whole


# --------------------------------------------------------------------- #
# Query semantics
# --------------------------------------------------------------------- #

def small_world_inputs(parallelism=2):
    """Hand-crafted inputs on a tiny graph to force recursion."""
    links = PartitionedLog("links", parallelism)
    srcnodes = PartitionedLog("srcnodes", parallelism)
    # chain 1 -> 2 -> 3, source node 1: expect facts 1->2 and 1->2->3
    links.partition(0).append(0.1, LinkEvent(1, 2, True), 64)
    links.partition(1).append(0.1, LinkEvent(2, 3, True), 64)
    srcnodes.partition(0).append(0.2, SourceEvent(1, True), 48)
    return {"links": links, "srcnodes": srcnodes}


def run_reachability(inputs, parallelism=2, duration=6.0):
    config = RuntimeConfig(duration=duration, warmup=1.0, failure_at=None)
    job = Job(build_reachability(parallelism), "unc", parallelism, inputs, config)
    result = job.run()
    return job, result


def test_reachability_transitive_closure():
    job, result = run_reachability(small_world_inputs())
    # outputs: fact(1 reaches 2) and the recursive fact(1 reaches 3)
    assert sum(result.metrics.sink_counts.values()) == 2


def test_reachability_cycle_guard_exact():
    links = PartitionedLog("links", 1)
    srcnodes = PartitionedLog("srcnodes", 1)
    links.partition(0).append(0.1, LinkEvent(1, 2, True), 64)
    links.partition(0).append(0.1, LinkEvent(2, 1, True), 64)
    srcnodes.partition(0).append(0.2, SourceEvent(1, True), 48)
    job, result = run_reachability(
        {"links": links, "srcnodes": srcnodes}, parallelism=1
    )
    # fact (1 -> 2) is emitted; extending it back to node 1 is rejected by
    # the select (1 already on the path), so exactly one sink record
    assert sum(result.metrics.sink_counts.values()) == 1


def test_link_deletion_stops_future_matches():
    links = PartitionedLog("links", 1)
    srcnodes = PartitionedLog("srcnodes", 1)
    links.partition(0).append(0.1, LinkEvent(1, 2, True), 64)
    links.partition(0).append(0.2, LinkEvent(1, 2, False), 64)  # delete
    srcnodes.partition(0).append(1.0, SourceEvent(1, True), 48)
    job, result = run_reachability({"links": links, "srcnodes": srcnodes}, 1)
    assert sum(result.metrics.sink_counts.values()) == 0


def test_source_deletion_removes_facts():
    links = PartitionedLog("links", 1)
    srcnodes = PartitionedLog("srcnodes", 1)
    srcnodes.partition(0).append(0.1, SourceEvent(1, True), 48)
    srcnodes.partition(0).append(0.5, SourceEvent(1, False), 48)  # delete
    links.partition(0).append(1.0, LinkEvent(1, 2, True), 64)
    job, result = run_reachability({"links": links, "srcnodes": srcnodes}, 1)
    assert sum(result.metrics.sink_counts.values()) == 0
    join = job.instance(("join_reach", 0)).operator
    assert len(join.states["facts"]) == 0


def test_graph_is_cyclic_and_validates():
    graph = build_reachability(2)
    assert graph.has_cycle()
    graph.validate()


def test_reach_fact_size_grows_with_path():
    short = ReachFact(1, 2, (1, 2))
    long = ReachFact(1, 5, (1, 2, 3, 4, 5))
    assert long.size_bytes > short.size_bytes


def test_spec_metadata():
    assert REACHABILITY.cyclic


@pytest.mark.parametrize("hot_ratio", [0.3, 1.0])
def test_the_input_builder_rejects_a_hot_ratio(hot_ratio):
    # the event mix draws nodes uniformly: a hot ratio would be ignored,
    # and the run cached under a key of its own
    with pytest.raises(ValueError, match="no hot keys"):
        REACHABILITY.build_inputs(400.0, 2.0, 2, hot_ratio, 7, None)
    assert REACHABILITY.build_inputs(400.0, 2.0, 2, 0.0, 7, None)


@pytest.mark.parametrize("failure_at", [None, 5.0])
def test_exactly_once_link_state_on_cyclic_query(failure_at):
    """Join link-state must reflect each add/delete exactly once.

    Adds and deletes of one link can land on different partitions, so their
    relative processing order is undefined (a real property of partitioned
    streams, failure or not).  The exactly-once invariant is therefore:
    never-deleted links are present exactly once, never-added links are
    absent, and only add+delete *raced* pairs may go either way.
    """
    gen_inputs = REACHABILITY.make_job_inputs(300.0, 10.0, 2, 0.0, 7)
    config = RuntimeConfig(checkpoint_interval=3.0, duration=14.0, warmup=2.0,
                           failure_at=failure_at)
    job = Job(build_reachability(2), "unc", 2, gen_inputs, config)
    job.run()
    added: set[tuple[int, int]] = set()
    deleted: set[tuple[int, int]] = set()
    for p in gen_inputs["links"].partitions:
        for r in p.records:
            e = r.payload
            (added if e.add else deleted).add((e.src, e.dst))
    measured: list[tuple[int, int]] = []
    for idx in range(2):
        links_state = job.instance(("join_reach", idx)).operator.states["links"]
        links, _ = links_state.snapshot()
        for key, values in links.items():
            for dst, _rid in values:
                measured.append((key, dst))
    measured_set = set(measured)
    # exactly-once: no duplicated entries at all
    assert len(measured) == len(measured_set)
    # every never-deleted link present; nothing never-added present
    assert added - deleted <= measured_set
    assert measured_set <= added
    # divergence confined to raced (add+delete) pairs
    assert measured_set - (added - deleted) <= deleted
