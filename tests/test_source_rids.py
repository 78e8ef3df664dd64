"""The source lineage-id column, engine side (DESIGN.md section 20).

A source poll slices a per-partition rid column that is derived once and
cached on the partition, as an ``array('Q')`` of 8-byte words.  These
tests hold the three sharing claims that makes safe: a rescaled
deployment reads the same ids for the same offsets, a sharded slice
derives its own column and never inherits its parent's, and the runs
replaying one memoised log derive it once.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from dataclasses import replace

import pytest

from repro.dataflow import runtime as runtime_module
from repro.dataflow.records import source_rid_column, source_rid_prefix
from repro.dataflow.runtime import Job, source_rids
from repro.experiments.parallel import RunRequest, execute_request, resolve_spec
from repro.experiments.sharding import shard_inputs
from repro.workloads import spec as spec_module

from tests.test_inputs_golden import CASES, FIXTURE, SHARD_CASE, build_case


@pytest.mark.parametrize("case", CASES[:6] + [SHARD_CASE])
def test_cached_column_is_the_pinned_one(case):
    """The column a poll slices hashes to what the fixture recorded over
    the row-object log's offsets, and holds them as 8-byte words, not
    ``int`` objects."""
    expected = json.loads(FIXTURE.read_text())[case]
    for topic, log in build_case(case).items():
        column = source_rids(log.partitions[0], source_rid_prefix(topic, 0))
        assert isinstance(column, array) and column.typecode == "Q"
        digest = hashlib.sha256(repr(column.tolist()).encode()).hexdigest()
        assert digest == expected[f"rids:{topic}[0]"]


@pytest.mark.parametrize("rescale_to", [6, 2])
def test_rescaled_deployment_reads_identical_rids(rescale_to):
    """``q8-unc-failure-rescale``: whichever instance owns a partition
    after the rescale — one of several (4 -> 2) or at most one (4 -> 6) —
    every polled batch carries the partition's rid column at its offsets."""
    spec = resolve_spec("q8")
    request = RunRequest(query="q8", protocol="unc", parallelism=4,
                         rate=800.0, duration=7.0, warmup=1.0,
                         checkpoint_interval=2.0, seed=7, failure_at=2.0,
                         rescale_to=rescale_to)
    inputs = spec.build_inputs(request.rate, 9.0, 4, 0.0, request.seed, None)
    job = Job(spec.build_graph(4), "unc", 4, inputs,
              request.effective_config())
    expected = {
        (topic, partition.index): source_rid_column(
            source_rid_prefix(topic, partition.index),
            len(partition)).tolist()
        for topic, log in inputs.items() for partition in log.partitions
    }
    polled: list[tuple[int, int]] = []  # (deployed parallelism, owned partitions)
    process_records = job.process_records

    def spy(instance, batch, port):
        if instance.spec.is_source and port == "in":
            topic, rids = instance.spec.source_topic, batch.rids
            # the cursor already stands behind the batch it was cut from
            assert any(
                expected[topic, q][end - len(rids):end] == rids
                for q, end in instance.source_cursors.items()
            ), f"{instance.key} polled rids that are no slice of its partitions"
            polled.append((job.parallelism, len(instance.source_cursors)))
        return process_records(instance, batch, port)

    job.process_records = spy
    result = job.run(rate=request.rate)
    assert result.metrics.n_recoveries == 1
    assert result.final_parallelism == rescale_to
    assert (4, 1) in polled
    assert (rescale_to, 2 if rescale_to == 2 else 1) in polled
    # replay after the rollback re-read offsets: same ids, so dedup held
    assert result.metrics.total_sink_records() > 0


def test_sharded_log_never_inherits_its_parents_column():
    graph = resolve_spec("q12").build_graph(4)
    whole = resolve_spec("q12").build_inputs(1500.0, 4.0, 4, 0.0, 7, None)
    prefix = source_rid_prefix("bids", 1)
    parent = whole["bids"].partitions[1]
    parent_column = source_rids(parent, prefix)
    sliced = shard_inputs(graph, whole, 0, 2, 128)["bids"].partitions[1]
    assert sliced.rid_cache is None
    assert 0 < len(sliced) < len(parent)
    # renumbered offsets: the slice's ids are those of 0..len-1, not the
    # ids its records carried in the parent
    assert (source_rids(sliced, prefix).tolist()
            == parent_column[:len(sliced)].tolist())
    assert source_rids(parent, prefix) is parent_column


def test_runs_sharing_a_memoised_log_derive_the_column_once(monkeypatch):
    derived: list[int] = []

    def counting(prefix, length):
        derived.append(prefix)
        return source_rid_column(prefix, length)

    monkeypatch.setattr(runtime_module, "source_rid_column", counting)
    monkeypatch.setattr(spec_module, "_INPUT_MEMO", type(spec_module._INPUT_MEMO)())
    request = RunRequest(query="q12", protocol="coor", parallelism=3,
                         rate=600.0, duration=3.0, warmup=1.0,
                         checkpoint_interval=1.5, seed=7)
    execute_request(request)
    assert sorted(derived) == sorted(
        source_rid_prefix("bids", q) for q in range(3))
    for protocol in ("unc", "cic"):
        other = execute_request(replace(request, protocol=protocol))
        assert sum(other.metrics.ingest_counts.values()) > 0
    assert len(derived) == 3
