"""What the collector frees below the recovery floor, and what it keeps.

UNC and CIC raise the floor line G once per round of registrations, and
a COOR round completes; either way no later recovery passes below that
line, so ``Job.collect_below`` deletes every blob strictly older than an
instance's checkpoint in it (except the chain that checkpoint stands on)
and cuts the instance's dedup history there (DESIGN.md section 8).
These tests hold the three claims that rest on:

* no restore ever asks for a collected key: over the 13 recovery pin
  points and the multi-failure grid, and a restore that does ask fails
  loudly instead of restoring something else;
* retention is flat: the blobs and dedup-history nodes resident right
  after a collection are as many after 120 s as after 30 s;
* after every floor raise no node of an instance's live history holds a
  rid admitted at or before its floor checkpoint, its live set holds
  none either, and the cut keeps exactly that many in its count.

Run as a module it is the retention gate of CI: the blobs resident at
the end of a 120 s q3/cic run (p = 4, 0.6 x capacity, 5 s interval)::

    PYTHONPATH=src python -m tests.test_collection --max-resident-blobs 40
"""

from __future__ import annotations

import argparse
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.runtime import Job
from repro.dataflow.worker import RidSnapshot
from repro.experiments.parallel import resolve_spec
from repro.metrics.collectors import KIND_INITIAL
from repro.sim.costs import RuntimeConfig
from repro.storage.blobstore import BlobStore

from tests import test_recovery_pin
from tests.conftest import (
    build_count_graph,
    make_event_log,
    run_count_job,
    trace_spec,
)
from tests.test_multiple_failures import run_with_failures


# --------------------------------------------------------------------- #
# No restore reads a collected key
# --------------------------------------------------------------------- #

def test_a_restore_of_a_collected_checkpoint_fails_loudly():
    job, _ = run_count_job("unc", failure_at=None, duration=12.0,
                           checkpoint_interval=1.0)
    store = job.coordinator.blobstore
    collected = [meta for meta in job.registry.for_instance(("count", 0))
                 if meta.blob_key not in store]
    assert collected and store.bytes_deleted > 0
    with pytest.raises(KeyError, match=collected[0].blob_key):
        job.lifecycle.line_payloads(collected[0])


@pytest.fixture
def reads(monkeypatch) -> dict[str, list[str]]:
    """Every blob key a run reads, and the ones it asked for after they
    were gone (``get`` raises then, so a run that swallowed the error
    still shows here)."""
    seen: dict[str, list[str]] = {"read": [], "missing": []}
    get, chain_keys = BlobStore.get, BlobStore.chain_keys

    def spying_get(store, key):
        seen["read"].append(key)
        if key not in store:
            seen["missing"].append(key)
        return get(store, key)

    def spying_chain_keys(store, key):
        node = key
        while node is not None:
            if node not in store:
                seen["missing"].append(node)
                break
            node = store.meta(node).base_key
        return chain_keys(store, key)

    monkeypatch.setattr(BlobStore, "get", spying_get)
    monkeypatch.setattr(BlobStore, "chain_keys", spying_chain_keys)
    return seen


@pytest.mark.parametrize("case", test_recovery_pin.CASES)
def test_no_recovery_pin_point_restores_a_collected_key(reads, case):
    job, _ = test_recovery_pin.run_case(case)
    assert reads["read"], "no recovery restored a checkpoint"
    assert reads["missing"] == []
    assert job.coordinator.blobstore.bytes_deleted > 0


_TRACE_A = [(4.0, 0), (8.0, 1), (12.0, 2), (16.0, 0)]
_TRACE_B = [(3.0, 0), (6.0, 0), (9.0, 1), (12.0, 2), (15.0, 1)]

#: the multi-failure grid of tests/test_multiple_failures.py:
#: (protocol, backend, kills, run length, seed, interval)
_GRID = [
    *((protocol, backend, [(5.0, 0), (13.0, 1)], 24.0, 3, 3.0)
      for protocol in ("coor", "coor-unaligned", "unc", "cic")
      for backend in ("full", "changelog")),
    *(("unc", backend, [(4.0, 0), (10.0, 0), (16.0, 0)], 28.0, 3, 3.0)
      for backend in ("full", "changelog")),
    ("unc", "full", _TRACE_A, 24.0, 2, 3.0),
    ("unc", "full", _TRACE_B, 24.0, 3, 2.0),
    ("cic", "full", _TRACE_A, 24.0, 2, 3.0),
    ("cic", "full", _TRACE_B, 24.0, 3, 2.0),
]


@pytest.mark.parametrize(
    "protocol,backend,failures,duration,seed,interval", _GRID)
def test_no_multi_failure_run_restores_a_collected_key(
        reads, protocol, backend, failures, duration, seed, interval):
    job, _, expected, measured = run_with_failures(
        protocol, failures, duration=duration, seed=seed,
        state_backend=backend, checkpoint_interval=interval)
    assert measured == expected
    assert reads["missing"] == []
    assert job.coordinator.blobstore.bytes_deleted > 0


# --------------------------------------------------------------------- #
# Retention is flat
# --------------------------------------------------------------------- #

def resident_history(job: Job) -> int:
    """Dedup-history nodes reachable from a live head or a resident
    payload."""
    nodes: set[int] = set()
    heads = [instance.rid_head for instance in job.instances()]
    heads += [payload["processed_rids"]
              for entries in job.resident.values()
              for _, payload in entries if "processed_rids" in payload]
    for node in heads:
        while node is not None and id(node) not in nodes:
            nodes.add(id(node))
            node = node.parent
    return len(nodes)


def long_run(query: str, protocol: str, duration: float,
             ) -> tuple[Job, list[tuple[int, int]]]:
    """A failure-free run at p = 4, 0.6 x capacity, 5 s interval and 5 s
    warm-up; the resident blobs and history nodes after every
    collection."""
    spec = resolve_spec(query)
    rate = spec.capacity_per_worker * 4 * 0.6
    job = Job(spec.build_graph(4), protocol, 4,
              spec.make_job_inputs(rate, duration + 2.0, 4, 0.0, 7),
              RuntimeConfig(duration=duration, warmup=5.0,
                            checkpoint_interval=5.0, seed=7))
    after: list[tuple[int, int]] = []
    collect_below = job.collect_below

    def measured(line) -> None:
        collect_below(line)
        after.append((len(job.coordinator.blobstore), resident_history(job)))

    job.collect_below = measured
    job.run(rate=rate, query_name=query)
    return job, after


@pytest.mark.parametrize("query,protocol", [
    ("q3", "cic"), ("q3", "coor"), ("q12", "unc")])
def test_retention_is_flat(query, protocol):
    _, short = long_run(query, protocol, 30.0)
    job, long = long_run(query, protocol, 120.0)
    assert len(long) > 3 * len(short) > 0
    for measure in (0, 1):  # resident blobs, history nodes
        assert (max(after[measure] for after in long)
                == max(after[measure] for after in short))
    store = job.coordinator.blobstore
    assert store.bytes_written - store.bytes_deleted == store.total_bytes()


# --------------------------------------------------------------------- #
# Nothing at or below the floor is held after a floor raise
# --------------------------------------------------------------------- #

def _bottom(node: RidSnapshot) -> RidSnapshot:
    while node.parent is not None:
        node = node.parent
    return node


@settings(max_examples=24, deadline=None)
@given(protocol=st.sampled_from(["unc", "cic"]),
       backend=st.sampled_from(["full", "changelog"]),
       seed=st.integers(1, 8),
       interval=st.sampled_from([1.0, 2.0, 3.0]),
       kills=st.lists(st.tuples(st.floats(2.0, 14.0), st.integers(0, 2)),
                      max_size=3, unique_by=lambda kill: round(kill[0])))
def test_after_every_floor_raise_nothing_at_or_below_it_is_held(
        protocol, backend, seed, interval, kills):
    """Property: after every collection, on each instance whose floor
    checkpoint F is not the initial one, the live history (its nodes and
    the journal) and the live set hold no rid the instance had admitted
    when it took F, and the cut counts exactly those."""
    kills = sorted(kills)
    config = RuntimeConfig(
        checkpoint_interval=interval, duration=16.0, warmup=2.0, seed=seed,
        state_backend=backend, failure_scenario=trace_spec(kills))
    job = Job(build_count_graph(), protocol, 3,
              {"events": make_event_log(300.0, 12.0, 3, seed=seed)}, config)
    #: a cut node -> every rid its chain stood for when it was cut
    dropped: dict[RidSnapshot, set[int]] = {}
    #: blob key -> every rid its instance had admitted when it was taken
    admitted: dict[str, set[int]] = {}

    def whole(instance) -> set[int]:
        head = instance.rid_head
        return (head.materialize() | set(instance.rid_journal)
                | dropped.get(_bottom(head), set()))

    capture, collect_below, cut = (
        job.capture_checkpoint, job.collect_below, RidSnapshot.cut)

    def capturing(instance, kind, round_id):
        before = whole(instance)
        meta, payload = capture(instance, kind, round_id)
        admitted[meta.blob_key] = before
        return meta, payload

    def recording_cut(node):
        dropped[node] = node.materialize() | dropped.get(_bottom(node), set())
        cut(node)

    raises = 0

    def checked(line) -> None:
        nonlocal raises
        RidSnapshot.cut = recording_cut
        try:
            collect_below(line)
        finally:
            RidSnapshot.cut = cut
        for key, meta in line.items():
            if meta.kind == KIND_INITIAL:
                continue
            raises += 1
            instance = job.instance(key)
            below = admitted[meta.blob_key]
            node = instance.rid_head
            while node is not None:
                assert below.isdisjoint(node.added), key
                node = node.parent
            assert below.isdisjoint(instance.rid_journal), key
            if instance.rid_set is not None:
                assert below.isdisjoint(instance.rid_set), key
            assert instance.rid_head.forgotten() == len(below), key

    job.capture_checkpoint = capturing
    job.collect_below = checked
    job.run(rate=300.0, query_name="count", drain=True)
    assert raises > 0


def main(argv: list[str] | None = None) -> int:
    """The retention gate (see the module docstring)."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--max-resident-blobs", type=int, required=True)
    args = parser.parse_args(argv)
    job, after = long_run("q3", "cic", 120.0)
    resident = len(job.coordinator.blobstore)
    print(f"q3/cic 120 s: {resident} resident blobs at the end, at most "
          f"{max(blobs for blobs, _ in after)} after a collection, "
          f"{len(after)} collections")
    if resident > args.max_resident_blobs:
        print(f"FAILED: {resident} resident blobs exceed "
              f"{args.max_resident_blobs}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
