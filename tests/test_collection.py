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

The send log is held to the same: it keeps no ``Message`` and as many
containers after 120 s as after 30 s.  What it keeps per record is the
emitter's payload, so a windowed-count output it logs is a 64-byte
tuple, not a 184-byte dict.

Run as a module it is the retention gate of CI: the blobs resident, the
containers reachable from the send log, and the ``sys.getsizeof`` sum
of the payloads logged on the join -> sink channels at the end of a
120 s q3/cic run (p = 4, 0.6 x capacity, 5 s interval).  It also fails
unless the store is the one record of what is resident: every key
``Job.resident`` lists is stored, they number as many as the stored
blobs, and ``bytes_written - bytes_deleted == total_bytes()``::

    PYTHONPATH=src python -m tests.test_collection --max-resident-blobs 40 \\
        --max-log-containers 530 --max-log-payload-bytes BYTES
"""

from __future__ import annotations

import argparse
import gc
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.recovery import ChannelLog
from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import Message
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
from tests.test_emitter_pin import dense_graph
from tests.test_multiple_failures import run_with_failures


# --------------------------------------------------------------------- #
# No restore reads a collected key
# --------------------------------------------------------------------- #

def test_a_restore_of_a_collected_checkpoint_fails_loudly():
    job, _ = run_count_job("unc", failure_at=None, duration=12.0,
                           checkpoint_interval=1.0)
    store = job.coordinator.blobstore
    collected = [meta for meta in job.registry.with_initial(("count", 0))[1:]
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
        try:
            return chain_keys(store, key)
        except KeyError as gone:  # the first link of the chain that is gone
            seen["missing"].append(gone.args[0])
            raise

    monkeypatch.setattr(BlobStore, "get", spying_get)
    monkeypatch.setattr(BlobStore, "chain_keys", spying_chain_keys)
    return seen


@pytest.mark.parametrize("case", test_recovery_pin.CASES)
def test_no_recovery_pin_point_restores_a_collected_key(reads, case):
    job, _ = test_recovery_pin.run_case(case)
    assert reads["read"], "no blob was read"
    # the collector reads the line's blobs too: a recovery must have
    # restored a checkpoint for the reads to include a restore's
    assert any(kind != KIND_INITIAL for record in job.metrics.recoveries
               for _, _, kind in record.line[0]), \
        "no recovery restored a checkpoint"
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

#: the types :func:`log_containers` counts and walks into
LOG_CONTAINERS = (dict, list, tuple, Message, RecordBatch, ChannelLog)


def log_containers(send_log: dict) -> list:
    """The containers reachable from ``send_log``: itself, its logs and
    whatever of the types in :data:`LOG_CONTAINERS` they hold.  A record
    batch's four columns count but are not entered, and neither are the
    dict's keys, so record payloads and piggybacks are not counted."""
    seen = {id(send_log): send_log}
    stack: list = list(send_log.values())
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, RecordBatch):
            for column in (obj.rids, obj.payloads, obj.source_ts, obj.sizes):
                seen[id(column)] = column
        else:
            stack.extend(ref for ref in gc.get_referents(obj)
                         if isinstance(ref, LOG_CONTAINERS))
    return list(seen.values())


def logged_payloads(job: Job, src: str, dst: str) -> list:
    """The payloads the send log holds on the ``src -> dst`` channels."""
    edges = {edge.edge_id for edge in job.graph.edges
             if (edge.src, edge.dst) == (src, dst)}
    return [payload
            for channel, log in job.send_log.items() if channel[0] in edges
            for msg in log.window(channel, 0, log.next_seq)
            for payload in msg.records.payloads]


def resident_history(job: Job) -> int:
    """Dedup-history nodes reachable from a live head or a resident
    payload."""
    nodes: set[int] = set()
    heads = [instance.rid_head for instance in job.instances()]
    store = job.coordinator.blobstore
    heads += [store.get(key)["processed_rids"]
              for keys in job.resident.values() for key in keys]
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


def test_the_send_log_holds_no_message_and_does_not_grow():
    """The logs keep columns, not the messages sent, and as many
    containers at the end of a 120 s q3/cic run as at the end of a 30 s
    one (every message retained at either end is short, so each channel
    holds one record segment)."""
    counts = []
    for duration in (30.0, 120.0):
        job, _ = long_run("q3", "cic", duration)
        containers = log_containers(job.send_log)
        assert sum(map(len, job.send_log.values())) > 0
        assert not any(isinstance(obj, Message) for obj in containers)
        counts.append(len(containers))
    assert counts[0] == counts[1]


def test_a_logged_windowed_count_output_is_a_small_tuple():
    """What UNC logs per windowed-count output is the emitter's payload
    itself: a ``(key, window, count)`` tuple of at most 64 bytes (a
    three-key dict is 184)."""
    config = RuntimeConfig(checkpoint_interval=2.0, duration=6.0,
                           warmup=1.0, seed=3)
    log = make_event_log(600.0, 7.0, 2, seed=3)
    job = Job(dense_graph(), "unc", 2, {"events": log}, config)
    job.run(rate=600.0)
    counts = logged_payloads(job, "count", "sink")
    assert counts and max(map(sys.getsizeof, counts)) <= 64
    assert all(type(p) is tuple and len(p) == 3 for p in counts)


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


@pytest.mark.parametrize("query,protocol", [("q3", "unc"), ("q12", "cic")])
def test_a_restore_brings_back_no_rid_a_cut_dropped(query, protocol):
    """Right after a recovery, no instance's dedup set holds a rid that a
    floor-line cut had dropped from its history: no replay reaches below
    the floor, so those rids are never offered again (DESIGN.md section
    21).  Under the changelog backend the floor cut goes through deltas,
    and the line restores chains stacked on them: a restore installs the
    node the line checkpoint sealed, as the cut left it, not a set rebuilt
    from the segments the chain's deltas were taken with.

    A changelog run at p = 4, 0.5 x capacity and a 1 s interval with one
    kill 12 s into its 20 s.
    """
    spec = resolve_spec(query)
    rate = spec.capacity_per_worker * 4 * 0.5
    job = Job(spec.build_graph(4), protocol, 4,
              spec.make_job_inputs(rate, 24.0, 4, 0.0, 7),
              RuntimeConfig(duration=20.0, warmup=2.0, checkpoint_interval=1.0,
                            seed=7, failure_at=12.0,
                            state_backend="changelog"))
    #: sealed node -> the instance that sealed it, and whether in a delta
    sealed: dict[RidSnapshot, tuple[tuple[str, int], bool]] = {}
    #: instance -> every rid a cut dropped from its history
    dropped: dict[tuple[str, int], set[int]] = {}
    cut_deltas = 0
    capture, apply_recovery = (job.capture_checkpoint,
                               job.lifecycle.apply_recovery)
    cut = RidSnapshot.cut

    def capturing(instance, kind, round_id):
        meta, payload = capture(instance, kind, round_id)
        sealed[instance.rid_head] = (instance.key, meta.base_key is not None)
        return meta, payload

    def recording_cut(node):
        nonlocal cut_deltas
        key, delta = sealed[node]
        dropped.setdefault(key, set()).update(node.materialize())
        cut_deltas += delta
        cut(node)

    recoveries = 0

    def checked(plan) -> None:
        nonlocal recoveries
        apply_recovery(plan)
        recoveries += 1
        for instance in job.instances():
            assert instance.rid_set.isdisjoint(
                dropped.get(instance.key, ())), instance.key

    job.capture_checkpoint = capturing
    job.lifecycle.apply_recovery = checked
    RidSnapshot.cut = recording_cut
    try:
        job.run(rate=rate, query_name=query)
    finally:
        RidSnapshot.cut = cut
    assert recoveries == 1 and cut_deltas > 0


def main(argv: list[str] | None = None) -> int:
    """The retention gates (see the module docstring)."""
    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--max-resident-blobs", type=int, required=True)
    parser.add_argument("--max-log-containers", type=int, required=True)
    parser.add_argument("--max-log-payload-bytes", type=int, required=True)
    args = parser.parse_args(argv)
    job, after = long_run("q3", "cic", 120.0)
    store = job.coordinator.blobstore
    resident = len(store)
    listed = [key for keys in job.resident.values() for key in keys]
    containers = len(log_containers(job.send_log))
    joined = logged_payloads(job, "join_incremental", "sink")
    payload_bytes = sum(map(sys.getsizeof, joined))
    print(f"q3/cic 120 s: {resident} resident blobs at the end, at most "
          f"{max(blobs for blobs, _ in after)} after a collection, "
          f"{len(after)} collections; the send log holds "
          f"{sum(map(len, job.send_log.values()))} messages of "
          f"{len(job.send_log)} channels in {containers} containers; "
          f"{len(joined)} join outputs on join -> sink in "
          f"{payload_bytes} payload bytes")
    failed = False
    missing = [key for key in listed if key not in store]
    if missing:
        print(f"FAILED: {len(missing)} keys Job.resident lists are not "
              f"stored, first {missing[0]!r}")
        failed = True
    if len(listed) != resident:
        print(f"FAILED: Job.resident lists {len(listed)} keys for "
              f"{resident} stored blobs")
        failed = True
    if store.bytes_written - store.bytes_deleted != store.total_bytes():
        print(f"FAILED: {store.bytes_written} bytes written less "
              f"{store.bytes_deleted} deleted is not the "
              f"{store.total_bytes()} retained")
        failed = True
    if resident > args.max_resident_blobs:
        print(f"FAILED: {resident} resident blobs exceed "
              f"{args.max_resident_blobs}")
        failed = True
    if containers > args.max_log_containers:
        print(f"FAILED: {containers} send-log containers exceed "
              f"{args.max_log_containers}")
        failed = True
    if payload_bytes > args.max_log_payload_bytes:
        print(f"FAILED: {payload_bytes} logged join payload bytes exceed "
              f"{args.max_log_payload_bytes}")
        failed = True
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
