"""Property-based tests of cross-cutting invariants (hypothesis)."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.base import CheckpointMeta, initial_checkpoint
from repro.core.checkpoint_graph import CheckpointGraph, maximal_consistent_line
from repro.core.recovery import ChannelLog, build_replay_sets
from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import DATA, Message, RouterBuffer, hash_key
from repro.dataflow.graph import EdgeSpec, Partitioning
from repro.dataflow.keygroups import DEFAULT_MAX_KEY_GROUPS
from repro.dataflow.records import StreamRecord
from repro.metrics.series import LatencySeries, percentile


# --------------------------------------------------------------------- #
# Partitioning
# --------------------------------------------------------------------- #

@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=50),
    st.integers(min_value=1, max_value=32),
)
def test_key_partitioning_is_total_and_stable(keys, parallelism):
    edge = EdgeSpec(0, "a", "b", Partitioning.KEY, lambda p: p, "in")

    def routed(src_index):
        """rid -> every destination it landed on, from one source index."""
        router = RouterBuffer([edge], src_index, parallelism,
                              DEFAULT_MAX_KEY_GROUPS, 10**9)
        router.route_batch(RecordBatch(list(range(len(keys))), list(keys),
                                       [0.0] * len(keys), [1] * len(keys)))
        landed: dict[int, list[int]] = {}
        for _, dst, records, _ in router.take_all():
            for rid in records.rids:
                landed.setdefault(rid, []).append(dst)
        return landed

    landed = routed(0)
    assert sorted(landed) == list(range(len(keys)))
    assert all(len(dests) == 1 and 0 <= dests[0] < parallelism
               for dests in landed.values())
    assert landed == routed(5)


@given(st.one_of(st.integers(), st.text(max_size=20),
                 st.tuples(st.integers(), st.text(max_size=5))))
def test_hash_key_deterministic_across_calls(key):
    assert hash_key(key) == hash_key(key)


# --------------------------------------------------------------------- #
# Replay-set windows
# --------------------------------------------------------------------- #

@given(
    st.integers(min_value=0, max_value=30),  # receiver cursor
    st.integers(min_value=0, max_value=30),  # sender cursor
    st.integers(min_value=0, max_value=40),  # messages in log
)
def test_replay_window_bounds(recv, sent, n_log):
    a, b = ("a", 0), ("b", 0)
    ch = (0, 0, 0)
    line = {
        a: CheckpointMeta(a, 1, "local", None, 0, 0, 0, "", {ch: sent}, {},
                          0),
        b: CheckpointMeta(b, 1, "local", None, 0, 0, 0, "", {}, {ch: recv},
                          0),
    }
    log = {ch: ChannelLog()}
    for s in range(1, n_log + 1):
        log[ch].append(Message(channel=ch, seq=s, kind=DATA,
                               records=RecordBatch([], [], [], []),
                               payload_bytes=0))
    replay = build_replay_sets(line, log, {ch: (a, b)})
    seqs = [m.seq for m in replay.get(ch, [])]
    assert seqs == [s for s in range(1, n_log + 1) if recv < s <= sent]


# --------------------------------------------------------------------- #
# Recovery-line lattice property
# --------------------------------------------------------------------- #

@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=50, deadline=None)
def test_recovery_line_idempotent(seed):
    """Running the fixpoint twice (or on its own output) changes nothing."""
    rng = random.Random(seed)
    instances = [("a", 0), ("b", 0), ("c", 0)]
    channels = [((0, 0, 0), instances[0], instances[1]),
                ((1, 0, 0), instances[1], instances[2]),
                ((2, 0, 0), instances[0], instances[2])]
    checkpoints = {}
    for inst in instances:
        metas = [initial_checkpoint(inst)]
        sent, recv = {}, {}
        for k in range(1, rng.randint(1, 4) + 1):
            for ch, s, r in channels:
                if s == inst:
                    sent[ch] = sent.get(ch, 0) + rng.randint(0, 4)
                if r == inst:
                    recv[ch] = recv.get(ch, 0) + rng.randint(0, 4)
            metas.append(CheckpointMeta(inst, k, "local", None, 0, 0, 0, "",
                                        dict(sent), dict(recv), 0))
        checkpoints[inst] = metas
    graph = CheckpointGraph(checkpoints=checkpoints, channels=channels)
    first = maximal_consistent_line(graph)
    # restrict the graph to the chosen line and re-run: nothing to prune
    restricted = CheckpointGraph(
        checkpoints={
            inst: [m for m in metas
                   if m.checkpoint_id <= first[inst].checkpoint_id]
            for inst, metas in checkpoints.items()
        },
        channels=channels,
    )
    second = maximal_consistent_line(restricted)
    assert {k: m.checkpoint_id for k, m in second.items()} == \
           {k: m.checkpoint_id for k, m in first.items()}


# --------------------------------------------------------------------- #
# Percentile / series properties
# --------------------------------------------------------------------- #

@given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=200))
def test_percentile_within_range_and_monotone(values):
    p50 = percentile(values, 50)
    p99 = percentile(values, 99)
    assert min(values) <= p50 <= max(values)
    assert p50 <= p99 <= max(values)


@given(st.dictionaries(st.integers(min_value=0, max_value=30),
                       st.lists(st.floats(min_value=0.001, max_value=10.0,
                                          allow_nan=False),
                                min_size=1, max_size=5),
                       max_size=20))
def test_latency_series_covers_requested_window(latencies):
    series = LatencySeries.from_latencies(latencies, start=0, end=31)
    assert series.seconds == list(range(31))
    assert len(series.p50) == 31
    for second, values in latencies.items():
        assert series.p50[second] > 0


# --------------------------------------------------------------------- #
# Dedup idempotence at the runtime level
# --------------------------------------------------------------------- #

@given(st.integers(min_value=0, max_value=2**31))
@settings(max_examples=10, deadline=None)
def test_dedup_processing_is_idempotent(seed):
    """Processing the same batch twice must apply effects once (UNC path).

    A batch is replayed to an instance only after a rollback, so the
    instance is restored (to where it stands) before the repeat.
    """
    from tests.conftest import batch_of, build_count_graph, make_event_log
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig

    log = make_event_log(100.0, 1.0, 1, seed=seed % 1000)
    job = Job(build_count_graph(), "unc", 1, {"events": log},
              RuntimeConfig(duration=2.0, warmup=0.5))
    instance = job.instance(("count", 0))
    records = batch_of(
        StreamRecord(rid=1000 + i, payload=r.payload, source_ts=0.0,
                     size_bytes=r.size_bytes)
        for i, r in enumerate(log.partition(0).records[:5])
    )
    job.process_records(instance, records, "in")
    total_after_first = sum(v for _, v in instance.operator.states["counts"].items())
    meta, snapshot = job.capture_checkpoint(instance, "local", None)
    instance.restore(meta, [snapshot])
    job.process_records(instance, records, "in")  # replayed duplicate batch
    total_after_second = sum(v for _, v in instance.operator.states["counts"].items())
    assert total_after_first == total_after_second == len(records)
    assert job.metrics.duplicates_skipped == len(records)
