"""Full-run determinism and checkpoint-count sanity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.storage.kafka import Partition

from tests.conftest import run_count_job


@pytest.mark.parametrize("protocol", ["none", "coor", "coor-unaligned", "unc", "cic"])
def test_full_run_determinism(protocol):
    """Identical seeds must give bit-identical metrics (the simulator's
    deterministic tie-breaking is what the recovery tests rely on)."""
    _, a = run_count_job(protocol, failure_at=6.0, duration=14.0)
    _, b = run_count_job(protocol, failure_at=6.0, duration=14.0)
    assert a.metrics.sink_counts == b.metrics.sink_counts
    assert a.metrics.data_bytes == b.metrics.data_bytes
    assert a.metrics.protocol_bytes == b.metrics.protocol_bytes
    assert a.metrics.latencies == b.metrics.latencies
    assert len(a.metrics.checkpoints) == len(b.metrics.checkpoints)
    assert a.restart_time() == b.restart_time()


def test_different_seed_changes_run():
    # record sizes are constant, so byte counters match; the keyed routing
    # (and hence the latency profile) must differ
    _, a = run_count_job("unc", failure_at=None, seed=3)
    _, b = run_count_job("unc", failure_at=None, seed=4)
    assert a.metrics.latencies != b.metrics.latencies


def test_checkpoint_counts_track_interval():
    """Roughly duration/interval checkpoints per instance (UNC timers)."""
    _, result = run_count_job("unc", failure_at=None, duration=18.0,
                              checkpoint_interval=3.0)
    per_instance: dict = {}
    for e in result.metrics.checkpoints:
        if e.kind == "local":
            per_instance[e.instance] = per_instance.get(e.instance, 0) + 1
    # warmup 2 + 18 s at one per 3 s with phase in [1.5, 2.6] -> 6-7 each
    assert per_instance
    assert all(5 <= n <= 8 for n in per_instance.values()), per_instance


def test_coor_rounds_track_interval():
    job, result = run_count_job("coor", failure_at=None, duration=18.0,
                                checkpoint_interval=3.0)
    rounds = [e for e in result.metrics.checkpoints if e.kind == "round"]
    assert 5 <= len(rounds) <= 7


def test_unc_takes_more_checkpoints_than_coor_counts():
    """Table III's pattern: the uncoordinated family records at least as
    many durable checkpoints as COOR's completed rounds."""
    _, coor = run_count_job("coor", failure_at=6.0, duration=18.0)
    _, unc = run_count_job("unc", failure_at=6.0, duration=18.0)
    assert unc.total_checkpoints() >= coor.total_checkpoints() * 0.9


# --------------------------------------------------------------------- #
# Kafka polling properties
# --------------------------------------------------------------------- #

@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
             min_size=1, max_size=50),
    st.integers(min_value=1, max_value=10),
)
def test_chunked_polls_cover_partition_exactly_once(times, chunk):
    partition = Partition("t", 0)
    for i, t in enumerate(sorted(times)):
        partition.append(t, i, 1)
    offset = 0
    seen = []
    while True:
        end = partition.poll_end(offset, now=1e9, max_records=chunk)
        if end <= offset:
            break
        seen.extend(partition.payloads[offset:end])
        offset = end
    assert seen == list(range(len(times)))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
             min_size=1, max_size=30),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)
def test_poll_never_returns_future_records(times, now):
    partition = Partition("t", 0)
    for i, t in enumerate(sorted(times)):
        partition.append(t, i, 1)
    end = partition.poll_end(0, now=now, max_records=1000)
    assert all(t <= now for t in partition.times[:end])
    assert end == partition.poll_end(0, now, len(partition))
