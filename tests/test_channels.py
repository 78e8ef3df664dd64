"""Unit and property tests for routing, batching and messages."""

import pytest
from hypothesis import given, strategies as st

from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import (
    DATA,
    Message,
    Partitioner,
    RouterBuffer,
    hash_key,
)
from repro.dataflow.graph import EdgeSpec, Partitioning
from repro.dataflow.records import StreamRecord


def rec(key: int, size: int = 10) -> StreamRecord:
    return StreamRecord(rid=key, payload=key, source_ts=0.0, size_bytes=size)


def batch(*keys: int) -> RecordBatch:
    return RecordBatch.from_records([rec(key) for key in keys])


def make_edge(partitioning, key_fn=None, edge_id=0):
    return EdgeSpec(edge_id, "a", "b", partitioning, key_fn, "in")


# --------------------------------------------------------------------- #
# hash_key
# --------------------------------------------------------------------- #

def test_hash_key_int_is_identity():
    assert hash_key(7) == 7


def test_hash_key_bool_is_int():
    assert hash_key(True) == 1


def test_hash_key_string_stable():
    assert hash_key("abc") == hash_key("abc")


def test_hash_key_tuple_stable():
    assert hash_key((1, "x")) == hash_key((1, "x"))
    assert hash_key((1, "x")) != hash_key((2, "x"))


def test_hash_key_rejects_unhashable_types():
    with pytest.raises(TypeError):
        hash_key(3.14)


@given(st.integers(min_value=0), st.integers(min_value=1, max_value=64))
def test_int_keys_route_deterministically(key, parallelism):
    edge = make_edge(Partitioning.KEY, key_fn=lambda p: p)
    part = Partitioner(edge, parallelism)
    record = rec(key)
    dest = part.destinations(0, record)
    assert dest == part.destinations(3, record)  # source index irrelevant
    assert 0 <= dest[0] < parallelism


# --------------------------------------------------------------------- #
# Partitioner
# --------------------------------------------------------------------- #

def test_forward_routes_to_same_index():
    part = Partitioner(make_edge(Partitioning.FORWARD), 4)
    assert part.destinations(2, rec(99)) == [2]


def test_broadcast_routes_everywhere():
    part = Partitioner(make_edge(Partitioning.BROADCAST), 3)
    assert part.destinations(0, rec(1)) == [0, 1, 2]


def test_key_routing_follows_key_groups():
    """KEY routing is key -> crc32 group -> owning instance."""
    from repro.dataflow.keygroups import group_owner, group_range, key_group

    parallelism, groups = 10, 128
    part = Partitioner(make_edge(Partitioning.KEY, key_fn=lambda p: p),
                       parallelism, max_key_groups=groups)
    for key in (0, 25, 30, 127, 128, 10**9):
        (dst,) = part.destinations(0, rec(key))
        group = key_group(hash_key(key), groups)
        assert dst == group_owner(group, parallelism, groups)
        assert group in group_range(dst, parallelism, groups)


# --------------------------------------------------------------------- #
# RouterBuffer
# --------------------------------------------------------------------- #

def make_router(batch_max=3, partitioning=Partitioning.KEY):
    edge = make_edge(partitioning, key_fn=(lambda p: p) if partitioning is Partitioning.KEY else None)
    return RouterBuffer([edge], {0: Partitioner(edge, 2)}, src_index=0, batch_max=batch_max), edge


def test_router_batches_until_threshold():
    router, edge = make_router(batch_max=3)
    router.route_batch(batch(2, 3))  # both key groups owned by dst 0
    assert router.take_ready() == []
    router.route_batch(batch(4))
    ready = router.take_ready()
    assert len(ready) == 1
    edge_id, dst, records, nbytes = ready[0]
    assert (edge_id, dst, len(records), nbytes) == (0, 0, 3, 30)


def test_router_take_all_flushes_partial():
    # keys 2 and 0 fall in groups owned by different instances at p=2
    router, _ = make_router(batch_max=100)
    router.route_batch(batch(2, 0))
    drained = router.take_all()
    assert len(drained) == 2  # one buffer per destination
    assert router.staged_records == 0


def test_router_take_edge_only_flushes_that_edge():
    edge0 = make_edge(Partitioning.FORWARD, edge_id=0)
    edge1 = make_edge(Partitioning.FORWARD, edge_id=1)
    router = RouterBuffer(
        [edge0, edge1],
        {0: Partitioner(edge0, 2), 1: Partitioner(edge1, 2)},
        src_index=0, batch_max=100,
    )
    router.route_batch(batch(5))
    drained = router.take_edge(0)
    assert len(drained) == 1
    assert router.staged_records == 1  # edge1's copy remains


def test_router_routes_to_all_outgoing_edges():
    """An operator's output stream feeds every outgoing edge."""
    edge0 = make_edge(Partitioning.FORWARD, edge_id=0)
    edge1 = make_edge(Partitioning.FORWARD, edge_id=1)
    router = RouterBuffer(
        [edge0, edge1],
        {0: Partitioner(edge0, 2), 1: Partitioner(edge1, 2)},
        src_index=1, batch_max=1,
    )
    router.route_batch(batch(9))
    ready = router.take_ready()
    assert {(e, d) for e, d, _, _ in ready} == {(0, 1), (1, 1)}


def test_router_clear():
    router, _ = make_router()
    router.route_batch(batch(0))
    router.clear()
    assert router.staged_records == 0
    assert router.take_all() == []


def test_router_preserves_record_order_per_destination():
    router, _ = make_router(batch_max=100)
    router.route_batch(batch(2, 3, 4))  # all key groups owned by dst 0
    drained = router.take_all()
    (edge_id, dst, out, _), = [d for d in drained if d[1] == 0]
    assert [r.rid for r in out] == [2, 3, 4]


# --------------------------------------------------------------------- #
# Message
# --------------------------------------------------------------------- #

def test_message_totals():
    msg = Message(
        channel=(0, 0, 1), seq=1, kind=DATA,
        records=batch(1, 2), payload_bytes=20, protocol_bytes=5,
    )
    assert msg.total_bytes == 25
    assert msg.record_count == 2


def test_marker_message_has_no_records():
    msg = Message(channel=(0, 0, 1), seq=0, kind=1, records=None, payload_bytes=0)
    assert msg.record_count == 0
