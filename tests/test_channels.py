"""Unit and property tests for routing, batching and messages."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import (
    DATA,
    Message,
    RouterBuffer,
    hash_key,
)
from repro.dataflow.graph import EdgeSpec, Partitioning
from repro.dataflow.keygroups import DEFAULT_MAX_KEY_GROUPS

from tests.conftest import batch_of


def rec(key: int, size: int = 10) -> tuple[int, int, float, int]:
    """The ``(rid, payload, source_ts, size_bytes)`` row of ``key``."""
    return (key, key, 0.0, size)


def batch(*keys: int) -> RecordBatch:
    return batch_of([rec(key) for key in keys])


def make_edge(partitioning, key_fn=None, edge_id=0):
    return EdgeSpec(edge_id, "a", "b", partitioning, key_fn, "in")


def routed_dsts(edge, src_index, parallelism, record,
                groups=DEFAULT_MAX_KEY_GROUPS):
    """The destinations one record lands on, routed alone through a
    router of ``edge``."""
    router = RouterBuffer([edge], src_index, parallelism, groups, 1000)
    router.route_batch(batch_of([record]))
    return [dst for _, dst, _, _ in router.take_all()]


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
    record = rec(key)
    dest = routed_dsts(edge, 0, parallelism, record)
    assert dest == routed_dsts(edge, 3, parallelism, record)  # source index irrelevant
    assert 0 <= dest[0] < parallelism


# --------------------------------------------------------------------- #
# Destinations per partitioning
# --------------------------------------------------------------------- #

def test_forward_routes_to_same_index():
    assert routed_dsts(make_edge(Partitioning.FORWARD), 2, 4, rec(99)) == [2]


def test_key_routing_follows_key_groups():
    """KEY routing is key -> crc32 group -> owning instance."""
    from repro.dataflow.keygroups import group_owner, group_range, key_group

    parallelism, groups = 10, 128
    edge = make_edge(Partitioning.KEY, key_fn=lambda p: p)
    for key in (0, 25, 30, 127, 128, 10**9):
        (dst,) = routed_dsts(edge, 0, parallelism, rec(key), groups)
        group = key_group(hash_key(key), groups)
        assert dst == group_owner(group, parallelism, groups)
        assert group in group_range(dst, parallelism, groups)


# --------------------------------------------------------------------- #
# RouterBuffer
# --------------------------------------------------------------------- #

def make_router(batch_max=3, partitioning=Partitioning.KEY):
    edge = make_edge(partitioning, key_fn=(lambda p: p) if partitioning is Partitioning.KEY else None)
    return RouterBuffer([edge], 0, 2, DEFAULT_MAX_KEY_GROUPS, batch_max), edge


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


def test_router_routes_to_all_outgoing_edges():
    """An operator's output stream feeds every outgoing edge."""
    edge0 = make_edge(Partitioning.FORWARD, edge_id=0)
    edge1 = make_edge(Partitioning.FORWARD, edge_id=1)
    router = RouterBuffer([edge0, edge1], 1, 2, DEFAULT_MAX_KEY_GROUPS, 1)
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
    assert out.rids == [2, 3, 4]


# --------------------------------------------------------------------- #
# The shared routing key -> destination table (DESIGN.md section 22)
# --------------------------------------------------------------------- #

#: every supported key type, the awkward members included
_ROUTING_KEYS = [
    0, 7, -1, -(2 ** 40), 2 ** 64, 2 ** 64 + 5, 10 ** 30,
    True, False,
    "", "bidder-17", "ключ",
    (), (1, "x"), ((1, 2), ("a", (3, False)), -9),
]


def _key_router(parallelism, groups=128, batch_max=1000):
    edge = make_edge(Partitioning.KEY, key_fn=lambda p: p)
    return RouterBuffer([edge], 0, parallelism, groups, batch_max)


def _routed(router, keys):
    """Route ``keys`` as one batch; the destination each landed on."""
    router.route_batch(RecordBatch(
        list(range(len(keys))), list(keys), [0.0] * len(keys),
        [8] * len(keys)))
    landed = {}
    for _, dst, records, _ in router.take_all():
        for rid in records.rids:
            landed[rid] = dst
    return [landed[i] for i in range(len(keys))]


def _expected(keys, parallelism, groups=128):
    """What the definition says (this module's ``hash_key`` is the real
    one, whatever a test patches into ``channels``)."""
    from repro.dataflow.keygroups import group_owner, key_group

    return [group_owner(key_group(hash_key(k), groups), parallelism, groups)
            for k in keys]


@pytest.mark.parametrize("parallelism, groups", [(4, 128), (6, 128), (3, 7)])
def test_every_key_type_routes_to_its_group_owner_cold_and_warm(parallelism,
                                                                groups):
    from repro.dataflow.channels import key_destinations

    expected = _expected(_ROUTING_KEYS, parallelism, groups)
    first = _key_router(parallelism, groups)
    entries = key_destinations(parallelism, groups).entries
    entries.clear()  # a pure memo: emptying it only makes the next pass cold
    assert _routed(first, _ROUTING_KEYS) == expected
    assert all(entries[key] == dst
               for key, dst in zip(_ROUTING_KEYS, expected))
    assert _routed(first, _ROUTING_KEYS) == expected  # warm
    # another router of the same shape reads what the first one derived
    assert _routed(_key_router(parallelism, groups), _ROUTING_KEYS) == expected


def test_routers_of_two_shapes_never_serve_each_others_destinations():
    """A rescale 4 -> 6 is a second table, not an invalidation."""
    from repro.dataflow.channels import key_destinations

    keys = list(range(200)) + ["a", "b", (1, 2)]
    four, six = _key_router(4), _key_router(6)
    for _ in range(2):  # cold, then warm, interleaved
        assert _routed(four, keys) == _expected(keys, 4)
        assert _routed(six, keys) == _expected(keys, 6)
    assert _expected(keys, 4) != _expected(keys, 6)
    assert key_destinations(4, 128) is key_destinations(4, 128)
    assert key_destinations(4, 128) is not key_destinations(6, 128)
    assert key_destinations(4, 128) is not key_destinations(4, 64)


def test_destination_table_never_exceeds_its_bound(monkeypatch):
    from repro.dataflow.channels import KeyDestinations, key_destinations

    monkeypatch.setattr(KeyDestinations, "MAX_ENTRIES", 8)
    parallelism, groups = 5, 11  # a shape no other test routes at
    router = _key_router(parallelism, groups)
    table = key_destinations(parallelism, groups)
    keys = list(range(1000, 1100))
    for key in keys:
        assert _routed(router, [key]) == _expected([key], parallelism, groups)
        assert len(table.entries) <= 8
    # emptied on the way, and right all the same
    assert _routed(router, keys) == _expected(keys, parallelism, groups)
    assert len(table.entries) <= 8


@pytest.mark.parametrize("key", [3.14, None, frozenset({1}), b"raw", [1]])
def test_unsupported_key_type_raises_on_every_occurrence(key):
    """Never memoised: the third occurrence fails like the first."""
    from repro.dataflow.channels import key_destinations

    router = _key_router(4)
    for _ in range(3):
        with pytest.raises(TypeError):
            router.route_batch(RecordBatch([1], [key], [0.0], [8]))
    try:
        assert key not in key_destinations(4, 128).entries
    except TypeError:
        pass  # unhashable: it cannot be in any dict


# --------------------------------------------------------------------- #
# Message
# --------------------------------------------------------------------- #

# --------------------------------------------------------------------- #
# route_batch is independent of how the producer's output was batched
# --------------------------------------------------------------------- #

_SPLIT_PARALLELISM = 4


def _three_edge_router(batch_max, blocked):
    """KEY + FORWARD + a second KEY edge on another key, some (edge, dst)
    pairs parked."""
    edges = [make_edge(Partitioning.KEY, key_fn=lambda p: p, edge_id=0),
             make_edge(Partitioning.FORWARD, edge_id=1),
             make_edge(Partitioning.KEY, key_fn=lambda p: (p, "b"),
                       edge_id=2)]
    router = RouterBuffer(edges, 1, _SPLIT_PARALLELISM, DEFAULT_MAX_KEY_GROUPS,
                          batch_max)
    for edge_id, dst in blocked:
        router.block(edge_id, dst)
    return router


def _router_state(router):
    """``(bytes, records)`` staged per ``(edge, dst)`` pair, and counters.

    The contents and the destination creation order are what the drains
    hand out (:func:`_drained`)."""
    staged = {(edge_id, dst): router.staged_for(edge_id, dst)
              for edge_id in range(3) for dst in range(_SPLIT_PARALLELISM)}
    return (staged, router._n_ready, router.staged_records,
            frozenset(router._blocked))


def _drained(ready):
    drained = [(edge_id, dst, records.rids, records.payloads,
                records.source_ts, records.sizes, nbytes)
               for edge_id, dst, records, nbytes in ready]
    assert all(nbytes == sum(sizes) for *_, sizes, nbytes in drained)
    return drained


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 30)),
                  min_size=1, max_size=40),
    cuts=st.sets(st.integers(1, 39), max_size=6),
    batch_max=st.integers(1, 9),
    blocked=st.sets(st.tuples(st.integers(0, 2),
                              st.integers(0, _SPLIT_PARALLELISM - 1)),
                    max_size=4),
)
def test_route_batch_is_split_invariant(rows, cuts, batch_max, blocked):
    """Property: a batch routed whole, cut at arbitrary points, or record
    by record leaves identical buffers (contents and destination creation
    order), ``_n_ready`` and ``staged_records`` — with
    parked ``(edge, dst)`` keys and zero-size records in play — and the
    same ``take_ready`` messages, then the same ``take_all`` messages, so
    sequence numbers and checkpoint cursors do not depend on how a
    producer's output happened to be batched."""
    records = [(1000 + i, key, i * 0.5, size)
               for i, (key, size) in enumerate(rows)]
    bounds = [0, *sorted(c for c in cuts if c < len(records)), len(records)]
    splits = {
        "whole": [records],
        "cut": [records[a:b] for a, b in zip(bounds, bounds[1:])],
        "singletons": [[record] for record in records],
    }
    states, drains = {}, {}
    for name, pieces in splits.items():
        router = _three_edge_router(batch_max, sorted(blocked))
        for piece in pieces:
            router.route_batch(batch_of(piece))
        states[name] = _router_state(router)
        ready = _drained(router.take_ready())
        after = _router_state(router)
        drains[name] = (ready, after, _drained(router.take_all()))
        assert _router_state(router)[1:3] == (0, 0)
    assert states["cut"] == states["whole"]
    assert states["singletons"] == states["whole"]
    assert drains["cut"] == drains["whole"]
    assert drains["singletons"] == drains["whole"]
    # the counters are the truth about the buffers, not just consistent
    staged, n_ready, staged_records, _ = states["whole"]
    assert staged_records == sum(n for _, n in staged.values()) == len(
        records) * 3
    assert n_ready == sum(1 for pair, (_, n) in staged.items()
                          if n >= batch_max and pair not in blocked)
    # and every record staged leaves by one drain or the other
    ready, _, rest = drains["whole"]
    assert sorted((edge_id, dst, len(rids), nbytes)
                  for edge_id, dst, rids, *_, nbytes in ready + rest) \
        == sorted((*pair, n, nbytes)
                  for pair, (nbytes, n) in staged.items() if n)


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
