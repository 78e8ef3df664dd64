"""Unit tests for the Kafka-like log and the blob store."""

import itertools
import math
from operator import lt

import pytest
from hypothesis import given, strategies as st

from repro.dataflow.records import source_rid_column, source_rid_prefix
from repro.dataflow.runtime import source_rids
from repro.storage.blobstore import BlobStore
from repro.storage.kafka import LogRecord, Partition, PartitionedLog


# --------------------------------------------------------------------- #
# Partition
# --------------------------------------------------------------------- #

def test_append_assigns_sequential_offsets():
    p = Partition("t", 0)
    assert (p.append(1.0, "a", 10), p.append(2.0, "b", 10)) == (0, 1)
    assert [r.offset for r in p.records] == [0, 1]


def test_append_rejects_out_of_order_timestamps():
    p = Partition("t", 0)
    p.append(2.0, "a", 1)
    with pytest.raises(ValueError):
        p.append(1.0, "b", 1)


def test_append_allows_equal_timestamps():
    p = Partition("t", 0)
    p.append(1.0, "a", 1)
    p.append(1.0, "b", 1)
    assert len(p) == 2


def polled(p, offset, now, max_records):
    """The rows a source poll from ``offset`` at ``now`` reads: the
    records between the offset and ``poll_end``."""
    return p.records[offset:p.poll_end(offset, now, max_records)]


def test_poll_respects_availability():
    p = Partition("t", 0)
    p.append(1.0, "a", 1)
    p.append(5.0, "b", 1)
    assert [r.payload for r in polled(p, 0, now=2.0, max_records=10)] == ["a"]
    assert [r.payload for r in polled(p, 0, now=5.0, max_records=10)] == ["a", "b"]


def test_poll_respects_offset_and_limit():
    p = Partition("t", 0)
    for i in range(10):
        p.append(float(i), i, 1)
    got = polled(p, 3, now=100.0, max_records=4)
    assert [r.payload for r in got] == [3, 4, 5, 6]


def test_poll_past_end_returns_empty():
    p = Partition("t", 0)
    p.append(1.0, "a", 1)
    assert polled(p, 5, now=10.0, max_records=10) == []


def test_poll_is_replayable_same_records():
    """Rewinding to an old offset re-reads exactly the same records."""
    p = Partition("t", 0)
    for i in range(5):
        p.append(float(i), i, 1)
    first = polled(p, 1, now=10.0, max_records=10)
    second = polled(p, 1, now=10.0, max_records=10)
    assert first == second


def test_available_by():
    """A poll from offset 0 ends at the records available by ``now``."""
    p = Partition("t", 0)
    p.append(1.0, "a", 1)
    p.append(2.0, "b", 1)
    assert p.poll_end(0, 0.5, len(p)) == 0
    assert p.poll_end(0, 1.0, len(p)) == 1
    assert p.poll_end(0, 9.0, len(p)) == 2


def test_extend_bulk_append():
    p = Partition("t", 0)
    p.extend_columns([1.0, 2.0], ["a", "b"], [5, 5])
    assert len(p) == 2


def test_records_view_is_a_read_only_sequence():
    p = Partition("t", 0)
    p.extend_columns([1.0, 2.0, 3.0], ["a", "b", "c"], [5, 6, 7])
    view = p.records
    assert len(view) == 3
    assert view[1] == LogRecord(1, 2.0, "b", 6) == view[-2]
    assert view[1:] == [LogRecord(1, 2.0, "b", 6), LogRecord(2, 3.0, "c", 7)]
    assert [r.offset for r in view[::-1]] == [2, 1, 0]
    assert list(view) == view[:]
    with pytest.raises(IndexError):
        view[3]
    # rows are built per read: writing to one changes nothing in the log
    view[0].payload = "z"
    assert p.payloads == ["a", "b", "c"]
    with pytest.raises(TypeError):
        view[0] = LogRecord(0, 0.0, "z", 1)


# --------------------------------------------------------------------- #
# Columns vs. the row views (hypothesis)
# --------------------------------------------------------------------- #

_TIMES = st.lists(st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
                  max_size=40)


def _filled(times):
    p = Partition("t", 0)
    p.extend_columns(sorted(times), [f"p{i}" for i in range(len(times))],
                     [10 + i for i in range(len(times))])
    return p


@given(_TIMES, st.integers(min_value=0, max_value=45),
       st.floats(min_value=-1.0, max_value=60.0, allow_nan=False),
       st.integers(min_value=1, max_value=50))
def test_column_read_equals_the_row_views(times, offset, now, max_records):
    """What the engine slices is what ``records`` shows."""
    p = _filled(times)
    end = p.poll_end(offset, now, max_records)
    rows = p.records[offset:end]
    if end <= offset:
        assert rows == []
        return
    assert [r.offset for r in rows] == list(range(offset, end))
    assert [r.available_at for r in rows] == p.times[offset:end]
    assert [r.payload for r in rows] == p.payloads[offset:end]
    assert [r.size_bytes for r in rows] == p.sizes[offset:end]
    # the poll contract: bounded, nothing from the future, nothing skipped
    assert len(rows) <= max_records
    assert all(r.available_at <= now for r in rows)
    assert end == len(p) or len(rows) == max_records or p.times[end] > now


def _append_all(partition, rows):
    """Row-by-row reference: the error (or None) and how many rows landed."""
    for n, row in enumerate(rows):
        try:
            partition.append(*row)
        except ValueError as error:
            return str(error), n
    return None, len(rows)


@given(_TIMES, st.lists(st.one_of(st.floats(min_value=0.0, max_value=50.0),
                                   st.just(float("nan"))), max_size=12))
def test_extend_columns_accepts_and_rejects_what_appends_do(prior, times):
    """Same verdict and message as the equivalent appends, NaN included;
    a rejected bulk append leaves the partition exactly as it was."""
    rows = [(t, f"n{i}", i) for i, t in enumerate(times)]
    reference = _filled(prior)
    error, landed = _append_all(reference, rows)
    bulk = _filled(prior)
    before = (list(bulk.times), list(bulk.payloads), list(bulk.sizes))
    columns = [list(column) for column in zip(*rows)] or [[], [], []]
    if error is None:
        bulk.extend_columns(*columns)
        assert bulk.records[:] == reference.records[:]
    else:
        with pytest.raises(ValueError) as caught:
            bulk.extend_columns(*columns)
        assert str(caught.value) == error
        assert (bulk.times, bulk.payloads, bulk.sizes) == before
        assert landed < len(rows)


def _pairwise_verdict(last, times):
    """The order check as one pass of ``<`` over neighbours: the message
    naming the first pair out of order, or None to accept."""
    joined = [*last, *times]
    out_of_order = list(map(lt, joined[1:], joined))
    if True in out_of_order:
        first = out_of_order.index(True)
        return f"out-of-order availability: {joined[first + 1]} < {joined[first]}"
    return None


_NAN = float("nan")
#: NaN (one object twice, and a second NaN object), both infinities, both
#: zeros and a few duplicated finite values
_EDGE_FLOATS = [_NAN, _NAN, float("nan"), math.inf, -math.inf, -0.0, 0.0,
                1.0, 1.0, 2.5, -3.0]


def _check_verdict(last, times):
    p = Partition("t", 0)
    for t in last:
        p.append(t, "prior", 1)
    before = list(p.times)
    expected = _pairwise_verdict(last, times)
    columns = (times, [f"n{i}" for i in range(len(times))], [1] * len(times))
    if expected is None:
        p.extend_columns(*columns)
        assert p.times == before + times
        assert all(a is b for a, b in zip(p.times, before + times))
    else:
        with pytest.raises(ValueError) as caught:
            p.extend_columns(*columns)
        assert str(caught.value) == expected
        assert p.times == before and len(p) == len(last)


@given(st.lists(st.sampled_from(_EDGE_FLOATS), max_size=1),
       st.lists(st.one_of(st.sampled_from(_EDGE_FLOATS),
                          st.floats(allow_nan=True)), max_size=30))
def test_extend_columns_verdict_is_the_pairwise_scan(last, times):
    """Accepts and rejects exactly the columns one ``<`` pass over
    neighbours accepts, NaN, infinities, signed zeros, duplicates and a
    repeated float object included, with the same message."""
    _check_verdict(last, times)


def test_extend_columns_verdict_on_every_short_edge_column():
    pool = [_NAN, float("nan"), math.inf, -math.inf, -0.0, 0.0, 1.0, 2.5]
    for n in range(1, 6):
        for column in itertools.product(pool, repeat=n):
            _check_verdict([column[0]], list(column[1:]))


@pytest.mark.parametrize("columns", [
    ([1.0, 2.0], ["a"], [1, 1]),
    ([1.0], ["a", "b"], [1]),
    ([1.0], ["a"], []),
])
def test_extend_columns_rejects_unequal_lengths(columns):
    p = Partition("t", 0)
    with pytest.raises(ValueError, match="unequal column lengths"):
        p.extend_columns(*columns)
    assert len(p) == 0


@given(st.lists(st.sampled_from(["append", "extend", "read"]), min_size=1,
                max_size=12))
def test_rid_column_never_served_short(steps):
    """Any write after the rid column was derived drops it; the next read
    covers every offset again."""
    p = Partition("topic", 3)
    prefix = source_rid_prefix("topic", 3)
    for step in steps:
        t = float(len(p))
        if step == "append":
            p.append(t, "x", 1)
        elif step == "extend":
            p.extend_columns([t, t + 0.5], ["y", "z"], [1, 1])
        else:
            assert source_rids(p, prefix) == source_rid_column(prefix, len(p))
    assert source_rids(p, prefix) is source_rids(p, prefix)
    assert len(source_rids(p, prefix)) == len(p)


def test_rid_column_is_per_prefix():
    """A job naming the topic differently never reads another's column."""
    p = _filled([1.0, 2.0, 3.0])
    mine = source_rids(p, source_rid_prefix("t", 0))
    theirs = source_rids(p, source_rid_prefix("other", 0))
    assert theirs == source_rid_column(source_rid_prefix("other", 0), 3)
    assert mine != theirs


# --------------------------------------------------------------------- #
# PartitionedLog
# --------------------------------------------------------------------- #

@given(_TIMES, st.integers(min_value=1, max_value=7))
def test_round_robin_equals_appending_row_k_to_partition_k_mod_n(times, n):
    times = sorted(times)
    payloads = [f"p{i}" for i in range(len(times))]
    dealt = PartitionedLog.round_robin("t", n, times, payloads, 9)
    reference = PartitionedLog("t", n)
    for k, (t, payload) in enumerate(zip(times, payloads)):
        reference.partition(k % n).append(t, payload, 9)
    for a, b in zip(dealt.partitions, reference.partitions):
        assert a.records[:] == b.records[:]
        assert (a.topic, a.index) == (b.topic, b.index)


def test_partitioned_log_structure():
    log = PartitionedLog("topic", 4)
    assert len(log.partitions) == 4
    assert log.partition(2).index == 2


def test_partitioned_log_rejects_zero_partitions():
    with pytest.raises(ValueError):
        PartitionedLog("t", 0)


def test_partitioned_log_totals():
    log = PartitionedLog("t", 2)
    log.partition(0).append(1.0, "a", 1)
    log.partition(1).append(1.0, "b", 1)
    log.partition(1).append(2.0, "c", 1)
    assert len(log) == 3
    assert sum(p.poll_end(0, 1.5, len(p)) for p in log.partitions) == 2


# --------------------------------------------------------------------- #
# BlobStore
# --------------------------------------------------------------------- #

def test_blobstore_put_get_roundtrip():
    store = BlobStore()
    store.put("k", {"x": 1}, 100)
    assert store.get("k") == {"x": 1}
    assert "k" in store


def test_blobstore_meta():
    store = BlobStore()
    meta = store.put("k", "v", 77)
    assert meta.size_bytes == 77


def test_blobstore_missing_key_raises():
    with pytest.raises(KeyError):
        BlobStore().get("missing")


def test_blobstore_overwrite_allowed():
    store = BlobStore()
    store.put("k", "v1", 10)
    assert store.put("k", "v2", 20).size_bytes == 20
    assert store.get("k") == "v2"
    assert store.total_bytes() == 20


def test_blobstore_byte_accounting():
    store = BlobStore()
    store.put("a", "x", 10)
    store.put("b", "y", 30)
    store.get("a")
    assert store.bytes_written == 40
    assert store.total_bytes() == 40


def test_blobstore_accounting_across_overwrite_and_get():
    """Every counter over a put/overwrite/get sequence."""
    store = BlobStore()
    store.put("a", "v1", 100)
    store.put("a", "v2", 60)   # overwrite: both writes billed
    store.put("b", "w", 40)
    store.get("a")                       # reads the overwritten size
    store.get("a")
    assert store.bytes_written == 200
    assert store.bytes_deleted == 100    # what the overwrite replaced
    assert store.total_bytes() == 100    # the live overwrite and b
    assert len(store) == 2


def test_blobstore_negative_size_rejected():
    with pytest.raises(ValueError):
        BlobStore().put("k", "v", -1)


def test_blobstore_delete_frees_the_blob_and_counts_its_bytes():
    store = BlobStore()
    store.put("a", "x", 10)
    store.put("b", "y", 30)
    store.delete("a")
    assert "a" not in store and "b" in store and len(store) == 1
    assert store.bytes_deleted == 10 and store.total_bytes() == 30
    with pytest.raises(KeyError):
        store.get("a")
    with pytest.raises(KeyError):
        store.delete("a")
    assert store.bytes_deleted == 10


@given(st.lists(st.tuples(st.sampled_from(["put", "delete"]),
                          st.integers(0, 3), st.integers(0, 100)),
                max_size=30))
def test_blobstore_accepted_minus_deleted_is_resident(ops):
    """Property: over any sequence of puts, overwrites and deletes, what
    the store accepted minus what it deleted (an overwrite deletes what
    it replaces) is what it holds."""
    store = BlobStore()
    model: dict[str, int] = {}
    accepted = 0
    for op, index, size in ops:
        key = f"k{index}"
        if op == "put":
            store.put(key, size, size)
            model[key] = size
            accepted += size
        elif key in model:
            store.delete(key)
            del model[key]
        else:
            with pytest.raises(KeyError):
                store.delete(key)
        assert store.bytes_written == accepted
        assert (store.bytes_written - store.bytes_deleted
                == store.total_bytes() == sum(model.values()))
        assert len(store) == len(model)
        assert all(key in store for key in model)


# --------------------------------------------------------------------- #
# Delta chains (changelog state backend, DESIGN.md §10)
# --------------------------------------------------------------------- #

def test_chain_keys_walks_base_links_base_first():
    store = BlobStore()
    base = store.put("base", {"full": True}, 100)
    store.put("d1", {"delta": 1}, 10, base_key="base")
    d2 = store.put("d2", {"delta": 2}, 10, base_key="d1")
    assert store.chain_keys("d2") == ["base", "d1", "d2"]
    assert store.chain_keys("base") == ["base"]
    assert d2.base_key == "d1"
    assert base.base_key is None


def test_chain_size_is_what_a_restore_fetches():
    """Blobs and billed bytes of the whole chain; an overwrite bills the
    chain its new size."""
    store = BlobStore()
    store.put("base", {}, 100)
    store.put("d1", {}, 10, base_key="base")
    store.put("d2", {}, 12, base_key="d1")
    assert store.chain_size("base") == (1, 100)
    assert store.chain_size("d2") == (3, 122)
    store.put("d1", {}, 40, base_key="base")
    assert store.chain_size("d2") == (3, 152)


def test_delta_put_requires_existing_base():
    store = BlobStore()
    with pytest.raises(KeyError):
        store.put("d1", {}, 10, base_key="missing")
