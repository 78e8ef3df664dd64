"""Unit and property tests for lineage ids (rid) determinism."""

from hypothesis import given, strategies as st

from repro.dataflow.records import (
    StreamRecord,
    derived_rid,
    joined_rid,
    mix_rid,
    source_rid_column,
    source_rid_prefix,
)


def source_rid(topic: str, partition: int, offset: int) -> int:
    """The id a source poll gives the record at ``offset`` of a
    partition: the entry of the partition's rid column."""
    return source_rid_column(source_rid_prefix(topic, partition),
                             offset + 1)[offset]


def test_source_rid_deterministic():
    assert source_rid("t", 0, 5) == source_rid("t", 0, 5)


def test_source_rid_distinguishes_inputs():
    base = source_rid("t", 0, 5)
    assert source_rid("t", 0, 6) != base
    assert source_rid("t", 1, 5) != base
    assert source_rid("u", 0, 5) != base


def test_derived_rid_depends_on_parent_and_op():
    parent = source_rid("t", 0, 0)
    a = derived_rid("map", parent)
    assert a == derived_rid("map", parent)
    assert a != derived_rid("filter", parent)
    assert a != derived_rid("map", parent, emission_index=1)


def test_joined_rid_is_order_invariant():
    """A join pair must get the same rid regardless of arrival order."""
    left = source_rid("persons", 0, 1)
    right = source_rid("auctions", 1, 2)
    assert joined_rid("join", left, right) == joined_rid("join", right, left)


def test_joined_rid_distinguishes_pairs():
    a, b, c = (source_rid("t", 0, i) for i in range(3))
    assert joined_rid("j", a, b) != joined_rid("j", a, c)


def test_derive_preserves_source_ts():
    rec = StreamRecord(rid=1, payload="x", source_ts=3.5, size_bytes=10)
    child = rec.derive("op", "y", 20)
    assert child.source_ts == 3.5
    assert child.size_bytes == 20
    assert child.rid == derived_rid("op", 1)


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=6))
def test_mix_rid_fits_64_bits(parts):
    assert 0 <= mix_rid(*parts) < 2**64


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_mix_rid_order_sensitive_but_deterministic(a, b):
    assert mix_rid(a, b) == mix_rid(a, b)


@given(
    st.integers(min_value=0, max_value=2**63),
    st.integers(min_value=0, max_value=2**63),
)
def test_joined_rid_symmetry_property(left, right):
    assert joined_rid("op", left, right) == joined_rid("op", right, left)


@given(st.text(max_size=10), st.integers(0, 100), st.integers(0, 10_000))
def test_source_rid_stable_across_calls(topic, partition, offset):
    assert source_rid(topic, partition, offset) == source_rid(topic, partition, offset)
