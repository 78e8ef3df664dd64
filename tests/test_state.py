"""Unit tests for the state backends."""

import pytest

from repro.dataflow.state import (
    KeyedListState,
    KeyedMapState,
    StateRegistry,
    ValueState,
)


# --------------------------------------------------------------------- #
# ValueState
# --------------------------------------------------------------------- #

def test_value_state_roundtrip():
    s = ValueState(0, 8)
    s.set(42, 8)
    assert s.get() == 42
    assert s.size_bytes == 8


def test_value_state_snapshot_restore():
    s = ValueState("a", 1)
    snap = s.snapshot()
    s.set("b", 2)
    s.restore(snap)
    assert s.get() == "a"
    assert s.size_bytes == 1


# --------------------------------------------------------------------- #
# KeyedMapState
# --------------------------------------------------------------------- #

def test_map_put_get_delete():
    m = KeyedMapState()
    m.put("k", 1, 10)
    assert m.get("k") == 1
    assert len(m) == 1
    m.delete_many(["k"])
    assert m.get("k") is None
    assert len(m) == 0


def test_map_size_accounting_updates_on_overwrite():
    m = KeyedMapState()
    m.put("k", 1, 10)
    m.put("k", 2, 30)
    assert m.size_bytes == 30
    m.delete_many(["k"])
    assert m.size_bytes == 0


def test_map_delete_missing_is_noop():
    m = KeyedMapState()
    m.delete_many(["ghost"])
    assert m.size_bytes == 0


def test_map_snapshot_is_isolated():
    m = KeyedMapState()
    m.put("a", 1, 10)
    snap = m.snapshot()
    m.put("b", 2, 10)
    m.restore(snap)
    assert m.get("b") is None
    assert m.get("a") == 1
    assert m.size_bytes == 10


def test_map_restore_does_not_alias_snapshot():
    m = KeyedMapState()
    m.put("a", 1, 10)
    snap = m.snapshot()
    m.restore(snap)
    m.put("c", 3, 10)
    m2 = KeyedMapState()
    m2.restore(snap)
    assert m2.get("c") is None


def test_map_iteration():
    m = KeyedMapState()
    m.put("a", 1, 1)
    m.put("b", 2, 1)
    assert dict(m.items()) == {"a": 1, "b": 2}
    assert set(m.keys()) == {"a", "b"}


# --------------------------------------------------------------------- #
# KeyedListState
# --------------------------------------------------------------------- #

def test_list_append_and_get():
    s = KeyedListState(entry_bytes=10)
    s.append("k", 1)
    s.append("k", 2)
    assert s.get("k") == [1, 2]
    assert s.get("missing") == []
    assert s.size_bytes == 20


def test_list_explicit_entry_size():
    s = KeyedListState(entry_bytes=10)
    s.append("k", 1, size_bytes=100)
    assert s.size_bytes == 100


def test_list_delete_key():
    s = KeyedListState(entry_bytes=10)
    s.append("k", 1)
    s.append("k", 2)
    s.delete("k")
    assert s.get("k") == []
    assert s.size_bytes == 0


def test_list_remove_value_predicate():
    s = KeyedListState(entry_bytes=10)
    for v in [1, 2, 3, 4]:
        s.append("k", v)
    removed = s.remove_value("k", lambda v: v % 2 == 0)
    assert removed == 2
    assert s.get("k") == [1, 3]
    assert s.size_bytes == 20


def test_list_remove_value_empties_key():
    s = KeyedListState(entry_bytes=10)
    s.append("k", 1)
    s.remove_value("k", lambda v: True)
    assert "k" not in s.snapshot()[0]


def test_list_remove_value_missing_key():
    s = KeyedListState()
    assert s.remove_value("ghost", lambda v: True) == 0


def test_list_snapshot_copies_lists():
    s = KeyedListState(entry_bytes=10)
    s.append("k", 1)
    snap = s.snapshot()
    s.append("k", 2)  # append after snapshot must not leak into it
    s.restore(snap)
    assert s.get("k") == [1]
    assert s.size_bytes == 10


def test_list_restore_isolated_from_future_mutation():
    s = KeyedListState(entry_bytes=10)
    s.append("k", 1)
    snap = s.snapshot()
    s.restore(snap)
    s.append("k", 2)
    s2 = KeyedListState(entry_bytes=10)
    s2.restore(snap)
    assert s2.get("k") == [1]


# --------------------------------------------------------------------- #
# StateRegistry
# --------------------------------------------------------------------- #

def test_registry_roundtrip():
    reg = StateRegistry()
    m = reg.register("m", KeyedMapState())
    v = reg.register("v", ValueState(0, 8))
    m.put("a", 1, 10)
    v.set(5, 8)
    snap = reg.snapshot()
    m.put("b", 2, 10)
    v.set(9, 8)
    reg.restore(snap)
    assert reg["m"].get("a") == 1
    assert reg["m"].get("b") is None
    assert reg["v"].get() == 5


def test_registry_duplicate_name_rejected():
    reg = StateRegistry()
    reg.register("x", ValueState())
    with pytest.raises(ValueError):
        reg.register("x", ValueState())


def test_registry_total_size():
    reg = StateRegistry()
    m = reg.register("m", KeyedMapState())
    reg.register("v", ValueState(0, 8))
    m.put("a", 1, 100)
    assert reg.size_bytes == 108
