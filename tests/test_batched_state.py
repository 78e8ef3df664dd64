"""Batched keyed-state kernels (DESIGN.md section 16).

Two acceptance properties ride on this file:

* **kernel equivalence** — every batch kernel on the state layer
  (``put_many``/``delete_many``/``append_many``) must be
  indistinguishable from the equivalent sequence of scalar calls under
  random interleavings with ``mark_clean``: identical data and insertion
  order, byte accounting, dirty/deleted tracking, ``snapshot_delta``
  payloads (which must also round-trip through ``apply_delta``) and
  ``delta_bytes`` — armed or unarmed, i.e. under both the full-snapshot
  and changelog backends' views of the state;
* **split invariance** — every library operator's ``process_batch``, and
  the cyclic reachability query's join and projection, must produce the
  same outputs, state, delta and timers whether a batch arrives whole or
  cut into pieces (down to singletons), so a grouped kernel can never
  diverge from the record-at-a-time fold it replaces.
"""

from __future__ import annotations

import inspect
import pickle

import pytest
from hypothesis import given, strategies as st

import repro.dataflow.operators as operators
from repro.dataflow.batch import RecordBatch
from repro.dataflow.operators import (
    FilterOperator,
    IncrementalJoinOperator,
    MapOperator,
    MaxPerKeyOperator,
    Operator,
    OperatorContext,
    SinkOperator,
    SlidingWindowCountOperator,
    SourceOperator,
    WindowedCountOperator,
    WindowedJoinOperator,
)
from repro.dataflow.state import KeyedListState, KeyedMapState
from repro.workloads.cyclic.generator import LinkEvent, SourceEvent
from repro.workloads.cyclic.reachability import (
    JoinPair,
    ReachFact,
    build_reachability,
)


# --------------------------------------------------------------------- #
# Batch kernels == scalar call sequences (hypothesis)
# --------------------------------------------------------------------- #

_KEYS = st.integers(min_value=0, max_value=7)
_SIZES = st.integers(min_value=0, max_value=64)
_VALUES = st.integers(min_value=-100, max_value=100)

_MAP_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"),
                  st.lists(st.tuples(_KEYS, _VALUES, _SIZES), max_size=8)),
        st.tuples(st.just("delete"), st.lists(_KEYS, max_size=8)),
        st.tuples(st.just("clean"), st.none()),
    ),
    max_size=12,
)


def _apply_map_ops(ops, batched: KeyedMapState, scalar: KeyedMapState):
    """Drive ``batched`` through the kernels, ``scalar`` through loops."""
    for tag, arg in ops:
        if tag == "put":
            batched.put_many(arg)
            for key, value, size in arg:
                scalar.put(key, value, size)
        elif tag == "delete":
            batched.delete_many(arg)
            for key in arg:
                scalar.delete_many([key])
        else:
            batched.mark_clean()
            scalar.mark_clean()
        yield


@given(_MAP_OPS)
def test_keyed_map_batch_kernels_equal_scalar_sequence(ops):
    """put_many/delete_many leave the map in the exact state the scalar
    loop would — data, insertion order, sizes, totals, tracking sets,
    delta payloads and delta byte accounting, at every step."""
    batched, scalar = KeyedMapState(), KeyedMapState()
    for _ in _apply_map_ops(ops, batched, scalar):
        assert batched._data == scalar._data
        assert list(batched._data) == list(scalar._data)
        assert batched._sizes == scalar._sizes
        assert batched.size_bytes == scalar.size_bytes
        assert batched._dirty == scalar._dirty
        assert batched._deleted == scalar._deleted
        assert batched.snapshot_delta() == scalar.snapshot_delta()
        assert batched.delta_bytes() == scalar.delta_bytes()


@given(_MAP_OPS)
def test_keyed_map_delta_round_trips_onto_clean_copy(ops):
    """The delta a batched history produces replays onto the last clean
    snapshot and lands exactly on the live state — the changelog
    backend's chain property."""
    state, scalar = KeyedMapState(), KeyedMapState()
    base = KeyedMapState()
    for _ in _apply_map_ops(ops, state, scalar):
        if state._tracked and not state._dirty and not state._deleted \
                and not state._all_dirty:
            base.restore(state.snapshot())
    delta = state.snapshot_delta()
    if delta is not None:
        base.apply_delta(delta)
        assert base.snapshot() == state.snapshot()


_LIST_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("append"),
                  st.lists(st.tuples(_KEYS, _VALUES,
                                     st.one_of(st.none(), _SIZES)),
                           max_size=8)),
        st.tuples(st.just("delete"), st.lists(_KEYS, max_size=4)),
        st.tuples(st.just("clean"), st.none()),
    ),
    max_size=12,
)


@given(_LIST_OPS)
def test_keyed_list_append_many_equals_scalar_sequence(ops):
    """append_many is indistinguishable from scalar appends: same lists,
    totals, per-key byte accounting (including the first-post-arm backlog
    estimate) and tracking sets, and the deltas agree and round-trip."""
    batched, scalar = KeyedListState(), KeyedListState()
    base = KeyedListState()
    for tag, arg in ops:
        if tag == "append":
            batched.append_many(arg)
            for key, value, size in arg:
                scalar.append(key, value, size)
        elif tag == "delete":
            for key in arg:
                batched.delete(key)
                scalar.delete(key)
        else:
            batched.mark_clean()
            scalar.mark_clean()
            base.restore(batched.snapshot())
        assert batched._data == scalar._data
        assert list(batched._data) == list(scalar._data)
        assert batched.size_bytes == scalar.size_bytes
        assert batched._dirty == scalar._dirty
        assert batched._deleted == scalar._deleted
        assert batched._key_bytes == scalar._key_bytes
        assert batched.snapshot_delta() == scalar.snapshot_delta()
        assert batched.delta_bytes() == scalar.delta_bytes()
    delta = batched.snapshot_delta()
    if batched._tracked and not batched._all_dirty and delta is not None:
        base.apply_delta(delta)
        assert base.snapshot() == batched.snapshot()


def test_empty_batch_kernels_are_no_ops():
    state = KeyedMapState()
    state.mark_clean()
    state.put_many([])
    state.delete_many([])
    assert state.snapshot_delta() is None
    lists = KeyedListState()
    lists.mark_clean()
    lists.append_many([])
    assert lists.snapshot_delta() is None


# --------------------------------------------------------------------- #
# process_batch is split-invariant (hypothesis)
# --------------------------------------------------------------------- #


class _FixedNowContext(OperatorContext):
    """Recording context with a pinned clock.

    Virtual time is constant inside one task, and a task is the only
    place a batch can be cut (router thresholds, marker-forced drains),
    so the pieces of one batch always observe the same ``now()``.
    """

    op_name = "op"

    def __init__(self) -> None:
        self.timers: list[tuple[float, object]] = []
        self.sunk: list[float] = []

    def now(self) -> float:
        return 23.7

    def register_timer(self, at, tag) -> None:
        self.timers.append((at, tag))

    def record_outputs(self, source_ts) -> None:
        self.sunk.extend(source_ts)


def _key(p):
    return p["k"]


def _value(p):
    return p["v"]


def _bump(p):
    return {"k": p["k"], "v": p["v"] + 1}


def _keep(p):
    return p["v"] % 3 != 0


def _sized(p):
    return 8 + p["v"] % 5


def _pair(left, right):
    return (left["v"], right["v"])


#: name -> (factory, input ports); one entry per library operator
_LIBRARY_OPERATORS = {
    "source": (SourceOperator, ("in",)),
    "map": (lambda: MapOperator(_bump, out_size=_sized), ("in",)),
    "filter": (lambda: FilterOperator(_keep), ("in",)),
    "incremental_join": (lambda: IncrementalJoinOperator(_key, _key, _pair),
                         ("left", "right")),
    "windowed_join": (lambda: WindowedJoinOperator(_key, _key, _pair,
                                                   window=10.0),
                      ("left", "right")),
    "windowed_count": (lambda: WindowedCountOperator(_key, window=10.0),
                       ("in",)),
    "sliding_count": (lambda: SlidingWindowCountOperator(
        _key, window_range=10.0, slide=2.0), ("in",)),
    "max_per_key": (lambda: MaxPerKeyOperator(_key, _value,
                                              lambda p: p["v"] % 3), ("in",)),
    "sink": (SinkOperator, ("in",)),
}

_PAYLOADS = st.fixed_dictionaries({"k": st.integers(0, 3),
                                   "v": st.integers(-20, 20)})
_ROWS = st.tuples(_PAYLOADS, st.integers(0, 64))  # (payload, size_bytes)


def _batch(rows, first_rid: int) -> RecordBatch:
    return RecordBatch(
        rids=[first_rid + i for i in range(len(rows))],
        payloads=[payload for payload, _ in rows],
        source_ts=[0.25 * i for i in range(len(rows))],
        sizes=[size for _, size in rows],
    )


def _feed(factory, seeds, pieces, port, armed):
    """Open a fresh operator, pre-populate it with the ``(batch, port)``
    seeds, feed ``pieces`` in order; returns everything a batch boundary
    could possibly have changed."""
    op = factory()
    ctx = _FixedNowContext()
    op.open(ctx)
    for seed, side in seeds:
        if len(seed):
            op.process_batch(seed, side)
    if armed:
        op.states.mark_clean()
    out = RecordBatch([], [], [], [])
    for piece in pieces:
        produced = op.process_batch(piece, port)
        if produced is not None:
            out.extend(produced)
    return ((out.rids, out.payloads, out.source_ts, out.sizes),
            pickle.dumps(op.states.snapshot()),
            op.states.snapshot_delta(), ctx.timers, ctx.sunk)


def _cut(batch: RecordBatch, cuts) -> list[RecordBatch]:
    bounds = [0, *sorted(c for c in cuts if c < len(batch)), len(batch)]
    return [batch.select(list(range(lo, hi)))
            for lo, hi in zip(bounds, bounds[1:])]


def test_split_invariance_table_covers_every_library_operator():
    kernels = {
        cls for _, cls in inspect.getmembers(operators, inspect.isclass)
        if issubclass(cls, Operator) and cls is not Operator
        and "process_batch" in vars(cls)
    }
    covered = {type(factory()) for factory, _ in _LIBRARY_OPERATORS.values()}
    assert covered == kernels and len(kernels) == 9


@pytest.mark.parametrize("name", sorted(_LIBRARY_OPERATORS))
@given(prefix=st.lists(_ROWS, max_size=6),
       rows=st.lists(_ROWS, min_size=1, max_size=12),
       cuts=st.sets(st.integers(1, 11)),
       right_port=st.booleans(), armed=st.booleans())
def test_process_batch_is_split_invariant(name, prefix, rows, cuts,
                                          right_port, armed):
    """A batch fed whole, cut at random points, or one record at a time
    yields the same four output columns, state snapshot bytes,
    ``snapshot_delta`` and registered timers — on either port of the
    joins, from empty and from pre-populated state, tracking armed or
    not.  This is "grouped kernel == sequential fold" without a second
    implementation to compare against."""
    factory, ports = _LIBRARY_OPERATORS[name]
    port = ports[-1] if right_port else ports[0]
    seeds = [(_batch(prefix, first_rid=1), side) for side in ports]
    _assert_split_invariant(factory, seeds, _batch(rows, first_rid=1000),
                            cuts, port, armed)


def _assert_split_invariant(factory, seeds, batch, cuts, port, armed):
    """Fed whole, cut at ``cuts`` and one row at a time, ``batch`` leaves
    the same outputs, state, delta, timers and sink timestamps."""
    whole = _feed(factory, seeds, [batch], port, armed)
    assert _feed(factory, seeds, _cut(batch, cuts), port, armed) == whole
    assert _feed(factory, seeds, _cut(batch, range(1, len(batch))),
                 port, armed) == whole


# --------------------------------------------------------------------- #
# The cyclic reachability query's kernels are split-invariant too
# --------------------------------------------------------------------- #

_NODES = st.integers(0, 3)
_FACTS = st.lists(_NODES, min_size=1, max_size=4).map(
    lambda path: ReachFact(path[0], path[-1], tuple(path)))
#: port -> (payload, size_bytes) rows of that port; four nodes make
#: matches, repeated adds and deletes of a stored link or origin common
_REACH_ROWS = {
    "link": st.tuples(st.builds(LinkEvent, _NODES, _NODES, st.booleans()),
                      _SIZES),
    "source": st.tuples(st.one_of(st.builds(SourceEvent, _NODES,
                                            st.booleans()), _FACTS),
                        _SIZES),
    "in": st.tuples(st.builds(JoinPair, _FACTS, _NODES, _NODES), _SIZES),
}
#: operator name in the graph -> its input ports
_REACH_OPERATORS = {"join_reach": ("link", "source"),
                    "project_extend": ("in",)}


@pytest.mark.parametrize("name, port", [
    (name, port) for name, ports in sorted(_REACH_OPERATORS.items())
    for port in ports])
@given(data=st.data(), cuts=st.sets(st.integers(1, 11)),
       armed=st.booleans())
def test_reachability_kernels_are_split_invariant(name, port, data, cuts,
                                                  armed):
    """The join of links and facts (on either port, over stored links,
    facts and origins that the batch may add to or delete) and the
    projection back into facts, as the reachability graph deploys them:
    a batch fed whole, cut at random points, or one row at a time yields
    the same output columns, state bytes and ``snapshot_delta``."""
    factory = build_reachability(1).operators[name].factory
    ports = _REACH_OPERATORS[name]
    seeds = [(_batch(data.draw(st.lists(_REACH_ROWS[side], max_size=6)),
                     first_rid=1 + 100 * i), side)
             for i, side in enumerate(ports)]
    rows = data.draw(st.lists(_REACH_ROWS[port], min_size=1, max_size=12))
    _assert_split_invariant(factory, seeds, _batch(rows, first_rid=1000),
                            cuts, port, armed)
