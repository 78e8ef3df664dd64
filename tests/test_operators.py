"""Unit tests for the operator library (processing logic in isolation)."""

from typing import Any

import pytest

from repro.dataflow.operators import (
    FilterOperator,
    IncrementalJoinOperator,
    MapOperator,
    OperatorContext,
    SinkOperator,
    SourceOperator,
    WindowedCountOperator,
    WindowedJoinOperator,
)
from repro.dataflow.records import StreamRecord

from tests.conftest import process_one


class StubContext(OperatorContext):
    """Controllable context for driving operators directly."""

    def __init__(self, op_name="op"):
        self.op_name = op_name
        self.index = 0
        self.parallelism = 1
        self.time = 0.0
        self.timers: list[tuple[float, Any]] = []
        self.outputs: list[float] = []

    def now(self) -> float:
        return self.time

    def register_timer(self, at: float, tag: Any) -> None:
        self.timers.append((at, tag))

    def record_outputs(self, source_ts: list[float]) -> None:
        self.outputs.extend(source_ts)


def rec(payload, rid=1, ts=0.0, size=10):
    return StreamRecord(rid=rid, payload=payload, source_ts=ts, size_bytes=size)


def opened(op, name="op"):
    ctx = StubContext(name)
    op.open(ctx)
    return op, ctx


# --------------------------------------------------------------------- #
# Simple operators
# --------------------------------------------------------------------- #

def test_source_passes_through():
    op, _ = opened(SourceOperator())
    r = rec("x")
    assert process_one(op, r, "in") == [r]


def test_map_transforms_payload():
    op, _ = opened(MapOperator(lambda x: x * 2, out_size=lambda p: 99))
    out = process_one(op, rec(21), "in")
    assert [o.payload for o in out] == [42]
    assert out[0].size_bytes == 99


def test_map_default_size_is_input_size():
    op, _ = opened(MapOperator(lambda x: x))
    out = process_one(op, rec("v", size=33), "in")
    assert out[0].size_bytes == 33


def test_filter_keeps_and_drops():
    op, _ = opened(FilterOperator(lambda x: x > 0))
    assert len(process_one(op, rec(5), "in")) == 1
    assert process_one(op, rec(-5), "in") == []


def test_sink_records_output():
    op, ctx = opened(SinkOperator())
    r = rec("done", ts=2.5)
    assert process_one(op, r, "in") == []
    assert ctx.outputs == [2.5]


def test_stateless_operators_have_zero_state():
    op, _ = opened(MapOperator(lambda x: x))
    assert op.state_bytes == 0


# --------------------------------------------------------------------- #
# Incremental join
# --------------------------------------------------------------------- #

def make_inc_join():
    return opened(IncrementalJoinOperator(
        left_key=lambda p: p["id"],
        right_key=lambda p: p["ref"],
        combine=lambda l, r: (l["id"], r["ref"]),
    ), name="join")


def test_inc_join_matches_across_sides():
    op, _ = make_inc_join()
    assert process_one(op, rec({"id": 1}, rid=10), "left") == []
    out = process_one(op, rec({"ref": 1}, rid=20), "right")
    assert [o.payload for o in out] == [(1, 1)]


def test_inc_join_emits_once_per_pair_regardless_of_order():
    op_lr, _ = make_inc_join()
    process_one(op_lr, rec({"id": 1}, rid=10), "left")
    out1 = process_one(op_lr, rec({"ref": 1}, rid=20), "right")

    op_rl, _ = make_inc_join()
    process_one(op_rl, rec({"ref": 1}, rid=20), "right")
    out2 = process_one(op_rl, rec({"id": 1}, rid=10), "left")

    assert out1[0].rid == out2[0].rid  # order-invariant lineage
    assert out1[0].payload == out2[0].payload


def test_inc_join_retains_state_forever():
    op, _ = make_inc_join()
    process_one(op, rec({"id": 1}, rid=1), "left")
    process_one(op, rec({"id": 1}, rid=2), "left")  # two lefts, same key
    out = process_one(op, rec({"ref": 1}, rid=3), "right")
    assert len(out) == 2
    assert op.state_bytes > 0


def test_inc_join_unknown_port_rejected():
    op, _ = make_inc_join()
    with pytest.raises(ValueError):
        process_one(op, rec({"id": 1}), "middle")


def test_inc_join_output_ts_is_match_time():
    """Latency is attributed to the match-triggering (later) record."""
    op, _ = make_inc_join()
    process_one(op, rec({"id": 1}, rid=1, ts=1.0), "left")
    out = process_one(op, rec({"ref": 1}, rid=2, ts=9.0), "right")
    assert out[0].source_ts == 9.0


# --------------------------------------------------------------------- #
# Windowed join
# --------------------------------------------------------------------- #

def make_win_join(window=10.0):
    return opened(WindowedJoinOperator(
        left_key=lambda p: p["id"],
        right_key=lambda p: p["ref"],
        combine=lambda l, r: "match",
        window=window,
    ), name="wjoin")


def test_window_join_matches_within_window():
    op, ctx = make_win_join()
    ctx.time = 1.0
    process_one(op, rec({"id": 7}, rid=1), "left")
    out = process_one(op, rec({"ref": 7}, rid=2), "right")
    assert len(out) == 1


def test_window_join_clears_on_expiry():
    op, ctx = make_win_join(window=10.0)
    ctx.time = 1.0
    process_one(op, rec({"id": 7}, rid=1), "left")
    ctx.time = 11.0  # next tumbling window
    out = process_one(op, rec({"ref": 7}, rid=2), "right")
    assert out == []


def test_window_join_registers_expiry_timer():
    op, ctx = make_win_join(window=10.0)
    ctx.time = 3.0
    process_one(op, rec({"id": 1}, rid=1), "left")
    assert (10.0, ("window", 1)) in ctx.timers


def test_window_join_on_restore_reregisters_timer():
    op, ctx = make_win_join(window=10.0)
    ctx.time = 25.0
    op.on_restore()
    assert (30.0, ("window", 3)) in ctx.timers


# --------------------------------------------------------------------- #
# Windowed count
# --------------------------------------------------------------------- #

def make_count(window=10.0):
    return opened(WindowedCountOperator(key_fn=lambda p: p["k"], window=window),
                  name="count")


def test_window_count_increments_within_window():
    op, ctx = make_count()
    ctx.time = 1.0
    outs = [process_one(op, rec({"k": "a"}, rid=i), "in")[0] for i in range(3)]
    assert [o.payload for o in outs] == [("a", 0, 1), ("a", 0, 2), ("a", 0, 3)]


def test_window_count_resets_across_windows():
    op, ctx = make_count(window=10.0)
    ctx.time = 1.0
    process_one(op, rec({"k": "a"}, rid=1), "in")
    ctx.time = 12.0
    out = process_one(op, rec({"k": "a"}, rid=2), "in")
    assert out[0].payload == ("a", 1, 1)


def test_window_count_separate_keys():
    op, ctx = make_count()
    ctx.time = 1.0
    process_one(op, rec({"k": "a"}, rid=1), "in")
    out = process_one(op, rec({"k": "b"}, rid=2), "in")
    assert out[0].payload == ("b", 0, 1)


def test_window_count_sweep_timer_drops_stale_keys():
    op, ctx = make_count(window=10.0)
    ctx.time = 1.0
    process_one(op, rec({"k": "a"}, rid=1), "in")
    ctx.time = 12.0
    op.on_timer(("sweep", 1))
    assert op.state_bytes == 0 or len(op.states["counts"]) == 0


def test_window_count_output_rid_deterministic():
    op1, ctx1 = make_count()
    op2, ctx2 = make_count()
    ctx1.time = ctx2.time = 1.0
    a = process_one(op1, rec({"k": "a"}, rid=5), "in")[0].rid
    b = process_one(op2, rec({"k": "a"}, rid=5), "in")[0].rid
    assert a == b
