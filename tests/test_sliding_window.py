"""Tests for the sliding-window operator, the max operator and Q5."""

import pytest

from repro.dataflow.operators import MaxPerKeyOperator, SlidingWindowCountOperator
from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig
from repro.workloads.nexmark import QUERIES

from tests.conftest import process_one
from tests.test_operators import StubContext


def make_sliding(window_range=10.0, slide=2.0):
    op = SlidingWindowCountOperator(
        key_fn=lambda p: p["k"], window_range=window_range, slide=slide
    )
    ctx = StubContext("slide")
    op.open(ctx)
    return op, ctx


# --------------------------------------------------------------------- #
# SlidingWindowCountOperator
# --------------------------------------------------------------------- #

def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        SlidingWindowCountOperator(lambda p: p, window_range=1.0, slide=2.0)
    with pytest.raises(ValueError):
        SlidingWindowCountOperator(lambda p: p, window_range=1.0, slide=0.0)


def test_record_updates_all_overlapping_windows():
    op, ctx = make_sliding(window_range=10.0, slide=2.0)
    ctx.time = 9.0  # windows 0..4 cover t=9 (starts 0,2,4,6,8)
    process_one(op, "in", {"k": "a"}, rid=1)
    counts = op.states["counts"]
    assert {w for (w, k) in [key for key in counts.keys()]} == {0, 1, 2, 3, 4}


def test_early_records_do_not_create_negative_windows():
    op, ctx = make_sliding(window_range=10.0, slide=2.0)
    ctx.time = 1.0
    process_one(op, "in", {"k": "a"}, rid=1)
    assert all(w >= 0 for (w, _) in op.states["counts"].keys())


def test_emits_newest_window_running_count():
    op, ctx = make_sliding(window_range=10.0, slide=2.0)
    ctx.time = 4.5
    first = process_one(op, "in", {"k": "a"}, rid=1)
    second = process_one(op, "in", {"k": "a"}, rid=2)
    assert first.payloads[0] == ("a", 2, 1)
    assert second.payloads[0] == ("a", 2, 2)


def test_sliding_counts_roll_off():
    """A record only counts in windows whose range still covers it."""
    op, ctx = make_sliding(window_range=10.0, slide=2.0)
    ctx.time = 1.0
    process_one(op, "in", {"k": "a"}, rid=1)
    ctx.time = 11.0  # newest window = 5, starts at 10: old record outside
    out = process_one(op, "in", {"k": "a"}, rid=2)
    assert out.payloads[0] == ("a", 5, 1)


def test_sweep_timer_drops_expired_windows():
    op, ctx = make_sliding(window_range=10.0, slide=2.0)
    ctx.time = 1.0
    process_one(op, "in", {"k": "a"}, rid=1)
    before = len(op.states["counts"])
    op.on_timer(("sweep", 4))  # everything through window 4 expires
    assert len(op.states["counts"]) < before


def test_distinct_keys_counted_separately():
    op, ctx = make_sliding()
    ctx.time = 1.0
    process_one(op, "in", {"k": "a"}, rid=1)
    out = process_one(op, "in", {"k": "b"}, rid=2)
    assert out.payloads[0] == ("b", 0, 1)


# --------------------------------------------------------------------- #
# MaxPerKeyOperator
# --------------------------------------------------------------------- #

def make_max():
    op = MaxPerKeyOperator(
        group_fn=lambda p: p[1],
        value_fn=lambda p: p[2],
        item_fn=lambda p: p[0],
    )
    ctx = StubContext("max")
    op.open(ctx)
    return op


def test_max_emits_only_on_improvement():
    op = make_max()
    out1 = process_one(op, "in", ("a", 0, 3), rid=1)
    out2 = process_one(op, "in", ("b", 0, 2), rid=2)
    out3 = process_one(op, "in", ("b", 0, 5), rid=3)
    assert out1.payloads == [(0, "a", 3)]
    assert len(out2) == 0  # 2 < 3: not a new leader
    assert out3.payloads == [(0, "b", 5)]


def test_max_tracks_groups_independently():
    op = make_max()
    process_one(op, "in", ("a", 0, 9), rid=1)
    out = process_one(op, "in", ("b", 1, 1), rid=2)
    assert len(out) == 1  # first value of a new group always leads


# --------------------------------------------------------------------- #
# Q5 end to end
# --------------------------------------------------------------------- #

def run_q5(protocol="none", parallelism=2, failure_at=None):
    spec = QUERIES["q5"]
    rate = 250.0
    inputs = spec.make_job_inputs(rate, 12.0, parallelism, 0.0, 11)
    config = RuntimeConfig(checkpoint_interval=3.0, duration=16.0, warmup=2.0,
                           failure_at=failure_at)
    job = Job(spec.build_graph(parallelism), protocol, parallelism, inputs, config)
    return job, job.run(rate=rate, query_name="q5")


def test_q5_produces_leader_updates():
    _, result = run_q5()
    assert sum(result.metrics.sink_counts.values()) > 0


def test_q5_graph_shape():
    graph = QUERIES["q5"].build_graph(3)
    graph.validate()
    assert [s.name for s in graph.sources()] == ["source_bids"]
    assert "count_sliding" in graph.operators
    assert "max_per_window" in graph.operators


def test_q5_not_in_paper_experiment_grid():
    from repro.experiments.figures import NEXMARK_ORDER

    assert "q5" not in NEXMARK_ORDER


@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_q5_survives_failure(protocol):
    job, result = run_q5(protocol=protocol, failure_at=6.0)
    post = result.metrics.total_sink_records(
        start=result.metrics.first_failure().applied_at + 1.0
    )
    assert post > 0
    # leader values never exceed the window's total bid count
    for idx in range(job.parallelism):
        best = job.instance(("max_per_window", idx)).operator.states["best"]
        for window, (value, item) in best.items():
            assert value >= 1
