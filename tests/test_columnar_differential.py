"""Differential suite: columnar batches change speed, never semantics.

The acceptance property of the columnar layer (DESIGN.md section 15): for
every protocol and every state backend, a run on the columnar path must
end in **byte-identical final operator state**, with **identical recovery
lines**, to the per-record reference run of the same configuration —
batching collapses per-record Python work into column kernels, but every
rid, message boundary, checkpoint cursor and dedup decision is the same.
Both runs are also audited against the input log (exactly-once ground
truth), so they cannot merely agree on a shared mistake.

The suite also locks the two constructions the columnar layer relies on:

* the vectorized rid kernels are bit-identical to the scalar mix loops
  (numpy uint64 wraparound arithmetic vs Python big-int masking);
* operator fusion is rid-transparent — a fused stateless chain emits
  records byte-identical to the unfused chain, so fusing is invisible to
  checkpoints, dedup sets and recovery.
"""

import pytest
from hypothesis import given, strategies as st

from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import (
    FilterOperator,
    FilterStage,
    FusedStatelessOperator,
    MapOperator,
    MapStage,
    SinkOperator,
    SourceOperator,
)
from repro.dataflow.records import (
    derived_rid,
    derived_rids,
    source_rid_from_prefix,
    source_rid_prefix,
    source_rids_from_prefix,
)
from repro.dataflow.runtime import Job
from repro.sim.costs import CostModel, RuntimeConfig

from tests.conftest import (
    CountPerKeyOperator,
    KeyedEvent,
    canonical_state_bytes,
    make_event_log,
    run_count_job,
)
from tests.golden import CASES, load_golden, signature
from tests.test_exactly_once import expected_counts, measured_counts

BACKENDS = ["full", "changelog"]
ALL_PROTOCOLS = ["coor", "coor-unaligned", "unc", "cic"]


# --------------------------------------------------------------------- #
# Both engines against the recorded fixture (tests/golden.py)
# --------------------------------------------------------------------- #


def test_golden_fixture_lists_exactly_the_registered_cases():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("columnar", [False, True],
                         ids=["per-record", "columnar"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_matches_golden(case, columnar):
    """``tests/data/engine_golden.json`` was recorded from the per-record
    engine; the per-record run proves that, the columnar run proves the
    surviving engine reproduces it.  The count-job cases are also audited
    against the input log, so neither can pass on a shared mistake."""
    job = CASES[case](columnar=columnar)
    assert signature(job) == load_golden()[case]
    if case.startswith("count-"):
        assert measured_counts(job) == expected_counts(job)


# --------------------------------------------------------------------- #
# Columnar vs per-record: protocols x backends x failure/rescale
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_columnar_differential_state_equivalence(protocol, state_backend):
    """Columnar and per-record runs end byte-identical, for every protocol
    and backend, across a failure + recovery — same state, same lines."""
    job_col, res_col = run_count_job(protocol, duration=20.0, failure_at=6.0,
                                     state_backend=state_backend,
                                     columnar=True)
    job_rec, res_rec = run_count_job(protocol, duration=20.0, failure_at=6.0,
                                     state_backend=state_backend,
                                     columnar=False)
    assert canonical_state_bytes(job_col) == canonical_state_bytes(job_rec)
    assert (res_col.metrics.recovery_lines
            == res_rec.metrics.recovery_lines)
    assert len(res_col.metrics.recovery_lines) >= 1
    assert measured_counts(job_col) == expected_counts(job_col)
    assert measured_counts(job_rec) == expected_counts(job_rec)


@pytest.mark.parametrize("protocol", ["unc", "coor-unaligned"])
def test_columnar_differential_across_rescale(protocol):
    """A rescaled recovery on the columnar path matches the per-record
    rescaled run key-for-key (split/merged keyed snapshots, re-routed
    in-flight replay and all)."""
    job_col, res_col = run_count_job(protocol, duration=22.0, failure_at=6.0,
                                     rescale_to=4, columnar=True)
    job_rec, _ = run_count_job(protocol, duration=22.0, failure_at=6.0,
                               rescale_to=4, columnar=False)
    assert res_col.final_parallelism == 4
    assert measured_counts(job_col) == expected_counts(job_col)
    assert measured_counts(job_col) == measured_counts(job_rec)
    assert canonical_state_bytes(job_col) == canonical_state_bytes(job_rec)


@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_batch_split_mid_checkpoint_marker(protocol):
    """A checkpoint marker (or forced local-checkpoint flush) lands inside
    a buffer that has not reached the batch threshold, splitting the batch.

    Buffers are sized so they can *only* leave via checkpoint-forced
    drains (batch_max far above the poll volume, linger far beyond the
    run), making every data message a marker-split partial batch.  The
    columnar run must still match the per-record run byte-for-byte, and
    both must match ground truth after the deterministic drain barrier.
    """
    def run(columnar: bool):
        cost = CostModel(batch_max_records=100_000, linger=1_000.0)
        config = RuntimeConfig(checkpoint_interval=1.0, duration=10.0,
                               warmup=2.0, failure_at=5.0, seed=11,
                               columnar=columnar, cost_model=cost)
        log = make_event_log(200.0, 8.0, 2, seed=11)
        graph = LogicalGraph("count")
        graph.add_source("src", "events", SourceOperator)
        graph.add_operator("count", CountPerKeyOperator, stateful=True)
        graph.add_operator("sink", SinkOperator)
        graph.connect("src", "count", Partitioning.KEY, key_fn=lambda e: e.key)
        graph.connect("count", "sink", Partitioning.FORWARD)
        job = Job(graph, protocol, 2, {"events": log}, config)
        result = job.run(drain=True)
        return job, result

    job_col, res_col = run(columnar=True)
    job_rec, res_rec = run(columnar=False)
    # with the thresholds unreachable, every message was checkpoint-forced
    assert res_col.metrics.messages_sent > 0
    assert canonical_state_bytes(job_col) == canonical_state_bytes(job_rec)
    assert res_col.metrics.recovery_lines == res_rec.metrics.recovery_lines
    assert measured_counts(job_col) == expected_counts(job_col)
    assert measured_counts(job_rec) == expected_counts(job_rec)


# --------------------------------------------------------------------- #
# Vectorized rid kernels == scalar mix loops
# --------------------------------------------------------------------- #


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=48),
       st.integers(min_value=0, max_value=4))
def test_derived_rids_bit_identical_to_scalar(parent_rids, emission_index):
    """Covers both kernel arms: short columns take the pure-Python loop,
    long ones the numpy uint64 path — both must equal the scalar mix."""
    assert derived_rids("opX", parent_rids, emission_index) == [
        derived_rid("opX", rid, emission_index) for rid in parent_rids
    ]


@given(st.lists(st.integers(min_value=0, max_value=2**32), max_size=48),
       st.integers(min_value=0, max_value=7))
def test_source_rids_bit_identical_to_scalar(offsets, partition):
    prefix = source_rid_prefix("events", partition)
    assert source_rids_from_prefix(prefix, offsets) == [
        source_rid_from_prefix(prefix, offset) for offset in offsets
    ]


# --------------------------------------------------------------------- #
# Fusion is rid-transparent
# --------------------------------------------------------------------- #


def _chain_graph(fused: bool) -> LogicalGraph:
    """src -> [m1 -> keep -> m2] -> count -> sink, fused or standalone.

    The fused chain's stages reuse the standalone operator names, so its
    outputs must be byte-identical — same rids, same payload values.
    """
    def enrich(e):
        return KeyedEvent(e.key, e.value + 7)

    def keep(e):
        return e.value % 3 != 0

    def project(e):
        return KeyedEvent(e.key, e.value * 2)

    graph = LogicalGraph("fusion_probe")
    graph.add_source("src", "events", SourceOperator)
    if fused:
        graph.add_operator("chain", lambda: FusedStatelessOperator([
            MapStage("m1", enrich),
            FilterStage("keep", keep),
            MapStage("m2", project),
        ]))
        graph.connect("src", "chain", Partitioning.FORWARD)
        previous = "chain"
    else:
        graph.add_operator("m1", lambda: MapOperator(enrich))
        graph.add_operator("keep", lambda: FilterOperator(keep))
        graph.add_operator("m2", lambda: MapOperator(project))
        graph.connect("src", "m1", Partitioning.FORWARD)
        graph.connect("m1", "keep", Partitioning.FORWARD)
        graph.connect("keep", "m2", Partitioning.FORWARD)
        previous = "m2"
    graph.add_operator("count", CountPerKeyOperator, stateful=True)
    graph.add_operator("sink", SinkOperator)
    graph.connect(previous, "count", Partitioning.KEY, key_fn=lambda e: e.key)
    graph.connect("count", "sink", Partitioning.FORWARD)
    return graph


@pytest.mark.parametrize("columnar", [True, False])
def test_fused_chain_state_matches_unfused_across_failure(columnar):
    """Fused and unfused chains end in identical keyed state through a
    failure + dedup-heavy replay — rids must agree or UNC's dedup would
    double-count or drop records on one side."""
    def run(fused: bool):
        config = RuntimeConfig(checkpoint_interval=3.0, duration=16.0,
                               warmup=2.0, failure_at=6.0, seed=5,
                               columnar=columnar)
        log = make_event_log(150.0, 10.0, 2, seed=5)
        job = Job(_chain_graph(fused), "unc", 2, {"events": log}, config)
        job.run(drain=True)
        counts: dict[int, int] = {}
        for idx in range(2):
            state = job.instance(("count", idx)).operator.states["counts"]
            for key, value in state.items():
                counts[key] = counts.get(key, 0) + value
        return job, counts

    job_fused, counts_fused = run(fused=True)
    job_unfused, counts_unfused = run(fused=False)
    assert counts_fused == counts_unfused
    # the counting operator's state must be byte-identical per instance —
    # fusion upstream cannot shift a single key or count
    per_instance_fused = [
        job_fused.instance(("count", idx)).operator.states["counts"]._data
        for idx in range(2)
    ]
    per_instance_unfused = [
        job_unfused.instance(("count", idx)).operator.states["counts"]._data
        for idx in range(2)
    ]
    assert per_instance_fused == per_instance_unfused


def test_fused_chain_emits_identical_records_per_record_level():
    """Unit-level rid transparency: one fused `process` call produces the
    same records as chaining the standalone operators by hand."""
    from repro.dataflow.records import StreamRecord

    def enrich(e):
        return KeyedEvent(e.key, e.value + 7)

    def keep(e):
        return e.value % 3 != 0

    def project(e):
        return KeyedEvent(e.key, e.value * 2)

    class _Ctx:
        def __init__(self, name):
            self.op_name = name

    fused = FusedStatelessOperator([
        MapStage("m1", enrich),
        FilterStage("keep", keep),
        MapStage("m2", project),
    ])
    fused.ctx = _Ctx("chain")
    m1, f, m2 = MapOperator(enrich), FilterOperator(keep), MapOperator(project)
    for op, name in ((m1, "m1"), (f, "keep"), (m2, "m2")):
        op.ctx = _Ctx(name)

    for value in range(12):
        record = StreamRecord(rid=value + 1, payload=KeyedEvent(value % 4, value),
                              source_ts=0.5, size_bytes=40)
        via_fused = fused.process(record, "in")
        via_chain = [record]
        for op in (m1, f, m2):
            via_chain = [out for r in via_chain for out in op.process(r, "in")]
        assert via_fused == via_chain


# --------------------------------------------------------------------- #
# Batched stateful operators: real query specs, columnar vs per-record
# --------------------------------------------------------------------- #
#
# The keyed aggregation operators override ``process_batch`` with grouped
# state kernels (DESIGN.md section 16): one get/put per *touched key*
# instead of one per record.  These runs drive the real nexmark specs —
# windowed counts (q12), incremental and windowed joins (q3/q8), sliding
# window + max (q5) — and demand the batched run be byte-identical to the
# per-record engine across failure and rescale, exactly like the engine
# tests above.


def _run_spec_job(query, protocol, *, columnar, state_backend="full",
                  rate=250.0, parallelism=2, duration=14.0, warmup=2.0,
                  failure_at=6.0, rescale_to=None, seed=7, cost=None,
                  checkpoint_interval=3.0):
    """One spec-driven run mirroring ``run_with_spec``'s construction,
    with input stopping early so queues drain and totals are exact."""
    from repro.experiments.parallel import resolve_spec

    spec = resolve_spec(query)
    config = RuntimeConfig(checkpoint_interval=checkpoint_interval,
                           duration=duration,
                           warmup=warmup, failure_at=failure_at,
                           rescale_to=rescale_to, seed=seed,
                           state_backend=state_backend, columnar=columnar,
                           cost_model=cost if cost is not None else CostModel())
    graph = spec.build_graph(parallelism)
    inputs = spec.make_job_inputs(rate, warmup + duration - 4.0, parallelism,
                                  0.0, seed)
    job = Job(graph, protocol, parallelism, inputs, config)
    result = job.run(rate=rate, query_name=query)
    return job, result


def _assert_spec_differential(query, protocol, **kwargs):
    job_col, res_col = _run_spec_job(query, protocol, columnar=True, **kwargs)
    job_rec, res_rec = _run_spec_job(query, protocol, columnar=False, **kwargs)
    assert canonical_state_bytes(job_col) == canonical_state_bytes(job_rec)
    assert res_col.metrics.recovery_lines == res_rec.metrics.recovery_lines
    assert (res_col.metrics.total_sink_records()
            == res_rec.metrics.total_sink_records())
    return res_col


@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_windowed_count_batched_differential(protocol, state_backend):
    """q12 (WindowedCountOperator, the grouped put_many hot path) across
    a failure: batched and per-record runs end byte-identical for every
    protocol and backend, and both actually recover and emit."""
    res = _assert_spec_differential("q12", protocol,
                                    state_backend=state_backend)
    assert len(res.metrics.recovery_lines) >= 1
    assert res.metrics.total_sink_records() > 0


@pytest.mark.parametrize("query", ["q3", "q8"])
@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_join_batched_differential(query, protocol):
    """The two-port joins (incremental q3, windowed q8) exercise
    ``_join_batch``'s grouped build/probe against per-record joins."""
    _assert_spec_differential(query, protocol, state_backend="changelog")


@pytest.mark.parametrize("protocol", ["coor-unaligned", "cic"])
def test_sliding_max_batched_differential(protocol):
    """q5 chains SlidingWindowCountOperator into MaxPerKeyOperator — the
    sequential-fold batched kernels — through failure and recovery."""
    res = _assert_spec_differential("q5", protocol)
    assert res.metrics.total_sink_records() > 0


@pytest.mark.parametrize("protocol", ["unc", "coor-unaligned"])
def test_windowed_count_batched_differential_across_rescale(protocol):
    """Rescaled recovery re-partitions the batched keyed state: grouped
    snapshots split/merge identically to the per-record engine."""
    res = _assert_spec_differential("q12", protocol, duration=22.0,
                                    rescale_to=4)
    assert res.final_parallelism == 4


@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_marker_split_batches_through_keyed_window_operator(protocol):
    """Marker-split partial batches (thresholds unreachable, every data
    message checkpoint-forced) flow through a *keyed* operator's grouped
    kernels and still match the per-record run byte-for-byte."""
    cost = CostModel(batch_max_records=100_000, linger=1_000.0)
    res = _assert_spec_differential("q12", protocol, duration=10.0,
                                    failure_at=5.0, seed=11, cost=cost,
                                    checkpoint_interval=1.0)
    assert res.metrics.messages_sent > 0
