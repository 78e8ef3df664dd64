"""Engine golden suite: what a run ends in is pinned, whatever made it fast.

Every case of the matrix in ``tests/golden.py`` — count job and q12 x 4
protocols x 2 state backends through a failure, rescaled recoveries,
marker-split partial batches, a stateless map/filter chain, the
two-port joins, the sliding-window/max chain, the cyclic reachability
query — must reproduce its entry in ``tests/data/engine_golden.json``
exactly: final operator state bytes, recovery lines,
sink/message/duplicate totals and virtual time.  The
fixture was recorded from the per-record engine that used to be this
suite's reference, so an engine change that moves any of it is a
semantic change, not an optimisation.  The count-job cases are also
audited against the input log (exactly-once ground truth), so the suite
cannot pass by agreeing with a recorded mistake.

(The module keeps its historical file name: the test ids are pinned by
the test-floor list.)

The suite also locks the construction the batch kernels rely on: the
vectorized rid kernels are bit-identical to the scalar mix loops (numpy
uint64 wraparound arithmetic vs Python big-int masking).
"""

import pytest
from hypothesis import given, strategies as st

from repro.dataflow.records import (
    derived_rids,
    source_rid_from_prefix,
    source_rid_column,
    source_rid_prefix,
)
from repro.dataflow.runtime import Job

from tests.golden import ALL_PROTOCOLS, BACKENDS, CASES, load_golden, signature
from tests.oracles import derived_rid
from tests.test_exactly_once import expected_counts, measured_counts


def golden_job(case: str) -> Job:
    """Run one registered case and hold it to its recorded signature."""
    job = CASES[case]()
    assert signature(job) == load_golden()[case]
    return job


def test_golden_fixture_lists_exactly_the_registered_cases():
    assert sorted(load_golden()) == sorted(CASES)


# --------------------------------------------------------------------- #
# Count job: protocols x backends x failure/rescale, audited
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_columnar_differential_state_equivalence(protocol, state_backend):
    """Every protocol and backend, across a failure + recovery: recorded
    state and recovery lines, and exactly-once against the input log."""
    job = golden_job(f"count-{protocol}-{state_backend}")
    assert len(job.metrics.recovery_lines) >= 1
    assert measured_counts(job) == expected_counts(job)


@pytest.mark.parametrize("protocol", ["unc", "coor-unaligned"])
def test_columnar_differential_across_rescale(protocol):
    """A rescaled recovery (split/merged keyed snapshots, in-flight replay
    re-bucketed onto the new topology) ends in the recorded state."""
    job = golden_job(f"count-rescale-{protocol}")
    assert job.parallelism == 4
    assert measured_counts(job) == expected_counts(job)


@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_batch_split_mid_checkpoint_marker(protocol):
    """A checkpoint marker (or forced local-checkpoint flush) lands inside
    a buffer that has not reached the batch threshold, splitting the batch.

    Buffers are sized so they can *only* leave via checkpoint-forced
    drains (batch_max far above the poll volume, linger far beyond the
    run), making every data message a marker-split partial batch.  The
    run must match the fixture and, after the deterministic drain
    barrier, ground truth.
    """
    job = golden_job(f"count-marker-split-{protocol}")
    # with the thresholds unreachable, every message was checkpoint-forced
    assert job.metrics.messages_sent > 0
    assert measured_counts(job) == expected_counts(job)


# --------------------------------------------------------------------- #
# Vectorized rid kernels == scalar mix loops
# --------------------------------------------------------------------- #


@given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=48))
def test_derived_rids_bit_identical_to_scalar(parent_rids):
    """Covers both kernel arms: short columns take the pure-Python loop,
    long ones the numpy uint64 path — both must equal the scalar mix."""
    assert derived_rids("opX", parent_rids) == [
        derived_rid("opX", rid) for rid in parent_rids
    ]


@given(st.integers(min_value=0, max_value=48),
       st.one_of(st.integers(min_value=0, max_value=7).map(
           lambda partition: source_rid_prefix("events", partition)),
                 st.integers(min_value=0, max_value=2**64 - 1)))
def test_source_rids_bit_identical_to_scalar(length, prefix):
    """The column a source polls equals the scalar mix at every offset,
    for the prefixes of real partitions and for any 64-bit prefix."""
    assert source_rid_column(prefix, length).tolist() == [
        source_rid_from_prefix(prefix, offset) for offset in range(length)
    ]


# --------------------------------------------------------------------- #
# A stateless map/filter chain
# --------------------------------------------------------------------- #


def test_stateless_chain_through_failure():
    """src -> map -> filter -> map -> count under UNC through a failure
    and a dedup-heavy replay: the FORWARD chain derives its rids per
    operator, so the counts downstream must not move."""
    golden_job("chain-unfused")


# --------------------------------------------------------------------- #
# Batched stateful operators on the real query specs
# --------------------------------------------------------------------- #
#
# The keyed aggregation operators run grouped state kernels (DESIGN.md
# section 16): one get/put per *touched key* instead of one per record.
# These cases drive the real nexmark specs — windowed counts (q12),
# incremental and windowed joins (q3/q8), sliding window + max (q5) —
# across failure and rescale.


@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_windowed_count_batched_differential(protocol, state_backend):
    """q12 (WindowedCountOperator, the grouped put_many hot path) across
    a failure, for every protocol and backend: the run recovers, emits,
    and ends in the recorded state."""
    job = golden_job(f"q12-{protocol}-{state_backend}")
    assert len(job.metrics.recovery_lines) >= 1
    assert job.metrics.total_sink_records() > 0


@pytest.mark.parametrize("query", ["q3", "q8"])
@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_join_batched_differential(query, protocol):
    """The two-port joins (incremental q3, windowed q8) exercise
    ``_join_batch``'s grouped build/probe."""
    golden_job(f"{query}-{protocol}-changelog")


@pytest.mark.parametrize("protocol", ["coor-unaligned", "cic"])
def test_sliding_max_batched_differential(protocol):
    """q5 chains SlidingWindowCountOperator into MaxPerKeyOperator — the
    sequential-fold batched kernels — through failure and recovery."""
    job = golden_job(f"q5-{protocol}")
    assert job.metrics.total_sink_records() > 0


@pytest.mark.parametrize("protocol", ["unc", "coor-unaligned"])
def test_windowed_count_batched_differential_across_rescale(protocol):
    """Rescaled recovery re-partitions the batched keyed state."""
    job = golden_job(f"q12-rescale-{protocol}")
    assert job.parallelism == 4


@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_marker_split_batches_through_keyed_window_operator(protocol):
    """Marker-split partial batches (thresholds unreachable, every data
    message checkpoint-forced) flow through a *keyed* operator's grouped
    kernels."""
    job = golden_job(f"q12-marker-split-{protocol}")
    assert job.metrics.messages_sent > 0


@pytest.mark.parametrize("case", ["reachability-unc-full",
                                  "reachability-cic-changelog"])
def test_cyclic_reachability_through_failure(case):
    """The cyclic query of Fig. 6 (link/fact join, cycle guard, projection
    fed back into the join) under both protocols that run a cycle, across
    a kill at 6 s: the join's three list states — deletions included —
    and everything the feedback loop sent end as recorded."""
    job = golden_job(case)
    assert len(job.metrics.recovery_lines) >= 1
    assert job.metrics.total_sink_records() > 0
