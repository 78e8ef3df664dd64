"""Exactly-once audits across protocols, queries and failure points.

The audit: run the keyed-counting pipeline with a mid-run failure, stop the
input early so all queues drain, then compare the final operator state with
the per-key counts computed directly from the input log.  Any lost message
(dropped effect) or duplicate (double-applied effect) breaks the equality.

The suite doubles as the **differential state-equivalence harness** for the
checkpoint state backends (DESIGN.md section 10): the audits run under both
the full-snapshot and the changelog backend, and the differential tests
additionally assert that, on a fixed seed, the two backends converge to
byte-identical final operator state and make identical recovery decisions
(same recovery line, same replayed sequences) for every protocol.
"""

import pytest

from tests.conftest import canonical_state_bytes, run_count_job

BACKENDS = ["full", "changelog"]
ALL_PROTOCOLS = ["coor", "coor-unaligned", "unc", "cic"]


def expected_counts(job) -> dict[int, int]:
    counts: dict[int, int] = {}
    for partition in job.inputs["events"].partitions:
        for r in partition.records:
            counts[r.payload.key] = counts.get(r.payload.key, 0) + 1
    return counts


def measured_counts(job) -> dict[int, int]:
    counts: dict[int, int] = {}
    for idx in range(job.parallelism):
        state = job.instance(("count", idx)).operator.states["counts"]
        for key, value in state.items():
            counts[key] = counts.get(key, 0) + value
    return counts


@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ["coor", "unc", "cic"])
@pytest.mark.parametrize("failure_at", [3.0, 6.0, 9.0])
def test_exactly_once_state_across_failure_points(protocol, failure_at,
                                                  state_backend):
    job, _ = run_count_job(protocol, parallelism=3, rate=300.0,
                           duration=16.0, failure_at=failure_at,
                           state_backend=state_backend)
    assert measured_counts(job) == expected_counts(job)


@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ["coor", "unc", "cic"])
def test_exactly_once_state_without_failure(protocol, state_backend):
    job, _ = run_count_job(protocol, failure_at=None,
                           state_backend=state_backend)
    assert measured_counts(job) == expected_counts(job)


# --------------------------------------------------------------------- #
# Differential backend equivalence (DESIGN.md section 10)
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
@pytest.mark.parametrize("failure_at", [None, 6.0])
def test_backends_differential_equivalence(protocol, failure_at):
    """Full-snapshot and changelog runs must be indistinguishable in state.

    Byte-identical final operator state (canonicalized snapshots) and
    identical recovery decisions: the same recovery line (per-instance
    checkpoint ids and kinds) and the same replayed message sequences.
    """
    job_full, res_full = run_count_job(protocol, failure_at=failure_at)
    job_chg, res_chg = run_count_job(protocol, failure_at=failure_at,
                                     state_backend="changelog")
    assert canonical_state_bytes(job_full) == canonical_state_bytes(job_chg)
    assert res_full.metrics.recovery_lines == res_chg.metrics.recovery_lines
    # both must also pass the exactly-once audit (not just match each other)
    assert measured_counts(job_full) == expected_counts(job_full)
    assert measured_counts(job_chg) == expected_counts(job_chg)


@pytest.mark.parametrize("protocol", ["unc", "cic"])
def test_backends_differential_under_short_chains(protocol, monkeypatch):
    """Aggressive compaction (max_chain=1) must not change outcomes."""
    monkeypatch.setattr("repro.dataflow.state.CHANGELOG_MAX_CHAIN", 1)
    job_full, res_full = run_count_job(protocol, failure_at=6.0)
    job_chg, res_chg = run_count_job(protocol, failure_at=6.0,
                                     state_backend="changelog")
    assert canonical_state_bytes(job_full) == canonical_state_bytes(job_chg)
    assert res_full.metrics.recovery_lines == res_chg.metrics.recovery_lines


def test_changelog_uploads_fewer_bytes_than_full():
    """The dedup-set journal alone makes UNC deltas much smaller."""
    _, res_full = run_count_job("unc", failure_at=None)
    _, res_chg = run_count_job("unc", failure_at=None,
                               state_backend="changelog")
    assert (res_chg.metrics.checkpoint_bytes_uploaded
            < 0.8 * res_full.metrics.checkpoint_bytes_uploaded)
    assert (res_chg.metrics.checkpoint_bytes_uploaded
            < res_chg.metrics.checkpoint_bytes_materialized)


@pytest.mark.parametrize("worker", [0, 1, 2])
def test_exactly_once_regardless_of_failed_worker(worker):
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(checkpoint_interval=3.0, duration=16.0, warmup=2.0,
                           failure_at=6.0, failure_worker=worker, seed=3)
    log = make_event_log(300.0, 14.0, 3)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    job.run()
    assert measured_counts(job) == expected_counts(job)


@pytest.mark.parametrize("protocol", ["unc", "cic"])
def test_dedup_suppresses_replay_duplicates(protocol):
    """Whatever is replayed plus regenerated, effects must stay single.

    The rate must leave catch-up headroom below every protocol's capacity
    (CIC's piggyback serialization makes it the slowest) or the audit would
    measure an undrained queue rather than lost effects.
    """
    job, result = run_count_job(protocol, parallelism=3, rate=350.0,
                                duration=20.0, failure_at=6.0)
    assert measured_counts(job) == expected_counts(job)
    # duplicates_skipped is allowed to be zero (clean replay window), but it
    # must never be negative and any skipped duplicate must not distort state
    assert result.metrics.duplicates_skipped >= 0


def test_failure_near_checkpoint_boundary():
    """Failing right as checkpoints are being taken is the racy case."""
    job, _ = run_count_job("unc", parallelism=3, rate=300.0, duration=16.0,
                           failure_at=3.05, checkpoint_interval=3.0)
    assert measured_counts(job) == expected_counts(job)


def test_two_runs_same_seed_same_final_state():
    job1, _ = run_count_job("unc", failure_at=6.0)
    job2, _ = run_count_job("unc", failure_at=6.0)
    assert measured_counts(job1) == measured_counts(job2)


@pytest.mark.parametrize("protocol", ["coor", "unc", "cic"])
def test_source_cursors_cover_all_input(protocol):
    """After the drain window, sources must have consumed the whole log."""
    job, _ = run_count_job(protocol, failure_at=6.0)
    for idx in range(job.parallelism):
        instance = job.instance(("src", idx))
        assert instance.source_cursors == {
            idx: len(job.inputs["events"].partition(idx))}
