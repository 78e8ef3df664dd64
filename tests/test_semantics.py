"""Processing-semantics spectrum (paper Definitions 1-3) for UNC."""

import pytest

from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig

from tests.conftest import build_count_graph, make_event_log


def run_with_semantics(semantics, failure_at=6.0, seed=3):
    config = RuntimeConfig(checkpoint_interval=3.0, duration=16.0, warmup=2.0,
                           failure_at=failure_at, seed=seed,
                           unc_semantics=semantics)
    log = make_event_log(300.0, 14.0, 3, seed=seed)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    result = job.run(rate=300.0)
    expected = {}
    for partition in log.partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured = {}
    for idx in range(3):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    return job, result, expected, measured


def test_exactly_once_is_exact():
    _, _, expected, measured = run_with_semantics("exactly-once")
    assert measured == expected


def test_at_least_once_never_loses_but_may_duplicate():
    """Definition 2: every record processed one or more times."""
    _, _, expected, measured = run_with_semantics("at-least-once")
    assert all(measured.get(k, 0) >= v for k, v in expected.items()), \
        "at-least-once must not lose records"
    assert sum(measured.values()) > sum(expected.values()), \
        "orphan effects should duplicate at least one record in this scenario"


def test_at_most_once_never_duplicates_but_may_lose():
    """Definition 1: every record processed once or not at all (gap recovery)."""
    _, _, expected, measured = run_with_semantics("at-most-once")
    assert all(measured.get(k, 0) <= v for k, v in expected.items()), \
        "at-most-once must not duplicate records"
    assert sum(measured.values()) < sum(expected.values()), \
        "losing the in-flight messages should leave gaps in this scenario"


def test_at_most_once_does_not_log():
    job, result, _, _ = run_with_semantics("at-most-once")
    assert job.send_log == {}
    assert result.metrics.first_failure().replayed_messages == 0
    # and it does not pay the logging CPU tax either
    assert not job.protocol.logs_messages


def test_at_least_once_still_logs_and_replays():
    job, result, _, _ = run_with_semantics("at-least-once")
    assert job.send_log
    assert result.metrics.first_failure().replayed_messages > 0
    assert not job.protocol.requires_dedup


def test_without_failure_all_semantics_agree():
    outcomes = {}
    for semantics in ("exactly-once", "at-least-once", "at-most-once"):
        _, _, expected, measured = run_with_semantics(semantics, failure_at=None)
        outcomes[semantics] = (measured == expected)
    assert all(outcomes.values()), outcomes


def test_invalid_semantics_rejected():
    """A bad ``unc_semantics`` fails the deployment, not the first worker
    task in virtual time: ``Job(...)`` itself raises, no event has run."""
    config = RuntimeConfig(unc_semantics="exactly-twice")
    log = make_event_log(300.0, 2.0, 3)
    with pytest.raises(ValueError, match="exactly-twice"):
        Job(build_count_graph(), "unc", 3, {"events": log}, config)
    with pytest.raises(ValueError, match="exactly-twice"):
        Job(build_count_graph(), "cic", 3, {"events": log}, config)


def test_dedup_state_not_tracked_when_unneeded():
    job, _, _, _ = run_with_semantics("at-least-once", failure_at=None)
    assert all(
        not instance.processed_rids for instance in job.instances()
    ), "no dedup set should accumulate when dedup is off"
