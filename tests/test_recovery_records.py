"""The failure metrics a run exposes, pinned for three multi-recovery runs.

q12 under UNC at p = 4, 300 rec/s, 20 s after 2 s of warmup, killed by
the trace ``3@0;9@1;15@2`` (three recoveries): once as one run, once as
two key-group shards merged, and once rescaling 4 -> 6 at its second
recovery.  Every value the paper's failure metrics read (the first
failure's kill, detection and restart instants, invalid / total
checkpoints, replay volume) is pinned as a literal, with the outage
spans, the availability they give and the number of recovery lines.
The tests after the pins hold what the records add: one record per
recovery with its own span, the per-kill-instant fold of a merged run,
and a recovery the run ends inside.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.experiments.parallel import RunRequest, execute_request
from repro.experiments.sharding import merge_metrics, run_sharded
from repro.metrics.collectors import MetricsCollector, RecoveryRecord

TRACE = "trace:3@0;9@1;15@2"
BASE = RunRequest(query="q12", protocol="unc", parallelism=4, rate=300.0,
                  duration=20.0, warmup=2.0, failure_scenario=TRACE)


def observed(result) -> dict:
    """Every first-failure value the run exposes, by name."""
    m = result.metrics
    first = m.first_failure()
    return {
        "failure_at": first.killed_at,
        "detected_at": first.detected_at,
        "restart_completed_at": first.applied_at,
        "invalid": first.invalid_checkpoints,
        "total": first.total_checkpoints,
        "replayed_messages": first.replayed_messages,
        "replayed_records": m.replayed_records,
        "outages": [list(span) for span in m.outages()],
        "availability": result.availability(),
        "recovery_lines": len(m.recovery_lines),
    }


def observed_rescale(result) -> dict:
    """The rescale the run applied: when, from -> to, group balance."""
    rescale = result.metrics.first_failure(rescaled=True)
    return {
        "rescaled_at": rescale.applied_at,
        "rescale": rescale.rescale,
        "group_imbalance": rescale.group_imbalance(),
    }


@pytest.fixture(scope="module")
def plain():
    return execute_request(BASE)


@pytest.fixture(scope="module")
def sharded():
    return run_sharded(BASE, 2)


@pytest.fixture(scope="module")
def rescaled():
    return execute_request(replace(BASE, rescale_to=6, rescale_at=2))


def test_plain_run_first_failure(plain):
    assert observed(plain) == {
        "failure_at": 5.0,
        "detected_at": 6.0,
        "restart_completed_at": 6.11761438,
        "invalid": 8,
        "total": 12,
        "replayed_messages": 570,
        "replayed_records": 827,
        "outages": [[5.0, 6.11761438],
                    [11.0, 12.106267926666666],
                    [17.0, 18.11999374]],
        "availability": 0.8328061976666666,
        "recovery_lines": 3,
    }


def test_sharded_run_merges_each_shard_first_failure(sharded):
    assert observed(sharded) == {
        "failure_at": 5.0,
        "detected_at": 6.0,
        "restart_completed_at": 6.11785214,
        "invalid": 8,
        "total": 24,
        "replayed_messages": 573,
        "replayed_records": 826,
        "outages": [[5.0, 6.11785214],
                    [11.0, 12.123869893333334],
                    [17.0, 18.1368436]],
        "availability": 0.8310717183333334,
        "recovery_lines": 6,
    }


def test_rescaled_run_first_failure_and_rescale(rescaled):
    assert observed(rescaled) == {
        "failure_at": 5.0,
        "detected_at": 6.0,
        "restart_completed_at": 6.11761438,
        "invalid": 8,
        "total": 12,
        "replayed_messages": 570,
        "replayed_records": 827,
        "outages": [[5.0, 6.11761438],
                    [11.0, 12.162959243333333],
                    [17.0, 18.120298443333333]],
        "availability": 0.8299563966666668,
        "recovery_lines": 3,
    }
    assert observed_rescale(rescaled) == {
        "rescaled_at": 12.162959243333333,
        "rescale": (4, 6),
        "group_imbalance": 1.3856562922868743,
    }


def test_paper_metrics_of_the_pinned_runs(plain, sharded, rescaled):
    assert plain.restart_time() == 0.11761438000000002
    assert plain.invalid_percentage() == 66.66666666666667
    assert sharded.restart_time() == 0.1178521400000001
    assert sharded.invalid_percentage() == 33.333333333333336
    assert rescaled.recovery_time() == 9.0


def test_every_recovery_has_a_record_of_its_own(plain):
    records = plain.metrics.recoveries
    assert [record.workers for record in records] == [[0], [1], [2]]
    assert all(record.applied_at - record.detected_at > 0
               for record in records)
    assert [[record.killed_at, record.applied_at] for record in records] \
        == plain.metrics.outages()
    assert [record.line for record in records] == plain.metrics.recovery_lines


def test_merged_records_concatenate_and_fold_per_kill_instant(sharded):
    records = sharded.metrics.recoveries
    assert [record.killed_at for record in records] == [5.0, 11.0, 17.0] * 2
    first = sharded.metrics.first_failure()
    assert first.workers == [0, 0]
    assert first.invalid_checkpoints == (records[0].invalid_checkpoints
                                         + records[3].invalid_checkpoints)
    assert first.applied_at == max(records[0].applied_at,
                                   records[3].applied_at)


def test_a_merged_rescale_is_dated_by_the_latest_shard():
    a, b = MetricsCollector(), MetricsCollector()
    a.recoveries = [RecoveryRecord(killed_at=5.0, detected_at=6.0,
                                   applied_at=6.4, rescale=(4, 6),
                                   group_state_bytes={0: 10, 1: 30})]
    b.recoveries = [RecoveryRecord(killed_at=5.0, detected_at=6.0,
                                   applied_at=6.5, rescale=(4, 6),
                                   group_state_bytes={1: 10, 2: 20})]
    rescale = merge_metrics([a, b]).first_failure(rescaled=True)
    assert rescale.applied_at == 6.5
    assert rescale.rescale == (4, 6)
    assert rescale.group_state_bytes == {0: 10, 1: 40, 2: 20}


def test_a_recovery_the_run_ends_inside_is_counted_but_not_applied():
    """Killed at 18.95 s of 20: detected, planned, never applied."""
    result = execute_request(replace(BASE, failure_scenario="trace:3@0;18.95@1"))
    m = result.metrics
    assert len(m.recoveries) == 2
    last = m.recoveries[-1]
    assert last.detected_at == 21.95 and last.applied_at is None
    assert last.line is not None
    assert m.n_recoveries == m.n_failures == 2
    assert m.outages() == [[5.0, 6.11761438], [20.95, math.inf]]
    # the open outage is clipped at the end of the measured window
    assert result.availability() == 0.891619281
    assert m.downtime(2.0, 22.0) == pytest.approx(
        (6.11761438 - 5.0) + (22.0 - 20.95))
