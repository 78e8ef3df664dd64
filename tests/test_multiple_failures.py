"""Repeated-failure hardening: recover, crash again, still exactly-once.

Like the exactly-once suite, this doubles as a differential harness for
the checkpoint state backends: repeated failures exercise the changelog
backend's forced-base-after-restore rule several times per run, and the
differential test asserts both backends pick identical recovery lines at
every one of them (DESIGN.md section 10).  Every run ends at the drain
barrier, so final counts compare a quiescent pipeline.
"""

import pytest

from repro.dataflow.lifecycle import LifecycleManager
from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig

from tests.conftest import (
    build_count_graph,
    canonical_state_bytes,
    make_event_log,
    trace_spec,
)


def run_with_failures(protocol, failures, duration=24.0, seed=3,
                      parallelism=3, rate=300.0, state_backend="full",
                      checkpoint_interval=3.0):
    config = RuntimeConfig(
        checkpoint_interval=checkpoint_interval, duration=duration, warmup=2.0,
        failure_scenario=trace_spec(failures), seed=seed,
        state_backend=state_backend,
    )
    log = make_event_log(rate, duration - 4.0, parallelism, seed=seed)
    job = Job(build_count_graph(), protocol, parallelism, {"events": log}, config)
    result = job.run(rate=rate, drain=True)
    expected = {}
    for partition in log.partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured = {}
    for idx in range(parallelism):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    return job, result, expected, measured


@pytest.mark.parametrize("state_backend", ["full", "changelog"])
@pytest.mark.parametrize("protocol", ["coor", "coor-unaligned", "unc", "cic"])
def test_two_failures_still_exactly_once(protocol, state_backend):
    _, _, expected, measured = run_with_failures(
        protocol, [(5.0, 0), (13.0, 1)], state_backend=state_backend,
    )
    assert measured == expected


@pytest.mark.parametrize("state_backend", ["full", "changelog"])
def test_three_failures_same_worker(state_backend):
    _, _, expected, measured = run_with_failures(
        "unc", [(4.0, 0), (10.0, 0), (16.0, 0)], duration=28.0,
        state_backend=state_backend,
    )
    assert measured == expected


@pytest.mark.parametrize("protocol", ["coor", "coor-unaligned", "unc", "cic"])
def test_backends_differential_across_repeated_failures(protocol):
    """Both backends recover along identical lines at BOTH failures and
    end in byte-identical operator state.

    At the FIRST failure the pre-failure trajectories are still in lockstep,
    so line and replayed sequences must match exactly.  The first restart's
    duration is backend-dependent by design (a chain restore costs more
    than one blob fetch), which time-shifts everything after it: the second
    round of checkpoints carries slightly different in-flight cursors, so
    only the second recovery's *line* (checkpoint ids and kinds) — not the
    byte-level replay sets — is required to match.
    """
    job_full, res_full, expected, measured_full = run_with_failures(
        protocol, [(5.0, 0), (13.0, 1)],
    )
    job_chg, res_chg, _, measured_chg = run_with_failures(
        protocol, [(5.0, 0), (13.0, 1)], state_backend="changelog",
    )
    assert len(res_full.metrics.recovery_lines) == 2
    assert res_full.metrics.recovery_lines[0] == res_chg.metrics.recovery_lines[0]
    lines_full = [line for line, _ in res_full.metrics.recovery_lines]
    lines_chg = [line for line, _ in res_chg.metrics.recovery_lines]
    assert lines_full == lines_chg
    assert canonical_state_bytes(job_full) == canonical_state_bytes(job_chg)
    assert measured_full == expected
    assert measured_chg == expected


def test_metrics_stamp_first_failure_only():
    _, result, _, _ = run_with_failures("unc", [(5.0, 0), (13.0, 1)])
    first = result.metrics.first_failure()
    assert first.killed_at == pytest.approx(7.0)    # warmup 2 + 5
    assert first.detected_at == pytest.approx(8.0)  # + heartbeat
    assert first.applied_at < 15.0                  # first restart, not second


def test_failure_during_detection_window_is_folded():
    """A second crash before the first recovery starts must not wedge."""
    _, _, expected, measured = run_with_failures(
        "unc", [(5.0, 0), (5.5, 1)], duration=24.0,
    )
    assert measured == expected


def test_output_continues_after_last_recovery():
    _, result, _, _ = run_with_failures("coor", [(5.0, 0), (12.0, 2)])
    last_second = max(result.metrics.sink_counts)
    assert last_second >= int(result.warmup + 16.0)


@pytest.mark.parametrize("protocol,seed,interval,failures", [
    ("unc", 2, 3.0, [(4.0, 0), (8.0, 1), (12.0, 2), (16.0, 0)]),
    ("unc", 3, 2.0, [(3.0, 0), (6.0, 0), (9.0, 1), (12.0, 2), (15.0, 1)]),
    ("cic", 2, 3.0, [(4.0, 0), (8.0, 1), (12.0, 2), (16.0, 0)]),
    ("cic", 3, 2.0, [(3.0, 0), (6.0, 0), (9.0, 1), (12.0, 2), (15.0, 1)]),
])
def test_a_rollback_abandons_the_timeline_it_rolled_past(
        monkeypatch, protocol, seed, interval, failures):
    """A recovery leaves nothing of the timeline it rolled back for a
    later one: no later line restores a checkpoint newer than an earlier
    line (one an instance had taken by then), and every channel's send
    log is one strictly increasing timeline — the restored senders send
    again under the sequence numbers they were rolled past.  Without
    that, these runs lose records."""
    applied = []
    apply_recovery = LifecycleManager.apply_recovery

    def recording(self, plan):
        applied.append((
            {key: meta.checkpoint_id for key, meta in plan.line.items()},
            {key: self.job.instance(key).checkpoint_counter for key in plan.line},
        ))
        apply_recovery(self, plan)

    monkeypatch.setattr(LifecycleManager, "apply_recovery", recording)
    job, _, expected, measured = run_with_failures(
        protocol, failures, seed=seed, checkpoint_interval=interval)
    assert len(applied) >= 3
    assert measured == expected
    restored_abandoned = [
        (key, later[key])
        for k, (line, taken) in enumerate(applied)
        for later, _ in applied[k + 1:]
        for key in line
        if line[key] < later[key] <= taken[key]
    ]
    assert restored_abandoned == []
    for channel, messages in job.send_log.items():
        seqs = [m.seq for m in messages]
        assert all(a < b for a, b in zip(seqs, seqs[1:])), channel
