"""Tests for per-operator checkpoint schedules (UNC configurability)."""

from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig

from tests.conftest import build_count_graph, make_event_log


def run_with_schedule(schedules, duration=18.0):
    config = RuntimeConfig(
        checkpoint_interval=3.0, duration=duration, warmup=2.0,
        failure_at=None, seed=3, per_operator_schedules=schedules,
    )
    log = make_event_log(250.0, duration, 2, seed=3)
    job = Job(build_count_graph(), "unc", 2, {"events": log}, config)
    return job, job.run(rate=250.0)


def test_override_changes_checkpoint_cadence():
    _, base = run_with_schedule(None)
    _, tuned = run_with_schedule({"count": (9.0, 1.0)})
    base_counts = sum(
        1 for e in base.metrics.checkpoints
        if e.kind == "local" and e.instance[0] == "count"
    )
    tuned_counts = sum(
        1 for e in tuned.metrics.checkpoints
        if e.kind == "local" and e.instance[0] == "count"
    )
    assert tuned_counts < base_counts


def test_override_only_affects_named_operator():
    _, base = run_with_schedule(None)
    _, tuned = run_with_schedule({"count": (9.0, 1.0)})

    def count_for(result, op):
        return sum(1 for e in result.metrics.checkpoints
                   if e.kind == "local" and e.instance[0] == op)

    assert count_for(tuned, "src") == count_for(base, "src")


def test_override_phase_controls_first_fire():
    job, result = run_with_schedule({"count": (5.0, 4.0)}, duration=12.0)
    firsts = [
        e.started_at for e in result.metrics.checkpoints
        if e.kind == "local" and e.instance[0] == "count"
    ]
    assert firsts and min(firsts) >= 4.0


def test_exactly_once_with_custom_schedules():
    config = RuntimeConfig(
        checkpoint_interval=3.0, duration=16.0, warmup=2.0, failure_at=6.0,
        seed=3, per_operator_schedules={"count": (2.0, 0.7)},
    )
    log = make_event_log(300.0, 12.0, 3, seed=3)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    job.run()
    expected: dict[int, int] = {}
    for partition in log.partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured: dict[int, int] = {}
    for idx in range(3):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    assert measured == expected
