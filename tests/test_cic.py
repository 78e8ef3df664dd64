"""Tests of the communication-induced protocol (CIC / HMNR-style)."""

import pytest

from repro.core.cic import CicState, CommunicationInducedProtocol, PiggybackSnapshot
from repro.dataflow.runtime import Job

from tests.conftest import run_count_job


# --------------------------------------------------------------------- #
# CicState unit tests
# --------------------------------------------------------------------- #

def make_state(ordinal=0, n=4):
    return CicState(ordinal=ordinal, n=n)


def test_initial_state_zeroed():
    s = make_state()
    assert s.lc == 0
    assert s.ckpt == [0, 0, 0, 0]
    assert not any(s.taken)
    assert s.sent_to == set()


def test_checkpoint_advances_clock_and_resets_interval():
    s = make_state(ordinal=1)
    s.sent_to.add(2)
    s.taken[3] = True
    s.on_checkpoint()
    assert s.lc == 1
    assert s.ckpt[1] == 1
    assert s.known_lc[1] == 1
    assert s.sent_to == set()
    assert not any(s.taken)


def test_snapshot_reflects_current_vectors_and_is_cached():
    s = make_state()
    snap1 = s.snapshot()
    snap2 = s.snapshot()
    assert snap1 is snap2  # cached until invalidated
    s.on_checkpoint()
    snap3 = s.snapshot()
    assert snap3 is not snap1
    assert snap3.lc == 1


def test_greater_derived_from_known_lc():
    snap = PiggybackSnapshot(lc=5, ckpt=(0,), known_lc=(3,), taken=(False,))
    assert snap.greater(0)
    snap2 = PiggybackSnapshot(lc=5, ckpt=(0,), known_lc=(5,), taken=(False,))
    assert not snap2.greater(0)


def test_capture_restore_roundtrip():
    s = make_state(ordinal=2)
    s.on_checkpoint()
    s.sent_to.add(0)
    captured = s.capture()
    s.on_checkpoint()
    s.restore(captured)
    assert s.lc == 1
    assert s.sent_to == {0}
    assert s.ckpt[2] == 1


# --------------------------------------------------------------------- #
# Forced-checkpoint predicate
# --------------------------------------------------------------------- #

class _FakeProto(CommunicationInducedProtocol):
    def __init__(self):  # bypass Job wiring; only _must_force is exercised
        pass


def _piggy(lc, known_lc, taken=None, n=4):
    return PiggybackSnapshot(
        lc=lc, ckpt=tuple([0] * n),
        known_lc=tuple(known_lc),
        taken=tuple(taken or [False] * n),
    )


def test_no_force_when_clock_not_ahead():
    proto = _FakeProto()
    s = make_state()
    s.sent_to.add(1)
    assert not proto._must_force(s, _piggy(lc=0, known_lc=[0] * 4))


def test_no_force_when_nothing_sent():
    proto = _FakeProto()
    s = make_state()
    assert not proto._must_force(s, _piggy(lc=9, known_lc=[0] * 4))


def test_force_when_sender_ahead_of_my_target():
    proto = _FakeProto()
    s = make_state()
    s.sent_to.add(2)
    # sender's clock 3 is ahead of what it knows about instance 2 (=1)
    piggy = _piggy(lc=3, known_lc=[3, 3, 1, 3])
    assert proto._must_force(s, piggy)


def test_no_force_when_knowledge_propagated():
    proto = _FakeProto()
    s = make_state()
    s.sent_to.add(2)
    piggy = _piggy(lc=3, known_lc=[3, 3, 3, 3])
    assert not proto._must_force(s, piggy)


def test_force_on_taken_signal():
    proto = _FakeProto()
    s = make_state(ordinal=1)
    s.sent_to.add(2)
    piggy = _piggy(lc=3, known_lc=[3, 3, 3, 3], taken=[False, True, False, False])
    assert proto._must_force(s, piggy)


# --------------------------------------------------------------------- #
# Merge logic
# --------------------------------------------------------------------- #

def test_merge_takes_elementwise_maximum():
    proto = _FakeProto()
    s = make_state()
    piggy = _piggy(lc=4, known_lc=[4, 1, 2, 0])
    proto._merge(s, (0, 0, 0), piggy)
    assert s.lc == 4
    assert s.known_lc[0] == 4 and s.known_lc[2] == 2


def test_merge_same_snapshot_skipped_per_channel():
    proto = _FakeProto()
    s = make_state()
    piggy = _piggy(lc=4, known_lc=[0] * 4)
    proto._merge(s, (0, 0, 0), piggy)
    s.known_lc[1] = 99  # would be clobbered only if merged again
    proto._merge(s, (0, 0, 0), piggy)
    assert s.known_lc[1] == 99


# --------------------------------------------------------------------- #
# End-to-end behaviour
# --------------------------------------------------------------------- #

def test_piggyback_inflates_protocol_bytes():
    _, unc = run_count_job("unc", failure_at=None)
    _, cic = run_count_job("cic", failure_at=None)
    assert cic.metrics.overhead_ratio() > unc.metrics.overhead_ratio() + 0.3


def test_piggyback_scales_with_instance_count(cost_model):
    small = cost_model.cic_piggyback_bytes(6)
    large = cost_model.cic_piggyback_bytes(600)
    assert large - small == pytest.approx(594 * cost_model.cic_per_instance_bytes, abs=1)


def test_cic_checkpoints_include_forced_plus_local():
    _, result = run_count_job("cic", failure_at=None, duration=16.0)
    kinds = {e.kind for e in result.metrics.checkpoints}
    assert "local" in kinds
    # forced checkpoints may or may not trigger on this tiny topology, but
    # the counter must be consistent with the events
    forced_events = sum(1 for e in result.metrics.checkpoints if e.kind == "forced")
    assert forced_events == result.metrics.forced_checkpoints


def test_exactly_once_state_after_failure():
    job, result = run_count_job("cic", parallelism=3, rate=300.0,
                                duration=16.0, failure_at=5.0)
    expected: dict[int, int] = {}
    for partition in job.inputs["events"].partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured: dict[int, int] = {}
    for idx in range(job.parallelism):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    assert measured == expected


def test_clock_monotone_in_checkpoint_metadata(monkeypatch):
    """The Lamport clock CIC stores with each checkpoint (the payload's
    ``extra["lc"]``) never goes back, and counts that checkpoint."""
    clocks: dict = {}
    capture = Job.capture_checkpoint

    def recording_capture(job, instance, kind, round_id):
        meta, payload = capture(job, instance, kind, round_id)
        clocks.setdefault(instance.key, []).append(payload["extra"]["lc"])
        return meta, payload

    monkeypatch.setattr(Job, "capture_checkpoint", recording_capture)
    job, _ = run_count_job("cic", failure_at=None, duration=16.0)
    assert set(clocks) == set(job.instance_keys())
    for key in job.instance_keys():
        assert len(clocks[key]) == len(job.registry.with_initial(key)) - 1
        assert clocks[key] == sorted(clocks[key])
        assert all(c >= 1 for c in clocks[key])
