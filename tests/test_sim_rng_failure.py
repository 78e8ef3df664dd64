"""Unit tests for RNG streams and failure injection."""

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.failure import FailureEvent, FailureInjector
from repro.sim.rng import RngRegistry, uniform_block
from repro.sim.simulator import Simulator
from repro.workloads.columns import BLOCK_EVENTS


def test_same_seed_same_stream():
    a = RngRegistry(7).stream("x")
    b = RngRegistry(7).stream("x")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_different_names_independent():
    reg = RngRegistry(7)
    xs = [reg.stream("x").random() for _ in range(3)]
    ys = [reg.stream("y").random() for _ in range(3)]
    assert xs != ys


def test_different_seeds_differ():
    a = RngRegistry(1).stream("x").random()
    b = RngRegistry(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    reg = RngRegistry(7)
    assert reg.stream("x") is reg.stream("x")


def test_adding_stream_does_not_perturb_existing():
    reg1 = RngRegistry(7)
    first = reg1.stream("x")
    values_before = [first.random() for _ in range(3)]

    reg2 = RngRegistry(7)
    reg2.stream("unrelated")  # new consumer added first
    second = reg2.stream("x")
    values_after = [second.random() for _ in range(3)]
    assert values_before == values_after


#: the Mersenne state is 624 words = 312 draws: block lengths around the
#: refill, around a generator block, and spanning several of either
_BLOCK_LENGTHS = (0, 1, 2, 3, 311, 312, 313, 625, 937,
                  BLOCK_EVENTS - 1, BLOCK_EVENTS, BLOCK_EVENTS + 1,
                  3 * BLOCK_EVENTS + 5)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32), prior=st.integers(0, 700),
       n=st.one_of(st.sampled_from(_BLOCK_LENGTHS), st.integers(0, 1500)))
def test_uniform_block_is_the_next_n_draws_of_the_stream(seed, prior, n):
    """``uniform_block(stream, n)`` returns what ``n`` calls of
    ``stream.random()`` would, bit for bit, and leaves the stream where
    they would: the next ``random()``, the next ``randrange`` and the
    whole state agree with a twin that made the calls one by one."""
    blocked = RngRegistry(seed).stream("x")
    twin = RngRegistry(seed).stream("x")
    for _ in range(prior):
        assert blocked.random() == twin.random()
    block = uniform_block(blocked, n)
    assert block.dtype == numpy.float64 and block.shape == (n,)
    assert block.tolist() == [twin.random() for _ in range(n)]
    assert blocked.getstate() == twin.getstate()
    assert blocked.random() == twin.random()
    assert blocked.randrange(10**6) == twin.randrange(10**6)
    assert blocked.getstate() == twin.getstate()


def test_uniform_block_rejects_a_negative_length():
    stream = RngRegistry(7).stream("x")
    before = stream.getstate()
    with pytest.raises(ValueError):
        uniform_block(stream, -1)
    assert stream.getstate() == before


def test_failure_fires_at_planned_time():
    sim = Simulator()
    events = []
    injector = FailureInjector(
        sim, [FailureEvent(at=5.0, worker_indices=(2,))], detection_delay=1.0,
        on_fail=lambda w: events.append(("fail", sim.now, w)),
        on_detect=lambda w: events.append(("detect", sim.now, w)),
    )
    injector.arm()
    sim.run_until(10.0)
    assert events == [("fail", 5.0, 2), ("detect", 6.0, 2)]


def test_failure_record_populated():
    sim = Simulator()
    injector = FailureInjector(
        sim, [FailureEvent(at=3.0, worker_indices=(1,))], detection_delay=0.5,
        on_fail=lambda w: None, on_detect=lambda w: None,
    )
    injector.arm()
    sim.run_until(10.0)
    assert injector.records[-1].failed_at == 3.0
    assert injector.records[-1].detected_at == 3.5
    assert injector.records[-1].worker_index == 1


def test_repeated_kills_accumulate_records():
    """Regression: a second kill must append a record, not overwrite."""
    sim = Simulator()
    injector = FailureInjector(
        sim,
        [FailureEvent(at=2.0, worker_indices=(0,)),
         FailureEvent(at=6.0, worker_indices=(1,))],
        detection_delay=1.0,
        on_fail=lambda w: None, on_detect=lambda w: None,
    )
    injector.arm()
    sim.run_until(10.0)
    assert [(r.failed_at, r.detected_at, r.worker_index)
            for r in injector.records] == [(2.0, 3.0, 0), (6.0, 7.0, 1)]


def test_correlated_event_records_every_worker():
    sim = Simulator()
    killed = []
    injector = FailureInjector(
        sim, [FailureEvent(at=4.0, worker_indices=(1, 2, 3))],
        detection_delay=0.5,
        on_fail=killed.append, on_detect=lambda w: None,
    )
    injector.arm()
    sim.run_until(10.0)
    assert killed == [1, 2, 3]
    assert [r.worker_index for r in injector.records] == [1, 2, 3]
    assert all(r.failed_at == 4.0 and r.detected_at == 4.5
               for r in injector.records)


def test_detection_delay_factor_slows_detection():
    sim = Simulator()
    injector = FailureInjector(
        sim, [FailureEvent(at=2.0, detection_delay_factor=3.0)],
        detection_delay=1.0,
        on_fail=lambda w: None, on_detect=lambda w: None,
    )
    injector.arm()
    sim.run_until(10.0)
    assert injector.records[-1].detected_at == 5.0


def test_unarmed_injector_does_nothing():
    sim = Simulator()
    injector = FailureInjector(
        sim, [FailureEvent(at=1.0)], detection_delay=1.0,
        on_fail=lambda w: (_ for _ in ()).throw(AssertionError),
        on_detect=lambda w: None,
    )
    sim.run_until(5.0)
    assert injector.records == []
