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


def injected(events, detection_delay, arm=True):
    """``(what, when, worker)`` of every ``on_fail`` / ``on_detect`` call
    an injector makes for ``events`` by t = 10."""
    sim = Simulator()
    calls = []
    injector = FailureInjector(
        sim, events, detection_delay=detection_delay,
        on_fail=lambda w: calls.append(("fail", sim.now, w)),
        on_detect=lambda w: calls.append(("detect", sim.now, w)),
    )
    if arm:
        injector.arm()
    sim.run_until(10.0)
    return calls


def test_failure_fires_at_planned_time():
    assert injected([FailureEvent(at=5.0, worker_indices=(2,))], 1.0) == [
        ("fail", 5.0, 2), ("detect", 6.0, 2)]


def test_failure_record_populated():
    assert injected([FailureEvent(at=3.0, worker_indices=(1,))], 0.5) == [
        ("fail", 3.0, 1), ("detect", 3.5, 1)]


def test_repeated_kills_accumulate_records():
    """Regression: a second kill is a second fail and detect, not a
    replacement of the first."""
    assert injected([FailureEvent(at=2.0, worker_indices=(0,)),
                     FailureEvent(at=6.0, worker_indices=(1,))], 1.0) == [
        ("fail", 2.0, 0), ("detect", 3.0, 0),
        ("fail", 6.0, 1), ("detect", 7.0, 1)]


def test_correlated_event_records_every_worker():
    assert injected([FailureEvent(at=4.0, worker_indices=(1, 2, 3))], 0.5) == [
        ("fail", 4.0, 1), ("fail", 4.0, 2), ("fail", 4.0, 3),
        ("detect", 4.5, 1), ("detect", 4.5, 2), ("detect", 4.5, 3)]


def test_detection_delay_factor_slows_detection():
    assert injected([FailureEvent(at=2.0, detection_delay_factor=3.0)], 1.0) == [
        ("fail", 2.0, 0), ("detect", 5.0, 0)]


def test_unarmed_injector_does_nothing():
    assert injected([FailureEvent(at=1.0)], 1.0, arm=False) == []
