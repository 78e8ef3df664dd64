"""Unit tests for the event queue primitives.

An event is its heap entry, ``[time, seq, fn, args]``, pushed by a
scheduling call of the :class:`Simulator` that owns the queue; the tests
schedule through ``Simulator.schedule_at`` and read the queue's ``pop``
sequence.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventQueue
from repro.sim.simulator import Simulator

TIME, SEQ, FN, ARGS = range(4)


def _queue():
    """A fresh simulator and its queue."""
    sim = Simulator()
    return sim, sim._queue


def _newest(q):
    """The entry the last scheduling call pushed."""
    return next(entry for entry in q._heap if entry[SEQ] == q._seq - 1)


def test_push_pop_orders_by_time():
    sim, q = _queue()
    order = []
    sim.schedule_at(3.0, order.append, "c")
    sim.schedule_at(1.0, order.append, "a")
    sim.schedule_at(2.0, order.append, "b")
    while (h := q.pop()) is not None:
        h[FN](*h[ARGS])
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim, q = _queue()
    sim.schedule_at(1.0, lambda: None)
    first = _newest(q)
    sim.schedule_at(1.0, lambda: None)
    second = _newest(q)
    assert q.pop() is first
    assert q.pop() is second


def test_len_counts_entries():
    sim, q = _queue()
    assert len(q) == 0
    sim.schedule_at(1.0, lambda: None)
    sim.schedule_at(2.0, lambda: None)
    assert len(q) == 2


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None
    assert EventQueue().pop(5.0) is None


def test_pop_at_exactly_the_limit_returns_the_event():
    """The ``run_until`` contract: events at ``t_end`` execute."""
    sim, q = _queue()
    sim.schedule_at(1.0, lambda: None)
    h = _newest(q)
    assert q.pop(1.0) is h


def test_pop_beyond_limit_does_not_remove():
    sim, q = _queue()
    sim.schedule_at(1.0, lambda: None)
    h = _newest(q)
    assert q.pop(0.5) is None
    assert q.pop(0.5) is None
    assert len(q) == 1
    assert q.pop() is h


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
             max_size=48),
    st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
             max_size=8),
)
def test_pop_limit_never_returns_a_later_event(plan, limits):
    """Property: draining under a rising sequence of limits yields only
    events no later than the limit in force, in (time, seq) order, and
    leaves exactly the events beyond the last limit."""
    sim, q = _queue()
    scheduled = []
    for time in plan:
        sim.schedule_at(time, lambda: None)
        scheduled.append((time, q._seq - 1))
    popped = []
    for limit in sorted(limits):
        while (h := q.pop(limit)) is not None:
            assert h[TIME] <= limit
            popped.append((h[TIME], h[SEQ]))
    reach = max(limits, default=-1.0)
    assert popped == sorted(key for key in scheduled if key[0] <= reach)
    assert len(q) == len(scheduled) - len(popped)


def test_clear_drops_everything():
    sim, q = _queue()
    sim.schedule_at(1.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.pop() is None


def test_handle_ordering_operator():
    """Entries order by (time, seq) and never compare their callbacks."""
    sim, q = _queue()
    sim.schedule_at(1.0, lambda: None)
    a = _newest(q)
    sim.schedule_at(1.0, lambda: None)
    b = _newest(q)
    sim.schedule_at(0.5, lambda: None)
    c = _newest(q)
    assert c < a < b


def test_args_are_preserved():
    sim, q = _queue()
    seen = []
    sim.schedule_at(1.0, lambda a, b: seen.append((a, b)), 1, 2)
    h = q.pop()
    h[FN](*h[ARGS])
    assert seen == [(1, 2)]


def test_many_events_stay_sorted():
    sim, q = _queue()
    import random

    rng = random.Random(0)
    times = [rng.random() for _ in range(500)]
    for t in times:
        sim.schedule_at(t, lambda: None)
    popped = []
    while (h := q.pop()) is not None:
        popped.append(h[TIME])
    assert popped == sorted(times)
