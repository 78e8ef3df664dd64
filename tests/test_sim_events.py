"""Unit tests for the event queue primitives.

A handle is the heap entry itself, ``[time, seq, fn, args]``; it is
cancelled through the queue that holds it.
"""


from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.events import EventHandle, EventQueue

TIME, SEQ, FN, ARGS = range(4)


def test_push_pop_orders_by_time():
    q = EventQueue()
    order = []
    q.push(3.0, order.append, ("c",))
    q.push(1.0, order.append, ("a",))
    q.push(2.0, order.append, ("b",))
    while (h := q.pop()) is not None:
        h[FN](*h[ARGS])
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    q = EventQueue()
    first = q.push(1.0, lambda: None)
    second = q.push(1.0, lambda: None)
    assert q.pop() is first
    assert q.pop() is second


def test_len_counts_entries():
    q = EventQueue()
    assert len(q) == 0
    q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    assert len(q) == 2


def test_pop_empty_returns_none():
    assert EventQueue().pop() is None
    assert EventQueue().pop(5.0) is None


def test_cancelled_events_are_skipped():
    q = EventQueue()
    h1 = q.push(1.0, lambda: None)
    h2 = q.push(2.0, lambda: None)
    q.cancel(h1)
    assert q.pop() is h2
    assert q.pop() is None


def test_cancel_all_leaves_queue_empty_on_pop():
    q = EventQueue()
    handles = [q.push(float(i), lambda: None) for i in range(5)]
    for h in handles:
        q.cancel(h)
    assert q.pop() is None


def test_pop_limit_skips_cancelled_heads():
    q = EventQueue()
    h1 = q.push(1.0, lambda: None)
    h2 = q.push(2.0, lambda: None)
    q.cancel(h1)
    assert q.pop(1.5) is None  # the only live event lies after the limit
    assert len(q) == 1
    assert q.pop(2.0) is h2


def test_pop_at_exactly_the_limit_returns_the_event():
    """The ``run_until`` contract: events at ``t_end`` execute."""
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    assert q.pop(1.0) is h


def test_pop_beyond_limit_does_not_remove():
    q = EventQueue()
    h = q.push(1.0, lambda: None)
    assert q.pop(0.5) is None
    assert q.pop(0.5) is None
    assert len(q) == 1
    assert q.pop() is h


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
                       st.booleans()), max_size=48),
    st.lists(st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
             max_size=8),
)
def test_pop_limit_never_returns_a_later_event(plan, limits):
    """Property: draining under a rising sequence of limits yields only
    live events, none later than the limit in force, in (time, seq) order,
    and leaves exactly the live events beyond the last limit."""
    q = EventQueue()
    live = []
    for time, cancel in plan:
        h = q.push(time, lambda: None)
        if cancel:
            q.cancel(h)
        else:
            live.append((time, h[SEQ]))
    popped = []
    for limit in sorted(limits):
        while (h := q.pop(limit)) is not None:
            assert h[FN] is not None and h[TIME] <= limit
            popped.append((h[TIME], h[SEQ]))
    reach = max(limits, default=-1.0)
    assert popped == sorted(key for key in live if key[0] <= reach)
    assert len(q) == len(live) - len(popped)


def test_clear_drops_everything():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.clear()
    assert len(q) == 0
    assert q.pop() is None


def test_handle_ordering_operator():
    """Entries order by (time, seq) and never compare their callbacks."""
    q = EventQueue()
    a = q.push(1.0, lambda: None)
    b = q.push(1.0, lambda: None)
    c = q.push(0.5, lambda: None)
    assert c < a < b


def test_args_are_preserved():
    q = EventQueue()
    seen = []
    q.push(1.0, lambda a, b: seen.append((a, b)), (1, 2))
    h = q.pop()
    h[FN](*h[ARGS])
    assert seen == [(1, 2)]


def test_many_events_stay_sorted():
    q = EventQueue()
    import random

    rng = random.Random(0)
    times = [rng.random() for _ in range(500)]
    for t in times:
        q.push(t, lambda: None)
    popped = []
    while (h := q.pop()) is not None:
        popped.append(h[TIME])
    assert popped == sorted(times)


# --------------------------------------------------------------------- #
# Threshold-triggered compaction
# --------------------------------------------------------------------- #

class _EagerQueue(EventQueue):
    """EventQueue with the compaction floor lowered so small property-test
    workloads actually cross it."""

    COMPACT_MIN_CANCELLED = 4


def _drain(queue: EventQueue) -> list[int]:
    out = []
    while (h := queue.pop()) is not None:
        out.append(h[SEQ])
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
              st.booleans()),
    max_size=64,
))
def test_compaction_never_changes_live_event_order(plan):
    """Property: under any push/cancel sequence, a compacting queue pops
    exactly the live events a never-compacting queue pops, in the same
    order, and its live ``len()`` tracks the reference throughout."""
    compacting, reference = _EagerQueue(), EventQueue()
    live_reference: list[EventHandle] = []
    for time, cancel in plan:
        a = compacting.push(time, lambda: None)
        b = reference.push(time, lambda: None)
        if cancel:
            compacting.cancel(a)
            reference.cancel(b)
        else:
            live_reference.append(b)
        assert len(compacting) == len(live_reference)
    assert _drain(compacting) == _drain(reference)
    assert len(compacting) == 0


def test_compaction_fires_and_shrinks_the_heap():
    q = _EagerQueue()
    handles = [q.push(float(i), lambda: None) for i in range(16)]
    for h in handles[:12]:
        q.cancel(h)
    # 12 cancelled >= floor(4) and >= half of 16: the heap was rebuilt
    assert len(q._heap) == 4
    assert q._cancelled == 0
    assert len(q) == 4
    assert [h[SEQ] for h in iter(q.pop, None)] == [12, 13, 14, 15]


def test_double_cancel_counts_once():
    q = _EagerQueue()
    keep = q.push(1.0, lambda: None)
    victim = q.push(2.0, lambda: None)
    q.cancel(victim)
    q.cancel(victim)  # idempotent: debt counted once, no double decrement
    assert q._cancelled == 1
    assert len(q) == 1
    assert q.pop() is keep
    assert q.pop() is None
