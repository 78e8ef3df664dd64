"""The generators' array kernels against per-event reference loops.

Each oracle below is a test-local copy of a per-event formula the input
generators are held to: the shaped-arrival timestamp loop, the three
per-row hot-key picks (uniform, ``drift``, ``trace``), ``randrange``
as the rejection loop over ``getrandbits`` that the cyclic generator
writes inline, and the cyclic generator's whole row loop with its live
sets as plain lists.  Production output must equal the oracle's by
``==`` — the same floats and ints, not approximately — because every
generated log is pinned byte for byte (``tests/data/inputs_golden.json``).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import (
    DriftArrivals,
    RateSegment,
    TraceArrivals,
    emit_timestamps,
    parse_arrival,
)

from tests.test_arrivals import ANY_SPEC, FIXTURE_TRACE, RATES, SEEDS, UNTILS


# --------------------------------------------------------------------- #
# Shaped timestamps
# --------------------------------------------------------------------- #

def emit_timestamps_oracle(segments):
    """Event ``k`` where the cumulative intensity crosses ``k + 0.5``,
    one closed-form root per event, with a running target."""
    target = 0.5
    done = 0.0
    for seg in segments:
        span = seg.t1 - seg.t0
        if span <= 0.0:
            continue
        end = done + seg.area
        slope = (seg.r1 - seg.r0) / span
        while target <= end:
            need = target - done
            if abs(slope) < 1e-12:
                x = need / seg.r0 if seg.r0 > 0.0 else span
            else:
                disc = seg.r0 * seg.r0 + 2.0 * slope * need
                x = (math.sqrt(disc if disc > 0.0 else 0.0) - seg.r0) / slope
            yield seg.t0 + (x if x < span else span)
            target += 1.0
        done = end


def _stream(seed):
    return RngRegistry(seed).stream("arrivals.oracle")


def _assert_same_floats(actual, expected):
    assert actual == expected
    assert all(type(t) is float for t in actual)


@settings(max_examples=250, deadline=None)
@given(spec=ANY_SPEC, rate=RATES, until=UNTILS, seed=SEEDS)
def test_shaped_timestamps_equal_the_per_event_loop(spec, rate, until, seed):
    process = parse_arrival(spec)
    segments = process.segments(rate, until, _stream(seed))
    expected = list(emit_timestamps_oracle(segments))
    _assert_same_floats(list(emit_timestamps(segments)), expected)
    if process.kind not in ("steady", "drift"):  # the closed-form kinds
        _assert_same_floats(
            list(process.timestamps(rate, until, _stream(seed))), expected)


_RATE = st.one_of(st.just(0.0), st.floats(0.0, 400.0))
_SPAN = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
#: r1 - r0: a ramp, exactly flat, or flat within the 1e-12 slope cut-off
_DELTA = st.one_of(st.floats(-400.0, 400.0), st.just(0.0),
                   st.floats(-1e-12, 1e-12))


@st.composite
def _raw_segments(draw):
    segments, t = [], draw(st.floats(0.0, 3.0))
    for _ in range(draw(st.integers(0, 8))):
        span, r0 = draw(_SPAN), draw(_RATE)
        r1 = max(0.0, r0 + draw(_DELTA))
        segments.append(RateSegment(t, t + span, r0, r1))
        t += span
    return segments


@settings(max_examples=400, deadline=None)
@given(segments=_raw_segments())
def test_any_profile_emits_the_per_event_loops_floats(segments):
    _assert_same_floats(list(emit_timestamps(segments)),
                        list(emit_timestamps_oracle(segments)))


@pytest.mark.parametrize("segments", [
    # a zero-rate segment between two busy ones, and a ramp up from zero
    [RateSegment(0.0, 2.0, 3.0, 3.0), RateSegment(2.0, 5.0, 0.0, 0.0),
     RateSegment(5.0, 7.0, 0.0, 4.0)],
    # slopes below the 1e-12 cut-off: the flat root, and a zero rate with
    # a slope too small to count (no event, the ``span`` arm)
    [RateSegment(0.0, 3.0, 2.0, 2.0 + 1e-13),
     RateSegment(3.0, 4.0, 0.0, 5e-13), RateSegment(4.0, 6.0, 1.5, 1.5)],
    # segments ending exactly on a half-integer of the cumulative count:
    # the event at ``k + 0.5 == end`` belongs to the segment that ends there
    [RateSegment(0.0, 1.0, 2.5, 2.5), RateSegment(1.0, 2.0, 1.0, 1.0),
     RateSegment(2.0, 4.0, 0.5, 1.5)],
    # zero and negative spans are skipped, whatever their rates
    [RateSegment(0.0, 0.0, 9.0, 9.0), RateSegment(0.0, 2.0, 1.0, 3.0),
     RateSegment(2.0, 1.0, 5.0, 5.0), RateSegment(2.0, 3.0, 2.0, 0.0)],
    [],
])
def test_hand_profiles_emit_the_per_event_loops_floats(segments):
    expected = list(emit_timestamps_oracle(segments))
    _assert_same_floats(list(emit_timestamps(segments)), expected)


def test_an_event_on_a_segments_closing_half_integer_is_emitted_there():
    segments = [RateSegment(0.0, 1.0, 2.5, 2.5), RateSegment(1.0, 2.0, 1.0, 1.0)]
    stamps = list(emit_timestamps(segments))
    assert len(stamps) == 4  # k + 0.5 = 0.5, 1.5, 2.5 | 3.5
    assert stamps[2] == 1.0 and stamps[3] == 2.0


# --------------------------------------------------------------------- #
# Hot keys
# --------------------------------------------------------------------- #

def uniform_pick(t, u, hot_keys, parallelism):
    """The legacy pick: uniform over the hot keys, all on worker 0."""
    return hot_keys[int(u * len(hot_keys))]


def drift_pick(period, zipf, t, u, hot_keys, parallelism):
    """A Zipf rank by a linear scan, rotated and worker-shifted by phase."""
    num_hot = len(hot_keys)
    phase = (t / period) % 1.0
    raw = [(i + 1) ** -zipf for i in range(num_hot)]
    total = sum(raw)
    acc = 0.0
    rank = num_hot - 1
    for i, w in enumerate(raw):
        acc += w / total
        if u < acc:
            rank = i
            break
    rot = int(phase * num_hot) % num_hot
    shift = int(phase * parallelism) % parallelism
    return hot_keys[(rank + rot) % num_hot] + shift


def trace_pick(knots, t, u, hot_keys, parallelism):
    """The uniform pick, shifted by the last ``hot_key`` at or before t."""
    shift = 0
    for knot_t, _, hot in knots:
        if knot_t > t:
            break
        if hot is not None:
            shift = hot % parallelism
    return hot_keys[int(u * len(hot_keys))] + shift


def production_picks(process, times, draws, hot_keys, parallelism):
    """What the generators place on a block's hot rows: one column."""
    picks = process.pick_hot_keys(list(times), numpy.array(draws, dtype=float),
                                  hot_keys, parallelism)
    assert all(type(key) is int for key in picks)
    return picks


_TIMES = st.lists(st.floats(0.0, 100.0), min_size=1, max_size=40)
_PICKS = st.floats(0.0, 1.0, exclude_max=True)


def _rows(draw):
    times = draw(_TIMES)
    draws = draw(st.lists(_PICKS, min_size=len(times), max_size=len(times)))
    parallelism = draw(st.integers(1, 16))
    hot_keys = [parallelism * (i + 1) for i in range(draw(st.integers(1, 8)))]
    return times, draws, hot_keys, parallelism


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_uniform_hot_keys_equal_the_per_row_pick(data):
    times, draws, hot_keys, parallelism = _rows(data.draw)
    expected = [uniform_pick(t, u, hot_keys, parallelism)
                for t, u in zip(times, draws)]
    process = parse_arrival(data.draw(st.sampled_from(
        ["steady", "diurnal:period=5", "flash:at=2", "mmpp"])))
    assert production_picks(process, times, draws, hot_keys,
                            parallelism) == expected


@settings(max_examples=300, deadline=None)
@given(data=st.data(), period=st.floats(0.5, 40.0), zipf=st.floats(0.0, 3.0))
def test_drift_hot_keys_equal_the_per_row_pick(data, period, zipf):
    times, draws, hot_keys, parallelism = _rows(data.draw)
    # a draw on or next to a cumulative Zipf weight, where ``u < acc``
    # and the sorted search must agree on the boundary
    raw = [(i + 1) ** -zipf for i in range(len(hot_keys))]
    acc, edges = 0.0, []
    for w in raw:
        acc += w / sum(raw)
        edges += [acc, math.nextafter(acc, 0.0), math.nextafter(acc, 1.0)]
    draws = draws + [u for u in edges if 0.0 <= u < 1.0]
    times = times + [times[0]] * (len(draws) - len(times))
    expected = [drift_pick(period, zipf, t, u, hot_keys, parallelism)
                for t, u in zip(times, draws)]
    process = DriftArrivals(period=period, zipf=zipf)
    assert production_picks(process, times, draws, hot_keys,
                            parallelism) == expected


@st.composite
def _trace_rows(draw):
    gaps = draw(st.lists(st.floats(0.1, 5.0), min_size=1, max_size=6))
    hots = draw(st.lists(st.one_of(st.none(), st.integers(-20, 20)),
                         min_size=len(gaps), max_size=len(gaps)))
    t, knots = draw(st.floats(0.0, 2.0)), []
    for gap, hot in zip(gaps, hots):
        knots.append((t, 1.0, hot))
        t += gap
    return knots


@settings(max_examples=300, deadline=None)
@given(data=st.data(), knots=_trace_rows())
def test_trace_hot_keys_equal_the_per_row_pick(data, knots, tmp_path_factory):
    times, draws, hot_keys, parallelism = _rows(data.draw)
    times = times + [knot_t for knot_t, _, _ in knots]  # on a knot exactly
    draws = draws + [0.5] * len(knots)
    path = Path(tmp_path_factory.mktemp("trace")) / "hot.csv"
    path.write_text("".join(
        f"{t!r},{rate!r},{'' if hot is None else hot}\n"
        for t, rate, hot in knots), encoding="utf-8")
    process = TraceArrivals(str(path))
    assert process.knots == knots
    expected = [trace_pick(knots, t, u, hot_keys, parallelism)
                for t, u in zip(times, draws)]
    assert production_picks(process, times, draws, hot_keys,
                            parallelism) == expected


def test_fixture_trace_hot_keys_equal_the_per_row_pick():
    process = parse_arrival(f"trace:{FIXTURE_TRACE}")
    times = [0.0, 1.0, 3.99, 4.0, 7.5, 8.0, 9.0, 12.0, 13.0, 16.0, 30.0]
    for parallelism in (1, 2, 4, 5):
        hot_keys = [parallelism, 2 * parallelism]
        for u in (0.0, 0.49, 0.5, 0.99):
            draws = [u] * len(times)
            expected = [trace_pick(process.knots, t, u, hot_keys, parallelism)
                        for t in times]
            assert production_picks(process, times, draws, hot_keys,
                                    parallelism) == expected


# --------------------------------------------------------------------- #
# randrange as an inline rejection loop
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 2**20 - 1, 2**20, 2**20 + 1,
                               10**6])
@pytest.mark.parametrize("seed", [0, 7, 13, 2**31 + 5])
def test_the_inline_rejection_loop_is_randrange(n, seed):
    """``randrange(n)`` is ``getrandbits(n.bit_length())``, redrawn while
    it is ``>= n``: the same values, and the stream left in the same
    state, so the cyclic generator may write the loop out."""
    inline = RngRegistry(seed).stream("workload.cyclic.events")
    reference = RngRegistry(seed).stream("workload.cyclic.events")
    getrandbits = inline.getrandbits
    bits = n.bit_length()
    values = []
    for _ in range(300):
        value = getrandbits(bits)
        while value >= n:
            value = getrandbits(bits)
        values.append(value)
    assert values == [reference.randrange(n) for _ in range(300)]
    assert inline.getstate() == reference.getstate()


# --------------------------------------------------------------------- #
# The cyclic row loop over plain lists
# --------------------------------------------------------------------- #

def cyclic_oracle(rate, until, seed):
    """The cyclic event mix row by row: ``randrange`` draws and the live
    links and sources as plain lists, one ``pop(i)`` per deletion.
    Returns the ``links`` and ``srcnodes`` timelines as
    ``(time, event)`` rows."""
    from repro.workloads.cyclic.generator import LinkEvent, SourceEvent

    # the paper's mix over 1M nodes (Section VII-B); a source deletion
    # takes the remaining 5 %
    p_new_link, p_new_source, p_del_link = 0.60, 0.15, 0.20
    num_nodes = 1_000_000
    rng = RngRegistry(seed).stream("workload.cyclic.events")
    live_links, live_sources, links, sources = [], [], [], []
    for k in range(int(rate * until)):
        t = (k + 0.5) / rate
        roll = rng.random()
        if p_new_link <= roll < p_new_link + p_new_source:
            node = rng.randrange(num_nodes)
            live_sources.append(node)
            sources.append((t, SourceEvent(node, True)))
        elif (p_new_link + p_new_source <= roll
              < p_new_link + p_new_source + p_del_link
              and live_links):
            src, dst = live_links.pop(rng.randrange(len(live_links)))
            links.append((t, LinkEvent(src, dst, False)))
        elif roll >= p_new_link + p_new_source and live_sources:
            node = live_sources.pop(rng.randrange(len(live_sources)))
            sources.append((t, SourceEvent(node, False)))
        else:
            src = rng.randrange(num_nodes)
            dst = rng.randrange(num_nodes)
            live_links.append((src, dst))
            links.append((t, LinkEvent(src, dst, True)))
    return links, sources


def _timeline(log):
    """A round-robin log's rows back on its one global timeline."""
    parts = [list(zip(p.times, p.payloads)) for p in log.partitions]
    return [row for k in range(len(log))
            for row in [parts[k % len(parts)][k // len(parts)]]]


@pytest.mark.parametrize("seed, until", [(7, 2.0), (13, 9.0), (2**31 + 5, 20.0)])
def test_the_live_sets_delete_what_a_list_pop_deletes(seed, until):
    """The row loop's draws, deletions and columns give the reference
    loop's two timelines, across seeds and horizons."""
    from repro.workloads.cyclic import CyclicGenerator

    links, sources = CyclicGenerator(3, seed=seed).logs(600.0, until)
    assert (_timeline(links), _timeline(sources)) == cyclic_oracle(600.0, until, seed)
