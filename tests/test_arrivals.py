"""Property and grammar tests for the arrival-process layer.

The hypothesis suite checks, for every process class, the invariants the
generators and the run cache lean on: the rate integral matches the
emitted event count, timestamps are nondecreasing and in-window, equal
seeds give equal sequences (and RNG-free processes ignore the stream
entirely), segments tile the window with nonnegative rates, drift
conserves total hot-key mass, and trace replay interpolates exactly at
its knots.  The grammar table mirrors the ``--failure-scenario`` parsing
tests: every valid spec parses to the right kind, every malformed spec
fails with an actionable message.
"""

import math
import pathlib
from collections import Counter

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngRegistry
from repro.workloads.arrivals import (
    DiurnalArrivals,
    ARRIVALS,
    DriftArrivals,
    FlashArrivals,
    MmppArrivals,
    SteadyArrivals,
    TraceArrivals,
    parse_arrival,
)

FIXTURE_TRACE = str(pathlib.Path(__file__).parent / "data" / "arrival_trace.csv")


# --------------------------------------------------------------------- #
# Spec strategies — one builder per process class
# --------------------------------------------------------------------- #

def _diurnal_specs():
    return st.builds(
        lambda period, amp, phase: f"diurnal:period={period},amp={amp},phase={phase}",
        st.floats(1.0, 40.0), st.floats(0.0, 1.0), st.floats(0.0, 6.28),
    )


def _flash_specs():
    @st.composite
    def build(draw):
        ramp = draw(st.floats(0.0, 3.0))
        hold = draw(st.floats(0.0, 4.0))
        mag = draw(st.floats(1.1, 6.0))
        n = draw(st.integers(1, 3))
        width = 2.0 * ramp + hold
        at, cursor = [], 0.0
        for _ in range(n):
            cursor += draw(st.floats(0.5, 8.0))
            at.append(cursor)
            cursor += width
        ats = ";".join(f"{a}" for a in at)
        return f"flash:at={ats},mag={mag},ramp={ramp},hold={hold}"
    return build()


def _mmpp_specs():
    @st.composite
    def build(draw):
        low = draw(st.floats(0.0, 2.0))
        high = low + draw(st.floats(0.1, 4.0))
        dl = draw(st.floats(0.5, 20.0))
        dh = draw(st.floats(0.5, 20.0))
        return f"mmpp:low={low},high={high},dwell_low={dl},dwell_high={dh}"
    return build()


def _drift_specs():
    return st.builds(
        lambda period, zipf: f"drift:period={period},zipf={zipf}",
        st.floats(1.0, 40.0), st.floats(0.0, 3.0),
    )


ANY_SPEC = st.one_of(
    st.just("steady"), _diurnal_specs(), _flash_specs(), _mmpp_specs(),
    _drift_specs(), st.just(f"trace:{FIXTURE_TRACE}"),
)
RATES = st.floats(20.0, 200.0)
UNTILS = st.floats(2.0, 20.0)
SEEDS = st.integers(0, 2**20)


def _stream(seed, name="arrivals.test"):
    return RngRegistry(seed).stream(name)


# --------------------------------------------------------------------- #
# Invariant 1 — rate integral ≈ emitted event count
# --------------------------------------------------------------------- #

@settings(max_examples=250, deadline=None)
@given(spec=ANY_SPEC, rate=RATES, until=UNTILS, seed=SEEDS)
def test_rate_integral_matches_event_count(spec, rate, until, seed):
    process = parse_arrival(spec)
    n = sum(1 for _ in process.timestamps(rate, until, _stream(seed)))
    lam = sum(s.area for s in process.segments(rate, until, _stream(seed)))
    assert abs(n - lam) <= 1.0 + 1e-6 * lam


# --------------------------------------------------------------------- #
# Invariant 2 — timestamps nondecreasing, inside [0, until]
# --------------------------------------------------------------------- #

@settings(max_examples=250, deadline=None)
@given(spec=ANY_SPEC, rate=RATES, until=UNTILS, seed=SEEDS)
def test_timestamps_nondecreasing_and_in_window(spec, rate, until, seed):
    process = parse_arrival(spec)
    ts = list(process.timestamps(rate, until, _stream(seed)))
    assert all(b >= a for a, b in zip(ts, ts[1:]))
    if ts:
        assert ts[0] >= 0.0
        assert ts[-1] <= until * (1.0 + 1e-9)


# --------------------------------------------------------------------- #
# Invariant 3 — determinism: same spec + same seed => same sequence
# --------------------------------------------------------------------- #

@settings(max_examples=250, deadline=None)
@given(spec=ANY_SPEC, rate=RATES, until=UNTILS, seed=SEEDS)
def test_determinism_across_fresh_streams(spec, rate, until, seed):
    first = list(parse_arrival(spec).timestamps(rate, until, _stream(seed)))
    second = list(parse_arrival(spec).timestamps(rate, until, _stream(seed)))
    assert first == second


@settings(max_examples=250, deadline=None)
@given(spec=ANY_SPEC, rate=RATES, until=UNTILS,
       seed_a=SEEDS, seed_b=SEEDS)
def test_rng_free_processes_ignore_the_stream(spec, rate, until, seed_a, seed_b):
    process = parse_arrival(spec)
    if process.kind == "mmpp":
        return  # only mmpp consumes draws; its dependence is the point
    a = list(process.timestamps(rate, until, _stream(seed_a)))
    b = list(process.timestamps(rate, until, _stream(seed_b, "other.name")))
    assert a == b


# --------------------------------------------------------------------- #
# Invariant 4 — segments tile [0, until] with nonnegative rates
# --------------------------------------------------------------------- #

@settings(max_examples=250, deadline=None)
@given(spec=ANY_SPEC, rate=RATES, until=UNTILS, seed=SEEDS)
def test_segments_tile_window_with_nonnegative_rates(spec, rate, until, seed):
    segments = parse_arrival(spec).segments(rate, until, _stream(seed))
    assert segments
    assert segments[0].t0 == 0.0
    assert math.isclose(segments[-1].t1, until, rel_tol=1e-9)
    for prev, nxt in zip(segments, segments[1:]):
        assert math.isclose(prev.t1, nxt.t0, rel_tol=1e-9, abs_tol=1e-9)
    assert all(s.r0 >= 0.0 and s.r1 >= 0.0 for s in segments)


# --------------------------------------------------------------------- #
# Invariant 5 — drift conserves total hot-key mass
# --------------------------------------------------------------------- #

@settings(max_examples=250, deadline=None)
@given(period=st.floats(1.0, 40.0), zipf=st.floats(0.0, 3.0),
       t_a=st.floats(0.0, 100.0), t_b=st.floats(0.0, 100.0),
       num_hot=st.integers(1, 8))
def test_drift_preserves_total_key_mass(period, zipf, t_a, t_b, num_hot):
    process = DriftArrivals(period=period, zipf=zipf)
    assert math.isclose(sum(process._zipf_weights(num_hot)), 1.0,
                        rel_tol=1e-9)
    # the same evenly spread draws at two instants: the profile rotates
    # and shifts which keys are hot, but every key's share of the draws
    # is some rank's share at both, so the multiset of shares is equal
    hot_keys = [4 * (i + 1) for i in range(num_hot)]
    draws = (numpy.arange(1000) + 0.5) / 1000
    shares = [sorted(Counter(process.pick_hot_keys(
        [t] * len(draws), draws, hot_keys, 4)).values()) for t in (t_a, t_b)]
    assert shares[0] == shares[1]
    assert sum(shares[0]) == len(draws)


@settings(max_examples=250, deadline=None)
@given(period=st.floats(1.0, 40.0), zipf=st.floats(0.0, 3.0),
       t=st.floats(0.0, 100.0), u=st.floats(0.0, 0.999999),
       parallelism=st.integers(1, 8))
def test_drift_hot_keys_stay_in_the_shifted_key_set(period, zipf, t, u, parallelism):
    process = DriftArrivals(period=period, zipf=zipf)
    hot_keys = [parallelism * (i + 1) for i in range(3)]
    [key] = process.pick_hot_keys([t], numpy.array([u]), hot_keys,
                                  parallelism)
    assert key in set(process.hot_seed_keys(hot_keys, parallelism))
    # the shift never leaves the worker address space
    assert 0 <= key % parallelism < parallelism


# --------------------------------------------------------------------- #
# Invariant 6 — trace interpolation exact at knots
# --------------------------------------------------------------------- #

def _rate_at(segments, t):
    """Oracle: the instantaneous rate at ``t``, linear inside a segment;
    past the last segment the last rate holds (trace replay semantics)."""
    for seg in segments:
        if t < seg.t1:
            if t <= seg.t0:
                return seg.r0
            return seg.r0 + (seg.r1 - seg.r0) * (t - seg.t0) / (seg.t1 - seg.t0)
    return segments[-1].r1


@settings(max_examples=250, deadline=None)
@given(rate=RATES,
       knots=st.lists(st.tuples(st.floats(0.1, 10.0), st.floats(0.0, 5.0)),
                      min_size=1, max_size=6))
def test_trace_interpolation_exact_at_knots(rate, knots):
    times, cursor = [], 0.0
    for gap, _ in knots:
        cursor += gap
        times.append(cursor)
    rows = [(t, r) for t, (_, r) in zip(times, knots)]
    path = pathlib.Path("/tmp") / "hyp_trace.csv"
    path.write_text(
        "\n".join(f"{t},{r}" for t, r in rows) + "\n", encoding="utf-8")
    process = TraceArrivals(str(path))
    until = times[-1] + 5.0
    segments = process.segments(rate, until, None)
    for t, r in rows:
        assert _rate_at(segments, t) == pytest.approx(rate * r, rel=1e-9)
    # beyond the last knot the final rate holds
    assert _rate_at(segments, until) == pytest.approx(rate * rows[-1][1])


def test_trace_fixture_replays_with_hot_shifts():
    process = parse_arrival(f"trace:{FIXTURE_TRACE}")
    hot_keys = [4, 8]
    # knots: hot 0 at t=0, carried through t=4 (blank), 1 at t=8, 3 at t=12
    # (3 % 4 == 3)
    assert process.pick_hot_keys([1.0, 9.0, 13.0, 13.0],
                                 numpy.array([0.0, 0.0, 0.0, 0.9]),
                                 hot_keys, 4) == [4, 5, 7, 11]
    seeds = process.hot_seed_keys(hot_keys, 4)
    assert set(seeds) == {4 + s for s in range(4)} | {8 + s for s in range(4)}


# --------------------------------------------------------------------- #
# Grammar — valid/invalid spec table (mirrors the failure-scenario tests)
# --------------------------------------------------------------------- #

VALID_SPECS = [
    ("steady", "steady"),
    ("steady:", "steady"),
    ("diurnal:period=60", "diurnal"),
    ("diurnal:period=60,amp=0.6,phase=1.0", "diurnal"),
    ("flash:at=20", "flash"),
    ("flash:at=20;45,mag=4,ramp=2,hold=4,base=0.8", "flash"),
    ("mmpp:", "mmpp"),
    ("mmpp:low=0.5,high=2.5,dwell_low=8,dwell_high=4", "mmpp"),
    ("drift:period=30", "drift"),
    ("drift:period=30,zipf=1.5", "drift"),
    (f"trace:{FIXTURE_TRACE}", "trace"),
    ("Diurnal:period=60", "diurnal"),  # kinds are case-insensitive
]


@pytest.mark.parametrize("spec,kind", VALID_SPECS)
def test_valid_specs_parse(spec, kind):
    process = parse_arrival(spec)
    assert process.kind == kind
    assert process.describe()


INVALID_SPECS = [
    ("poisson:rate=3", "unknown arrival process"),
    ("", "unknown arrival process"),
    ("diurnal", "requires parameter 'period'"),
    ("diurnal:amp=0.5", "requires parameter 'period'"),
    ("diurnal:period=0", "period must be > 0"),
    ("diurnal:period=60,amp=1.5", "amp must be in"),
    ("diurnal:period=sixty", "must be a number"),
    ("diurnal:period=60,unknown=1", "unknown parameter"),
    ("diurnal:period", "expected key=value"),
    ("flash:mag=3", "requires parameter 'at'"),
    ("flash:at=10,mag=1", "mag must be > 1"),
    ("flash:at=10;11,ramp=2,hold=4", "overlap"),
    ("flash:at=ten", "';'-separated numbers"),
    ("flash:at=10,ramp=-1", "must be >= 0"),
    ("mmpp:low=2,high=1", "must exceed"),
    ("mmpp:low=0,high=0", "not both be zero"),
    ("mmpp:dwell_low=0", "dwell times must be > 0"),
    ("drift:period=-5", "period must be > 0"),
    ("drift:period=5,zipf=-1", "zipf must be >= 0"),
    ("trace:", "needs a file path"),
    ("trace:/nonexistent/nope.csv", "cannot read"),
]


@pytest.mark.parametrize("spec,message", INVALID_SPECS)
def test_invalid_specs_raise_actionable_errors(spec, message):
    with pytest.raises(ValueError, match=message):
        parse_arrival(spec)


#: accepted until the two grammars shared a parser: a NaN ran to the end
#: with 0 sink records, ``dwell_low=inf`` was a ZeroDivisionError out of
#: ``random.expovariate``, a repeated parameter kept its last value
NEWLY_REJECTED = [
    ("diurnal:period=nan", "'period' must be a finite number, got 'nan'"),
    ("diurnal:period=inf", "'period' must be a finite number, got 'inf'"),
    ("diurnal:period=60,phase=inf", "'phase' must be a finite number"),
    ("flash:at=nan", "'at' must be ';'-separated numbers, and each must be "
                     "a finite number, got 'nan'"),
    ("flash:at=10,mag=inf", "'mag' must be a finite number, got 'inf'"),
    ("mmpp:low=nan", "'low' must be a finite number, got 'nan'"),
    ("mmpp:dwell_low=inf", "'dwell_low' must be a finite number, got 'inf'"),
    ("drift:period=nan", "'period' must be a finite number, got 'nan'"),
    ("drift:period=30,zipf=nan", "'zipf' must be a finite number, got 'nan'"),
    ("diurnal:period=60,period=30", "parameter 'period' given twice"),
]


@pytest.mark.parametrize("spec, names", NEWLY_REJECTED)
def test_a_rejection_is_framed_and_names_parameter_and_token(spec, names):
    with pytest.raises(ValueError) as raised:
        parse_arrival(spec)
    message = str(raised.value)
    assert message.startswith(f"malformed arrival process {spec!r}: ")
    assert names in message


#: one row per spec string: the class and ``describe()`` text of an
#: accepted spec, ``None`` for a rejected one.  Every spec of the two
#: tables above is here, with every spec string DESIGN.md section 17,
#: README, the CLI help, ``figures.py``, ``perfbench/workloads.py`` and
#: the examples spell; a rewrite of the parser may move messages, never a
#: row of this table
ARRIVAL_VERDICTS = [
    ("steady", SteadyArrivals, "steady (constant rate)"),
    ("steady:", SteadyArrivals, "steady (constant rate)"),
    ("diurnal:period=60", DiurnalArrivals,
     "diurnal (period=60s, amp=0.5, phase=0)"),
    ("Diurnal:period=60", DiurnalArrivals,
     "diurnal (period=60s, amp=0.5, phase=0)"),
    ("diurnal:period=60,", DiurnalArrivals,
     "diurnal (period=60s, amp=0.5, phase=0)"),
    ("diurnal:period=60,amp=0.6", DiurnalArrivals,
     "diurnal (period=60s, amp=0.6, phase=0)"),
    ("diurnal:period=60,amp=0.6,phase=1.0", DiurnalArrivals,
     "diurnal (period=60s, amp=0.6, phase=1)"),
    ("diurnal:period=5,amp=0.5", DiurnalArrivals,
     "diurnal (period=5s, amp=0.5, phase=0)"),
    ("flash:at=20", FlashArrivals,
     "flash (spikes at 20, x4, ramp=2s, hold=4s)"),
    ("flash:at=20;45,mag=4,ramp=2,hold=4", FlashArrivals,
     "flash (spikes at 20;45, x4, ramp=2s, hold=4s)"),
    ("flash:at=20;45,mag=4,ramp=2,hold=4,base=0.8", FlashArrivals,
     "flash (spikes at 20;45, x4, ramp=2s, hold=4s)"),
    ("flash:at=20;;45", FlashArrivals,
     "flash (spikes at 20;45, x4, ramp=2s, hold=4s)"),
    ("flash:at=12;30,mag=4", FlashArrivals,
     "flash (spikes at 12;30, x4, ramp=2s, hold=4s)"),
    ("flash:at=2;5,mag=3,ramp=0.5,hold=1", FlashArrivals,
     "flash (spikes at 2;5, x3, ramp=0.5s, hold=1s)"),
    ("flash:at=3;7,mag=3,ramp=0.5,hold=1", FlashArrivals,
     "flash (spikes at 3;7, x3, ramp=0.5s, hold=1s)"),
    ("flash:at=10;22,mag=4,ramp=1.5,hold=3", FlashArrivals,
     "flash (spikes at 10;22, x4, ramp=1.5s, hold=3s)"),
    ("flash:at=4,mag=3,ramp=1,hold=2", FlashArrivals,
     "flash (spikes at 4, x3, ramp=1s, hold=2s)"),
    ("mmpp", MmppArrivals, "mmpp (low=x0.5/8s, high=x2.5/4s)"),
    ("mmpp:", MmppArrivals, "mmpp (low=x0.5/8s, high=x2.5/4s)"),
    ("mmpp:low=0.5,high=2.5", MmppArrivals,
     "mmpp (low=x0.5/8s, high=x2.5/4s)"),
    ("mmpp:low=0.5,high=2.5,dwell_low=8,dwell_high=4", MmppArrivals,
     "mmpp (low=x0.5/8s, high=x2.5/4s)"),
    ("mmpp:low=0.5,high=2,dwell_low=2,dwell_high=1", MmppArrivals,
     "mmpp (low=x0.5/2s, high=x2/1s)"),
    ("drift:period=30", DriftArrivals, "drift (period=30s, zipf=1)"),
    ("drift:period=30,zipf=1.0", DriftArrivals, "drift (period=30s, zipf=1)"),
    ("drift:period=30,zipf=1.5", DriftArrivals,
     "drift (period=30s, zipf=1.5)"),
    ("drift:period=4,zipf=1.2", DriftArrivals, "drift (period=4s, zipf=1.2)"),
    (f"trace:{FIXTURE_TRACE}", TraceArrivals,
     f"trace ({FIXTURE_TRACE}, 5 knots, crc32=73bc92ce)"),
] + [(spec, None, None) for spec, _ in INVALID_SPECS] + [
    (spec, None, None) for spec in (
        "bursty:rate=2", "drift", "steady:x=1", "flash:at=;",
        "diurnal:=3", "diurnal:period=",
    )] + [(spec, None, None) for spec, _ in NEWLY_REJECTED]


@pytest.mark.parametrize("spec, cls, text", ARRIVAL_VERDICTS)
def test_arrival_grammar_verdicts(spec, cls, text):
    if cls is None:
        with pytest.raises(ValueError):
            parse_arrival(spec)
        return
    process = parse_arrival(spec)
    assert type(process) is cls
    assert process.describe() == text


@pytest.mark.parametrize("content,message", [
    ("", "no data rows"),
    ("timestamp,rate\n", "no data rows"),
    ("0,1.0\n0,2.0\n", "strictly increasing"),
    ("5,1.0\n3,2.0\n", "strictly increasing"),
    ("0,-1.0\n", "negative rate"),
    ("-2,1.0\n", "negative timestamp"),
    ("0,1.0,2,3\n", "expected 'timestamp,rate"),
    ("0\n", "expected 'timestamp,rate"),
    ("zero,1.0\n", "non-numeric"),
    ("0,fast\n", "non-numeric"),
    ("0,1.0,hot\n", "non-numeric"),
])
def test_malformed_trace_csv_raises_with_line_numbers(tmp_path, content, message):
    path = tmp_path / "bad.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        parse_arrival(f"trace:{path}")


def test_unknown_kind_error_lists_known_kinds():
    with pytest.raises(ValueError) as err:
        parse_arrival("bursty:rate=2")
    for kind in ARRIVALS:
        assert kind in str(err.value)
    assert "trace:<path>" in str(err.value)
