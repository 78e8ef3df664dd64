"""Arrival processes: virtual time -> instantaneous rate -> timestamps.

The paper's evaluation drives every query at a constant rate; production
load *moves* (DESIGN.md section 17).  This module decouples *when events
arrive* from *what the events are*: an :class:`ArrivalProcess` maps
virtual time to an instantaneous rate (a piecewise-linear intensity) and
emits per-event timestamps by inverting the cumulative intensity, while
the generators keep owning payloads, keys and partitioning.  Processes
that need randomness draw exclusively from the :class:`~repro.sim.rng.
RngRegistry` stream handed to them (repro-lint RL002), so two runs with
the same seed and spec produce byte-identical inputs.

Five generative processes plus trace replay — ``steady`` (the default),
``diurnal``, ``flash``, ``mmpp``, ``drift``, ``trace:<path>`` — built from
``--arrival`` spec strings; the grammar is the :data:`ARRIVALS` table at
the end of this module (DESIGN.md section 17), read by the parser it
shares with ``--failure-scenario``.

Rates in specs are dimensionless multipliers of the run's ``--rate``
(the *mean* for steady/diurnal, the *baseline* for flash), so one spec
composes with any query's capacity.  ``steady`` reproduces the legacy
generators bit-for-bit: same timestamp formula, same draw sequence, same
hot-key placement — the differential suite in
``tests/test_arrivals_differential.py`` pins that equivalence.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy

from repro.sim.specs import REQUIRED, Kinds, number, numbers, parse_spec

if TYPE_CHECKING:  # annotation-only: draws flow through RngRegistry streams
    import random

    from numpy.typing import NDArray

#: piecewise-linear knots per diurnal period (error of the chord vs the
#: sinusoid is O(1/KNOTS^2) in rate — far below the half-event tolerance
#: the property suite checks)
_DIURNAL_KNOTS_PER_PERIOD = 64


@dataclass(frozen=True, slots=True)
class RateSegment:
    """Rate varies linearly from ``r0`` at ``t0`` to ``r1`` at ``t1``."""

    t0: float
    t1: float
    r0: float
    r1: float

    @property
    def area(self) -> float:
        """Events expected inside the segment (trapezoid integral)."""
        return 0.5 * (self.r0 + self.r1) * (self.t1 - self.t0)


def emit_timestamps(segments: list[RateSegment]) -> Iterator[float]:
    """Event times by inverting the cumulative intensity Lambda(t).

    Event ``k`` is emitted where Lambda crosses ``k + 0.5`` — the
    midpoint convention of the legacy steady generators, so a constant
    segment reproduces their ``(k + 0.5) / rate`` spacing.  Lambda is
    piecewise-quadratic, so each crossing is a closed-form root.  The
    roots of one segment are one array expression, taken a segment at a
    time (DESIGN.md section 17).
    """
    return chain.from_iterable(_segment_timestamps(segments))


def _segment_timestamps(segments: list[RateSegment]) -> Iterator[list[float]]:
    """Per segment, the times of the crossings ``k + 0.5 <= end`` in it.

    The per-event form is ``need = (k + 0.5) - done``, then the root of
    ``0.5*slope*x^2 + r0*x = need``, clipped to the segment.  Each array
    operation below is that form's scalar operation, with its operands in
    its order, applied elementwise: it rounds once, as the scalar does,
    so the floats are the per-event loop's (held to a copy of that loop
    in ``tests/test_generator_oracles.py``).
    """
    first = 0  # the next event's k; ``k + 0.5`` is exact in float64
    done = 0.0
    for seg in segments:
        span = seg.t1 - seg.t0
        if span <= 0.0:
            continue
        end = done + seg.area
        if first + 0.5 <= end:  # false for a NaN end, as the loop's test
            # every k below floor(end) crosses; floor(end) itself does
            # when its half does
            stop = math.floor(end)
            if stop + 0.5 <= end:
                stop += 1
            need = (numpy.arange(first, stop) + 0.5) - done
            slope = (seg.r1 - seg.r0) / span
            if abs(slope) < 1e-12:
                x = need / seg.r0 if seg.r0 > 0.0 else numpy.full_like(
                    need, span)
            else:
                disc = seg.r0 * seg.r0 + 2.0 * slope * need
                x = (numpy.sqrt(numpy.where(disc > 0.0, disc, 0.0))
                     - seg.r0) / slope
            yield (seg.t0 + numpy.where(x < span, x, span)).tolist()
            first = stop
        done = end


def check_rate_and_horizon(rate: float, until: float) -> None:
    """Reject a rate or horizon that is not a finite number above zero.

    The guard of every generator entry point: NaN fails both comparisons,
    so it is rejected with the negatives, zero and infinity — before
    ``int(rate * until)`` can die on it.
    """
    if not (0 < rate < math.inf and 0 < until < math.inf):
        raise ValueError("rate and until must be positive")


def _steady_timestamps(mean_rate: float, until: float) -> Iterator[float]:
    """The legacy NexMark closed form, bit-for-bit.

    ``int(rate * until)`` events at ``(k + 0.5) * (1.0 / rate)`` — kept
    as a dedicated fast path because the generic intensity inversion
    would round the count and the product differently (1-ulp drift), and
    the differential suite demands byte identity.
    """
    inv = 1.0 / mean_rate
    # one array expression, not a generator: the input generators consume
    # every timestamp anyway.  Same operands in the same order as the
    # scalar form — (k + 0.5) is exact, the product rounds once — so the
    # same floats; ``tolist`` hands back Python floats
    stamps: list[float] = (
        (numpy.arange(int(mean_rate * until)) + 0.5) * inv).tolist()
    return iter(stamps)


def _uniform_picks(draws: NDArray[numpy.float64],
                   hot_keys: list[int]) -> NDArray[numpy.int64]:
    """``hot_keys[int(u * len(hot_keys))]`` for a column of draws ``u``.

    The same float64 product, truncated toward zero as ``int()`` does.
    """
    return numpy.asarray(hot_keys)[
        (draws * len(hot_keys)).astype(numpy.int64)]


class ArrivalProcess:
    """Base arrival process: shaped timestamps plus hot-key placement.

    Subclasses implement :meth:`segments` (the piecewise-linear rate
    profile) and may override :meth:`timestamps` (exact closed forms)
    and :meth:`pick_hot_keys` / :meth:`hot_seed_keys` (key-popularity
    drift).  Only :class:`MmppArrivals` draws from the ``rng`` stream.
    """

    #: spec-grammar kind (``steady``, ``diurnal``, ...)
    kind = "steady"

    def segments(self, mean_rate: float, until: float,
                 rng: random.Random) -> list[RateSegment]:
        """Piecewise-linear rate profile covering ``[0, until]``."""
        raise NotImplementedError

    def timestamps(self, mean_rate: float, until: float,
                   rng: random.Random) -> Iterator[float]:
        """Per-event timestamps in ``[0, until]``, nondecreasing."""
        return emit_timestamps(self.segments(mean_rate, until, rng))

    def pick_hot_keys(self, times: Sequence[float],
                      draws: NDArray[numpy.float64], hot_keys: list[int],
                      parallelism: int) -> list[int]:
        """The hot key of each skewed event of a block, as one column.

        ``times`` and ``draws`` are the skewed events' arrival times and
        the one uniform draw the generator made for each; the default
        reproduces the legacy generators exactly: a uniform pick over
        ``hot_keys``, all routed to worker 0.
        """
        return _uniform_picks(draws, hot_keys).tolist()

    def hot_seed_keys(self, hot_keys: list[int],
                      parallelism: int) -> list[int]:
        """Every key :meth:`pick_hot_keys` may return (join pre-seeding)."""
        return list(hot_keys)

    def describe(self) -> str:
        """One-line human description for the CLI banner."""
        return self.kind


class SteadyArrivals(ArrivalProcess):
    """Constant rate — the legacy generators' behavior, byte-for-byte."""

    kind = "steady"

    def segments(self, mean_rate: float, until: float,
                 rng: random.Random) -> list[RateSegment]:
        """One flat segment at the mean rate."""
        return [RateSegment(0.0, until, mean_rate, mean_rate)]

    def timestamps(self, mean_rate: float, until: float,
                   rng: random.Random) -> Iterator[float]:
        """The legacy closed form (see :func:`_steady_timestamps`)."""
        return _steady_timestamps(mean_rate, until)

    def describe(self) -> str:
        """One-line human description for the CLI banner."""
        return "steady (constant rate)"


class DiurnalArrivals(ArrivalProcess):
    """Sinusoidal day/night cycle: ``mean * (1 + amp*sin(2*pi*t/period))``."""

    kind = "diurnal"

    def __init__(self, period: float, amp: float = 0.5,
                 phase: float = 0.0) -> None:
        if period <= 0.0:
            raise ValueError(f"diurnal period must be > 0, got {period}")
        if not 0.0 <= amp <= 1.0:
            raise ValueError(f"diurnal amp must be in [0, 1], got {amp}")
        self.period = period
        self.amp = amp
        self.phase = phase

    def _rate(self, mean_rate: float, t: float) -> float:
        omega = 2.0 * math.pi / self.period
        return mean_rate * (1.0 + self.amp * math.sin(omega * t + self.phase))

    def segments(self, mean_rate: float, until: float,
                 rng: random.Random) -> list[RateSegment]:
        """Chords of the sinusoid, ``_DIURNAL_KNOTS_PER_PERIOD`` per cycle."""
        step = self.period / _DIURNAL_KNOTS_PER_PERIOD
        out: list[RateSegment] = []
        t = 0.0
        while t < until:
            t_next = min(t + step, until)
            out.append(RateSegment(t, t_next, self._rate(mean_rate, t),
                                   self._rate(mean_rate, t_next)))
            t = t_next
        return out

    def describe(self) -> str:
        """One-line human description for the CLI banner."""
        return (f"diurnal (period={self.period:g}s, amp={self.amp:g}, "
                f"phase={self.phase:g})")


class FlashArrivals(ArrivalProcess):
    """Baseline rate with scheduled flash-crowd spikes.

    Each spike at ``t=a`` ramps linearly from ``base`` to ``base*mag``
    over ``ramp`` seconds, holds for ``hold`` seconds, then ramps back —
    a trapezoid occupying ``[a, a + 2*ramp + hold]``.
    """

    kind = "flash"

    def __init__(self, at: tuple[float, ...], mag: float = 4.0,
                 ramp: float = 2.0, hold: float = 4.0,
                 base: float = 1.0) -> None:
        if not at:
            raise ValueError("flash needs at least one spike time in 'at'")
        if mag <= 1.0:
            raise ValueError(f"flash mag must be > 1 (a spike), got {mag}")
        if ramp < 0.0 or hold < 0.0:
            raise ValueError("flash ramp and hold must be >= 0")
        if base <= 0.0:
            raise ValueError(f"flash base must be > 0, got {base}")
        spikes = tuple(sorted(at))
        width = 2.0 * ramp + hold
        for prev, nxt in zip(spikes, spikes[1:]):
            if nxt < prev + width:
                raise ValueError(
                    f"flash spikes at {prev:g} and {nxt:g} overlap "
                    f"(each spans {width:g}s)")
        self.at = spikes
        self.mag = mag
        self.ramp = ramp
        self.hold = hold
        self.base = base

    def segments(self, mean_rate: float, until: float,
                 rng: random.Random) -> list[RateSegment]:
        """Flat baseline interleaved with trapezoid spikes."""
        low = mean_rate * self.base
        high = mean_rate * self.base * self.mag
        out: list[RateSegment] = []
        cursor = 0.0

        def _add(t0: float, t1: float, r0: float, r1: float) -> None:
            lo, hi = max(t0, 0.0), min(t1, until)
            if hi <= lo:
                return
            span = t1 - t0
            if span > 0.0:
                slope = (r1 - r0) / span
                r0 = r0 + slope * (lo - t0)
                r1 = r0 + slope * (hi - lo)
            out.append(RateSegment(lo, hi, r0, r1))

        for a in self.at:
            if a >= until:
                break
            _add(cursor, a, low, low)
            _add(a, a + self.ramp, low, high)
            _add(a + self.ramp, a + self.ramp + self.hold, high, high)
            _add(a + self.ramp + self.hold, a + 2.0 * self.ramp + self.hold,
                 high, low)
            cursor = a + 2.0 * self.ramp + self.hold
        _add(cursor, until, low, low)
        return out

    def describe(self) -> str:
        """One-line human description for the CLI banner."""
        at = ";".join(f"{a:g}" for a in self.at)
        return (f"flash (spikes at {at}, x{self.mag:g}, "
                f"ramp={self.ramp:g}s, hold={self.hold:g}s)")


class MmppArrivals(ArrivalProcess):
    """2-state Markov-modulated Poisson bursts.

    The modulating chain alternates a low-rate and a high-rate state
    with exponentially distributed dwell times (drawn from the arrival
    RNG stream); within a state arrivals keep the midpoint spacing, so
    the process is deterministic given the seed.
    """

    kind = "mmpp"

    def __init__(self, low: float = 0.5, high: float = 2.5,
                 dwell_low: float = 8.0, dwell_high: float = 4.0) -> None:
        if low < 0.0 or high < 0.0:
            raise ValueError("mmpp rates must be >= 0")
        if low == 0.0 and high == 0.0:
            raise ValueError("mmpp rates must not both be zero")
        if high <= low:
            raise ValueError(
                f"mmpp high ({high}) must exceed low ({low})")
        if dwell_low <= 0.0 or dwell_high <= 0.0:
            raise ValueError("mmpp dwell times must be > 0")
        self.low = low
        self.high = high
        self.dwell_low = dwell_low
        self.dwell_high = dwell_high

    def segments(self, mean_rate: float, until: float,
                 rng: random.Random) -> list[RateSegment]:
        """Piecewise-constant segments following the modulating chain."""
        out: list[RateSegment] = []
        t = 0.0
        in_high = False
        while t < until:
            mult = self.high if in_high else self.low
            mean_dwell = self.dwell_high if in_high else self.dwell_low
            dwell = rng.expovariate(1.0 / mean_dwell)
            t_next = min(t + dwell, until)
            rate = mean_rate * mult
            out.append(RateSegment(t, t_next, rate, rate))
            t = t_next
            in_high = not in_high
        return out

    def describe(self) -> str:
        """One-line human description for the CLI banner."""
        return (f"mmpp (low=x{self.low:g}/{self.dwell_low:g}s, "
                f"high=x{self.high:g}/{self.dwell_high:g}s)")


class DriftArrivals(ArrivalProcess):
    """Hot-key popularity migrating across the key space over time.

    Timing stays steady (the legacy closed form); what drifts is *which*
    keys are hot: a Zipf popularity profile over the hot ranks rotates
    one full turn per ``period``, and the hot mass simultaneously
    migrates across workers (the legacy hot keys all route to worker 0;
    drift shifts them by ``int(phase * parallelism)``).  Total hot mass
    is conserved — at any two instants the per-key weights are the same
    multiset, just placed on different keys.
    """

    kind = "drift"

    def __init__(self, period: float, zipf: float = 1.0) -> None:
        if period <= 0.0:
            raise ValueError(f"drift period must be > 0, got {period}")
        if zipf < 0.0:
            raise ValueError(f"drift zipf must be >= 0, got {zipf}")
        self.period = period
        self.zipf = zipf

    def segments(self, mean_rate: float, until: float,
                 rng: random.Random) -> list[RateSegment]:
        """One flat segment — drift shapes keys, not rate."""
        return [RateSegment(0.0, until, mean_rate, mean_rate)]

    def timestamps(self, mean_rate: float, until: float,
                   rng: random.Random) -> Iterator[float]:
        """Steady timing (the legacy closed form)."""
        return _steady_timestamps(mean_rate, until)

    def _zipf_weights(self, num_hot: int) -> list[float]:
        raw = [(i + 1) ** -self.zipf for i in range(num_hot)]
        total = sum(raw)
        return [w / total for w in raw]

    def pick_hot_keys(self, times: Sequence[float],
                      draws: NDArray[numpy.float64], hot_keys: list[int],
                      parallelism: int) -> list[int]:
        """Zipf-rank picks, rotated and shifted by the phase at each time.

        An event's rank is the first whose cumulative weight exceeds its
        draw (the last rank if none does): a sorted search over the
        running sums, added in rank order.  Phase, rotation and shift are
        the per-event float products and ``%``, elementwise.
        """
        num_hot = len(hot_keys)
        cumulative = list(accumulate(self._zipf_weights(num_hot)))
        rank = numpy.minimum(
            numpy.searchsorted(cumulative, draws, side="right"), num_hot - 1)
        phase = (numpy.asarray(times, dtype=numpy.float64) / self.period) % 1.0
        rot = (phase * num_hot).astype(numpy.int64) % num_hot
        shift = (phase * parallelism).astype(numpy.int64) % parallelism
        return (numpy.asarray(hot_keys)[(rank + rot) % num_hot]
                + shift).tolist()

    def hot_seed_keys(self, hot_keys: list[int],
                      parallelism: int) -> list[int]:
        """All worker shifts of every hot key (any may become hot)."""
        return [key + s for key in hot_keys for s in range(parallelism)]

    def describe(self) -> str:
        """One-line human description for the CLI banner."""
        return f"drift (period={self.period:g}s, zipf={self.zipf:g})"


class TraceArrivals(ArrivalProcess):
    """Replay a ``timestamp,rate[,hot_key]`` CSV with linear interpolation.

    ``rate`` is a dimensionless multiplier of the run's mean rate (so a
    trace recorded against one cluster replays against any query); the
    optional ``hot_key`` column migrates the hot-key worker shift in
    steps (the knob production cluster traces expose as "which shard is
    hot").  Between knots the rate interpolates linearly; before the
    first and after the last knot the boundary rate holds.
    """

    kind = "trace"

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self.knots = _load_trace(self.path)
        #: crc32 of the trace bytes — surfaced in :meth:`describe` so two
        #: cache entries built from different file *contents* at the same
        #: path are at least distinguishable in run banners/logs
        self.content_crc = zlib.crc32(Path(self.path).read_bytes()) & 0xFFFFFFFF

    def segments(self, mean_rate: float, until: float,
                 rng: random.Random) -> list[RateSegment]:
        """Linear interpolation between knots, flat beyond the ends."""
        knots = self.knots
        out: list[RateSegment] = []
        first_t, first_r = knots[0][0], knots[0][1]
        if first_t > 0.0:
            out.append(RateSegment(0.0, min(first_t, until),
                                   mean_rate * first_r, mean_rate * first_r))
        for (t0, r0, _), (t1, r1, _) in zip(knots, knots[1:]):
            if t0 >= until:
                break
            if t1 <= 0.0:
                continue
            lo, hi = max(t0, 0.0), min(t1, until)
            slope = (r1 - r0) / (t1 - t0)
            out.append(RateSegment(
                lo, hi,
                mean_rate * (r0 + slope * (lo - t0)),
                mean_rate * (r0 + slope * (hi - t0)),
            ))
        last_t, last_r = knots[-1][0], knots[-1][1]
        if last_t < until:
            out.append(RateSegment(max(last_t, 0.0), until,
                                   mean_rate * last_r, mean_rate * last_r))
        return out

    def pick_hot_keys(self, times: Sequence[float],
                      draws: NDArray[numpy.float64], hot_keys: list[int],
                      parallelism: int) -> list[int]:
        """Uniform hot picks, worker-shifted by the trace's hot_key column.

        An event's shift is the last ``hot_key`` given at a knot at or
        before its time (0 before any): the column carried forward, read
        at the number of knots not after the event.
        """
        shifts = [0]
        for _, _, hot in self.knots:
            shifts.append(shifts[-1] if hot is None else hot % parallelism)
        knots_by = numpy.searchsorted([t for t, _, _ in self.knots], times,
                                      side="right")
        return (_uniform_picks(draws, hot_keys)
                + numpy.asarray(shifts)[knots_by]).tolist()

    def hot_seed_keys(self, hot_keys: list[int],
                      parallelism: int) -> list[int]:
        """All worker shifts of every hot key (the trace may visit any)."""
        return [key + s for key in hot_keys for s in range(parallelism)]

    def describe(self) -> str:
        """One-line human description for the CLI banner."""
        return (f"trace ({self.path}, {len(self.knots)} knots, "
                f"crc32={self.content_crc:08x})")


def _load_trace(path: str) -> list[tuple[float, float, int | None]]:
    """Parse and validate a trace CSV into ``(t, rate, hot_key)`` knots."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"trace {path!r}: cannot read file ({exc})") from None
    knots: list[tuple[float, float, int | None]] = []
    seen_content = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if not seen_content and fields[0].lower() in ("timestamp", "t", "time"):
            seen_content = True
            continue  # optional header row (after any leading comments)
        seen_content = True
        if len(fields) not in (2, 3):
            raise ValueError(
                f"trace {path!r}: line {lineno}: expected "
                f"'timestamp,rate[,hot_key]', got {raw!r}")
        try:
            t = float(fields[0])
            rate = float(fields[1])
            hot = int(fields[2]) if len(fields) == 3 and fields[2] else None
        except ValueError:
            raise ValueError(
                f"trace {path!r}: line {lineno}: non-numeric field "
                f"in {raw!r}") from None
        if t < 0.0:
            raise ValueError(
                f"trace {path!r}: line {lineno}: negative timestamp {t:g}")
        if rate < 0.0:
            raise ValueError(
                f"trace {path!r}: line {lineno}: negative rate {rate:g}")
        if knots and t <= knots[-1][0]:
            raise ValueError(
                f"trace {path!r}: line {lineno}: timestamps must be "
                f"strictly increasing ({t:g} after {knots[-1][0]:g})")
        knots.append((t, rate, hot))
    if not knots:
        raise ValueError(f"trace {path!r}: no data rows")
    return knots


# --------------------------------------------------------------------- #
# The `--arrival` grammar (DESIGN.md section 17)
# --------------------------------------------------------------------- #

def _path(body: str) -> str:
    if not body:
        raise ValueError("trace needs a file path (trace:<path>)")
    return body


#: kind -> (constructor, parameters | positional body); rates are
#: multipliers of the run's ``--rate``
ARRIVALS: Kinds = {
    "steady": (SteadyArrivals, {}),
    "diurnal": (DiurnalArrivals,
                {"period": (number, REQUIRED), "amp": (number, 0.5),
                 "phase": (number, 0.0)}),
    "flash": (FlashArrivals,
              {"at": (numbers, REQUIRED), "mag": (number, 4.0),
               "ramp": (number, 2.0), "hold": (number, 4.0),
               "base": (number, 1.0)}),
    "mmpp": (MmppArrivals,
             {"low": (number, 0.5), "high": (number, 2.5),
              "dwell_low": (number, 8.0), "dwell_high": (number, 4.0)}),
    "drift": (DriftArrivals,
              {"period": (number, REQUIRED), "zipf": (number, 1.0)}),
    "trace": (TraceArrivals, ("<path>", _path)),
}


def parse_arrival(spec: str) -> ArrivalProcess:
    """The process an ``--arrival`` string describes (:data:`ARRIVALS`)."""
    return parse_spec("arrival process", spec, ARRIVALS)


def check_arrival(spec: str) -> None:
    """:func:`parse_arrival`'s verdict without opening a trace file (a
    request is checked when it is hashed, its inputs read when it runs)."""
    parse_spec("arrival process", spec,
               {**ARRIVALS, "trace": (str, ARRIVALS["trace"][1])})
