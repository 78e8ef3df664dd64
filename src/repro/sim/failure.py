"""Failure scenarios, injection, and the adaptive checkpoint interval.

The paper kills one worker container at second 18 of a 60-second run; a
heartbeat mechanism detects the failure and the coordinator rolls the
whole pipeline back.  Production failure behaviour is richer: failures
repeat, overlap, correlate across machines, and the checkpoint interval
should track the observed failure rate (the Young–Daly optimum) instead
of being a fixed knob.  This module models both sides (DESIGN.md
section 12):

* :class:`FailureScenario` subclasses turn a run's time horizon into a
  deterministic list of :class:`FailureEvent` kill instants — a single
  kill, a scripted multi-kill trace, seeded Poisson/MTBF-driven repeated
  failures, correlated multi-worker kills, and a slow-recovery "flaky
  node" mode;
* :class:`FailureInjector` arms those events in virtual time and models
  the (possibly slowed) detection delay; what each kill did to the job is
  the lifecycle's recovery record, not the injector's;
* :class:`AdaptiveIntervalController` retunes the checkpoint interval to
  ``sqrt(2 * MTBF * checkpoint_cost)`` from clamped EMAs of observed
  checkpoint durations and inter-failure gaps.

Determinism rules (the regression and cache tests rely on them): a
scenario draws randomness **only** from the :class:`~repro.sim.rng.RngRegistry`
stream handed to :meth:`FailureScenario.events` — never the global
``random`` module, never the wall clock — and generates its full event
list up front, so the same config always injects the same failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.sim.simulator import Simulator
from repro.sim.specs import REQUIRED, Kinds, index, number, parse_spec

if TYPE_CHECKING:  # annotation-only: scenarios draw from registry streams
    import random

    from repro.sim.costs import RuntimeConfig


@dataclass(frozen=True)
class FailureEvent:
    """One kill instant produced by a scenario (absolute virtual time)."""

    #: when the kill happens
    at: float
    #: every worker index hit at that instant (a correlated kill hits
    #: several); indices are taken modulo the live parallelism
    worker_indices: tuple[int, ...] = (0,)
    #: multiplier on the heartbeat detection delay — the flaky-node
    #: scenario's "slow recovery" knob (a wedged-but-not-dead container
    #: takes several missed heartbeats to be declared failed)
    detection_delay_factor: float = 1.0


# --------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------- #

class FailureScenario:
    """Turns a run's time horizon into a deterministic list of kills.

    A kind either scripts its kills (:attr:`scripted`) or overrides
    :meth:`events` to draw them.  Either way it obeys the determinism
    rules in the module docstring: randomness only from the ``rng``
    argument (an :class:`~repro.sim.rng.RngRegistry` stream), no wall
    clock, and the whole event list generated up front.
    """

    #: short name used by the CLI spec syntax and figure labels
    kind = "?"
    #: the kills the spec scripts, ``(offset into the measured window,
    #: worker indices)`` per instant; the random kinds script none
    scripted: tuple[tuple[float, tuple[int, ...]], ...] = ()

    def events(self, start: float, end: float,
               rng: random.Random) -> list[FailureEvent]:
        """Kill events for the horizon ``[start, end)``, sorted by time."""
        return [FailureEvent(at=start + offset, worker_indices=workers)
                for offset, workers in self.scripted]

    def describe(self) -> str:
        """One-line human-readable summary (CLI / figure output)."""
        return self.kind

    def named_workers(self) -> tuple[int, ...]:
        """Every worker index the spec names."""
        return tuple(w for _, workers in self.scripted for w in workers)

    def wrapped(self, parallelism: int) -> str:
        """``worker 9 -> 1 of 2`` for each named index beyond a deployment
        of ``parallelism`` workers (the injector takes an index modulo the
        live parallelism); empty when every index is live."""
        return ", ".join(
            f"worker {index} -> {index % parallelism} of {parallelism}"
            for index in self.named_workers() if index >= parallelism)


class SingleKillScenario(FailureScenario):
    """The paper's scenario: one kill at a fixed offset into the window."""

    kind = "single"

    def __init__(self, at: float, worker: int = 0) -> None:
        self.at = at
        self.worker = worker
        self.scripted = ((at, (worker,)),)

    def describe(self) -> str:
        """Summary naming the offset and target worker."""
        return f"single kill of worker {self.worker} at +{self.at:g}s"


class TraceScenario(FailureScenario):
    """A scripted multi-kill trace: explicit (offset, worker) pairs."""

    kind = "trace"

    def __init__(self, kills: tuple[tuple[float, int], ...]) -> None:
        if not kills:
            raise ValueError("a trace scenario needs at least one kill")
        self.kills = tuple(sorted(kills))
        self.scripted = tuple((at, (worker,)) for at, worker in self.kills)

    def describe(self) -> str:
        """Summary listing every scripted kill."""
        kills = ", ".join(f"+{at:g}s@w{w}" for at, w in self.kills)
        return f"deterministic trace: {kills}"


class PoissonScenario(FailureScenario):
    """Seeded Poisson process: exponential inter-failure gaps (MTBF).

    ``min_gap`` floors the gap between consecutive kills so every
    recovery has room to finish (detection + restart) before the next
    failure lands — without it a pathological draw could stack kills
    faster than the pipeline can ever come back up.
    """

    kind = "poisson"

    def __init__(self, mtbf: float, min_gap: float = 4.0,
                 first_offset: float | None = None) -> None:
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if min_gap < 0 or (first_offset or 0.0) < 0:  # a kill before t=0
            raise ValueError("min_gap and first_offset must be >= 0")
        self.mtbf = mtbf
        self.min_gap = min_gap
        #: offset of the earliest possible kill (default: one min_gap in,
        #: so the run checkpoints at least once before the first failure)
        self.first_offset = min_gap if first_offset is None else first_offset

    def events(self, start: float, end: float,
               rng: random.Random) -> list[FailureEvent]:
        """Exponential gaps with mean ``mtbf``, floored at ``min_gap``."""
        out: list[FailureEvent] = []
        t = start + self.first_offset + rng.expovariate(1.0 / self.mtbf)
        while t < end:
            worker = rng.randrange(1 << 16)
            out.append(FailureEvent(at=t, worker_indices=(worker,)))
            t += max(rng.expovariate(1.0 / self.mtbf), self.min_gap)
        return out

    def describe(self) -> str:
        """Summary naming the MTBF and gap floor."""
        return f"poisson failures, MTBF {self.mtbf:g}s (min gap {self.min_gap:g}s)"


class CorrelatedScenario(FailureScenario):
    """One kill instant hits ``k`` workers at once (rack/AZ failure)."""

    kind = "correlated"

    def __init__(self, at: float, k: int = 2, worker: int = 0) -> None:
        if not 1 <= k <= 1 << 16:
            raise ValueError("k must be at least 1 and at most 65536")
        self.at = at
        self.k = k
        self.worker = worker
        # one instant, ``k`` consecutive worker indices
        self.scripted = ((at, tuple(range(worker, worker + k))),)

    def describe(self) -> str:
        """Summary naming the blast radius."""
        return (f"correlated kill of {self.k} workers "
                f"(w{self.worker}..) at +{self.at:g}s")


class FlakyNodeScenario(FailureScenario):
    """One node fails repeatedly and is slow to be declared dead.

    Models a half-broken container: the same worker index dies over and
    over (exponential gaps, like :class:`PoissonScenario` but pinned to
    one victim) and each detection takes ``slowdown`` times the normal
    heartbeat delay — the "it's not dead, it's just slow" gray-failure
    mode that stretches every recovery.
    """

    kind = "flaky"

    def __init__(self, worker: int, mtbf: float, slowdown: float = 2.0,
                 min_gap: float = 4.0) -> None:
        if mtbf <= 0:
            raise ValueError("mtbf must be positive")
        if slowdown < 1.0:
            raise ValueError("slowdown must be >= 1 (it stretches detection)")
        self.worker = worker
        self.mtbf = mtbf
        self.slowdown = slowdown
        self.min_gap = min_gap

    def named_workers(self) -> tuple[int, ...]:
        """The victim."""
        return (self.worker,)

    def events(self, start: float, end: float,
               rng: random.Random) -> list[FailureEvent]:
        """Repeated kills of one worker with slowed detection."""
        out: list[FailureEvent] = []
        t = start + max(self.min_gap, rng.expovariate(1.0 / self.mtbf))
        while t < end:
            out.append(FailureEvent(
                at=t, worker_indices=(self.worker,),
                detection_delay_factor=self.slowdown,
            ))
            t += max(rng.expovariate(1.0 / self.mtbf),
                     self.min_gap * self.slowdown)
        return out

    def describe(self) -> str:
        """Summary naming the victim, MTBF and detection slowdown."""
        return (f"flaky worker {self.worker}: MTBF {self.mtbf:g}s, "
                f"{self.slowdown:g}x slower detection")


# --------------------------------------------------------------------- #
# The `--failure-scenario` grammar (DESIGN.md section 12)
# --------------------------------------------------------------------- #

def _kills(body: str) -> tuple[tuple[float, int], ...]:
    """``5@0;13@1``: ';'-separated ``at[@worker]`` kills (default worker 0)."""
    kills = []
    for token in filter(None, map(str.strip, body.split(";"))):
        at, named, worker = map(str.strip, token.partition("@"))
        if named and not worker:
            raise ValueError(f"kill {token!r} names no worker after '@'")
        try:
            kills.append((number(at), index(worker or "0")))
        except ValueError as exc:
            raise ValueError(f"kill {token!r}: {exc}") from None
    return tuple(kills)


#: kind -> (constructor, parameters | positional body); offsets are
#: seconds into the measured window
SCENARIOS: Kinds = {
    "single": (SingleKillScenario,
               {"at": (number, REQUIRED), "worker": (index, 0)}),
    "trace": (TraceScenario, ("at[@worker];at[@worker];…", _kills)),
    "poisson": (PoissonScenario,
                {"mtbf": (number, REQUIRED), "min_gap": (number, 4.0),
                 "first_offset": (number, None)}),
    "correlated": (CorrelatedScenario,
                   {"at": (number, REQUIRED), "k": (index, 2),
                    "worker": (index, 0)}),
    "flaky": (FlakyNodeScenario,
              {"worker": (index, 0), "mtbf": (number, REQUIRED),
               "slowdown": (number, 2.0), "min_gap": (number, 4.0)}),
}


def parse_scenario(spec: str) -> FailureScenario:
    """The scenario a ``--failure-scenario`` string describes."""
    return parse_spec("failure scenario", spec, SCENARIOS)


def scenario_from_config(config: RuntimeConfig) -> FailureScenario | None:
    """The scenario a :class:`~repro.sim.costs.RuntimeConfig` asks for.

    ``failure_scenario`` (a spec string) wins; otherwise
    ``failure_at``/``failure_worker`` name a single kill; otherwise None
    (no failures).
    """
    if config.failure_scenario:
        return parse_scenario(config.failure_scenario)
    if config.failure_at is None:
        return None
    return SingleKillScenario(at=config.failure_at,
                              worker=config.failure_worker)


# --------------------------------------------------------------------- #
# Injection
# --------------------------------------------------------------------- #

class FailureInjector:
    """Arms a scenario's kill events and models their detection.

    ``on_fail(worker_index)`` runs at each failure instant (the worker
    stops processing and its in-flight messages are lost); ``on_detect``
    runs ``detection_delay * event.detection_delay_factor`` later, once
    per worker the event killed, and normally starts the recovery
    procedure.
    """

    def __init__(
        self,
        sim: Simulator,
        events: list[FailureEvent],
        detection_delay: float,
        on_fail: Callable[[int], None],
        on_detect: Callable[[int], None],
        worker_resolver: Callable[[int], int] | None = None,
    ) -> None:
        self._sim = sim
        self._events = sorted(events, key=lambda e: e.at)
        self._detection_delay = detection_delay
        self._on_fail = on_fail
        self._on_detect = on_detect
        #: maps a scenario's raw worker draw to the live worker it kills
        #: (the runtime passes ``index % parallelism``); identity if None
        self._worker_resolver = worker_resolver or (lambda index: index)

    def arm(self) -> None:
        """Schedule every kill event of the scenario."""
        for event in self._events:
            self._sim.schedule_at(event.at, self._fail, event)

    def _fail(self, event: FailureEvent) -> None:
        """Kill every worker the event names and schedule the detection."""
        hit: list[int] = []
        for raw_index in event.worker_indices:
            worker_index = self._worker_resolver(raw_index)
            hit.append(worker_index)
            self._on_fail(worker_index)
        delay = self._detection_delay * event.detection_delay_factor
        self._sim.schedule(delay, self._detect, hit)

    def _detect(self, hit: list[int]) -> None:
        """Hand each dead worker to the recovery."""
        for worker_index in hit:
            self._on_detect(worker_index)


# --------------------------------------------------------------------- #
# Adaptive checkpoint interval (Young–Daly)
# --------------------------------------------------------------------- #

def young_daly_interval(mtbf: float, checkpoint_cost: float) -> float:
    """The Young–Daly first-order optimal interval ``sqrt(2·MTBF·C)``.

    Minimises expected lost work plus checkpoint overhead for a system
    with mean time between failures ``mtbf`` and per-checkpoint cost
    ``checkpoint_cost`` (Young 1974, Daly 2006).
    """
    return math.sqrt(2.0 * max(mtbf, 0.0) * max(checkpoint_cost, 0.0))


#: MTBF prior the controller uses until the first inter-failure gap
ASSUMED_MTBF = 30.0
#: EMA smoothing factor for both of the controller's estimators
ALPHA = 0.3
#: hard floor/ceiling on the interval the controller chooses
MIN_INTERVAL = 0.5
MAX_INTERVAL = 30.0
#: per-observation clamp: a new sample moves the controller's EMA at most
#: this factor away from its current value in either direction
CLAMP_FACTOR = 4.0


@dataclass
class AdaptiveIntervalController:
    """Retunes the checkpoint interval from observed costs and failures.

    Maintains clamped EMAs of checkpoint durations (the ``C`` term) and
    inter-failure gaps (the MTBF term), recomputing the Young–Daly
    interval after every observation.  Clamping each new observation to
    a window around the current EMA keeps a single outlier (a skew-
    stretched alignment, one freak back-to-back failure) from yanking
    the interval around; the interval itself is clamped to
    ``[MIN_INTERVAL, MAX_INTERVAL]``.

    Until a failure is observed the MTBF estimate is ``ASSUMED_MTBF``
    (the prior); until a checkpoint completes the controller keeps its
    initial interval.  The prior, the smoothing and the bounds are the
    module constants above: constants of the model, not run settings.
    """

    #: interval used before any checkpoint-cost observation exists
    initial_interval: float
    #: (virtual time, new interval) trajectory; a run hands in its
    #: metrics' ``interval_updates`` list, so there is one copy
    updates: list[tuple[float, float]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._interval = self._clamped(self.initial_interval)
        self._cost_ema: float | None = None
        self._mtbf_ema: float | None = None
        self._last_failure_at: float | None = None

    @property
    def interval(self) -> float:
        """The interval checkpoint timers should use right now."""
        return self._interval

    @property
    def mtbf_estimate(self) -> float:
        """Current MTBF estimate (prior until a gap was observed)."""
        return self._mtbf_ema if self._mtbf_ema is not None else ASSUMED_MTBF

    def _clamped(self, value: float) -> float:
        return min(max(value, MIN_INTERVAL), MAX_INTERVAL)

    def _ema(self, prev: float | None, sample: float) -> float:
        if prev is None:
            return sample
        lo, hi = prev / CLAMP_FACTOR, prev * CLAMP_FACTOR
        sample = min(max(sample, lo), hi)
        return prev + ALPHA * (sample - prev)

    def observe_checkpoint(self, now: float, duration: float) -> None:
        """Feed one completed checkpoint's duration (capture→durable)."""
        if duration <= 0:
            return
        self._cost_ema = self._ema(self._cost_ema, duration)
        self._recompute(now)

    def observe_failure(self, now: float) -> None:
        """Feed one failure instant; consecutive calls yield MTBF gaps."""
        if self._last_failure_at is not None:
            gap = now - self._last_failure_at
            if gap > 0:
                self._mtbf_ema = self._ema(self._mtbf_ema, gap)
        self._last_failure_at = now
        self._recompute(now)

    def _recompute(self, now: float) -> None:
        """Re-derive the interval; record it only when it changed."""
        if self._cost_ema is None:
            return  # no cost signal yet: keep the configured interval
        target = self._clamped(
            young_daly_interval(self.mtbf_estimate, self._cost_ema)
        )
        if abs(target - self._interval) > 1e-9:
            self._interval = target
            self.updates.append((now, target))
