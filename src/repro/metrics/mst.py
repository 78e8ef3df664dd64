"""Maximum sustainable throughput (MST) search (paper Section V).

MST is the largest input rate the system sustains without backpressure:
latency must not grow monotonically and the sources must keep pace with the
offered rate.  The search seeds a bracket from the query's analytic
capacity hint, expands it geometrically until it straddles the boundary,
then bisects with short probe runs — one probe at a time, each deciding
the next rate.

Every probe goes through a
:class:`~repro.experiments.parallel.ParallelRunner` (the caller's, or a
serial one of its own, as for every search the harness runs as an
:class:`~repro.experiments.parallel.MstRequest`).  If every
probe of the bracket phase is unsustainable the search keeps shrinking; a
bracket that never finds a sustainable rate returns ``mst=0.0`` with
``bracket_exhausted=True`` instead of reporting a rate that was never
validated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.sim.costs import RuntimeConfig

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import ParallelRunner, RunRequest
    from repro.workloads.spec import QuerySpec

#: geometric step of the bracket phase
BRACKET_FACTOR = 1.3
#: maximum bracket probes before the search gives up (seed bug: the old
#: 6-probe loop reported the last *unsustainable* rate as the MST)
MAX_BRACKET_PROBES = 12


@dataclass
class MstResult:
    """Outcome of one MST search."""

    query: str
    protocol: str
    parallelism: int
    mst: float
    probes: list[tuple[float, bool]] = field(default_factory=list)
    #: True when no probed rate was ever sustainable — ``mst`` is 0.0 then,
    #: never an unvalidated guess
    bracket_exhausted: bool = False


def estimate_capacity(spec: "QuerySpec", parallelism: int) -> float:
    """Analytic seed for the bracket: per-worker capacity x workers."""
    return spec.capacity_per_worker * parallelism


def probe_request(
    spec: "QuerySpec",
    protocol: str,
    parallelism: int,
    rate: float,
    duration: float = 14.0,
    warmup: float = 6.0,
    hot_ratio: float = 0.0,
    seed: int = 7,
    config: RuntimeConfig | None = None,
) -> "RunRequest":
    """One fixed-rate sustainability probe, as a request.

    The one place a probe's configuration is spelled.  The request's
    ``effective_config`` is a ``dataclasses.replace`` copy of ``config``
    — every knob (schedules, semantics, cost model, ...) survives into
    the probe; only the window, failure and seed scalars are overridden.
    """
    from repro.experiments.parallel import RunRequest

    base = config if config is not None else RuntimeConfig()
    return RunRequest(
        query=spec.name, protocol=protocol, parallelism=parallelism,
        rate=rate, duration=duration, warmup=warmup, failure_at=None,
        hot_ratio=hot_ratio,
        checkpoint_interval=base.checkpoint_interval,
        failure_worker=base.failure_worker,
        seed=seed, config=config,
    )


def find_mst(
    spec: "QuerySpec",
    protocol: str,
    parallelism: int,
    probe_duration: float = 14.0,
    warmup: float = 6.0,
    iterations: int = 4,
    seed: int = 7,
    config: RuntimeConfig | None = None,
    runner: "ParallelRunner | None" = None,
) -> MstResult:
    """Bracket + bisect the sustainability boundary.

    Every probe is the same :func:`probe_request` (including every
    ``RuntimeConfig`` knob and the ``seed``, which governs both input
    generation and runtime jitter), run by ``runner.run`` — a serial
    ``ParallelRunner()`` when none is given — so the search settles on the
    same boundary no matter which executor ran it.
    """
    from repro.experiments.parallel import ParallelRunner

    runner = runner or ParallelRunner()
    probes: list[tuple[float, bool]] = []
    fields = dict(duration=probe_duration, warmup=warmup, seed=seed,
                  config=config)

    def probe(rate: float) -> bool:
        result = runner.run(probe_request(spec, protocol, parallelism,
                                          rate, **fields))
        ok = result.sustainable(rate)
        probes.append((rate, ok))
        return ok

    def result(mst: float, exhausted: bool = False) -> MstResult:
        return MstResult(
            query=spec.name, protocol=protocol, parallelism=parallelism,
            mst=mst, probes=probes, bracket_exhausted=exhausted,
        )

    bracket = _bracket(estimate_capacity(spec, parallelism), probe)
    if bracket is None:
        return result(0.0, exhausted=True)
    low, high = bracket
    for _ in range(iterations):
        mid = (low + high) / 2
        if probe(mid):
            low = mid
        else:
            high = mid
    return result(low)


def _bracket(seed_rate: float,
             probe: Callable[[float], bool]) -> tuple[float, float] | None:
    """Geometric bracketing; None when the bracket is exhausted."""
    low, high = None, None
    rate = seed_rate
    for _ in range(MAX_BRACKET_PROBES):
        if probe(rate):
            low = rate
            rate *= BRACKET_FACTOR
        else:
            high = rate
            rate /= BRACKET_FACTOR
        if low is not None and high is not None:
            break
    if low is None:
        return None
    if high is None:
        high = low * BRACKET_FACTOR
    return low, high
