"""Generator for the cyclic reachability query's two input streams.

Event mix per the paper (Section VII-B, "Cyclic query"): 60% new link,
15% new source node, 20% delete existing link, 5% delete existing source,
over a static set of 1M nodes.  Links go to the ``links`` topic, source
nodes to the ``srcnodes`` topic; both are round-robin partitioned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.sim.collector import collector_paused
from repro.sim.rng import RngRegistry
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import ArrivalProcess

LINK_SIZE = 64
SOURCE_SIZE = 48


@dataclass(frozen=True, slots=True)
class LinkEvent:
    """A directed edge appearing (add=True) or disappearing."""

    src: int
    dst: int
    add: bool

    @property
    def size_bytes(self) -> int:
        """Serialized size used by the cost model."""
        return LINK_SIZE


@dataclass(frozen=True, slots=True)
class SourceEvent:
    """A source node appearing or disappearing."""

    node: int
    add: bool

    @property
    def size_bytes(self) -> int:
        """Serialized size used by the cost model."""
        return SOURCE_SIZE


@dataclass(frozen=True)
class CyclicConfig:
    """Event-mix probabilities and the node id space."""

    num_nodes: int = 1_000_000
    p_new_link: float = 0.60
    p_new_source: float = 0.15
    p_del_link: float = 0.20
    p_del_source: float = 0.05

    def __post_init__(self) -> None:
        total = self.p_new_link + self.p_new_source + self.p_del_link + self.p_del_source
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities must sum to 1, got {total}")


class CyclicGenerator:
    """Builds the ``links`` and ``srcnodes`` logs on one global timeline."""

    def __init__(self, parallelism: int, seed: int = 7,
                 config: CyclicConfig | None = None):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self.parallelism = parallelism
        self.seed = seed
        self.config = config or CyclicConfig()

    def logs(self, rate: float, until: float,
             arrival: ArrivalProcess | None = None,
             ) -> tuple[PartitionedLog, PartitionedLog]:
        """Generate both topics at aggregate ``rate`` events/second.

        ``arrival`` shapes the timestamp sequence (steady by default);
        its draws come from a dedicated registry stream, so the event
        mix below rolls the same dice regardless of the process.
        """
        # NaN fails both comparisons, so it is rejected with the rest
        if not (0 < rate < math.inf and 0 < until < math.inf):
            raise ValueError("rate and until must be positive")
        cfg = self.config
        rng = RngRegistry(self.seed).stream("workload.cyclic.events")
        live_links: list[tuple[int, int]] = []
        live_sources: list[int] = []
        if arrival is None or arrival.kind == "steady":
            # the legacy closed form, bit-for-bit: this generator divides
            # ((k+0.5)/rate) where NexMark multiplies by 1/rate — a 1-ulp
            # difference SteadyArrivals resolves in NexMark's favour, so
            # the steady path stays inline here
            timestamps: Iterator[float] = iter(
                [(k + 0.5) / rate for k in range(int(rate * until))]
            )
        else:
            arrival_rng = RngRegistry(self.seed).stream(
                "workload.arrivals.cyclic")
            timestamps = arrival.timestamps(rate, until, arrival_rng)
        # both topics are built as columns on the one global timeline and
        # dealt out round-robin at the end (DESIGN.md section 20)
        link_times: list[float] = []
        link_events: list[LinkEvent] = []
        source_times: list[float] = []
        source_events: list[SourceEvent] = []
        random_ = rng.random
        randrange = rng.randrange
        num_nodes = cfg.num_nodes
        new_link_below = cfg.p_new_link
        new_source_below = cfg.p_new_link + cfg.p_new_source
        del_link_below = cfg.p_new_link + cfg.p_new_source + cfg.p_del_link
        with collector_paused():
            for t in timestamps:
                roll = random_()
                if roll < new_link_below or (
                        roll >= new_source_below
                        and not live_links and not live_sources):
                    src = randrange(num_nodes)
                    dst = randrange(num_nodes)
                    live_links.append((src, dst))
                    link = LinkEvent(src, dst, True)
                elif roll < new_source_below:
                    node = randrange(num_nodes)
                    live_sources.append(node)
                    source_times.append(t)
                    source_events.append(SourceEvent(node, True))
                    continue
                elif roll < del_link_below and live_links:
                    src, dst = live_links.pop(randrange(len(live_links)))
                    link = LinkEvent(src, dst, False)
                elif live_sources:
                    node = live_sources.pop(randrange(len(live_sources)))
                    source_times.append(t)
                    source_events.append(SourceEvent(node, False))
                    continue
                else:  # nothing to delete yet: emit a link instead
                    src = randrange(num_nodes)
                    dst = randrange(num_nodes)
                    live_links.append((src, dst))
                    link = LinkEvent(src, dst, True)
                link_times.append(t)
                link_events.append(link)
            return (
                PartitionedLog.round_robin("links", self.parallelism,
                                           link_times, link_events, LINK_SIZE),
                PartitionedLog.round_robin("srcnodes", self.parallelism,
                                           source_times, source_events,
                                           SOURCE_SIZE),
            )
