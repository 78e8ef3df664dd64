"""Generator for the cyclic reachability query's two input streams.

Event mix per the paper (Section VII-B, "Cyclic query"): 60% new link,
15% new source node, 20% delete existing link, 5% delete existing source,
over a static set of 1M nodes.  Links go to the ``links`` topic, source
nodes to the ``srcnodes`` topic; both are round-robin partitioned.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Any, TypeVar

import numpy

from repro.sim.collector import collector_paused
from repro.sim.rng import RngRegistry
from repro.storage.kafka import PartitionedLog
from repro.workloads import columns
from repro.workloads.arrivals import ArrivalProcess, check_rate_and_horizon
from repro.workloads.columns import rows_from_columns

T = TypeVar("T")

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
        # an int: node ids are drawn as ``getrandbits(num_nodes.bit_length())``;
        # not a bool, an int that means a one-node graph
        if isinstance(self.num_nodes, bool) or not (
                isinstance(self.num_nodes, int) and self.num_nodes >= 1):
            raise ValueError(
                f"num_nodes must be a positive int, got {self.num_nodes!r}")
        for name in ("p_new_link", "p_new_source", "p_del_link",
                     "p_del_source"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"{name} must be in [0, 1], got {getattr(self, name)!r}")
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
        check_rate_and_horizon(rate, until)
        cfg = self.config
        rng = RngRegistry(self.seed).stream("workload.cyclic.events")
        live_links: list[tuple[int, int]] = []
        live_sources: list[int] = []
        if arrival is None or arrival.kind == "steady":
            # the legacy closed form, bit-for-bit: this generator divides
            # ((k+0.5)/rate) where NexMark multiplies by 1/rate — a 1-ulp
            # difference SteadyArrivals resolves in NexMark's favour, so
            # the steady path stays inline here.  As an array expression
            # it has the same operands in the same order, so the same
            # floats, and ``tolist`` hands back Python floats
            stamps: list[float] = (
                (numpy.arange(int(rate * until)) + 0.5) / rate).tolist()
            timestamps = iter(stamps)
        else:
            arrival_rng = RngRegistry(self.seed).stream(
                "workload.arrivals.cyclic")
            timestamps = arrival.timestamps(rate, until, arrival_rng)
        # both topics are built as columns on the one global timeline and
        # dealt out round-robin at the end (DESIGN.md section 20).  The
        # draws stay row by row: a deletion's range is the live set the
        # rows before it left, and a draw below ``n`` rejects and redraws,
        # so no draw's place in the stream is known before the one before
        # it was made.  Every such draw is ``randrange(n)`` written out —
        # ``getrandbits(n.bit_length())`` until the value is below ``n``,
        # what CPython's ``randrange`` runs in two Python frames (the same
        # values and stream state, ``tests/test_generator_oracles.py``).
        # What a row appends is a ``(time, *fields)`` tuple; a block of
        # tuples is transposed and turned into event objects column by
        # column
        link_times: list[float] = []
        link_events: list[LinkEvent] = []
        source_times: list[float] = []
        source_events: list[SourceEvent] = []
        link_rows: list[tuple[Any, ...]] = []
        source_rows: list[tuple[Any, ...]] = []
        add_link = link_rows.append
        add_source = source_rows.append
        random_ = rng.random
        getrandbits = rng.getrandbits
        num_nodes = cfg.num_nodes
        node_bits = num_nodes.bit_length()
        new_link_below = cfg.p_new_link
        new_source_below = cfg.p_new_link + cfg.p_new_source
        del_link_below = cfg.p_new_link + cfg.p_new_source + cfg.p_del_link
        with collector_paused():
            while block_times := list(islice(timestamps,
                                             columns.BLOCK_EVENTS)):
                for t in block_times:
                    roll = random_()
                    if new_link_below <= roll < new_source_below:
                        node = getrandbits(node_bits)
                        while node >= num_nodes:
                            node = getrandbits(node_bits)
                        live_sources.append(node)
                        add_source((t, node, True))
                    elif (new_source_below <= roll < del_link_below
                          and live_links):
                        n = len(live_links)
                        i = getrandbits(n.bit_length())
                        while i >= n:
                            i = getrandbits(n.bit_length())
                        src, dst = live_links.pop(i)
                        add_link((t, src, dst, False))
                    elif roll >= new_source_below and live_sources:
                        n = len(live_sources)
                        i = getrandbits(n.bit_length())
                        while i >= n:
                            i = getrandbits(n.bit_length())
                        add_source((t, live_sources.pop(i), False))
                    else:  # a new link; also a deletion with nothing to delete
                        src = getrandbits(node_bits)
                        while src >= num_nodes:
                            src = getrandbits(node_bits)
                        dst = getrandbits(node_bits)
                        while dst >= num_nodes:
                            dst = getrandbits(node_bits)
                        live_links.append((src, dst))
                        add_link((t, src, dst, True))
                _flush(link_rows, LinkEvent, link_times, link_events)
                _flush(source_rows, SourceEvent, source_times, source_events)
            return (
                PartitionedLog.round_robin("links", self.parallelism,
                                           link_times, link_events, LINK_SIZE),
                PartitionedLog.round_robin("srcnodes", self.parallelism,
                                           source_times, source_events,
                                           SOURCE_SIZE),
            )


def _flush(rows: list[tuple[Any, ...]], event_class: type[T],
           times: list[float], events: list[T]) -> None:
    """Move a block of ``(time, *fields)`` rows onto a topic's columns."""
    if rows:
        block_times, *fields = zip(*rows)
        times += block_times
        events += rows_from_columns(event_class, *fields)
        rows.clear()
