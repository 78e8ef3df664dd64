"""Deterministic NexMark event generator with uniform and hot-item modes.

The paper extends the DS2 NexMark generator [33, 43] and uses its *hot
items* knob for the skew experiments (Section VII-B, "Skewed NexMark").
Our generator reproduces the two properties the experiments depend on:

* **uniform mode** — routing keys (person ids, sellers, bidders) are
  uniformly distributed across parallel instances;
* **hot mode** — a configurable fraction ``hot_ratio`` of events reference
  a tiny set of *hot keys*, all of which hash (``key % parallelism``) to
  instance 0, turning worker 0 into the straggler the paper observes.

Events are generated on one global timeline (so auctions can reference
previously created persons, and bids previously opened auctions) and split
round-robin into partitions, which keeps per-partition availability
timestamps monotonic as the Kafka substrate requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.sim.collector import collector_paused
from repro.sim.rng import RngRegistry
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import ArrivalProcess, SteadyArrivals

if TYPE_CHECKING:  # annotation-only: draws flow through RngRegistry streams
    import random
from repro.workloads.nexmark.model import (
    AUCTION_SIZE,
    BID_SIZE,
    NUM_CATEGORIES,
    PERSON_SIZE,
    Auction,
    Bid,
    Person,
    Q3_STATES,
    US_STATES,
)


#: shared default — stateless, reproduces the legacy constant-rate loops
_STEADY = SteadyArrivals()


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the generator."""

    #: fraction of events that reference hot keys (0.0 = uniform)
    hot_ratio: float = 0.0
    #: how many distinct hot keys (all routed to instance 0)
    num_hot_keys: int = 2
    #: distinct bidders per worker (bounds Q12 keyed state)
    bidder_space_per_worker: int = 200
    #: bids reference one of the last N auctions
    auction_window: int = 2000
    #: persons share of a persons+auctions stream (NexMark ~1:3)
    person_share: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 <= self.hot_ratio <= 1.0:
            raise ValueError("hot_ratio must be in [0, 1]")
        if self.num_hot_keys <= 0:
            raise ValueError("num_hot_keys must be positive")
        if not 0.0 < self.person_share <= 1.0:
            raise ValueError("person_share must be in (0, 1]")


class NexmarkGenerator:
    """Builds replayable partitioned logs for the NexMark topics."""

    def __init__(self, parallelism: int, seed: int = 7,
                 config: GeneratorConfig | None = None):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        self.parallelism = parallelism
        self.seed = seed
        self.config = config or GeneratorConfig()
        #: hot keys are non-zero multiples of the parallelism so that the
        #: modulo router sends them all to instance 0
        self.hot_keys = [
            parallelism * (i + 1) for i in range(self.config.num_hot_keys)
        ]

    # ------------------------------------------------------------------ #
    # Key choices
    # ------------------------------------------------------------------ #

    def _maybe_hot(self, rng: random.Random, uniform_key: int) -> int:
        if self.config.hot_ratio > 0 and rng.random() < self.config.hot_ratio:
            return rng.choice(self.hot_keys)
        return uniform_key

    # ------------------------------------------------------------------ #
    # Topic builders
    # ------------------------------------------------------------------ #

    def bids_log(self, rate: float, until: float, topic: str = "bids",
                 arrival: ArrivalProcess | None = None) -> PartitionedLog:
        """A pure bid stream (Q1, Q12) at aggregate ``rate`` events/second.

        ``arrival`` shapes the timestamp sequence and hot-key placement
        (defaults to steady = the legacy behavior, byte-for-byte); the
        arrival process draws from its own registry stream, so enabling
        one never perturbs the payload draws below.
        """
        # NaN fails both comparisons, so it is rejected with the rest
        if not (0 < rate < math.inf and 0 < until < math.inf):
            raise ValueError("rate and until must be positive")
        # a named registry stream (crc32-derived, never hash()) keeps the
        # generated inputs reproducible across runs/workers and independent
        # of any other consumer of the experiment seed
        rng = RngRegistry(self.seed).stream(f"workload.nexmark.{topic}")
        process = arrival if arrival is not None else _STEADY
        arrival_rng = RngRegistry(self.seed).stream(
            f"workload.arrivals.{topic}")
        bidder_space = self.config.bidder_space_per_worker * self.parallelism
        auction_base = 5000
        # this loop generates hundreds of thousands of events per sweep and
        # dominates short runs, so draws use one C-level random() call each
        # (int(random()*n) instead of randrange) and all lookups are hoisted
        random_ = rng.random
        parallelism = self.parallelism
        auction_window = self.config.auction_window
        hot_ratio = self.config.hot_ratio
        hot_keys = self.hot_keys
        hot_pick = process.hot_key
        bids: list[Bid] = []
        add = bids.append
        with collector_paused():
            # the arrival process draws from its own stream, so taking all
            # of its timestamps first leaves the payload draws where they were
            times = list(process.timestamps(rate, until, arrival_rng))
            for t in times:
                if hot_ratio > 0.0 and random_() < hot_ratio:
                    bidder = hot_pick(t, random_(), hot_keys, parallelism)
                else:
                    bidder = 10_000 + int(random_() * bidder_space)
                # positional (auction, bidder, price, created_at): keyword
                # binding costs a quarter of the frozen constructor's time
                add(Bid(auction_base + int(random_() * auction_window),
                        bidder, 100 + int(random_() * 10_000), t))
            return PartitionedLog.round_robin(
                topic, parallelism, times, bids, BID_SIZE)

    def person_auction_logs(
        self, rate: float, until: float,
        persons_topic: str = "persons", auctions_topic: str = "auctions",
        arrival: ArrivalProcess | None = None,
    ) -> tuple[PartitionedLog, PartitionedLog]:
        """Interleaved persons+auctions streams (Q3, Q8) at aggregate ``rate``.

        Hot mode pre-seeds the hot persons (with a Q3-passing state) so that
        hot auctions always find their join partner, concentrating both the
        routing load and the join state on instance 0.  A drifting
        ``arrival`` widens the pre-seed to every key its ``hot_key`` hook
        can return, so migrated hot auctions still find a join partner.
        """
        # NaN fails both comparisons, so it is rejected with the rest
        if not (0 < rate < math.inf and 0 < until < math.inf):
            raise ValueError("rate and until must be positive")
        rng = RngRegistry(self.seed).stream(
            f"workload.nexmark.{persons_topic}+{auctions_topic}"
        )
        process = arrival if arrival is not None else _STEADY
        arrival_rng = RngRegistry(self.seed).stream(
            f"workload.arrivals.{persons_topic}+{auctions_topic}"
        )
        person_share = self.config.person_share
        person_pool: list[int] = []
        next_person_id = 10_000
        next_auction_id = 1
        persons: list[Person] = []
        auctions: list[Auction] = []
        # pre-seed hot persons at t=0 so hot auctions can join immediately;
        # they head the persons column, which offsets every later person's
        # round-robin slot by their count
        if self.config.hot_ratio > 0:
            for hot_id in process.hot_seed_keys(self.hot_keys,
                                                self.parallelism):
                persons.append(Person(
                    id=hot_id,
                    name=f"hot-person-{hot_id}",
                    # min(), not next(iter()): set order follows the
                    # per-process str hash salt
                    state=min(Q3_STATES),
                    created_at=0.0,
                ))
                person_pool.append(hot_id)
        # hot loop: see bids_log — single random() draws, hoisted lookups
        random_ = rng.random
        parallelism = self.parallelism
        num_states = len(US_STATES)
        hot_ratio = self.config.hot_ratio
        hot_keys = self.hot_keys
        hot_pick = process.hot_key
        add_person = persons.append
        add_auction = auctions.append
        add_to_pool = person_pool.append
        with collector_paused():
            for t in process.timestamps(rate, until, arrival_rng):
                if random_() < person_share or not person_pool:
                    add_person(Person(
                        next_person_id, f"person-{next_person_id}",
                        US_STATES[int(random_() * num_states)], t))
                    add_to_pool(next_person_id)
                    next_person_id += 1
                else:
                    if hot_ratio > 0.0 and random_() < hot_ratio:
                        seller = hot_pick(t, random_(), hot_keys, parallelism)
                    else:
                        seller = person_pool[int(random_() * len(person_pool))]
                    add_auction(Auction(
                        next_auction_id, seller,
                        int(random_() * NUM_CATEGORIES),
                        100 + int(random_() * 1_000), t))
                    next_auction_id += 1
            # an event is available the moment it was created
            return (
                PartitionedLog.round_robin(
                    persons_topic, parallelism,
                    [person.created_at for person in persons], persons,
                    PERSON_SIZE),
                PartitionedLog.round_robin(
                    auctions_topic, parallelism,
                    [auction.created_at for auction in auctions], auctions,
                    AUCTION_SIZE),
            )
