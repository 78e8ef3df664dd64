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

from itertools import compress, islice
from typing import TYPE_CHECKING

import numpy

from repro.sim.collector import collector_paused
from repro.sim.rng import RngRegistry, uniform_block
from repro.storage.kafka import PartitionedLog
from repro.workloads import columns
from repro.workloads.arrivals import (
    ArrivalProcess,
    SteadyArrivals,
    check_rate_and_horizon,
)
from repro.workloads.columns import rows_from_columns
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

if TYPE_CHECKING:
    from numpy.typing import NDArray


#: shared default — stateless, reproduces the legacy constant-rate loops
_STEADY = SteadyArrivals()


#: how many distinct hot keys (all routed to instance 0)
NUM_HOT_KEYS = 2
#: distinct bidders per worker (bounds Q12 keyed state)
BIDDER_SPACE_PER_WORKER = 200
#: bids reference one of the last N auctions
AUCTION_WINDOW = 2000
#: persons share of a persons+auctions stream (NexMark ~1:3)
PERSON_SHARE = 0.25


class NexmarkGenerator:
    """Builds replayable partitioned logs for the NexMark topics.

    ``hot_ratio`` is the fraction of events that reference hot keys (0.0
    = uniform), the one generator setting the paper varies.
    """

    def __init__(self, parallelism: int, seed: int = 7,
                 hot_ratio: float = 0.0):
        if parallelism <= 0:
            raise ValueError("parallelism must be positive")
        if not 0.0 <= hot_ratio <= 1.0:
            raise ValueError("hot_ratio must be in [0, 1]")
        self.parallelism = parallelism
        self.seed = seed
        self.hot_ratio = hot_ratio
        #: hot keys are non-zero multiples of the parallelism so that the
        #: modulo router sends them all to instance 0
        self.hot_keys = [parallelism * (i + 1) for i in range(NUM_HOT_KEYS)]

    # ------------------------------------------------------------------ #
    # Topic builders
    # ------------------------------------------------------------------ #

    def _hot_keys_at(self, process: ArrivalProcess, times: list[float],
                     tests: NDArray[numpy.float64],
                     picks: NDArray[numpy.float64],
                     ) -> tuple[NDArray[numpy.intp], list[int]]:
        """The rows ``tests`` makes hot, and the hot key placed at each.

        ``process.pick_hot_keys`` is a column hook: it takes the hot rows'
        times and their one uniform draw each, once per block.
        """
        hot = numpy.flatnonzero(tests < self.hot_ratio)
        placed = process.pick_hot_keys(list(map(times.__getitem__,
                                                hot.tolist())),
                                       picks[hot], self.hot_keys,
                                       self.parallelism)
        return hot, placed

    def bids_log(self, rate: float, until: float,
                 arrival: ArrivalProcess | None = None) -> PartitionedLog:
        """A pure bid stream (Q1, Q12) at aggregate ``rate`` events/second.

        ``arrival`` shapes the timestamp sequence and hot-key placement
        (defaults to steady = the legacy behavior, byte-for-byte); the
        arrival process draws from its own registry stream, so enabling
        one never perturbs the payload draws below.
        """
        check_rate_and_horizon(rate, until)
        # a named registry stream (crc32-derived, never hash()) keeps the
        # generated inputs reproducible across runs/workers and independent
        # of any other consumer of the experiment seed
        rng = RngRegistry(self.seed).stream("workload.nexmark.bids")
        process = arrival if arrival is not None else _STEADY
        arrival_rng = RngRegistry(self.seed).stream("workload.arrivals.bids")
        bidder_space = BIDDER_SPACE_PER_WORKER * self.parallelism
        hot_mode = self.hot_ratio > 0.0
        # a bid takes a fixed number of draws — [hot test, hot pick or]
        # bidder, auction, price, in that order — so a block of draws is
        # a table with one row per bid (DESIGN.md section 20)
        width = 4 if hot_mode else 3
        times: list[float] = []
        bids: list[Bid] = []
        with collector_paused():
            timestamps = process.timestamps(rate, until, arrival_rng)
            while block_times := list(islice(timestamps,
                                             columns.BLOCK_EVENTS)):
                draws = uniform_block(
                    rng, width * len(block_times)).reshape(-1, width)
                bidders = 10_000 + _below(draws[:, -3], bidder_space)
                if hot_mode:
                    hot, placed = self._hot_keys_at(
                        process, block_times, draws[:, 0], draws[:, 1])
                    bidders[hot] = placed
                times += block_times
                bids += rows_from_columns(
                    Bid,
                    _shared_ints(5000 + _below(draws[:, -2], AUCTION_WINDOW)),
                    _shared_ints(bidders),
                    _shared_ints(100 + _below(draws[:, -1], 10_000)),
                    block_times)
            return PartitionedLog.round_robin(
                "bids", self.parallelism, times, bids, BID_SIZE)

    def person_auction_logs(
        self, rate: float, until: float,
        arrival: ArrivalProcess | None = None,
    ) -> tuple[PartitionedLog, PartitionedLog]:
        """Interleaved persons+auctions streams (Q3, Q8) at aggregate ``rate``.

        Hot mode pre-seeds the hot persons (with a Q3-passing state) so that
        hot auctions always find their join partner, concentrating both the
        routing load and the join state on instance 0.  A drifting
        ``arrival`` widens the pre-seed to every key its ``pick_hot_keys``
        hook can return, so migrated hot auctions still find a join partner.
        """
        check_rate_and_horizon(rate, until)
        rng = RngRegistry(self.seed).stream("workload.nexmark.persons+auctions")
        process = arrival if arrival is not None else _STEADY
        arrival_rng = RngRegistry(self.seed).stream(
            "workload.arrivals.persons+auctions")
        hot_mode = self.hot_ratio > 0.0
        # the ids an auction's seller is picked from: the hot persons,
        # pre-seeded at t=0 so hot auctions can join immediately, then
        # every person in order of creation.  The pre-seeded head the
        # persons column, which offsets every later person's round-robin
        # slot by their count
        pool = (process.hot_seed_keys(self.hot_keys, self.parallelism)
                if hot_mode else [])
        person_times = [0.0] * len(pool)
        persons = rows_from_columns(
            Person, pool, [f"hot-person-{key}" for key in pool],
            # min(), not next(iter()): set order follows the per-process
            # str hash salt
            [min(Q3_STATES)] * len(pool), person_times)
        auction_times: list[float] = []
        auctions: list[Auction] = []
        next_person_id = 10_000
        # an event's draws, in order — person: [person test, state];
        # auction: [person test, (hot test,) seller or hot pick, category,
        # price].  Which draw is an event's first depends on the kind of
        # every event before it (DESIGN.md section 20 has the table)
        stride = 5 if hot_mode else 4
        unread = numpy.empty(0)
        with collector_paused():
            timestamps = process.timestamps(rate, until, arrival_rng)
            while block_times := list(islice(timestamps,
                                             columns.BLOCK_EVENTS)):
                # enough draws for a block of auctions; what the persons
                # among them leave unread heads the next block
                draws = numpy.concatenate((unread, uniform_block(
                    rng, max(0, stride * len(block_times) - len(unread)))))
                person_at = draws < PERSON_SHARE
                if not pool:
                    # nobody to sell yet: the first event is a person
                    # whatever its test draw says, and keeps its two draws
                    person_at[0] = True
                # the walk from one event's first draw to the next reads
                # a precomputed list; it draws and builds nothing
                step = numpy.where(person_at, 2, stride).tolist()
                at = 0
                firsts = []
                for _ in block_times:
                    firsts.append(at)
                    at += step[at]
                unread = draws[at:]
                first = numpy.array(firsts, dtype=numpy.int64)
                is_person = person_at[first]

                born = first[is_person]
                ids = list(range(next_person_id, next_person_id + len(born)))
                next_person_id += len(born)
                born_times = list(compress(block_times, is_person.tolist()))
                person_times += born_times
                persons += rows_from_columns(
                    Person, ids, [f"person-{id_}" for id_ in ids],
                    # the tuple's own str objects, never copies: pickle
                    # memoises by identity
                    list(map(US_STATES.__getitem__,
                             _below(draws[born + 1], len(US_STATES)).tolist())),
                    born_times)

                is_auction = ~is_person
                opened = first[is_auction]
                opened_times = list(compress(block_times,
                                             is_auction.tolist()))
                # an auction's last three draws, whatever its stride
                seller_draw, category_draw, price_draw = (
                    draws[opened + offset]
                    for offset in range(stride - 3, stride))
                # an auction picks among the persons born before it: the
                # pool as it stood then is a prefix of the pool now
                pool_size = len(pool) + numpy.cumsum(is_person)[is_auction]
                pool += ids
                # the pool's own int objects: a person's id and its
                # auctions' seller were one object in the row loop too
                sellers = list(map(pool.__getitem__,
                                   _below(seller_draw, pool_size).tolist()))
                if hot_mode:
                    hot, placed = self._hot_keys_at(
                        process, opened_times, draws[opened + 1], seller_draw)
                    for row, key in zip(hot.tolist(), placed):
                        sellers[row] = key
                auction_times += opened_times
                auctions += rows_from_columns(
                    Auction,
                    range(len(auctions) + 1,
                          len(auctions) + 1 + len(sellers)),
                    sellers,
                    _below(category_draw, NUM_CATEGORIES),
                    _shared_ints(100 + _below(price_draw, 1_000)),
                    opened_times)
            # an event is available the moment it was created
            return (
                PartitionedLog.round_robin(
                    "persons", self.parallelism, person_times, persons,
                    PERSON_SIZE),
                PartitionedLog.round_robin(
                    "auctions", self.parallelism, auction_times,
                    auctions, AUCTION_SIZE),
            )


#: ``_INTS[v]`` is the one ``int`` object of value ``v`` that every
#: generated bid's auction, bidder and price and every auction's initial
#: bid hold, process-wide (DESIGN.md section 20)
_INTS: NDArray[numpy.object_] = numpy.empty(0, dtype=object)


def _shared_ints(values: NDArray[numpy.int64]) -> NDArray[numpy.object_]:
    """The shared ``int`` object of each of ``values`` (none negative).

    ``take`` on an object array copies references, so every row of one
    value, in every log of the process, holds one object.  The table grows
    to the largest value asked for and keeps the objects it handed out.
    """
    global _INTS
    top = int(values.max()) + 1 if len(values) else 0
    if top > len(_INTS):
        _INTS = numpy.concatenate(
            (_INTS, numpy.arange(len(_INTS), top).astype(object)))
    return _INTS.take(values)


def _below(draws: NDArray[numpy.float64],
           bound: int | NDArray[numpy.int64]) -> NDArray[numpy.int64]:
    """``int(random() * bound)`` for a column of draws.

    The product is the same float64 product and ``astype`` truncates
    toward zero as ``int()`` does, so each element is the scalar result.
    """
    return (draws * bound).astype(numpy.int64)
