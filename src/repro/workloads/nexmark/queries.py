"""NexMark queries Q1, Q3, Q8, Q12 as logical dataflow graphs.

Operator choice follows the paper's Section VI descriptions:

* **Q1** — stateless map over bids (currency conversion), no shuffling.
* **Q3** — incremental stateful join persons ⋈ auctions (seller), persons
  filtered by state; complex topology with keyed shuffling; state grows
  without bound.
* **Q8** — windowed join persons ⋈ auctions over a processing-time
  tumbling window, running flavour (trigger on arrival, clear on expiry).
* **Q12** — windowed count of bids per bidder, processing-time tumbling
  window, running flavour; minor shuffling.
"""

from __future__ import annotations

from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import (
    FilterOperator,
    IncrementalJoinOperator,
    MapOperator,
    MaxPerKeyOperator,
    SinkOperator,
    SlidingWindowCountOperator,
    SourceOperator,
    WindowedCountOperator,
    WindowedJoinOperator,
)
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import ArrivalProcess
from repro.workloads.nexmark.generator import NexmarkGenerator
from repro.workloads.nexmark.model import BID_SIZE, Bid, Q3_STATES
from repro.workloads.spec import QuerySpec

#: NexMark Q1's dollar-to-euro factor
EXCHANGE_RATE = 0.908

#: processing-time tumbling window width for Q8/Q12 (seconds)
WINDOW_SECONDS = 10.0


# --------------------------------------------------------------------- #
# Graph builders
# --------------------------------------------------------------------- #

def build_q1(parallelism: int) -> LogicalGraph:
    """bids -> currency-conversion map -> sink (forward edges only)."""
    graph = LogicalGraph("q1")
    graph.add_source("source_bids", "bids", SourceOperator)
    graph.add_operator(
        "map_convert",
        lambda: MapOperator(
            fn=lambda bid: Bid(bid.auction, bid.bidder,
                               int(bid.price * EXCHANGE_RATE), bid.created_at),
            out_size=lambda _: BID_SIZE,
        ),
    )
    graph.add_operator("sink", SinkOperator)
    graph.connect("source_bids", "map_convert", Partitioning.FORWARD)
    graph.connect("map_convert", "sink", Partitioning.FORWARD)
    return graph


def build_q3(parallelism: int) -> LogicalGraph:
    """persons (filtered by state) ⋈ auctions (by seller), incremental.

    A match is emitted as a ``(name, state, auction, category)`` tuple:
    the person's name and state, the auction's id and category.
    """
    graph = LogicalGraph("q3")
    graph.add_source("source_persons", "persons", SourceOperator)
    graph.add_source("source_auctions", "auctions", SourceOperator)
    graph.add_operator(
        "filter_persons",
        lambda: FilterOperator(lambda person: person.state in Q3_STATES),
    )
    graph.add_operator(
        "join_incremental",
        lambda: IncrementalJoinOperator(
            left_key=lambda person: person.id,
            right_key=lambda auction: auction.seller,
            combine=lambda person, auction: (
                person.name, person.state, auction.id, auction.category),
        ),
        stateful=True,
    )
    graph.add_operator("sink", SinkOperator)
    graph.connect("source_persons", "filter_persons", Partitioning.FORWARD)
    graph.connect("filter_persons", "join_incremental", Partitioning.KEY,
                  key_fn=lambda person: person.id, port="left")
    graph.connect("source_auctions", "join_incremental", Partitioning.KEY,
                  key_fn=lambda auction: auction.seller, port="right")
    graph.connect("join_incremental", "sink", Partitioning.FORWARD)
    return graph


def build_q8(parallelism: int) -> LogicalGraph:
    """persons ⋈ auctions within a tumbling processing-time window.

    A match is emitted as a ``(person, name, auction)`` tuple: the
    person's id and name, the auction's id.
    """
    graph = LogicalGraph("q8")
    graph.add_source("source_persons", "persons", SourceOperator)
    graph.add_source("source_auctions", "auctions", SourceOperator)
    graph.add_operator(
        "join_window",
        lambda: WindowedJoinOperator(
            left_key=lambda person: person.id,
            right_key=lambda auction: auction.seller,
            combine=lambda person, auction: (
                person.id, person.name, auction.id),
            window=WINDOW_SECONDS,
        ),
        stateful=True,
    )
    graph.add_operator("sink", SinkOperator)
    graph.connect("source_persons", "join_window", Partitioning.KEY,
                  key_fn=lambda person: person.id, port="left")
    graph.connect("source_auctions", "join_window", Partitioning.KEY,
                  key_fn=lambda auction: auction.seller, port="right")
    graph.connect("join_window", "sink", Partitioning.FORWARD)
    return graph


def build_q5(parallelism: int) -> LogicalGraph:
    """Hot items: auction with the most bids per sliding window.

    Extension beyond the paper's evaluated set (which stops at Q1/Q3/Q8/
    Q12): Q5 is the canonical *sliding*-window NexMark query — per-auction
    bid counts over a hopping window, then a per-window maximum.  The
    count emits ``(auction, window, count)`` tuples, which the maximum
    and its KEY edge read by index; the maximum emits ``(window,
    auction, count)``.
    """
    graph = LogicalGraph("q5")
    graph.add_source("source_bids", "bids", SourceOperator)
    graph.add_operator(
        "count_sliding",
        lambda: SlidingWindowCountOperator(
            key_fn=lambda bid: bid.auction,
            window_range=WINDOW_SECONDS, slide=WINDOW_SECONDS / 5,
        ),
        stateful=True,
    )
    graph.add_operator(
        "max_per_window",
        lambda: MaxPerKeyOperator(
            group_fn=lambda update: update[1],
            value_fn=lambda update: update[2],
            item_fn=lambda update: update[0],
        ),
        stateful=True,
    )
    graph.add_operator("sink", SinkOperator)
    graph.connect("source_bids", "count_sliding", Partitioning.KEY,
                  key_fn=lambda bid: bid.auction)
    graph.connect("count_sliding", "max_per_window", Partitioning.KEY,
                  key_fn=lambda update: update[1])
    graph.connect("max_per_window", "sink", Partitioning.FORWARD)
    return graph


def build_q12(parallelism: int) -> LogicalGraph:
    """count of bids per bidder within a tumbling processing-time window."""
    graph = LogicalGraph("q12")
    graph.add_source("source_bids", "bids", SourceOperator)
    graph.add_operator(
        "count_window",
        lambda: WindowedCountOperator(
            key_fn=lambda bid: bid.bidder, window=WINDOW_SECONDS
        ),
        stateful=True,
    )
    graph.add_operator("sink", SinkOperator)
    graph.connect("source_bids", "count_window", Partitioning.KEY,
                  key_fn=lambda bid: bid.bidder)
    graph.connect("count_window", "sink", Partitioning.FORWARD)
    return graph


# --------------------------------------------------------------------- #
# Input builders
# --------------------------------------------------------------------- #

def _bids_inputs(rate: float, until: float, parallelism: int,
                 hot_ratio: float, seed: int,
                 arrival: ArrivalProcess | None = None) -> dict[str, PartitionedLog]:
    generator = NexmarkGenerator(parallelism, seed=seed, hot_ratio=hot_ratio)
    return {"bids": generator.bids_log(rate, until, arrival=arrival)}


def _person_auction_inputs(rate: float, until: float, parallelism: int,
                           hot_ratio: float, seed: int,
                           arrival: ArrivalProcess | None = None) -> dict[str, PartitionedLog]:
    generator = NexmarkGenerator(parallelism, seed=seed, hot_ratio=hot_ratio)
    persons, auctions = generator.person_auction_logs(rate, until,
                                                      arrival=arrival)
    return {"persons": persons, "auctions": auctions}


QUERIES: dict[str, QuerySpec] = {
    "q1": QuerySpec(
        name="q1",
        description="stateless currency-conversion map over bids",
        build_graph=build_q1,
        build_inputs=_bids_inputs,
        capacity_per_worker=220.0,
    ),
    "q3": QuerySpec(
        name="q3",
        description="incremental join persons(filtered) x auctions",
        build_graph=build_q3,
        build_inputs=_person_auction_inputs,
        capacity_per_worker=150.0,
    ),
    "q8": QuerySpec(
        name="q8",
        description="windowed join persons x auctions",
        build_graph=build_q8,
        build_inputs=_person_auction_inputs,
        capacity_per_worker=165.0,
    ),
    "q12": QuerySpec(
        name="q12",
        description="windowed count of bids per bidder",
        build_graph=build_q12,
        build_inputs=_bids_inputs,
        capacity_per_worker=210.0,
    ),
    # extension: not part of the paper's evaluated set, excluded from the
    # experiment grids (which iterate NEXMARK_ORDER), available to users
    "q5": QuerySpec(
        name="q5",
        description="hot items: sliding-window bid counts + per-window max",
        build_graph=build_q5,
        build_inputs=_bids_inputs,
        capacity_per_worker=170.0,
    ),
}
