"""NexMark workload: event model, generator, and queries Q1/Q3/Q8/Q12."""

from repro.workloads.nexmark.model import Person, Auction, Bid
from repro.workloads.nexmark.generator import NexmarkGenerator
from repro.workloads.nexmark.queries import QUERIES, build_q1, build_q3, build_q8, build_q12

__all__ = [
    "Person",
    "Auction",
    "Bid",
    "NexmarkGenerator",
    "QUERIES",
    "build_q1",
    "build_q3",
    "build_q8",
    "build_q12",
]
