"""Cyclic reachability query (paper Fig. 6) and its generator."""

from repro.workloads.cyclic.generator import CyclicGenerator
from repro.workloads.cyclic.reachability import build_reachability, REACHABILITY

__all__ = ["CyclicGenerator", "build_reachability", "REACHABILITY"]
