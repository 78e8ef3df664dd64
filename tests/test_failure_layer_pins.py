"""What the failure layer records, pinned as literals.

q12 at p = 4, 300 rec/s, 20 s after 2 s of warmup, under COOR and UNC.
For five scenarios every recovery's kill instant, detection instant and
killed workers are pinned, with the run's failure and recovery counts:
a single kill, a correlated double kill, seeded Poisson kills, a flaky
node whose detection takes three heartbeat delays, and a trace whose
second kill lands while the first recovery is still open (one recovery,
two failures).  Then the failure count of a two-shard merged run, the
interval trajectory of an adaptive Poisson run, and the phase of every
instance's first local checkpoint in a failure-free UNC run, which the
timer jitter draws.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.parallel import RunRequest, execute_request
from repro.experiments.sharding import run_sharded
from repro.metrics.collectors import KIND_LOCAL

BASE = RunRequest(query="q12", protocol="coor", parallelism=4, rate=300.0,
                  duration=20.0, warmup=2.0)
POISSON = "poisson:mtbf=6,min_gap=5"

#: scenario -> (n_failures, n_recoveries, [(killed_at, detected_at,
#: workers)] per recovery); the same under both protocols
SCENARIOS = {
    "single:at=3,worker=1": (1, 1, [(5.0, 6.0, [1])]),
    "correlated:at=6,k=2": (2, 1, [(8.0, 9.0, [0, 1])]),
    POISSON: (3, 3, [
        (8.823995322226002, 9.823995322226002, [1]),
        (13.823995322226002, 14.823995322226002, [1]),
        (18.823995322226004, 19.823995322226004, [3]),
    ]),
    "flaky:worker=1,mtbf=8,slowdown=3,min_gap=6": (1, 1, [(8.0, 11.0, [1])]),
    "trace:3@0;3.5@1": (2, 1, [(5.0, 6.0, [0, 1])]),
}


@pytest.mark.parametrize("protocol", ["coor", "unc"])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_recoveries_of_each_scenario(protocol, scenario):
    metrics = execute_request(
        replace(BASE, protocol=protocol, failure_scenario=scenario)).metrics
    got = (metrics.n_failures, metrics.n_recoveries,
           [(r.killed_at, r.detected_at, list(r.workers))
            for r in metrics.recoveries])
    assert got == SCENARIOS[scenario]


def test_a_merged_run_counts_every_shards_failures():
    request = replace(BASE, protocol="unc",
                      failure_scenario="trace:3@0;9@1;15@2")
    assert run_sharded(request, 2).metrics.n_failures == 6


@pytest.mark.parametrize("protocol, n, first, last", [
    ("coor", 8, (5.033120469999992, 1.4096908171650706),
     (21.24291485000159, 1.06409676502621)),
    ("unc", 212, (2.5180572319999985, 0.5), (13.823995322226002, 0.5)),
])
def test_adaptive_interval_trajectory(protocol, n, first, last):
    updates = execute_request(replace(
        BASE, protocol=protocol, failure_scenario=POISSON,
        interval_policy="adaptive")).metrics.interval_updates
    assert (len(updates), updates[0], updates[-1]) == (n, first, last)


def test_first_local_checkpoint_of_each_unc_instance():
    first: dict = {}
    for event in execute_request(replace(BASE, protocol="unc")).metrics.checkpoints:
        if event.kind == KIND_LOCAL:
            first.setdefault(event.instance, event.started_at)
    assert first == {
        ("count_window", 0): 3.6497359486594254,
        ("count_window", 1): 3.7205811839999945,
        ("count_window", 2): 2.7878194119835986,
        ("count_window", 3): 3.1203311839999968,
        ("sink", 0): 3.371701087999995,
        ("sink", 1): 2.7407620566860933,
        ("sink", 2): 2.5170224140609836,
        ("sink", 3): 3.736140930004491,
        ("source_bids", 0): 2.879221471999997,
        ("source_bids", 1): 2.5140510879999987,
        ("source_bids", 2): 3.0996566181991847,
        ("source_bids", 3): 2.633221279999999,
    }
