"""Differential suite: ``steady`` arrivals ARE the legacy generators.

The arrival layer's acceptance property (DESIGN.md section 17): plumbing
an explicit ``steady`` process through the generators must be invisible
— same timestamp formula, same draw sequence, same hot-key placement —
so every existing cached run, figure and regression baseline stays
valid.  This suite pins that at three levels:

* **log level** — for every generator (nexmark bids, nexmark
  persons+auctions, cyclic), ``arrival=None`` and a parsed ``steady``
  process produce byte-identical partitioned logs, in uniform and hot
  modes, and the timestamp sequence equals the legacy closed form;
* **run level** — full q12 runs through a failure + recovery agree on
  final operator state bytes, recovery lines and sink totals, for all
  4 protocols x 2 state backends;
* **cache level** — the input memo and the run-cache key treat the
  arrival spec as a coordinate (the satellite-1 regression: two runs
  differing only in arrival shape must never share logs or cache hits).
"""

import pytest

from repro.dataflow.runtime import Job
from repro.experiments.parallel import RunRequest, request_key, resolve_spec
from repro.sim.costs import RuntimeConfig
from repro.workloads.arrivals import parse_arrival
from repro.workloads.cyclic.generator import CyclicGenerator
from repro.workloads.nexmark.generator import NexmarkGenerator

from tests.conftest import canonical_state_bytes

BACKENDS = ["full", "changelog"]
ALL_PROTOCOLS = ["coor", "coor-unaligned", "unc", "cic"]

STEADY = parse_arrival("steady")


def _dump(log):
    """A partitioned log as comparable plain data (attribute by attribute)."""
    return [
        [(r.offset, r.available_at, r.payload, r.size_bytes)
         for r in part.records]
        for part in log.partitions
    ]


# --------------------------------------------------------------------- #
# Log level: arrival=None == parse_arrival("steady"), every generator
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("hot_ratio", [0.0, 0.3])
def test_bids_log_steady_is_byte_identical_to_legacy(hot_ratio):
    legacy = NexmarkGenerator(4, seed=11, hot_ratio=hot_ratio).bids_log(
        120.0, 9.0)
    steady = NexmarkGenerator(4, seed=11, hot_ratio=hot_ratio).bids_log(
        120.0, 9.0, arrival=STEADY)
    assert _dump(legacy) == _dump(steady)


@pytest.mark.parametrize("hot_ratio", [0.0, 0.3])
def test_person_auction_logs_steady_is_byte_identical_to_legacy(hot_ratio):
    generator = NexmarkGenerator(4, seed=11, hot_ratio=hot_ratio)
    legacy = generator.person_auction_logs(120.0, 9.0)
    steady = generator.person_auction_logs(120.0, 9.0, arrival=STEADY)
    for log_a, log_b in zip(legacy, steady):
        assert _dump(log_a) == _dump(log_b)


def test_cyclic_logs_steady_is_byte_identical_to_legacy():
    legacy = CyclicGenerator(4, seed=11).logs(80.0, 9.0)
    steady = CyclicGenerator(4, seed=11).logs(80.0, 9.0, arrival=STEADY)
    for log_a, log_b in zip(legacy, steady):
        assert _dump(log_a) == _dump(log_b)


def test_steady_timestamps_pin_the_legacy_closed_form():
    """``int(rate*until)`` events at ``(k+0.5)*(1.0/rate)`` — exactly."""
    rate, until = 130.0, 7.3
    got = list(STEADY.timestamps(rate, until, None))
    inv = 1.0 / rate
    assert got == [(k + 0.5) * inv for k in range(int(rate * until))]


# --------------------------------------------------------------------- #
# Run level: q12 through failure+recovery, 4 protocols x 2 backends
# --------------------------------------------------------------------- #


def _run_q12(protocol, state_backend, arrival):
    """One spec-driven q12 run mirroring ``run_with_spec``'s construction."""
    spec = resolve_spec("q12")
    config = RuntimeConfig(checkpoint_interval=3.0, duration=14.0,
                           warmup=2.0, failure_at=6.0, seed=7,
                           state_backend=state_backend)
    parallelism, rate = 2, 250.0
    graph = spec.build_graph(parallelism)
    inputs = spec.make_job_inputs(rate, 12.0, parallelism, 0.0, 7,
                                  arrival=arrival)
    job = Job(graph, protocol, parallelism, inputs, config)
    result = job.run(rate=rate, query_name="q12")
    return job, result


@pytest.mark.parametrize("state_backend", BACKENDS)
@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_q12_run_steady_differential(protocol, state_backend):
    """Final state bytes, recovery lines and sink totals all agree between
    arrival=None and arrival='steady', through an actual recovery."""
    job_legacy, res_legacy = _run_q12(protocol, state_backend, None)
    job_steady, res_steady = _run_q12(protocol, state_backend, "steady")
    assert canonical_state_bytes(job_legacy) == canonical_state_bytes(job_steady)
    assert (res_legacy.metrics.recovery_lines
            == res_steady.metrics.recovery_lines)
    assert len(res_legacy.metrics.recovery_lines) >= 1
    assert (res_legacy.metrics.total_sink_records()
            == res_steady.metrics.total_sink_records())
    assert res_legacy.metrics.total_sink_records() > 0


# --------------------------------------------------------------------- #
# Cache level: the arrival spec is a memo / cache-key coordinate
# --------------------------------------------------------------------- #


def test_input_memo_keys_on_the_arrival_spec():
    """Satellite-1 regression: same coordinates + different arrival must
    produce different log objects; the same arrival twice must memo-hit."""
    spec = resolve_spec("q12")
    plain = spec.make_job_inputs(90.0, 6.0, 2, 0.0, 7)
    shaped = spec.make_job_inputs(90.0, 6.0, 2, 0.0, 7,
                                  arrival="diurnal:period=4,amp=0.6")
    again = spec.make_job_inputs(90.0, 6.0, 2, 0.0, 7,
                                 arrival="diurnal:period=4,amp=0.6")
    assert shaped["bids"] is not plain["bids"]
    assert _dump(shaped["bids"]) != _dump(plain["bids"])
    assert again["bids"] is shaped["bids"]


def test_request_key_includes_the_arrival_spec():
    base = dict(query="q12", protocol="coor", parallelism=2, rate=100.0,
                duration=10.0, warmup=2.0, seed=7)
    plain = RunRequest(**base)
    steady = RunRequest(**base, arrival="steady")
    flash = RunRequest(**base, arrival="flash:at=5")
    keys = {request_key(plain), request_key(steady), request_key(flash)}
    # all three differ: None vs "steady" are semantically identical inputs
    # but distinct coordinates (the spec string is the cache contract)
    assert len(keys) == 3
