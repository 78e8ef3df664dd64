"""MST search behaviour and worker-level mechanics."""

import pytest

from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import DATA, MARKER, Message
from repro.dataflow.runtime import Job
from repro.experiments.parallel import run_with_spec
from repro.metrics.mst import MstResult, estimate_capacity, find_mst, probe_request
from repro.sim.costs import RuntimeConfig
from repro.workloads.nexmark import QUERIES

from tests.conftest import build_count_graph, make_event_log


# --------------------------------------------------------------------- #
# MST search
# --------------------------------------------------------------------- #

def test_estimate_capacity_scales_with_parallelism():
    spec = QUERIES["q1"]
    assert estimate_capacity(spec, 10) == pytest.approx(10 * spec.capacity_per_worker)


def test_probe_run_returns_result():
    result = run_with_spec(QUERIES["q1"], probe_request(
        QUERIES["q1"], "none", 2, rate=200.0, duration=6.0, warmup=2.0))
    assert result.query == "q1"
    assert sum(result.metrics.sink_counts.values()) > 0


def test_find_mst_brackets_the_boundary():
    r = find_mst(QUERIES["q1"], "none", 2, probe_duration=6.0, warmup=3.0,
                 iterations=2)
    assert isinstance(r, MstResult)
    assert r.mst > 0
    assert len(r.probes) >= 2
    # the returned MST itself probed sustainable
    sustainable_rates = [rate for rate, ok in r.probes if ok]
    assert sustainable_rates and min(sustainable_rates) <= r.mst <= max(
        rate for rate, _ in r.probes
    )


def test_mst_of_protocol_not_above_baseline():
    base = find_mst(QUERIES["q1"], "none", 2, probe_duration=6.0, warmup=3.0,
                    iterations=2).mst
    cic = find_mst(QUERIES["q1"], "cic", 2, probe_duration=6.0, warmup=3.0,
                   iterations=2).mst
    assert cic <= base * 1.05


# --------------------------------------------------------------------- #
# Worker mechanics (via the runtime)
# --------------------------------------------------------------------- #

def make_job(protocol="none", parallelism=2):
    log = make_event_log(200.0, 6.0, parallelism)
    return Job(build_count_graph(), protocol, parallelism, {"events": log},
               RuntimeConfig(duration=8.0, warmup=1.0, failure_at=None))


def arrive(job, channel, msg):
    """Land ``msg`` on its destination worker, as the wire would."""
    job.transport.arrive(channel, msg, job.deploy_epoch)


def test_blocked_channel_buffers_and_releases_in_order():
    job = make_job()
    worker = job.workers[0]
    channel = next(iter(job.channel_dst))
    # pick a channel whose destination lives on worker 0
    channel = next(c for c, inst in job.channel_dst.items() if c[2] == 0)
    worker.block_channel(channel)
    msgs = [
        Message(channel=channel, seq=s, kind=DATA,
                records=RecordBatch([], [], [], []), payload_bytes=0)
        for s in (1, 2, 3)
    ]
    for m in msgs:
        arrive(job, channel, m)
    assert len(worker._tasks) == 0  # all buffered
    worker.unblock_channel(channel)
    assert len(worker._tasks) in (2, 3)  # first may already be running
    # drain the simulated CPU and verify order via cursor
    job.sim.run_until(job.sim.now + 1.0)
    instance = job.channel_dst[channel]
    assert instance.last_received[channel] == 3


def test_kill_clears_tasks_and_refuses_new_work():
    job = make_job()
    worker = job.workers[0]
    worker.kill()
    assert not worker.alive
    worker.enqueue(("flush",))
    assert len(worker._tasks) == 0


def test_dead_worker_drops_deliveries():
    job = make_job()
    worker = job.workers[0]
    channel = next(c for c, inst in job.channel_dst.items() if c[2] == 0)
    worker.kill()
    arrive(job, channel, Message(channel=channel, seq=1, kind=DATA,
                                 records=RecordBatch([], [], [], []),
                                 payload_bytes=0))
    assert len(worker._tasks) == 0


def test_reset_for_recovery_clears_buffers():
    job = make_job()
    worker = job.workers[0]
    channel = next(c for c, inst in job.channel_dst.items() if c[2] == 0)
    worker.block_channel(channel)
    arrive(job, channel, Message(channel=channel, seq=1, kind=DATA,
                                 records=RecordBatch([], [], [], []),
                                 payload_bytes=0))
    worker.reset_for_recovery()
    assert worker.blocked == set()
    assert len(worker._tasks) == 0


def test_marker_messages_bypass_data_queue():
    """Markers are handled at arrival by the protocol (alignment), not queued."""
    job = make_job(protocol="coor")
    worker = job.workers[0]
    channel = next(c for c, inst in job.channel_dst.items() if c[2] == 0)
    marker = Message(channel=channel, seq=0, kind=MARKER, records=None,
                     payload_bytes=0, meta=(1, 0))  # (round, sender cursor)
    arrive(job, channel, marker)
    assert channel in worker.blocked  # COOR blocked the channel immediately


def test_instance_state_bytes_includes_dedup_set():
    job = make_job(protocol="unc")
    instance = job.instance(("count", 0))
    before = instance.state_bytes
    instance.processed_rids.update(range(100))
    assert instance.state_bytes >= before + 800
