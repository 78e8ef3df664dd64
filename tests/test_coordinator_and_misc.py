"""Coverage for the coordinator control plane and small utilities."""


from repro.core.base import CheckpointMeta
from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig

from tests.conftest import build_count_graph, make_event_log


def make_job(protocol="none", parallelism=2):
    log = make_event_log(100.0, 4.0, parallelism)
    return Job(build_count_graph(), protocol, parallelism, {"events": log},
               RuntimeConfig(duration=6.0, warmup=1.0))


def meta(cid=1):
    return CheckpointMeta(
        instance=("src", 0), checkpoint_id=cid, kind="local", round_id=None,
        started_at=0.0, durable_at=0.5, state_bytes=10, blob_key="k",
        last_sent={}, last_received={},
        upload_bytes=10,
    )


def test_metadata_arrives_after_network_delay():
    job = make_job()
    job.coordinator.send_metadata(meta())
    assert job.registry.total() == 0  # not yet delivered
    job.sim.run_until(1.0)
    assert job.registry.total() == 1


def test_metadata_listeners_invoked_in_order():
    """The protocol hears of each checkpoint in arrival order, once it
    is in the registry."""
    job = make_job()
    calls = []
    job.protocol.on_metadata = lambda m: calls.append(
        (m.checkpoint_id, job.registry.total()))
    job.coordinator.send_metadata(meta(1))
    job.coordinator.send_metadata(meta(2))
    job.sim.run_until(1.0)
    assert calls == [(1, 1), (2, 2)]


def test_metadata_message_bytes_are_counted():
    job = make_job()
    before = job.metrics.protocol_bytes
    job.coordinator.send_metadata(meta())
    assert job.metrics.protocol_bytes == before + job.cost.metadata_message_bytes


def test_control_to_dead_worker_is_dropped():
    job = make_job()
    fired = []
    job.workers[0].kill()
    job.coordinator.send_control_to_worker(0, 10, lambda: fired.append(1))
    job.sim.run_until(1.0)
    assert fired == []


def test_control_to_live_worker_fires():
    job = make_job()
    fired = []
    job.coordinator.send_control_to_worker(1, 10, lambda: fired.append(1))
    job.sim.run_until(1.0)
    assert fired == [1]


def test_edge_channel_dsts_respects_partitioning():
    job = make_job()
    forward_edge = next(e for e in job.graph.edges if e.src == "count")
    keyed_edge = next(e for e in job.graph.edges if e.src == "src")
    assert job.edge_channel_dsts(forward_edge, 1) == [1]
    assert job.edge_channel_dsts(keyed_edge, 1) == [0, 1]


def test_in_channels_match_partitioning():
    job = make_job(parallelism=3)
    count0 = job.instance(("count", 0))
    # keyed edge: one channel per upstream instance
    keyed = [c for c in count0.in_channels]
    assert len(keyed) == 3
    sink0 = job.instance(("sink", 0))
    assert len(sink0.in_channels) == 1  # forward edge


def test_registry_property_shortcut():
    job = make_job()
    assert job.registry is job.coordinator.registry


def test_blobstore_shared_via_coordinator():
    job = make_job()
    job.coordinator.blobstore.put("x", 1, 8)
    assert "x" in job.coordinator.blobstore
