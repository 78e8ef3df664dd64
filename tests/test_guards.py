"""Inputs no entry point produces, one test per guard that refuses them.

The line census (``python -m tools.census``, DESIGN.md section 14)
finds these guards unexecuted by every real run and lists each in
``tools/census_allow.txt`` under the test here that shows its input:
a stale upload or metadata message after a rescale, a non-positive
rescale target, a poll interval turned NaN, a hand-built history no
run can record, an operator used outside a runtime, a task kind the
worker does not know.  The base
protocol hooks the engine elides are listed as the reference
``test_an_elided_hook_is_the_base_no_op`` compares the real path with.
"""

import math
from dataclasses import replace

import pytest

from repro.core.base import CheckpointMeta
from repro.core.checkpoint_graph import CheckpointGraph, maximal_consistent_line
from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import MARKER, Message, RouterBuffer
from repro.dataflow.graph import GraphError, Partitioning
from repro.dataflow.keygroups import DEFAULT_MAX_KEY_GROUPS
from repro.dataflow.operators import Operator, OperatorContext, WindowedCountOperator
from repro.dataflow.results import RunResult
from repro.dataflow.runtime import Job
from repro.dataflow.records import StreamRecord
from repro.metrics.collectors import KIND_COOR, MetricsCollector, RecoveryRecord
from repro.sim.costs import CostModel, RuntimeConfig
from repro.sim.simulator import SimulationError

from tests.conftest import (
    batch_of, build_count_graph, canonical_state_bytes, make_event_log)
from tests.test_checkpoint_graph import ckpt
from tests.test_channels import make_edge


def _job(protocol: str = "unc", parallelism: int = 3,
         **config) -> Job:
    config = {"duration": 10.0, "warmup": 1.0, "seed": 3, **config}
    log = make_event_log(300.0, 10.0, parallelism, seed=3)
    return Job(build_count_graph(), protocol, parallelism, {"events": log},
               RuntimeConfig(**config))


# --------------------------------------------------------------------- #
# Epoch guards: what a rescale leaves in flight
# --------------------------------------------------------------------- #

def _stale_calls(monkeypatch, owner, name):
    """Wrap ``owner.name(..., deploy_epoch, epoch)`` and count the calls
    made for a deployment that no longer exists."""
    original = getattr(owner, name)
    stale = []

    def watching(self, *args):
        job = self if isinstance(self, Job) else self.job
        stale.append(args[-2] != job.deploy_epoch)
        return original(self, *args)

    monkeypatch.setattr(owner, name, watching)
    return stale


def test_an_upload_that_outlives_a_rescale_commits_nothing(monkeypatch):
    """A store slow enough (and a detection quick enough) that an upload
    is still running when the rescaled deployment replaces its instance:
    the ack is dropped."""
    stale = _stale_calls(monkeypatch, Job, "_checkpoint_durable")
    job = _job(checkpoint_interval=1.0, failure_at=4.0, rescale_to=4,
               duration=20.0, cost_model=CostModel(blob_bandwidth=500.0,
                                                   detection_delay=0.01))
    result = job.run()
    assert result.metrics.n_recoveries == 1 and job.parallelism == 4
    assert any(stale)


def test_metadata_that_outlives_a_rescale_registers_nothing(monkeypatch):
    """Metadata slow enough to land after the rescaled redeploy: the
    coordinator drops it instead of registering a gone instance."""
    from repro.dataflow.coordinator import Coordinator

    stale = _stale_calls(monkeypatch, Coordinator, "_on_metadata")
    job = _job(checkpoint_interval=1.0, failure_at=4.0, rescale_to=4,
               cost_model=CostModel(metadata_message_bytes=400_000_000))
    job.run()
    assert job.parallelism == 4
    assert any(stale)


# --------------------------------------------------------------------- #
# Cost models and histories no run produces
# --------------------------------------------------------------------- #

def test_a_poll_interval_turned_nan_stops_the_run():
    """The start-up schedule refuses a NaN interval outright, so the poll
    loop's own inline guard sees one only if the interval turns NaN
    after the first polls were scheduled."""
    job = _job(protocol="none", duration=2.0)
    nan_polls = replace(job.cost, source_poll_interval=math.nan)
    job.sim.schedule(1.0, setattr, job, "cost", nan_polls)
    with pytest.raises(SimulationError, match="nan"):
        job.run()


def test_an_orphan_at_the_initial_checkpoint_is_refused():
    """An initial checkpoint that claims to have received a message no
    checkpoint of its sender sent: no line can roll past it."""
    channel = (0, 0, 0)
    sender, receiver = ("a", 0), ("b", 0)
    graph = CheckpointGraph(
        {sender: [ckpt(sender, 0)],
         receiver: [ckpt(receiver, 0, received={channel: 1})]},
        [(channel, sender, receiver)])
    with pytest.raises(RuntimeError, match="past initial"):
        maximal_consistent_line(graph)


@pytest.mark.parametrize("target", [0, -1])
def test_a_non_positive_rescale_target_is_refused(target):
    """Only the CLI checks ``--rescale-to``: without this a library
    caller's 0 would skip the rescale and a -1 fail mid-run."""
    with pytest.raises(GraphError, match="parallelism must be positive"):
        _job(failure_at=3.0, rescale_to=target)


def test_a_run_down_for_its_whole_window_has_no_goodput():
    metrics = MetricsCollector()
    metrics.recoveries.append(RecoveryRecord(killed_at=0.5, applied_at=20.0))
    result = RunResult(query="synthetic", protocol="unc", parallelism=1,
                       rate=1.0, warmup=1.0, duration=10.0, metrics=metrics,
                       checkpoint_interval=5.0)
    assert result.goodput() == 0.0


def test_a_probe_whose_latency_doubles_is_not_sustainable():
    """An overloaded MST probe: the p50 of the window's second half is
    more than twice its first half's."""
    metrics = MetricsCollector()
    for second in range(1, 13):
        now = second + 0.5
        metrics.record_output_batch(now, [now - 0.01 * 2 ** second])
    result = RunResult(query="synthetic", protocol="unc", parallelism=1,
                       rate=1.0, warmup=1.0, duration=12.0, metrics=metrics,
                       checkpoint_interval=5.0)
    assert result.sustainable(1.0) is False


# --------------------------------------------------------------------- #
# Protocol and operator contracts
# --------------------------------------------------------------------- #

def test_a_marker_reaches_only_a_protocol_that_uses_markers():
    job = _job()
    instance = job.instance(("count", 0))
    channel = next(iter(instance.in_channels))
    marker = Message(channel, 0, MARKER, None, 0, 24, None, (1, 0))
    with pytest.raises(NotImplementedError, match="does not use markers"):
        job.protocol.on_marker(instance, channel, marker)


@pytest.mark.parametrize("protocol", ["none", "coor"])
def test_an_elided_hook_is_the_base_no_op(protocol):
    """The engine calls ``on_send`` / ``on_data_received`` only for a
    protocol that overrides them; calling the base hooks instead changes
    nothing, bit for bit."""
    elided, called = _job(protocol), _job(protocol)
    assert not (called.protocol.hooks_send or called.protocol.hooks_receive)
    called.protocol.hooks_send = called.protocol.hooks_receive = True
    results = [job.run() for job in (elided, called)]
    assert canonical_state_bytes(elided) == canonical_state_bytes(called)
    assert results[0].latency_series() == results[1].latency_series()
    assert results[0].metrics.messages_sent == results[1].metrics.messages_sent


def test_an_operator_outside_a_runtime_is_refused():
    """The base context implements no time, timer or output hook, and an
    operator that defines neither ``process`` nor ``process_batch`` has
    nothing to run."""
    context = OperatorContext()
    with pytest.raises(NotImplementedError):
        context.now()
    with pytest.raises(NotImplementedError):
        context.register_timer(1.0, "tag")
    with pytest.raises(NotImplementedError):
        context.record_outputs([0.0])
    windowed = WindowedCountOperator(lambda payload: payload, window=1.0)
    windowed.open(context)
    with pytest.raises(NotImplementedError):
        windowed.process_batch(RecordBatch([1], [7], [0.0], [8]), "in")
    with pytest.raises(NotImplementedError):
        Operator().process_batch(RecordBatch([1], [7], [0.0], [8]), "in")


def test_metadata_of_a_dropped_round_is_ignored():
    """COOR counts a round's metadata only while the round is open."""
    job = _job(protocol="coor")
    job.protocol.on_metadata(CheckpointMeta(
        instance=("count", 0), checkpoint_id=7, kind=KIND_COOR, round_id=99,
        started_at=1.0, durable_at=1.1, state_bytes=0, blob_key="count/7",
        last_sent={}, last_received={}, upload_bytes=0))
    assert 99 not in job.completed_rounds


# --------------------------------------------------------------------- #
# Worker and router bookkeeping
# --------------------------------------------------------------------- #

def test_a_task_of_an_unknown_kind_fails():
    with pytest.raises(AssertionError, match="unknown task kind"):
        _job().workers[0]._run(("bogus",))


def test_an_empty_batch_stages_nothing_and_blocking_twice_is_blocking_once():
    edge = make_edge(Partitioning.FORWARD, edge_id=0)
    router = RouterBuffer([edge], 0, 2, DEFAULT_MAX_KEY_GROUPS, 1)
    router.route_batch(RecordBatch([], [], [], []))
    assert router.staged_records == 0 and router.take_all() == []
    router.route_batch(batch_of([StreamRecord(rid=1, payload=7, source_ts=0.0,
                                              size_bytes=8)]))
    router.block(0, 0)
    router.block(0, 0)
    assert router._n_ready == 0
    assert router.take_ready() == []


def test_cutting_a_segment_off_the_live_chain_cuts_nothing():
    """A floor cut at a segment no node of the live chain holds (already
    cut, or below a root a sealed set started) finds nothing to drop."""
    job = _job(protocol="unc")
    job.run()
    instance = job.instance(("count", 0))
    head = instance.rid_head
    segments = [list(segment) for segment in head.segments()]
    instance.cut_rids([])
    assert instance.rid_head is head
    assert head.segments() == segments
