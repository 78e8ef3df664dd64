"""Transport-layer invariants: FIFO, credits, queue depth, back-compat.

Three levels (DESIGN.md section 13):

* **RouterBuffer** — per-edge indexing, blocked-key bookkeeping and the
  counters, by example and by property (random route/drain/block
  sequences must never lose, duplicate or reorder a record);
* **Transport** — per-channel FIFO order under credit exhaustion, the
  queue-depth accounting invariant checked at *every* delivery event,
  unbounded-run neutrality, and the cyclic-graph deadlock guard;
* **the façade split** — every public name tests and benchmarks import
  from ``repro.dataflow.runtime`` keeps resolving after the engine /
  results / transport / lifecycle decomposition.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import RouterBuffer, key_destinations
from repro.dataflow.graph import LogicalGraph, Partitioning, UnsupportedTopologyError
from repro.dataflow.keygroups import DEFAULT_MAX_KEY_GROUPS
from repro.dataflow.operators import SinkOperator, SourceOperator
from repro.dataflow.records import StreamRecord

from tests.conftest import KeyedEvent, batch_of, run_count_job
from tests.test_exactly_once import expected_counts, measured_counts

TIGHT = 1500  # ~one full 32-record batch of 40-byte events, plus headroom


# --------------------------------------------------------------------- #
# The runtime façade exports the engine, the results module its results
# --------------------------------------------------------------------- #

def test_runtime_facade_reexports_public_names():
    """``repro.dataflow.runtime`` is ``Job`` and ``InstanceKey``;
    ``RunResult`` has one home, ``repro.dataflow.results``."""
    from repro.dataflow import runtime
    from repro.dataflow import Job as PkgJob, RunResult as PkgRunResult
    from repro.dataflow.results import RunResult

    assert runtime.__all__ == ["InstanceKey", "Job"]
    assert PkgJob is runtime.Job
    assert PkgRunResult is RunResult


def test_job_wires_transport_and_lifecycle_layers():
    job, _ = run_count_job("unc", failure_at=None, duration=6.0)
    from repro.dataflow.lifecycle import LifecycleManager
    from repro.dataflow.transport import Transport

    assert isinstance(job.transport, Transport)
    assert isinstance(job.lifecycle, LifecycleManager)
    assert not job.transport.bounded  # default config: unbounded channels


# --------------------------------------------------------------------- #
# RouterBuffer: per-edge indexing and blocked keys
# --------------------------------------------------------------------- #

def _make_router(n_edges: int = 3, parallelism: int = 4, batch_max: int = 4):
    graph = LogicalGraph("router")
    graph.add_source("src", "events", SourceOperator)
    for i in range(n_edges):
        graph.add_operator(f"op{i}", SinkOperator)
        graph.connect("src", f"op{i}", Partitioning.KEY, key_fn=lambda e: e.key)
    edges = graph.out_edges("src")
    return RouterBuffer(edges, 0, parallelism, DEFAULT_MAX_KEY_GROUPS,
                        batch_max), edges


def _staged_bytes(router) -> int:
    """Bytes staged across every buffer, read as the transport reads
    them: ``staged_for`` per ``(edge, dst)``."""
    return sum(router.staged_for(edge_id, dst)[0]
               for edge_id, buffers in router._by_edge.items()
               for dst in buffers)


def _batch(keys) -> RecordBatch:
    return batch_of(
        [StreamRecord(rid=i, payload=KeyedEvent(k, i), source_ts=0.0,
                      size_bytes=40)
         for i, k in enumerate(keys)])


def test_blocked_key_skipped_by_gated_drains_but_forced_out():
    router, edges = _make_router(n_edges=1, batch_max=2)
    router.route_batch(_batch([0, 0, 0, 0]))  # one hot destination, full batch
    [(edge_id, dst, _, _)] = router.take_ready()
    router.route_batch(_batch([0, 0, 0]))
    router.block(edge_id, dst)
    assert (edge_id, dst) in router._blocked
    assert router.take_ready() == []          # blocked: gated drain skips
    assert router.take_all(gate=lambda *a: True) == []
    before = router.staged_records
    drained = router.take_all()               # forced: checkpoint flush
    assert sum(len(r) for _, _, r, _ in drained) == before
    assert (edge_id, dst) not in router._blocked
    assert router.staged_records == 0


def test_ungated_take_all_drains_everything_and_settles_the_counters():
    """The checkpoint flush (and every flush of an unbounded job): parked
    buffers leave too and are unparked, a parked pair that holds nothing
    stays parked, and the counters read zero — for what is routed next."""
    router, edges = _make_router(n_edges=2, batch_max=2)
    first, second = edges[0].edge_id, edges[1].edge_id
    table = key_destinations(4, DEFAULT_MAX_KEY_GROUPS)
    owner = {key: table.derive(key) for key in range(9)}
    hot = owner[0]
    lone = next(key for key in owner if owner[key] != hot)
    idle = next(d for d in range(4) if d not in (hot, owner[lone]))
    router.route_batch(_batch([0, lone, 0]))  # rids 0, 1, 2
    staged = {(eid, dst): rids for eid in (first, second)
              for dst, rids in ((hot, [0, 2]), (owner[lone], [1]))}
    assert [router.staged_for(*pair) for pair in staged] \
        == [(80, 2), (40, 1), (80, 2), (40, 1)]
    assert router.staged_for(second, idle) == (0, 0)
    router.block(first, hot)     # holds a full batch
    router.block(second, idle)   # holds nothing
    assert router._n_ready == 1  # the hot pair of the second edge
    drained = router.take_all()
    assert [(eid, dst, records.rids) for eid, dst, records, _ in drained] \
        == [(eid, dst, rids) for (eid, dst), rids in staged.items()]
    assert all(nbytes == 40 * len(records) for _, _, records, nbytes in drained)
    assert (router.staged_records, _staged_bytes(router), router._n_ready) \
        == (0, 0, 0)
    assert router._blocked == {(second, idle)}
    router.route_batch(_batch([0, 0]))
    assert router._n_ready == 2 and router.staged_records == 4
    assert len(router.take_ready()) == 2


def test_send_all_is_the_ungated_take_all_without_the_list():
    """The unbounded linger flush: the same buffers, in the same order,
    handed to ``send`` one by one, and the same state left behind."""
    routers = [_make_router(n_edges=2, batch_max=2)[0] for _ in range(2)]
    for router in routers:
        router.route_batch(_batch([0, 1, 0, 2, 5]))
    edge_id, buffers = next(iter(routers[0]._by_edge.items()))
    idle = (edge_id, next(d for d in range(4) if d not in buffers))
    for router in routers:
        router.block(*idle)  # a parked pair that holds nothing stays parked
    reference, router = routers
    expected = [(eid, dst, records.rids, nbytes)
                for eid, dst, records, nbytes in reference.take_all()]
    sent = []

    def send(owner, eid, dst, records, nbytes):
        assert owner == "instance"
        sent.append((eid, dst, records.rids, nbytes))
        return 0.5

    assert router.send_all(send, "instance") == 0.5 * len(expected)
    assert sent == expected and len(sent) > 2
    for drained in routers:
        assert (drained.staged_records, _staged_bytes(drained),
                drained._n_ready) == (0, 0, 0)
    assert router._blocked == reference._blocked == {idle}


def test_gate_refusal_blocks_in_place():
    router, edges = _make_router(n_edges=1, batch_max=2)
    router.route_batch(_batch([0, 0]))
    refused = router.take_ready(gate=lambda eid, dst, nbytes, nrecords: False)
    assert refused == []
    [(eid, dst)] = list(router._blocked)
    assert router.staged_for(eid, dst)[0] == 80
    # credit returns: the whole buffer leaves as one message
    records, nbytes = router.take_channel(eid, dst)
    assert len(records) == 2 and nbytes == 80
    assert router.staged_records == 0 and not router._blocked


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 4),            # action selector
              st.integers(0, 7),            # routing key
              st.integers(0, 2)),           # edge selector
    min_size=1, max_size=60,
))
def test_router_never_loses_or_duplicates_records(ops):
    """Property: routed records == drained records, per (edge, dst), in order.

    Random interleavings of route_batch (one record, or a batch of two to
    four — up to past the batch threshold) / take_ready / take_all /
    block / unblock must conserve every record exactly once
    and keep per-destination FIFO order; the incremental counters must
    match the buffered reality at every step.  Records include size 0
    (the record counter, not just the byte counter, must track them).
    """
    router, edges = _make_router(n_edges=3, parallelism=3, batch_max=3)
    table = key_destinations(3, DEFAULT_MAX_KEY_GROUPS)
    routed: dict[tuple[int, int], list[int]] = {}
    drained: dict[tuple[int, int], list[int]] = {}
    next_rid = [0]
    routed_bytes = [0]
    drained_bytes = [0]

    def make_record(key):
        rid = next_rid[0]
        next_rid[0] += 1
        # a third of all records are zero-size: byte accounting alone
        # would let them vanish from the staged counters
        size = (key % 3) * 20
        record = StreamRecord(rid=rid, payload=KeyedEvent(key, rid),
                              source_ts=0.0, size_bytes=size)
        dst = table.derive(key)
        for e in edges:  # every edge routes each record once
            routed.setdefault((e.edge_id, dst), []).append(rid)
        routed_bytes[0] += size * len(edges)
        return record

    def collect(items):
        for edge_id, dst, records, nbytes in items:
            assert nbytes == sum(r.size_bytes for r in records)
            drained.setdefault((edge_id, dst), []).extend(r.rid for r in records)
            drained_bytes[0] += nbytes

    for action, key, edge_sel in ops:
        edge = edges[edge_sel]
        if action <= 1:  # route one record (weighted: most common op)
            router.route_batch(batch_of([make_record(key)]))
        elif action == 2:  # route a batch of 2..4 records over several keys
            router.route_batch(batch_of(
                [make_record((key + 5 * i) % 8) for i in range(2 + edge_sel)]))
        elif action == 3:
            collect(router.take_ready())
        else:
            dst = key % 3
            if (edge.edge_id, dst) in router._blocked:
                taken = router.take_channel(edge.edge_id, dst)
                if taken is not None:
                    records, nbytes = taken
                    collect([(edge.edge_id, dst, records, nbytes)])
            else:
                router.block(edge.edge_id, dst)
        # counters must match buffered reality at every step
        staged = sum(len(v) for v in routed.values()) - sum(
            len(v) for v in drained.values())
        assert router.staged_records == staged
        assert _staged_bytes(router) == routed_bytes[0] - drained_bytes[0]
    collect(router.take_all())
    assert router.staged_records == 0 and _staged_bytes(router) == 0
    for key in routed:
        assert drained.get(key, []) == routed[key], f"order/loss on {key}"


# --------------------------------------------------------------------- #
# Credit-based flow control: FIFO, accounting, neutrality
# --------------------------------------------------------------------- #

def test_fifo_order_preserved_under_credit_exhaustion():
    """Per-channel seqs must arrive gapless even when batches park."""
    import tests.conftest as c
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig

    config = RuntimeConfig(checkpoint_interval=3.0, duration=16.0, warmup=2.0,
                           failure_at=6.0, seed=3,
                           channel_capacity_bytes=TIGHT)
    log = c.make_event_log(300.0, 10.0, 3, seed=3)
    job = Job(c.build_count_graph(), "unc", 3, {"events": log}, config)
    seen: dict[tuple, tuple[int, int]] = {}
    original = job.transport.arrive
    checked = [0]

    def checking_deliver(channel, msg, deploy_epoch=0):
        dropped = job.recovering or deploy_epoch != job.deploy_epoch
        if msg.kind == 0 and msg.seq and not dropped:
            # a rollback rewinds the senders' cursors, so sequences are
            # gapless *within* a recovery epoch; the first message of a
            # new epoch re-baselines the expectation
            epoch = sum(r.applied_at is not None
                        for r in job.metrics.recoveries)
            last = seen.get(channel)
            if last is not None and last[0] == epoch:
                assert msg.seq == last[1] + 1, (
                    f"gap on {channel}: {last[1]} -> {msg.seq}")
                checked[0] += 1
            seen[channel] = (epoch, msg.seq)
        original(channel, msg, deploy_epoch)

    job.transport.arrive = checking_deliver
    job.run()
    assert checked[0] > 100
    assert job.metrics.sends_parked > 0  # the bound actually bit


def test_queue_depth_accounting_invariant_at_every_event():
    """in-flight totals must equal the per-channel sum at every delivery,
    and staged+in-flight must equal routed-minus-consumed bytes."""
    import tests.conftest as c
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig

    config = RuntimeConfig(checkpoint_interval=3.0, duration=16.0, warmup=2.0,
                           failure_at=6.0, seed=3,
                           channel_capacity_bytes=TIGHT)
    log = c.make_event_log(300.0, 10.0, 3, seed=3)
    job = Job(c.build_count_graph(), "unc", 3, {"events": log}, config)
    transport = job.transport
    original = job.transport.arrive
    events = [0]

    def checking_deliver(channel, msg, deploy_epoch=0):
        events[0] += 1
        per_channel = transport.in_flight_bytes
        assert all(v >= 0 for v in per_channel.values())
        assert transport.total_in_flight == sum(per_channel.values())
        for ch, depth in per_channel.items():
            assert depth <= job.metrics.peak_in_flight_bytes.get(ch, 0)
        assert (transport.total_in_flight
                <= job.metrics.peak_total_in_flight_bytes)
        # queue depth = staged (router) + in flight (wire), never negative
        for instance in job.instances():
            assert _staged_bytes(instance.router) >= 0
        original(channel, msg, deploy_epoch)

    job.transport.arrive = checking_deliver
    job.run()
    assert events[0] > 100
    assert measured_counts(job) == expected_counts(job)


def test_zero_size_records_consume_credit_units():
    """Credit units are ``max(bytes, records)``: size-0 records still pay.

    Before the fix a batch of zero-byte records debited nothing, so an
    arbitrarily deep queue of them slipped past a saturated channel and
    the park machinery never engaged.
    """
    import tests.conftest as c
    from repro.dataflow.channels import DATA, Message
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig

    config = RuntimeConfig(duration=4.0, warmup=1.0, channel_capacity_bytes=8)
    log = c.make_event_log(50.0, 4.0, 3, seed=3)
    job = Job(c.build_count_graph(), "unc", 3, {"events": log}, config)
    transport = job.transport
    channel = (0, 0, 0)

    records = [StreamRecord(rid=i, payload=KeyedEvent(0, i), source_ts=0.0,
                            size_bytes=0) for i in range(10)]
    assert transport.has_credit(channel, 0, 10)  # empty channel accepts
    msg = Message(channel=channel, seq=1, kind=DATA,
                  records=batch_of(records),
                  payload_bytes=0)
    transport.transmit(channel, msg)
    # ten zero-byte records hold ten credit units, not zero
    assert transport.in_flight_bytes[channel] == 10
    assert transport.total_in_flight == 10
    assert not transport.has_credit(channel, 0, 1)   # saturated by records
    assert not transport.has_credit(channel, 40, 0)  # and for bytes alike
    transport.on_consumed(channel, msg)
    assert transport.in_flight_bytes[channel] == 0
    assert transport.total_in_flight == 0
    assert transport.has_credit(channel, 0, 1)


@pytest.mark.parametrize("protocol", ["coor", "coor-unaligned", "unc", "cic"])
def test_exactly_once_under_credit_exhaustion_and_failure(protocol):
    """No record loss or duplication when parks, rollback and replay mix."""
    job, result = run_count_job(protocol, duration=20.0, failure_at=6.0,
                                channel_capacity_bytes=TIGHT)
    assert result.metrics.sends_parked > 0
    assert measured_counts(job) == expected_counts(job)


@pytest.mark.parametrize("rescale_to", [2, 4])
def test_exactly_once_under_credit_exhaustion_and_rescale(rescale_to):
    """Credit state must not leak across a rescaled redeploy."""
    job, result = run_count_job("unc", duration=22.0, failure_at=6.0,
                                rescale_to=rescale_to,
                                channel_capacity_bytes=TIGHT)
    assert result.final_parallelism == rescale_to
    assert measured_counts(job) == expected_counts(job)


def test_unbounded_channels_never_park():
    job, result = run_count_job("unc", failure_at=6.0)
    m = result.metrics
    assert m.sends_parked == 0
    assert m.blocked_time_total == 0.0
    assert m.blocked_time_aligned == 0.0
    assert not m.blocked_time_by_channel
    assert m.peak_total_in_flight_bytes == 0  # accounting is off entirely


def test_blocked_time_metrics_are_consistent():
    job, result = run_count_job("coor", duration=20.0, failure_at=6.0,
                                channel_capacity_bytes=TIGHT)
    m = result.metrics
    assert m.sends_parked > 0
    assert m.blocked_time_total == pytest.approx(
        sum(m.blocked_time_by_channel.values()))
    assert 0.0 <= m.blocked_time_aligned <= m.blocked_time_total + 1e-9
    assert measured_counts(job) == expected_counts(job)


def _fresh_bounded_job():
    import tests.conftest as c
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig

    config = RuntimeConfig(channel_capacity_bytes=TIGHT, seed=3)
    log = c.make_event_log(100.0, 4.0, 2, seed=3)
    return Job(c.build_count_graph(), "coor-unaligned", 2, {"events": log},
               config)


def test_pending_data_messages_includes_credit_deferred_tasks():
    """Deferred data tasks are still in-flight channel state.

    The unaligned protocol persists arrived-but-unprocessed messages at
    marker arrival; a message deferred because its destination instance
    is credit-blocked must not vanish from that scan (it is older than
    anything still queued, so it must come first).
    """
    from repro.dataflow.channels import DATA, Message

    job = _fresh_bounded_job()
    count = job.instance(("count", 0))
    channel = count.in_channels[0]
    worker = count.worker
    older = Message(channel=channel, seq=1, kind=DATA, records=[],
                    payload_bytes=10)
    newer = Message(channel=channel, seq=2, kind=DATA, records=[],
                    payload_bytes=10)
    count.credit_blocked = True
    worker._tasks.append(("data", channel, older))
    worker._start_next()  # defers the data task (instance is blocked)
    assert not worker._tasks and worker._deferred
    worker._tasks.append(("data", channel, newer))
    pending = worker.pending_data_messages(channel)
    assert [m.seq for m in pending] == [1, 2]


def test_release_instance_never_runs_tasks_synchronously():
    """Credit release mid-capture must only *schedule* the CPU restart.

    A release can fire from a forced flush between a checkpoint's flush
    and its state capture; running a deferred task inside that window
    would let effects slip between the captured cursors and the captured
    state.
    """
    from repro.dataflow.channels import DATA, Message
    from repro.dataflow.records import StreamRecord
    from tests.conftest import KeyedEvent

    job = _fresh_bounded_job()
    count = job.instance(("count", 0))
    channel = count.in_channels[0]
    worker = count.worker
    record = StreamRecord(rid=1, payload=KeyedEvent(0, 1), source_ts=0.0,
                          size_bytes=40)
    msg = Message(channel=channel, seq=1, kind=DATA,
                  records=batch_of([record]),
                  payload_bytes=40)
    count.credit_blocked = True
    worker._tasks.append(("data", channel, msg))
    worker._start_next()
    assert worker._deferred  # parked behind the credit block
    count.credit_blocked = False
    worker.release_instance(count)
    # requeued, but NOT executed inside this call frame
    assert [t for t in worker._tasks if t[0] == "data"]
    assert not worker._busy
    assert count.operator.counts.get(0, 0) == 0  # effects not applied yet
    job.sim.run_until(0.001)  # the scheduled kick runs it
    assert count.operator.counts.get(0, 0) == 1


def test_bounded_channels_reject_cyclic_graphs():
    """Credit flow control on a cycle can deadlock; the deploy must fail."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from repro.workloads.cyclic import REACHABILITY

    config = RuntimeConfig(channel_capacity_bytes=TIGHT)
    inputs = REACHABILITY.make_job_inputs(50.0, 5.0, 2, 0.0, 7)
    graph = REACHABILITY.build_graph(2)
    with pytest.raises(UnsupportedTopologyError, match="capacity"):
        Job(graph, "unc", 2, inputs, config)
    # without the bound the same deployment is legal
    inputs2 = REACHABILITY.make_job_inputs(50.0, 5.0, 2, 0.0, 7)
    Job(REACHABILITY.build_graph(2), "unc", 2, inputs2, RuntimeConfig())


@pytest.mark.parametrize("protocol, capacity", [
    ("coor", 0), ("coor-unaligned", 0), ("cic", 0), ("coor", TIGHT)])
def test_a_wrapped_arrival_seam_sees_every_message(monkeypatch, protocol,
                                                   capacity):
    """``Transport.arrive`` is read at send time for DATA messages and
    markers alike: every message a failure-free run sends either arrived
    through the wrapper or is still scheduled to arrive through it."""
    import tests.conftest as c
    from repro.dataflow.channels import DATA, MARKER
    from repro.dataflow.runtime import Job
    from repro.dataflow.transport import Transport
    from repro.sim.costs import RuntimeConfig

    markers = []
    transmit = Transport.transmit

    def counting_transmit(transport, channel, msg):
        if msg.kind == MARKER:
            markers.append(msg)
        transmit(transport, channel, msg)

    monkeypatch.setattr(Transport, "transmit", counting_transmit)
    config = RuntimeConfig(checkpoint_interval=1.0, duration=5.0, warmup=1.0,
                           seed=3, channel_capacity_bytes=capacity)
    log = c.make_event_log(300.0, 5.0, 3, seed=3)
    job = Job(c.build_count_graph(), protocol, 3, {"events": log}, config)
    original = job.transport.arrive
    landed = []

    def wrapped(channel, msg, deploy_epoch=0):
        landed.append(msg)
        original(channel, msg, deploy_epoch)

    job.transport.arrive = wrapped
    job.run()
    heap = job.sim._queue._heap
    assert all(entry[2] is not original for entry in heap)
    seen = landed + [entry[3][1] for entry in heap if entry[2] is wrapped]
    data = [msg for msg in seen if msg.kind == DATA]
    assert len(data) > 50
    assert (len(markers) > 10) == protocol.startswith("coor")  # CIC: none
    assert len(seen) == len(data) + len(markers)
    # sequence numbers count the DATA messages each channel sent
    assert len(data) == sum(sum(instance.out_seq.values())
                            for instance in job.instances())
    assert sum(msg.record_count for msg in data) == job.metrics.records_sent


@pytest.mark.parametrize("query, protocol, knobs", [
    ("q12", "coor", {"channel_capacity_bytes": 1024, "failure_at": 3.0}),
    ("q12", "unc", {"channel_capacity_bytes": 1024, "failure_at": 3.0}),
    ("q12", "cic", {"channel_capacity_bytes": 1024, "failure_at": 3.0}),
    ("q8", "unc", {"failure_at": 3.0, "rescale_to": 6}),
])
def test_a_message_carries_its_records_bytes_and_a_drained_job_stages_none(
        query, protocol, knobs):
    """On real runs, through parks, a rollback or a rescale: every DATA
    message that arrives says its records weigh what their size column
    sums to, and once the job has drained no router stages anything."""
    from repro.dataflow.channels import DATA
    from repro.dataflow.runtime import Job
    from repro.experiments.parallel import resolve_spec
    from repro.sim.costs import RuntimeConfig

    spec = resolve_spec(query)
    parallelism = 4
    rate = spec.capacity_per_worker * parallelism * 0.5
    inputs = spec.make_job_inputs(rate, 7.0, parallelism, 0.0, 7)
    job = Job(spec.build_graph(parallelism), protocol, parallelism, inputs,
              RuntimeConfig(duration=5.0, warmup=1.0, checkpoint_interval=1.0,
                            seed=7, **knobs))
    original = job.transport.arrive
    checked = [0]

    def checking(channel, msg, deploy_epoch=0):
        if msg.kind == DATA:
            assert msg.payload_bytes == sum(msg.records.sizes), channel
            checked[0] += 1
        original(channel, msg, deploy_epoch)

    job.transport.arrive = checking
    result = job.run(rate=rate, query_name=query, drain=True)
    assert checked[0] > 200
    assert result.metrics.n_recoveries == 1
    assert job.parallelism == knobs.get("rescale_to", parallelism)
    if "channel_capacity_bytes" in knobs:
        assert result.metrics.sends_parked > 0  # the bound bit
    routers = [i.router for i in job.instances() if i.router is not None]
    assert routers
    for router in routers:
        assert (router.staged_records, _staged_bytes(router)) == (0, 0)


@pytest.mark.parametrize("protocol", ["coor", "coor-unaligned"])
@pytest.mark.parametrize("bounded", [False, True])
def test_a_marker_follows_an_empty_router(monkeypatch, protocol, bounded):
    """Every marker is sent right after a forced flush of its instance:
    aligned COOR through ``Job.execute_checkpoint``, unaligned COOR's
    first marker and its sources alike.  So the router holds nothing when
    ``Transport.send_marker`` runs, on open channels and on the q12
    regime where senders run out of credit (0.8 x capacity, hot 0.3,
    1 KiB channels)."""
    from repro.dataflow.transport import Transport
    from repro.experiments.parallel import resolve_spec
    from repro.experiments.runner import run_query
    from repro.metrics.mst import estimate_capacity

    send_marker = Transport.send_marker
    staged = []

    def watching(transport, instance, round_id):
        staged.append(instance.router.staged_records)
        return send_marker(transport, instance, round_id)

    monkeypatch.setattr(Transport, "send_marker", watching)
    spec = resolve_spec("q12")
    knobs = ({"hot_ratio": 0.3, "channel_capacity_bytes": 1024}
             if bounded else {})
    rate = (0.8 if bounded else 0.6) * estimate_capacity(spec, 4)
    result = run_query(spec, protocol, 4, rate, duration=6.0, warmup=1.0,
                       checkpoint_interval=2.0, seed=7, **knobs)
    assert len(staged) > 20
    assert set(staged) == {0}
    if bounded:
        assert result.metrics.sends_parked > 0  # the bound bit
