"""Additional Z-path analysis coverage (interval edges, cyclic runs)."""

from repro.core.base import CheckpointMeta, initial_checkpoint
from repro.core.zpaths import ExecutionHistory

A, B, C = ("a", 0), ("b", 0), ("c", 0)
AB = (0, 0, 0)
BC = (1, 0, 0)
CA = (2, 0, 0)


def meta(instance, cid, sent=None, received=None):
    return CheckpointMeta(
        instance=instance, checkpoint_id=cid, kind="local", round_id=None,
        started_at=0.0, durable_at=0.0, state_bytes=0, blob_key="",
        last_sent=sent or {}, last_received=received or {}, source_offsets=None,
        upload_bytes=0, restore_bytes=0,
    )


def ring_history(messages):
    """Three processes in a ring a->b->c->a, one checkpoint each."""
    return ExecutionHistory(
        checkpoints={
            A: [initial_checkpoint(A), meta(A, 1, sent={AB: 1}, received={CA: 0})],
            B: [initial_checkpoint(B), meta(B, 1, sent={BC: 0}, received={AB: 0})],
            C: [initial_checkpoint(C), meta(C, 1, sent={CA: 0}, received={BC: 0})],
        },
        messages=messages,
        endpoints={AB: (A, B), BC: (B, C), CA: (C, A)},
    )


def test_ring_zcycle_detected():
    """a sends after its ckpt; the ring relays it back; a received the
    closing message before its ckpt -> the checkpoint is useless."""
    history = ExecutionHistory(
        checkpoints={
            A: [initial_checkpoint(A),
                meta(A, 1, sent={AB: 0}, received={CA: 1})],
            B: [initial_checkpoint(B), meta(B, 1, sent={BC: 9}, received={AB: 9})],
            C: [initial_checkpoint(C), meta(C, 1, sent={CA: 9}, received={BC: 9})],
        },
        messages=[(AB, 1), (BC, 1), (CA, 1)],
        endpoints={AB: (A, B), BC: (B, C), CA: (C, A)},
    )
    assert history.has_zcycle(A, 1)


def test_ring_without_back_edge_is_clean():
    history = ring_history([(AB, 1)])
    assert history.useless_checkpoints() == []


def test_interval_edges_cache_is_stable():
    history = ring_history([(AB, 1)])
    first = history.interval_edges()
    second = history.interval_edges()
    assert first is second


def test_domino_depth_zero_for_empty_history():
    history = ExecutionHistory(checkpoints={A: [initial_checkpoint(A)]},
                               messages=[], endpoints={})
    assert history.domino_depth() == 0
    assert history.useless_checkpoints() == []


def test_cic_prevents_zcycles_on_cyclic_query():
    """The forced-checkpoint mechanism must leave no useless checkpoints
    even on a topology with a real feedback loop."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from repro.workloads.cyclic import REACHABILITY

    config = RuntimeConfig(duration=16.0, warmup=2.0, checkpoint_interval=3.0)
    inputs = REACHABILITY.make_job_inputs(400.0, 19.0, 2, 0.0, 7)
    job = Job(REACHABILITY.build_graph(2), "cic", 2, inputs, config)
    job.run()
    history = ExecutionHistory.from_job(job)
    assert history.useless_checkpoints() == []
