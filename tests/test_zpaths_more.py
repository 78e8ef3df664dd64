"""Additional Z-cycle analysis coverage (interval edges, cyclic runs,
random causal histories)."""

from hypothesis import given, settings, strategies as st

from repro.core.base import CheckpointMeta, initial_checkpoint
from repro.core.checkpoint_graph import (
    CheckpointGraph,
    maximal_consistent_line,
    zcycle_analysis,
)

from tests.oracles import (
    ExecutionHistory,
    assert_job_agrees,
    assert_scc_agrees,
    history_of,
)

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
    assert assert_scc_agrees(history).useless == [(A, 1)]


def test_ring_without_back_edge_is_clean():
    history = ring_history([(AB, 1)])
    assert history.useless_checkpoints() == []
    assert_scc_agrees(history)


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
    assert_scc_agrees(history)


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
    assert assert_job_agrees(job).useless == []


def test_cic_leaves_no_useless_checkpoint_through_failures():
    """HMNR's guarantee on a cyclic run that recovers twice: every
    checkpoint the registry still offers is useful."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from repro.workloads.cyclic import REACHABILITY

    config = RuntimeConfig(duration=16.0, warmup=2.0, checkpoint_interval=2.0,
                           failure_scenario="trace:6.0@0;11.0@1")
    inputs = REACHABILITY.make_job_inputs(400.0, 19.0, 2, 0.0, 7)
    job = Job(REACHABILITY.build_graph(2), "cic", 2, inputs, config)
    job.run()
    assert sum(r.applied_at is not None for r in job.metrics.recoveries) == 2
    assert assert_job_agrees(job).useless == []


@st.composite
def causal_history(draw):
    """A random message-passing run: sends, FIFO deliveries and
    checkpoints interleaved on 2-4 instances over random channels.

    Returns the checkpoint graph, each channel's delivered count and the
    number of messages sent on it (the rest are in flight)."""
    n = draw(st.integers(2, 4))
    instances = [(f"p{i}", 0) for i in range(n)]
    pairs = [(s, r) for s in instances for r in instances if s != r]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    channels = [((cid, 0, 0), s, r) for cid, (s, r) in enumerate(chosen)]
    sent = {channel: 0 for channel, _, _ in channels}
    delivered = dict(sent)
    checkpoints = {inst: [initial_checkpoint(inst)] for inst in instances}
    steps = draw(st.lists(st.tuples(st.sampled_from("ssrrc"),
                                    st.integers(0, 2**16)), max_size=40))
    for kind, pick in steps:
        if kind == "s":
            sent[channels[pick % len(channels)][0]] += 1
        elif kind == "r":
            pending = [ch for ch, _, _ in channels if delivered[ch] < sent[ch]]
            if pending:
                delivered[pending[pick % len(pending)]] += 1
        else:
            inst = instances[pick % n]
            metas = checkpoints[inst]
            metas.append(meta(
                inst, len(metas),
                sent={ch: sent[ch] for ch, s, _ in channels if s == inst},
                received={ch: delivered[ch] for ch, _, r in channels if r == inst},
            ))
    return CheckpointGraph(checkpoints, channels), delivered, sent


@settings(max_examples=300, deadline=None)
@given(causal_history())
def test_zcycle_analysis_equals_the_zpath_search(drawn):
    graph, delivered, sent = drawn
    result = zcycle_analysis(graph, delivered)
    search = history_of(graph, delivered)
    assert result.useless == search.useless_checkpoints()
    assert result.domino_depth == search.domino_depth()
    # counting the messages in flight too only adds zigzag paths
    with_in_flight = history_of(graph, sent).useless_checkpoints()
    assert set(result.useless) <= set(with_in_flight)


@settings(max_examples=150, deadline=None)
@given(causal_history())
def test_useless_means_no_consistent_line_holds_it(drawn):
    """What "useless" means, by the recovery-line fixpoint instead of a
    path search: a checkpoint is useless exactly when the newest
    consistent line that may not go past it on its instance (every other
    instance may also use its current state, a final checkpoint with the
    live cursors) does not contain it.  Messages in flight are no
    orphans, so they cannot make a checkpoint useless."""
    graph, delivered, sent = drawn
    final = {
        inst: meta(inst, metas[-1].checkpoint_id + 1,
                   sent={ch: sent[ch] for ch, s, _ in graph.channels if s == inst},
                   received={ch: delivered[ch] for ch, _, r in graph.channels if r == inst})
        for inst, metas in graph.checkpoints.items()
    }
    by_lines = []
    for inst, metas in graph.checkpoints.items():
        for k in range(1, len(metas)):
            bounded = {other: [*others, final[other]]
                       for other, others in graph.checkpoints.items()}
            bounded[inst] = metas[:k + 1]
            line = maximal_consistent_line(CheckpointGraph(bounded, graph.channels)).line
            if line[inst].checkpoint_id != metas[k].checkpoint_id:
                by_lines.append((inst, metas[k].checkpoint_id))
    assert zcycle_analysis(graph, delivered).useless == by_lines
