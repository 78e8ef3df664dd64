"""Unit and property tests for the checkpoint graph and Algorithm 1."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import CheckpointMeta, initial_checkpoint
from repro.core.checkpoint_graph import (
    CheckpointGraph,
    invalid_checkpoint_count,
    maximal_consistent_line,
    zcycle_analysis,
)

from tests.oracles import (
    history_of,
    orphan_edges,
    reachable_from,
    reclaimable_checkpoints,
    rollback_propagation,
    successors,
)

A = ("op_a", 0)
B = ("op_b", 0)
CH = (0, 0, 0)  # single channel A -> B


def ckpt(instance, ckpt_id, sent=None, received=None):
    return CheckpointMeta(
        instance=instance, checkpoint_id=ckpt_id, kind="local", round_id=None,
        started_at=float(ckpt_id), durable_at=float(ckpt_id), state_bytes=0,
        blob_key=f"{instance}/{ckpt_id}", last_sent=sent or {},
        last_received=received or {},
        upload_bytes=0,
    )


def two_process_graph(a_sent, b_received):
    """A -> B with given per-checkpoint cursors (lists aligned to ckpt ids 1..n)."""
    a_ckpts = [initial_checkpoint(A)] + [
        ckpt(A, i + 1, sent={CH: s}) for i, s in enumerate(a_sent)
    ]
    b_ckpts = [initial_checkpoint(B)] + [
        ckpt(B, i + 1, received={CH: r}) for i, r in enumerate(b_received)
    ]
    return CheckpointGraph(
        checkpoints={A: a_ckpts, B: b_ckpts},
        channels=[(CH, A, B)],
    )


# --------------------------------------------------------------------- #
# Construction and structure
# --------------------------------------------------------------------- #

def test_graph_requires_checkpoints_per_instance():
    with pytest.raises(ValueError):
        CheckpointGraph(checkpoints={A: []}, channels=[])


def test_graph_requires_ordered_ids():
    bad = [ckpt(A, 2), ckpt(A, 1)]
    with pytest.raises(ValueError):
        CheckpointGraph(checkpoints={A: bad}, channels=[])


def test_successor_edges_present():
    g = two_process_graph([5], [0])
    assert (A, 1) in successors(g, (A, 0))


def test_orphan_edge_from_cursor_comparison():
    # B's ckpt 1 received 3 messages; A's initial sent 0 -> orphan edge
    g = two_process_graph([5], [3])
    assert (B, 1) in successors(g, (A, 0))
    # A's ckpt 1 sent 5 >= 3 -> no orphan from there
    assert (B, 1) not in orphan_edges(g).get((A, 1), set())


def test_reachable_from_is_transitive():
    g = two_process_graph([5], [3])
    reach = reachable_from(g, (A, 0))
    assert (A, 1) in reach and (B, 1) in reach


def test_line_is_consistent_checks_orphans():
    g = two_process_graph([5], [3])
    a_ckpts = {m.checkpoint_id: m for m in g.checkpoints[A]}
    b_ckpts = {m.checkpoint_id: m for m in g.checkpoints[B]}
    assert g.line_is_consistent({A: a_ckpts[1], B: b_ckpts[1]})
    assert not g.line_is_consistent({A: a_ckpts[0], B: b_ckpts[1]})


# --------------------------------------------------------------------- #
# Recovery line algorithms
# --------------------------------------------------------------------- #

def test_latest_checkpoints_chosen_when_consistent():
    g = two_process_graph([5], [5])
    result = rollback_propagation(g)
    assert result[A].checkpoint_id == 1
    assert result[B].checkpoint_id == 1


def test_receiver_rolls_back_on_orphan():
    # B's latest ckpt saw 7 messages but A's latest only sent 5 -> B rolls back
    g = two_process_graph([5], [3, 7])
    result = rollback_propagation(g)
    assert result[A].checkpoint_id == 1
    assert result[B].checkpoint_id == 1  # received 3 <= sent 5


def test_rollback_to_initial_when_needed():
    g = two_process_graph([0], [2])  # A never checkpointed a send
    result = rollback_propagation(g)
    assert result[B].checkpoint_id == 0


def test_multi_hop_propagation():
    """A -> B -> C: rolling back B can invalidate C's checkpoint."""
    C = ("op_c", 0)
    CH2 = (1, 0, 0)
    a = [initial_checkpoint(A), ckpt(A, 1, sent={CH: 0})]
    b = [
        initial_checkpoint(B),
        ckpt(B, 1, sent={CH2: 1}, received={CH: 0}),
        ckpt(B, 2, sent={CH2: 4}, received={CH: 3}),  # orphan wrt A's ckpt 1
    ]
    c = [initial_checkpoint(C), ckpt(C, 1, received={CH2: 4})]
    g = CheckpointGraph(
        checkpoints={A: a, B: b, C: c},
        channels=[(CH, A, B), (CH2, B, C)],
    )
    result = maximal_consistent_line(g)
    assert result[B].checkpoint_id == 1
    # C saw 4 messages but B's surviving checkpoint only sent 1 -> C rolls back
    assert result[C].checkpoint_id == 0
    assert g.line_is_consistent(result)


def test_invalid_checkpoint_count_excludes_initial():
    g = two_process_graph([0], [2])
    result = maximal_consistent_line(g)
    assert invalid_checkpoint_count(g, result) == 1  # only B's real ckpt


# --------------------------------------------------------------------- #
# Property: Algorithm 1 == direct fixpoint == maximal consistent line
# --------------------------------------------------------------------- #

@st.composite
def random_execution(draw):
    """Random cursor histories for a small mesh of instances."""
    n_instances = draw(st.integers(2, 4))
    instances = [(f"op{i}", 0) for i in range(n_instances)]
    channels = []
    cid = 0
    for i in range(n_instances):
        for j in range(n_instances):
            if i != j and draw(st.booleans()):
                channels.append(((cid, 0, 0), instances[i], instances[j]))
                cid += 1
    if not channels:
        channels.append(((0, 0, 0), instances[0], instances[1]))
    checkpoints = {}
    for inst in instances:
        n_ckpts = draw(st.integers(0, 3))
        metas = [initial_checkpoint(inst)]
        sent_cursor = {ch: 0 for ch, s, r in channels if s == inst}
        recv_cursor = {ch: 0 for ch, s, r in channels if r == inst}
        for k in range(1, n_ckpts + 1):
            for ch in sent_cursor:
                sent_cursor[ch] += draw(st.integers(0, 5))
            for ch in recv_cursor:
                recv_cursor[ch] += draw(st.integers(0, 5))
            metas.append(ckpt(inst, k, sent=dict(sent_cursor),
                              received=dict(recv_cursor)))
        checkpoints[inst] = metas
    return CheckpointGraph(checkpoints=checkpoints, channels=channels)


def _line_feasible(graph):
    """Random cursors may have no consistent line above the initial ones;
    the initial line (all zeros) is consistent only if no receiver saw
    messages... which it trivially did not at cursor 0, so it IS consistent
    unless a receiver's initial cursor > 0 (impossible).  Always feasible."""
    return True


@settings(max_examples=150, deadline=None)
@given(random_execution())
def test_fixpoint_line_is_consistent_and_maximal(graph):
    result = maximal_consistent_line(graph)
    assert graph.line_is_consistent(result)
    # maximality: bumping any single instance to its next checkpoint breaks
    # consistency (or there is no next checkpoint)
    for instance, metas in graph.checkpoints.items():
        ids = [m.checkpoint_id for m in metas]
        chosen = result[instance].checkpoint_id
        pos = ids.index(chosen)
        if pos + 1 < len(ids):
            bumped = dict(result)
            bumped[instance] = metas[pos + 1]
            assert not graph.line_is_consistent(bumped)


@settings(max_examples=100, deadline=None)
@given(random_execution())
def test_algorithm1_equals_fixpoint(graph):
    alg1 = rollback_propagation(graph)
    fix = maximal_consistent_line(graph)
    assert {k: m.checkpoint_id for k, m in alg1.items()} == \
           {k: m.checkpoint_id for k, m in fix.items()}


def assert_zcycles_agree(graph):
    """Both Z-cycle computations read any monotone cursors the same way,
    each channel's receiver having processed what its newest checkpoint
    counts."""
    delivered = {
        ch: graph.checkpoints[r][-1].received_cursor(ch) for ch, _, r in graph.channels
    }
    search = history_of(graph, delivered)
    result = zcycle_analysis(graph, delivered)
    assert result.useless == search.useless_checkpoints()
    assert result.domino_depth == search.domino_depth()


@pytest.mark.parametrize("a_sent,b_received", [
    ([5], [0]), ([5], [3]), ([5], [5]), ([5], [3, 7]), ([0], [2]),
])
def test_zcycle_analysis_equals_the_zpath_search_on_two_processes(a_sent, b_received):
    assert_zcycles_agree(two_process_graph(a_sent, b_received))


@settings(max_examples=100, deadline=None)
@given(random_execution())
def test_zcycle_analysis_equals_the_zpath_search_on_cursor_histories(graph):
    """Cursors drawn independently are no causal run; the two still agree."""
    assert_zcycles_agree(graph)


@settings(max_examples=100, deadline=None)
@given(random_execution())
def test_line_dominates_every_consistent_line(graph):
    """The computed line is the component-wise maximum consistent line."""
    import itertools

    result = maximal_consistent_line(graph)
    instances = list(graph.checkpoints)
    if sum(len(m) for m in graph.checkpoints.values()) > 12:
        return  # keep brute force small
    candidates = [graph.checkpoints[inst] for inst in instances]
    for combo in itertools.product(*candidates):
        line = dict(zip(instances, combo))
        if graph.line_is_consistent(line):
            for inst in instances:
                assert line[inst].checkpoint_id <= result[inst].checkpoint_id


# --------------------------------------------------------------------- #
# Reclamation analysis: what lies below the line is never restored
# --------------------------------------------------------------------- #

def test_reclaimable_is_everything_below_the_line():
    graph = CheckpointGraph(
        checkpoints={
            A: [initial_checkpoint(A), ckpt(A, 1, sent={CH: 5}),
                ckpt(A, 2, sent={CH: 9})],
            B: [initial_checkpoint(B), ckpt(B, 1, received={CH: 4}),
                ckpt(B, 2, received={CH: 9})],
        },
        channels=[(CH, A, B)],
    )
    # line = (A2, B2): everything older is reclaimable
    assert set(reclaimable_checkpoints(graph)) == {(A, 1), (B, 1)}


def test_initial_checkpoints_never_reported():
    graph = CheckpointGraph(
        checkpoints={A: [initial_checkpoint(A)], B: [initial_checkpoint(B)]},
        channels=[(CH, A, B)],
    )
    assert reclaimable_checkpoints(graph) == []


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_line_never_regresses_when_execution_extends(seed):
    """Safety of reclamation: adding newer checkpoints cannot move the
    recovery line below the previously consistent one."""
    rng = random.Random(seed)
    channels = [(CH, A, B)]

    def extend(sent, recv, prefix_a, prefix_b, start_id, steps):
        a, b = list(prefix_a), list(prefix_b)
        for k in range(start_id, start_id + steps):
            sent[CH] = sent.get(CH, 0) + rng.randint(0, 4)
            recv[CH] = min(sent[CH], recv.get(CH, 0) + rng.randint(0, 4))
            a.append(ckpt(A, k, sent=dict(sent)))
            b.append(ckpt(B, k, received=dict(recv)))
        return a, b

    sent, recv = {}, {}
    a1, b1 = extend(sent, recv, [initial_checkpoint(A)], [initial_checkpoint(B)], 1, 3)
    graph1 = CheckpointGraph(checkpoints={A: a1, B: b1}, channels=channels)
    line1 = maximal_consistent_line(graph1)

    a2, b2 = extend(sent, recv, a1, b1, 4, 3)
    graph2 = CheckpointGraph(checkpoints={A: a2, B: b2}, channels=channels)
    line2 = maximal_consistent_line(graph2)

    assert line2[A].checkpoint_id >= line1[A].checkpoint_id
    assert line2[B].checkpoint_id >= line1[B].checkpoint_id


def test_compaction_never_moves_the_line_backwards(monkeypatch):
    """Observed recovery lines are monotone while chains compact."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(checkpoint_interval=2.0, duration=16.0, warmup=2.0,
                           failure_at=None, seed=3, state_backend="changelog")
    monkeypatch.setattr("repro.dataflow.state.CHANGELOG_MAX_CHAIN", 1)
    log = make_event_log(300.0, 12.0, 3, seed=3)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    observed: list[dict] = []

    def probe() -> None:
        plan = job.protocol.build_recovery_plan()
        observed.append({k: m.checkpoint_id for k, m in plan.line.items()})

    for at in (5.0, 8.0, 11.0, 14.0):
        job.sim.schedule_at(at, probe)
    job.run()
    assert len(observed) == 4
    assert observed[-1] != observed[0]  # the line did move: forwards
    for earlier, later in zip(observed, observed[1:]):
        for key, cid in earlier.items():
            assert later[key] >= cid
