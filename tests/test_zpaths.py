"""Tests of the Z-cycle analysis and the paper's domino claims.

``zcycle_analysis`` (one SCC pass over checkpoint intervals) is held to
the Z-path search of ``tests.oracles`` on every history built here.
"""

from repro.core.base import CheckpointMeta, initial_checkpoint
from repro.core.checkpoint_graph import zcycle_analysis

from tests.conftest import run_count_job
from tests.oracles import (
    ExecutionHistory,
    assert_job_agrees,
    assert_scc_agrees,
    graph_of,
)

A, B = ("a", 0), ("b", 0)
AB = (0, 0, 0)  # A -> B
BA = (1, 0, 0)  # B -> A


def meta(instance, cid, sent=None, received=None):
    return CheckpointMeta(
        instance=instance, checkpoint_id=cid, kind="local", round_id=None,
        started_at=0.0, durable_at=0.0, state_bytes=0, blob_key="",
        last_sent=sent or {}, last_received=received or {}, source_offsets=None,
        upload_bytes=0, restore_bytes=0,
    )


def history(a_ckpts, b_ckpts, messages):
    return ExecutionHistory(
        checkpoints={A: a_ckpts, B: b_ckpts},
        messages=messages,
        endpoints={AB: (A, B), BA: (B, A)},
    )


def test_interval_reconstruction():
    a = [initial_checkpoint(A), meta(A, 1, sent={AB: 2})]
    b = [initial_checkpoint(B), meta(B, 1, received={AB: 1})]
    h = history(a, b, [(AB, 1), (AB, 2), (AB, 3)])
    edges = h.interval_edges()
    # seq 1: sent in A's interval 0, received in B's interval 0
    assert (B, 0) in edges[(A, 0)]
    # seq 3: sent after A's ckpt 1 (interval 1), received after B's ckpt 1
    assert (B, 1) in edges[(A, 1)]
    assert_scc_agrees(h)


def test_initial_checkpoint_never_on_zcycle():
    h = history([initial_checkpoint(A)], [initial_checkpoint(B)], [(AB, 1)])
    assert not h.has_zcycle(A, 0)
    assert_scc_agrees(h)


def test_causal_roundtrip_creates_zcycle():
    """A sends after its ckpt 1; B replies; A receives before ckpt 1 —
    impossible causally, but the zigzag (non-causal) version is: B sends to
    A in the same interval it receives from A, with A's receive landing
    before A's checkpoint 1."""
    a = [
        initial_checkpoint(A),
        # ckpt 1: taken after receiving B's message (received cursor 1)
        # but before sending its own message (sent cursor 0)
        meta(A, 1, sent={AB: 0}, received={BA: 1}),
    ]
    b = [initial_checkpoint(B), meta(B, 1, sent={BA: 9}, received={AB: 9})]
    # A sends m1 after its ckpt 1; B receives it in interval 0 and B sent m2
    # in interval 0 too; m2 was received by A before its ckpt 1 -> Z-cycle
    messages = [(AB, 1), (BA, 1)]
    h = history(a, b, messages)
    assert h.has_zcycle(A, 1)
    assert ((A, 1)) in [u for u in h.useless_checkpoints()]
    assert_scc_agrees(h)


def test_no_zcycle_on_forward_only_chain():
    a = [initial_checkpoint(A), meta(A, 1, sent={AB: 3})]
    b = [initial_checkpoint(B), meta(B, 1, received={AB: 2})]
    h = history(a, b, [(AB, s) for s in range(1, 6)])
    assert h.useless_checkpoints() == []
    assert h.domino_depth() == 0
    assert_scc_agrees(h)


def test_domino_depth_counts_consecutive_useless():
    a = [
        initial_checkpoint(A),
        meta(A, 1, sent={AB: 0}, received={BA: 1}),
        meta(A, 2, sent={AB: 0}, received={BA: 2}),
    ]
    b = [initial_checkpoint(B), meta(B, 1, sent={BA: 9}, received={AB: 9})]
    h = history(a, b, [(AB, 1), (BA, 1), (BA, 2)])
    assert h.domino_depth() >= 1
    assert_scc_agrees(h)


def test_a_message_in_flight_is_on_no_zigzag_path():
    """The one reading the two computations differ on, decided for the
    SCC pass: a message sent but not yet processed has no receive event,
    so it is on no zigzag path.  The search reads the send log and puts
    it in its receiver's open interval."""
    a = [initial_checkpoint(A), meta(A, 1, sent={AB: 0}, received={BA: 1})]
    b = [initial_checkpoint(B)]
    # A sends m1 after its checkpoint; B sent m2 in its (open) interval 0
    # and A processed m2 before its checkpoint
    h = history(a, b, [(AB, 1), (BA, 1)])
    graph, _ = graph_of(h)
    assert h.useless_checkpoints() == [(A, 1)]
    in_flight = zcycle_analysis(graph, {AB: 0, BA: 1})
    assert in_flight.useless == []
    assert in_flight.domino_depth == 0
    # once B processes m1, the zigzag m1 -> m2 closes
    assert zcycle_analysis(graph, {AB: 1, BA: 1}).useless == [(A, 1)]


# --------------------------------------------------------------------- #
# End-to-end claims from the paper
# --------------------------------------------------------------------- #

def test_unc_acyclic_run_has_no_useless_checkpoints():
    """Acyclic dataflow: strictly forward message flow cannot close a
    zigzag cycle, so no checkpoint is ever useless."""
    job, _ = run_count_job("unc", failure_at=None, duration=16.0)
    h = ExecutionHistory.from_job(job)
    assert h.useless_checkpoints() == []
    assert assert_job_agrees(job).useless == []


def test_cic_acyclic_run_has_no_useless_checkpoints():
    job, _ = run_count_job("cic", failure_at=None, duration=16.0)
    h = ExecutionHistory.from_job(job)
    assert h.useless_checkpoints() == []
    assert assert_job_agrees(job).useless == []


def test_unc_cyclic_run_no_domino_effect():
    """The paper's headline finding: even on the cyclic query the
    uncoordinated protocol shows no domino effect in practice."""
    from repro.experiments.runner import run_query
    from repro.workloads.cyclic import REACHABILITY

    result = run_query(REACHABILITY, "unc", 2, rate=300.0, duration=16.0,
                       warmup=2.0, checkpoint_interval=3.0)
    # reconstruct the history through the runner's job? run_query does not
    # expose the job, so re-run at the Job level:
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig

    config = RuntimeConfig(duration=16.0, warmup=2.0, checkpoint_interval=3.0)
    inputs = REACHABILITY.make_job_inputs(300.0, 19.0, 2, 0.0, 7)
    job = Job(REACHABILITY.build_graph(2), "unc", 2, inputs, config)
    job.run()
    h = ExecutionHistory.from_job(job)
    assert h.domino_depth() <= 1
    assert assert_job_agrees(job).domino_depth <= 1
