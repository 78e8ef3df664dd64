"""Tests of the uncoordinated protocol (UNC)."""

import pytest

from repro.core.checkpoint_graph import maximal_consistent_line
from repro.core.recovery import ChannelLog, build_replay_sets
from repro.core.uncoordinated import UncoordinatedProtocol
from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import DATA, Message
from repro.core.base import CheckpointMeta, initial_checkpoint

from tests.conftest import run_count_job
from tests.test_recovery_pin import run_case, run_count


def logs_hold_floor_to_last_sent(job) -> int:
    """Assert each channel's log holds exactly the consecutive seqs
    ``(floor, last_sent]``: from its receiver's cursor in the floor line
    to its sender's live cursor.  Returns the floors' sum."""
    edges = {edge.edge_id: edge for edge in job.graph.edges}
    floor = job.protocol.floor
    truncated = 0
    for channel, receiver in job.channel_dst.items():
        sender = job.instance((edges[channel[0]].src, channel[1]))
        low = floor[receiver.key].received_cursor(channel)
        high = sender.out_seq.get(channel, 0)
        log = job.send_log.get(channel)
        # a log's seqs are consecutive (append refuses a gap), so its
        # last seq and its length say which ones it holds
        kept = (log.next_seq - 1, len(log)) if log is not None else (high, 0)
        assert kept == (high, high - low), channel
        truncated += low
    return truncated


def test_send_log_has_sequential_seqs_per_channel():
    job, _ = run_count_job("unc", failure_at=None)
    assert job.send_log, "UNC must log data messages"
    assert logs_hold_floor_to_last_sent(job) > 0, "the floor never rose"


@pytest.mark.parametrize("case", [
    "unc-s3-i2-B", "cic-s2-i3-A", "unc-changelog-s4-i2-A",
    "unc-at-least-once-s2-i2-B", "q8-cic-rescale-4-6"])
def test_send_log_holds_the_seqs_above_the_floor_through_failures(case):
    """Rollbacks cut the log's head, rescales clear it, truncations its
    tail: between them it is always ``(floor, last_sent]``."""
    job, _ = run_case(case)
    assert logs_hold_floor_to_last_sent(job) > 0


@pytest.mark.parametrize("case", [
    "unc-s3-i2-B", "cic-s7-i1-B", "unc-at-least-once-s3-i3-1",
    "q8-unc-rescale-4-6"])
def test_the_floor_is_the_maximal_consistent_line(monkeypatch, case):
    """Searched from the previous floor up, the floor is the line a search
    over every registered checkpoint finds, at every truncation."""
    agreed = []
    truncate = UncoordinatedProtocol.truncate_logs

    def checked(self, floor):
        agreed.append(
            floor == maximal_consistent_line(self.build_checkpoint_graph()))
        truncate(self, floor)

    monkeypatch.setattr(UncoordinatedProtocol, "truncate_logs", checked)
    run_case(case)
    assert len(agreed) >= 3 and all(agreed)


def test_retained_messages_do_not_grow_with_run_length(monkeypatch):
    """A run four times as long keeps as many messages in its logs at the
    peak (just before a truncation) as the short one."""
    peaks = []
    truncate = UncoordinatedProtocol.truncate_logs

    def measured(self, floor):
        peaks[-1] = max(peaks[-1], sum(map(len, self.job.send_log.values())))
        truncate(self, floor)

    monkeypatch.setattr(UncoordinatedProtocol, "truncate_logs", measured)
    sent = []
    for duration in (30.0, 120.0):
        peaks.append(0)
        _, result = run_count_job("unc", failure_at=None, rate=100.0,
                                  duration=duration)
        sent.append(result.metrics.messages_sent)
    assert sent[1] > 4 * sent[0]
    assert 0 < peaks[1] <= 1.1 * peaks[0]


def test_a_floor_from_the_latest_checkpoints_loses_records(monkeypatch):
    """Mutation: truncating below each receiver's *latest* checkpoint
    instead of the floor line deletes messages that grid point
    ``unc-s2-i3-A``'s recoveries must replay, and records are lost."""
    truncate = UncoordinatedProtocol.truncate_logs

    def latest(self, floor):
        registry = self.job.registry
        truncate(self, {key: registry.latest(key) or meta
                        for key, meta in floor.items()})

    monkeypatch.setattr(UncoordinatedProtocol, "truncate_logs", latest)
    _, _, expected, measured = run_count("unc-s2-i3-A")
    assert sum(measured.values()) < sum(expected.values())


def test_checkpoints_are_independent_per_instance():
    job, result = run_count_job("unc", failure_at=None, duration=16.0)
    events = [e for e in result.metrics.checkpoints if e.kind == "local"]
    start_times = {}
    for e in events:
        start_times.setdefault(e.instance, []).append(e.started_at)
    # jittered phases: not all instances checkpoint at the same instant
    firsts = sorted(times[0] for times in start_times.values())
    assert firsts[0] != firsts[-1]
    # every instance participates (stateless included by default)
    assert len(start_times) == job.n_instances


def test_stateless_operators_can_be_excluded():
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(duration=12.0, warmup=2.0, failure_at=None,
                           checkpoint_interval=3.0,
                           unc_checkpoint_stateless=False)
    log = make_event_log(200.0, 10.0, 2)
    job = Job(build_count_graph(), "unc", 2, {"events": log}, config)
    result = job.run()
    instances_with_ckpts = {
        e.instance for e in result.metrics.checkpoints if e.kind == "local"
    }
    # sink is stateless -> excluded; source and count still checkpoint
    assert all(key[0] != "sink" for key in instances_with_ckpts)
    assert any(key[0] == "src" for key in instances_with_ckpts)
    assert any(key[0] == "count" for key in instances_with_ckpts)


def test_recovery_line_is_consistent():
    job, result = run_count_job("unc", failure_at=6.0)
    # rebuild the graph as of now and verify the plan the job executed
    from repro.core.uncoordinated import UncoordinatedProtocol

    protocol = job.protocol
    assert isinstance(protocol, UncoordinatedProtocol)
    graph = protocol.build_checkpoint_graph()
    plan_line = {k: m for k, m in protocol.build_recovery_plan().line.items()}
    assert graph.line_is_consistent(plan_line)


def test_exactly_once_state_after_failure():
    job, result = run_count_job("unc", parallelism=3, rate=300.0,
                                duration=16.0, failure_at=5.0)
    expected: dict[int, int] = {}
    for partition in job.inputs["events"].partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured: dict[int, int] = {}
    for idx in range(job.parallelism):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    assert measured == expected


def test_replay_happens_on_recovery():
    """The counts of this failure point, pinned: the line rolls five
    checkpoints back and replays what was in flight across it."""
    _, result = run_count_job("unc", failure_at=6.0, rate=500.0)
    metrics = result.metrics
    assert metrics.n_recoveries == 1
    first = metrics.first_failure()
    assert first.replayed_messages == 495
    assert first.replayed_records == metrics.replayed_records == 2058
    assert first.invalid_checkpoints == 5
    assert first.total_checkpoints == 26


def test_metadata_overhead_is_tiny():
    _, result = run_count_job("unc", failure_at=None)
    assert result.metrics.overhead_ratio() < 1.05  # Table II: ~1.00-1.01x


# --------------------------------------------------------------------- #
# build_replay_sets unit tests
# --------------------------------------------------------------------- #

A, B = ("a", 0), ("b", 0)
CH = (0, 0, 0)


def _meta(instance, cid, sent=None, received=None):
    return CheckpointMeta(
        instance=instance, checkpoint_id=cid, kind="local", round_id=None,
        started_at=0.0, durable_at=0.0, state_bytes=0, blob_key="",
        last_sent=sent or {}, last_received=received or {},
        upload_bytes=0,
    )


def _log(last):
    """A channel log of one-record messages with seqs ``1..last``."""
    log = ChannelLog()
    for seq in range(1, last + 1):
        log.append(Message(channel=CH, seq=seq, kind=DATA,
                           records=RecordBatch([seq], [None], [0.0], [10]),
                           payload_bytes=10))
    return log


def test_replay_selects_inflight_window():
    line = {A: _meta(A, 1, sent={CH: 5}), B: _meta(B, 1, received={CH: 2})}
    log = {CH: _log(8)}
    replay = build_replay_sets(line, log, {CH: (A, B)})
    assert [m.seq for m in replay[CH]] == [3, 4, 5]


def test_replay_empty_when_receiver_caught_up():
    line = {A: _meta(A, 1, sent={CH: 5}), B: _meta(B, 1, received={CH: 5})}
    log = {CH: _log(5)}
    assert build_replay_sets(line, log, {CH: (A, B)}) == {}


def test_replay_from_initial_checkpoints_is_empty():
    line = {A: initial_checkpoint(A), B: initial_checkpoint(B)}
    log = {CH: _log(1)}
    assert build_replay_sets(line, log, {CH: (A, B)}) == {}


def test_replay_reads_a_truncated_log():
    """A log truncated below its floor starts above seq 1; the window is
    found by position, not by counting from 1."""
    line = {A: _meta(A, 2, sent={CH: 9}), B: _meta(B, 2, received={CH: 6})}
    log = {CH: _log(11)}
    log[CH].drop_through(4)
    replay = build_replay_sets(line, log, {CH: (A, B)})
    assert [m.seq for m in replay[CH]] == [7, 8, 9]
