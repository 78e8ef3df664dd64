"""The columnar send log against the list of messages it replaced.

:class:`repro.core.recovery.ChannelLog` keeps a channel's logged
messages as columns and record segments; ``tests/oracles.py`` keeps
:class:`MessageListLog`, the sent ``Message`` objects themselves.  Both
are driven through the same random appends (1–40 records, so on both
sides of ``ADOPT_MIN``), truncations below a floor, rollbacks to a sent
cursor and replay windows, and every window must rebuild the messages
as sent, field by field, piggyback identity included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.recovery import ADOPT_MIN, ChannelLog
from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import DATA, Message

from tests.oracles import MessageListLog

CH = (3, 1, 2)

#: ``(operation, records, back, back)``: an append of ``records``
#: records (half the appends, so logs grow), or a truncation, rollback or
#: window at seqs that lie ``back`` below the last one sent, so cuts land
#: on the last few messages, where segments begin and end
OPS = st.lists(st.tuples(
    st.sampled_from(["append"] * 3 + ["truncate", "rollback", "window"]),
    st.integers(1, 40), st.integers(0, 4), st.integers(0, 4)),
    min_size=20, max_size=100)


class Piggyback:
    """A stand-in for a CIC piggyback: only its identity matters here."""

    def __init__(self, lc: int) -> None:
        self.lc = lc


def assert_same_messages(got: list[Message], want: list[Message]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.channel == b.channel == CH
        assert (a.seq, a.kind, a.payload_bytes, a.protocol_bytes) == (
            b.seq, b.kind, b.payload_bytes, b.protocol_bytes)
        assert a.piggyback is b.piggyback
        assert a.meta is None
        for column in ("rids", "payloads", "source_ts", "sizes"):
            assert getattr(a.records, column) == getattr(b.records, column)


@settings(max_examples=300, deadline=None)
@given(OPS)
def test_channel_log_replays_what_the_message_list_replays(ops):
    log, oracle = ChannelLog(), MessageListLog()
    sent: list[tuple[RecordBatch, tuple[list, ...]]] = []
    seq = 0
    offset = 0
    for op in ops:
        kind, n, back, other = op
        if kind == "append":
            seq += 1
            records = RecordBatch(
                list(range(offset, offset + n)),
                [("payload", offset + i) for i in range(n)],
                [0.5 * (offset + i) for i in range(n)],
                [1 + (offset + i) % 7 for i in range(n)])
            offset += n
            msg = Message(CH, seq, DATA, records, sum(records.sizes),
                          seq % 5, Piggyback(seq) if seq % 3 else None)
            sent.append((records, (list(records.rids), list(records.sizes))))
            log.append(msg)
            oracle.append(msg)
        elif kind == "truncate":
            floor = max(seq - back, 0)
            log.drop_through(floor)
            oracle.drop_through(floor)
        elif kind == "rollback":
            cursor = max(seq - back, 0)
            log.drop_after(cursor)
            oracle.drop_after(cursor)
            seq = cursor  # the restored sender sends the rest again
        else:
            after, through = sorted((seq - back, seq - other))
            assert_same_messages(log.window(CH, after, through),
                                 oracle.window(CH, after, through))
        assert list(range(log.next_seq - len(log), log.next_seq)) \
            == oracle.seqs
        assert len(log) == len(oracle)
    assert_same_messages(log.window(CH, -1, seq), oracle.messages)
    # a batch the log kept as its own segment is never trimmed
    for records, (rids, sizes) in sent:
        assert (records.rids, records.sizes) == (rids, sizes)


def test_a_gap_in_the_seqs_is_refused():
    log = ChannelLog()
    records = RecordBatch([1], ["a"], [0.0], [4])
    log.append(Message(CH, 1, DATA, records, 4))
    with pytest.raises(ValueError, match="logged message 3, expected 2"):
        log.append(Message(CH, 3, DATA, records, 4))
    log.drop_after(0)  # a rollback to before the first message
    assert len(log) == 0 and log.next_seq == 1
    log.append(Message(CH, 1, DATA, records, 4))
    assert (log.next_seq, len(log)) == (2, 1)


def test_long_messages_are_kept_short_ones_copied():
    log = ChannelLog()
    short = RecordBatch([1], ["a"], [0.0], [4])
    long = RecordBatch(list(range(ADOPT_MIN)), [None] * ADOPT_MIN,
                       [0.0] * ADOPT_MIN, [1] * ADOPT_MIN)
    for seq, records in enumerate((short, short, long, short), start=1):
        log.append(Message(CH, seq, DATA, records, sum(records.sizes)))
    assert len(log.segments) == 3
    assert log.segments[1] is long
    assert short not in log.segments
    assert log.segments[0].rids == [1, 1]
