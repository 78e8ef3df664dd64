"""The UNC/CIC send log and replay-set computation for log-based recovery.

Given a recovery line and the durable per-channel send logs, the in-flight
messages of the line are exactly those with

``receiver_cursor(channel) < seq <= sender_cursor(channel)``

— sent before the sender's checkpoint (hence not regenerated after the
rollback) but not yet incorporated in the receiver's checkpoint.  Replaying
them and deduplicating by lineage id restores the channel state required by
the no-dropping half of Definition 5 with exactly-once effects.

Each log is one timeline of consecutive seqs that starts above the
floor line (DESIGN.md section 8), so a window is a slice found by
subtraction, and no window of a later line reaches below the log's
start.

A :class:`ChannelLog` keeps what a replay needs of each message in
columns, not as the ``Message`` itself (DESIGN.md section 8, "The send
log is columnar").
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Any

from repro.core.base import CheckpointMeta, InstanceKey
from repro.dataflow.batch import RecordBatch
from repro.dataflow.channels import DATA, ChannelId, Message

#: a message of at least this many records is kept as its own segment
#: (its batch, not a copy); a shorter one is copied into the open one
ADOPT_MIN = 16


class ChannelLog:
    """One channel's logged DATA messages.

    A sender numbers a channel's messages 1, 2, 3, ... and logs every
    one; a truncation forgets a prefix of the log, a rollback a suffix
    that the restored sender then sends again under the same numbers.
    So the retained seqs are consecutive, ending at ``next_seq - 1``
    (:meth:`append` refuses a gap), and a seq's index is found by
    subtraction: no seq is stored and no cut searches.

    Message ``i`` has ``payload_bytes[i]``, ``protocol_bytes[i]`` and
    ``piggybacks[i]`` (held by reference), and its records are the
    offsets ``[ends[i - 1], ends[i])`` of the channel's record stream
    (``[head, ends[0])`` for the first).  Offsets are absolute — counted
    from the log's creation — so a cut at either end never rewrites
    them.  The records live in ``segments``, each a :class:`RecordBatch`
    whose first row has offset ``starts[k]``: a message of
    :data:`ADOPT_MIN` or more records is its own segment, the others are
    appended to the open segment (``_open``, always the last one), so a
    message never spans two segments and only an open-style segment is
    ever trimmed part-way.
    """

    __slots__ = ("next_seq", "ends", "payload_bytes", "protocol_bytes",
                 "piggybacks", "segments", "starts", "head", "end", "_open")

    def __init__(self) -> None:
        """An empty log whose first message will carry seq 1."""
        #: the seq the next logged message must carry
        self.next_seq = 1
        self.ends: list[int] = []
        self.payload_bytes: list[int] = []
        self.protocol_bytes: list[int] = []
        self.piggybacks: list[Any] = []
        self.segments: list[RecordBatch] = []
        self.starts: list[int] = []
        #: offset of the first retained message's first record
        self.head = 0
        #: offset just past the last logged record
        self.end = 0
        self._open: RecordBatch | None = None

    def __len__(self) -> int:
        """Number of logged messages."""
        return len(self.ends)

    def _through(self, seq: int) -> int:
        """How many retained messages have a sequence number ``<= seq``."""
        kept = len(self.ends)
        return min(max(seq - self.next_seq + kept + 1, 0), kept)

    def append(self, msg: Message) -> int:
        """Log one DATA message as sent (piggyback and protocol bytes
        included); returns its record count."""
        if msg.seq != self.next_seq:
            raise ValueError(f"channel {msg.channel}: logged message "
                             f"{msg.seq}, expected {self.next_seq}")
        self.next_seq += 1
        records = msg.records
        n = len(records.rids)
        start = self.end
        if n >= ADOPT_MIN:
            self.segments.append(records)
            self.starts.append(start)
            self._open = None
        else:
            segment = self._open
            if segment is None:
                segment = self._open = RecordBatch([], [], [], [])
                self.segments.append(segment)
                self.starts.append(start)
            # ``+=`` extends in place without a method call per column
            segment.rids += records.rids
            segment.payloads += records.payloads
            segment.source_ts += records.source_ts
            segment.sizes += records.sizes
        self.end = end = start + n
        self.ends.append(end)
        self.payload_bytes.append(msg.payload_bytes)
        self.protocol_bytes.append(msg.protocol_bytes)
        self.piggybacks.append(msg.piggyback)
        return n

    def drop_through(self, seq: int) -> None:
        """Forget every message with a sequence number ``<= seq``."""
        k = self._through(seq)
        if not k:
            return
        head = self.head = self.ends[k - 1]
        del self.ends[:k], self.payload_bytes[:k]
        del self.protocol_bytes[:k], self.piggybacks[:k]
        segments, starts = self.segments, self.starts
        # the segments before the one holding the new head end at or
        # before it; that one goes too if it is spent, unless it is the
        # open one, which stays (trimmed, possibly to nothing)
        first = max(bisect_right(starts, head) - 1, 0)
        if (first < len(segments) and segments[first] is not self._open
                and starts[first] + len(segments[first].rids) <= head):
            first += 1
        del segments[:first], starts[:first]
        if segments and starts[0] < head:
            cut = head - starts[0]
            segment = segments[0]
            del segment.rids[:cut], segment.payloads[:cut]
            del segment.source_ts[:cut], segment.sizes[:cut]
            starts[0] = head

    def drop_after(self, seq: int) -> None:
        """Forget every message with a sequence number ``> seq``: the
        restored sender sends ``seq + 1`` next."""
        if seq >= self.next_seq - 1:
            return
        k = self._through(seq)
        self.next_seq = seq + 1
        end = self.end = self.ends[k - 1] if k else self.head
        del self.ends[k:], self.payload_bytes[k:]
        del self.protocol_bytes[k:], self.piggybacks[k:]
        segments, starts = self.segments, self.starts
        keep = bisect_left(starts, end)
        del segments[keep:], starts[keep:]
        if segments:
            segment = segments[-1]
            cut = end - starts[-1]
            del segment.rids[cut:], segment.payloads[cut:]
            del segment.source_ts[cut:], segment.sizes[cut:]
            if segment is self._open:
                return
        self._open = None

    def window(self, channel: ChannelId, after: int,
               through: int) -> list[Message]:
        """The logged messages with ``after < seq <= through``, rebuilt
        as sent."""
        ends, starts, segments = self.ends, self.starts, self.segments
        first = self._through(after)
        last = self._through(through)
        seq = self.next_seq - len(ends) + first
        messages = []
        start = ends[first - 1] if first else self.head
        for i in range(first, last):
            end = ends[i]
            k = bisect_right(starts, start) - 1
            segment = segments[k]
            lo = start - starts[k]
            hi = end - starts[k]
            messages.append(Message(
                channel, seq, DATA,
                RecordBatch(segment.rids[lo:hi], segment.payloads[lo:hi],
                            segment.source_ts[lo:hi], segment.sizes[lo:hi]),
                self.payload_bytes[i], self.protocol_bytes[i],
                self.piggybacks[i], None))
            seq += 1
            start = end
        return messages


def build_replay_sets(
    line: dict[InstanceKey, CheckpointMeta],
    send_log: dict[ChannelId, ChannelLog],
    channel_endpoints: dict[ChannelId, tuple[InstanceKey, InstanceKey]],
) -> dict[ChannelId, list[Message]]:
    """Select the logged messages each channel must replay for this line."""
    replay: dict[ChannelId, list[Message]] = {}
    for channel, log in send_log.items():
        sender, receiver = channel_endpoints[channel]
        sender_cursor = line[sender].sent_cursor(channel)
        receiver_cursor = line[receiver].received_cursor(channel)
        if sender_cursor <= receiver_cursor:
            continue
        selected = log.window(channel, receiver_cursor, sender_cursor)
        if selected:
            replay[channel] = selected
    return replay
