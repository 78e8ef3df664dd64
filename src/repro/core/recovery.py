"""Replay-set computation for log-based recovery (UNC/CIC).

Given a recovery line and the durable per-channel send logs, the in-flight
messages of the line are exactly those with

``receiver_cursor(channel) < seq <= sender_cursor(channel)``

— sent before the sender's checkpoint (hence not regenerated after the
rollback) but not yet incorporated in the receiver's checkpoint.  Replaying
them and deduplicating by lineage id restores the channel state required by
the no-dropping half of Definition 5 with exactly-once effects.

Each log is one timeline, increasing in ``seq``, that starts above the
floor line (DESIGN.md section 8), so a window is two bisections and a
slice, and no window of a later line reaches below the log's start.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter

from repro.core.base import CheckpointMeta, InstanceKey
from repro.dataflow.channels import ChannelId, Message

#: the key each channel's log is sorted by (``bisect_right(log, seq,
#: key=message_seq)`` counts the logged messages up to ``seq``)
message_seq = attrgetter("seq")


def build_replay_sets(
    line: dict[InstanceKey, CheckpointMeta],
    send_log: dict[ChannelId, list[Message]],
    channel_endpoints: dict[ChannelId, tuple[InstanceKey, InstanceKey]],
) -> dict[ChannelId, list[Message]]:
    """Select the logged messages each channel must replay for this line."""
    replay: dict[ChannelId, list[Message]] = {}
    for channel, messages in send_log.items():
        sender, receiver = channel_endpoints[channel]
        sender_cursor = line[sender].sent_cursor(channel)
        receiver_cursor = line[receiver].received_cursor(channel)
        if sender_cursor <= receiver_cursor:
            continue
        selected = messages[
            bisect_right(messages, receiver_cursor, key=message_seq):
            bisect_right(messages, sender_cursor, key=message_seq)]
        if selected:
            replay[channel] = selected
    return replay
