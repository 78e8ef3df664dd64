"""Replay-set computation for log-based recovery (UNC/CIC).

Given a recovery line and the durable per-channel send logs, the in-flight
messages of the line are exactly those with

``receiver_cursor(channel) < seq <= sender_cursor(channel)``

— sent before the sender's checkpoint (hence not regenerated after the
rollback) but not yet incorporated in the receiver's checkpoint.  Replaying
them and deduplicating by lineage id restores the channel state required by
the no-dropping half of Definition 5 with exactly-once effects.
"""

from __future__ import annotations

from repro.core.base import CheckpointMeta, InstanceKey
from repro.dataflow.channels import ChannelId, Message


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
        selected = [
            m for m in messages if receiver_cursor < m.seq <= sender_cursor
        ]
        if selected:
            replay[channel] = selected
    return replay


def rollback_distance_records(replay: dict[ChannelId, list[Message]]) -> int:
    """Total records that will be re-delivered (reporting helper)."""
    return sum(m.record_count for messages in replay.values() for m in messages)
