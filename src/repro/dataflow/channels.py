"""Channels, messages, key routing and outbound batching.

A *channel* is the FIFO link between one producer instance and one consumer
instance of an edge: ``ChannelId = (edge_id, src_index, dst_index)``.  The
checkpointing protocols reason at channel granularity — COOR blocks
channels during alignment, UNC logs per channel, and checkpoint metadata
stores per-channel sequence cursors.

Producers batch records per channel in a :class:`RouterBuffer` (flushed when
full or on a linger timer), mirroring the network-buffer behaviour of real
engines; serialization and network costs are charged per flushed message.
A channel's staged records are one :class:`RecordBatch`, and that batch is
what its message carries.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.dataflow.batch import RecordBatch
from repro.dataflow.graph import EdgeSpec, Partitioning
from repro.dataflow.keygroups import key_group

ChannelId = tuple[int, int, int]

DATA = 0
MARKER = 1
CONTROL = 2


@dataclass(slots=True)
class Message:
    """One unit of network transfer between two operator instances."""

    channel: ChannelId
    seq: int
    kind: int
    records: RecordBatch | None
    payload_bytes: int
    protocol_bytes: int = 0
    piggyback: Any = None
    meta: Any = None

    @property
    def total_bytes(self) -> int:
        """Payload plus protocol (piggyback/marker) bytes on the wire."""
        return self.payload_bytes + self.protocol_bytes

    @property
    def record_count(self) -> int:
        """Number of records carried (0 for control messages)."""
        return len(self.records) if self.records else 0


def hash_key(key: Any) -> int:
    """Stable, deterministic hash for routing keys (ints, strings, tuples)."""
    if isinstance(key, bool):
        return int(key)
    if isinstance(key, int):
        return key
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, tuple):
        acc = 2166136261
        for part in key:
            acc = (acc * 16777619) ^ (hash_key(part) & 0xFFFFFFFF)
        return acc & 0x7FFFFFFF
    raise TypeError(f"unsupported routing key type: {type(key).__name__}")


class KeyDestinations:
    """``routing key -> destination instance`` for one key-space shape.

    KEY edges route in two hops, ``key -> crc32 group -> owning
    instance`` (:mod:`repro.dataflow.keygroups`), so a rescaled
    deployment moves group ranges and never re-hashes a key.  The mapping
    ``group_owner(key_group(hash_key(key), G), p, G)`` is a
    pure function of the key and of ``(p, G)``, so it is derived once per
    distinct key *per process* — not once per router per run: every
    router of every job deployed at the same shape reads the one table
    (:func:`key_destinations`), and a rescaled deployment simply reads
    the table of its new shape.  A router probes :attr:`entries` itself
    (a plain ``dict.get``) and calls :meth:`derive` on a miss.  An
    unsupported key type raises ``TypeError`` from :func:`hash_key`
    before anything is stored, on every occurrence.
    """

    __slots__ = ("entries", "_parallelism", "_max_key_groups")

    #: entries a table may hold; one more distinct key empties it first,
    #: which bounds memory against pathological key cardinalities
    MAX_ENTRIES = 1 << 17

    def __init__(self, parallelism: int, max_key_groups: int) -> None:
        self.entries: dict[Any, int] = {}
        self._parallelism = parallelism
        self._max_key_groups = max_key_groups

    def derive(self, routing_key: Any) -> int:
        """Derive, memoise and return the destination of a new key."""
        max_groups = self._max_key_groups
        group = key_group(hash_key(routing_key), max_groups)
        dst = group * self._parallelism // max_groups  # = group_owner(...)
        entries = self.entries
        if len(entries) >= self.MAX_ENTRIES:
            entries.clear()
        entries[routing_key] = dst
        return dst


#: (parallelism, max_key_groups) -> the one table
_KEY_DESTINATIONS: dict[tuple[int, int], KeyDestinations] = {}


def key_destinations(parallelism: int,
                     max_key_groups: int) -> KeyDestinations:
    """The process-wide :class:`KeyDestinations` of one key-space shape."""
    shape = (parallelism, max_key_groups)
    table = _KEY_DESTINATIONS.get(shape)
    if table is None:
        table = _KEY_DESTINATIONS[shape] = KeyDestinations(*shape)
    return table


class RouterBuffer:
    """Outbound batching for one producer instance.

    ``route_batch`` stages records; ``take_ready`` drains buffers that
    reached the batch-size threshold; ``take_all`` (linger flush, the forced
    flush before a checkpoint and its markers, shutdown) drains everything.

    A staged destination *is* its message's batch: the
    :class:`RecordBatch` a buffer grows in place is the one the drain
    hands to ``Transport.send_data`` and the message carries.  Its bytes
    are summed once, when it is gated or leaves — the drains return
    ``(edge, dst, records, bytes)`` — never per routed row.

    Routing is precomputed per edge at construction: a FORWARD edge's one
    destination is the producer's own index, KEY edges read the process-wide
    :class:`KeyDestinations` table of the deployment's shape.  Staged and
    batch-ready record counts are tracked incrementally, so the per-message
    ``take_ready`` poll and the per-linger-tick staged check are O(1) when
    nothing is due — the hot path never rescans the buffer map.

    The two counters behind that, ``_n_ready`` and ``_staged``, are read
    directly by the engine (``Job.process_records``, the worker's linger
    flush): a property would put a Python frame on every batch.

    Buffers are indexed **per edge** (``edge_id -> dst -> RecordBatch``),
    so a credit return reaches its one channel's batch (``take_channel``)
    in two lookups.

    Credit-based flow control (DESIGN.md section 13) parks batches here:
    a ``(edge, dst)`` pair whose channel is out of credits is *blocked* —
    gated drains skip it (the batch keeps growing in place, preserving
    per-channel FIFO) until the transport unblocks it on credit return or
    a forced drain (the flush before a checkpoint) pushes it out.
    """

    __slots__ = ("_batch_max", "_by_edge", "_plans", "_staged", "_n_ready",
                 "_blocked")

    def __init__(self, edges: list[EdgeSpec], src_index: int, parallelism: int,
                 max_key_groups: int, batch_max: int) -> None:
        self._batch_max = batch_max
        #: edge_id -> dst -> staged batch (created lazily per dst)
        self._by_edge: dict[int, dict[int, RecordBatch]] = {
            edge.edge_id: {} for edge in edges
        }
        #: (edge_id, dst) pairs parked by credit exhaustion
        self._blocked: set[tuple[int, int]] = set()
        #: per edge: (edge_id, dst buffers, FORWARD destination | None,
        #: key_fn, memoised routing key -> destination, its miss handler)
        self._plans: list[tuple[int, dict, int | None, Any, Any, Any]] = []
        for edge in edges:
            forward: int | None = None
            lookup = derive = None
            if edge.partitioning is Partitioning.FORWARD:
                forward = src_index
            else:
                table = key_destinations(parallelism, max_key_groups)
                lookup, derive = table.entries.get, table.derive
            self._plans.append(
                (edge.edge_id, self._by_edge[edge.edge_id], forward,
                 edge.key_fn, lookup, derive)
            )
        self._staged = 0
        self._n_ready = 0

    def route_batch(self, batch: RecordBatch) -> None:
        """Stage one batch onto (edge, destination) buffers.

        Buffers are created in first-occurrence order of their destination
        and become ready exactly when a record crosses the batch threshold,
        so the staged state does not depend on how the producer's output
        happened to be batched.  A FORWARD edge extends its one
        destination's four columns with the batch's; KEY edges append row
        by row onto them (one probe of the shared
        :class:`KeyDestinations` table per record).  At the paper's rates
        four in five KEY batches carry at most four records, where a
        ``dst -> [positions]`` scatter costs more to build than the
        appends it saves: measured again for DESIGN.md section 22, a
        scatter-by-destination gains 3.5 % on 256-record batches and
        loses 2.5 % on the paper traffic — not worth a second path.
        """
        rids = batch.rids
        n = len(rids)
        if not n:
            return
        payloads = batch.payloads
        source_ts = batch.source_ts
        sizes = batch.sizes
        batch_max = self._batch_max
        blocked = self._blocked
        n_ready = 0
        staged = 0
        for edge_id, buffers, forward, key_fn, lookup, derive in self._plans:
            if forward is not None:  # FORWARD: instance i -> instance i
                buf = buffers.get(forward)
                if buf is None:
                    buf = buffers[forward] = RecordBatch([], [], [], [])
                before = len(buf.rids)
                buf.rids.extend(rids)
                buf.payloads.extend(payloads)
                buf.source_ts.extend(source_ts)
                buf.sizes.extend(sizes)
                if before < batch_max <= before + n \
                        and (edge_id, forward) not in blocked:
                    n_ready += 1
                staged += n
                continue
            # KEY partitioning: one memoised probe and four appends per
            # row; the crc32 double hash (hash_key + key_group) runs once
            # per distinct key per process, inside the shared table
            for rid, payload, ts, size in zip(rids, payloads, source_ts,
                                              sizes):
                routing_key = key_fn(payload)
                dst = lookup(routing_key)
                if dst is None:
                    dst = derive(routing_key)
                buf = buffers.get(dst)
                if buf is None:
                    buf = buffers[dst] = RecordBatch([], [], [], [])
                buf.rids.append(rid)
                buf.payloads.append(payload)
                buf.source_ts.append(ts)
                buf.sizes.append(size)
                if len(buf.rids) == batch_max \
                        and (edge_id, dst) not in blocked:
                    n_ready += 1
            staged += n
        self._n_ready += n_ready
        self._staged += staged

    # -- credit blocking ------------------------------------------------- #

    def block(self, edge_id: int, dst: int) -> None:
        """Park ``(edge, dst)``: gated drains skip it until unblocked."""
        key = (edge_id, dst)
        if key in self._blocked:
            return
        self._blocked.add(key)
        buf = self._by_edge[edge_id].get(dst)
        if buf is not None and len(buf.rids) >= self._batch_max:
            self._n_ready -= 1

    def _pop(self, edge_id: int, dst: int, count: int, blocked: bool) -> None:
        """Remove a drained buffer of ``count`` records; settle the counters."""
        del self._by_edge[edge_id][dst]
        self._staged -= count
        if blocked:
            self._blocked.discard((edge_id, dst))
        elif count >= self._batch_max:
            self._n_ready -= 1

    def take_ready(
        self, gate: Callable[[int, int, int, int], bool] | None = None,
    ) -> list[tuple[int, int, RecordBatch, int]]:
        """Drain buffers at/over the batch threshold -> (edge, dst, records, bytes).

        ``gate(edge_id, dst, nbytes, nrecords)`` is the transport's credit
        check: a buffer refused by the gate is blocked in place instead of
        drained (the gate records the park on its side).  The record count
        travels with the byte count so zero-size records still cost
        credits (a size-0 batch must not slip past a parked channel).
        """
        if not self._n_ready:
            return []
        ready = []
        batch_max = self._batch_max
        blocked = self._blocked
        for edge_id, buffers in self._by_edge.items():
            for dst in list(buffers):
                records = buffers[dst]
                count = len(records.rids)
                if count < batch_max or (edge_id, dst) in blocked:
                    continue
                nbytes = sum(records.sizes)
                if gate is not None and not gate(edge_id, dst, nbytes, count):
                    self.block(edge_id, dst)
                    continue
                self._pop(edge_id, dst, count, blocked=False)
                ready.append((edge_id, dst, records, nbytes))
        return ready

    def take_all(
        self, gate: Callable[[int, int, int, int], bool] | None = None,
    ) -> list[tuple[int, int, RecordBatch, int]]:
        """Drain every non-empty buffer.

        With a ``gate`` (linger flush): blocked buffers stay parked and
        buffers refused by the gate are blocked in place.  Without one
        (checkpoint flush): everything drains, including parked batches —
        the caller settles their credit bookkeeping.
        """
        drained = []
        blocked = self._blocked
        if gate is None:
            # every buffer goes, so the counters need no per-buffer upkeep
            for edge_id, buffers in self._by_edge.items():
                for dst, records in buffers.items():
                    drained.append((edge_id, dst, records, sum(records.sizes)))
                    if blocked:
                        blocked.discard((edge_id, dst))
                buffers.clear()
            self._staged = self._n_ready = 0
            return drained
        for edge_id, buffers in self._by_edge.items():
            for dst in list(buffers):
                if (edge_id, dst) in blocked:
                    continue
                records = buffers[dst]
                count = len(records.rids)
                nbytes = sum(records.sizes)
                if not gate(edge_id, dst, nbytes, count):
                    self.block(edge_id, dst)
                    continue
                self._pop(edge_id, dst, count, blocked=False)
                drained.append((edge_id, dst, records, nbytes))
        return drained

    def send_all(self, send: Callable[..., float], owner: Any) -> float:
        """``take_all()`` handed straight to ``send``, without the list.

        ``send(owner, edge_id, dst, records, bytes)`` is called for every
        non-empty buffer in ``take_all``'s order (the unbounded linger
        flush, DESIGN.md section 19: ``Transport.send_data`` and the
        sending instance); returns the sum of what it returned.  The
        owner is passed through rather than bound with ``partial``, which
        measured 1.4 % of ``paper``.

        Only for a router no gate drains: a pair is blocked only when a
        credit gate refuses it, so on unbounded channels nothing is
        parked and the blocked set needs no upkeep here.
        """
        cost = 0.0
        for edge_id, buffers in self._by_edge.items():
            if buffers:
                for dst, records in buffers.items():
                    cost += send(owner, edge_id, dst, records,
                                 sum(records.sizes))
                buffers.clear()
        self._staged = self._n_ready = 0
        return cost

    def take_channel(self, edge_id: int, dst: int) -> tuple[RecordBatch, int] | None:
        """Forcibly drain one (edge, dst) buffer -> (records, bytes) or None.

        Used when credits return to a parked channel: the whole buffer
        (which may have outgrown the batch threshold while parked) leaves
        as one message, preserving per-channel FIFO order.
        """
        records = self._by_edge[edge_id].get(dst)
        if records is None:
            self._blocked.discard((edge_id, dst))
            return None
        self._pop(edge_id, dst, len(records.rids),
                  blocked=(edge_id, dst) in self._blocked)
        return records, sum(records.sizes)

    def staged_for(self, edge_id: int, dst: int) -> tuple[int, int]:
        """(bytes, records) currently staged for one (edge, dst) buffer."""
        records = self._by_edge[edge_id].get(dst)
        if records is None:
            return 0, 0
        return sum(records.sizes), len(records.rids)

    @property
    def staged_records(self) -> int:
        """Records currently staged across all buffers."""
        return self._staged

    def clear(self) -> None:
        """Drop every staged buffer (rollback/rescale reset)."""
        for buffers in self._by_edge.values():
            buffers.clear()
        self._blocked.clear()
        self._staged = 0
        self._n_ready = 0
