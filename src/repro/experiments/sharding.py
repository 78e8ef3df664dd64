"""Intra-run sharding: one run split across independent key-group ranges.

:class:`~repro.experiments.parallel.ParallelRunner` (DESIGN.md section 9)
parallelizes *across* runs — a grid sweep fans out, but one large run
still simulates serially.  Sharding splits a **single run** into
``shard_count`` independent sub-simulations along the key-group address
space (:mod:`repro.dataflow.keygroups`): shard ``i`` keeps exactly the
input records whose routing key falls in ``group_range(i, shard_count,
max_key_groups)``, runs the *full* pipeline over that slice, and the
per-shard results merge additively (DESIGN.md section 15).

Soundness rests on key-group isolation, checked structurally by
:func:`validate_shardable`:

* every source out-edge is KEY-partitioned — the input filter applies the
  edge's own ``key_fn`` to raw log payloads, so "which shard owns this
  record" is exactly "which key-group range owns it";
* no edge downstream of a source is KEY-partitioned — a re-keying
  exchange could merge records of *different* source keys into one
  aggregate, which a key-group split would silently compute per shard;
* no BROADCAST edges — a broadcast record's effects are duplicated
  across instances and cannot be attributed to one key group.

Under those checks every input record's entire downstream effect (derived
records, keyed state, sink outputs) stays inside its own shard, so for a
drained run the merged per-key state and the record-additive counters
(sink / ingest counts, records sent, data bytes) equal the unsharded
run's.  Nothing else does: every shard runs the full deployment and its
own checkpoint schedule over ``1/shard_count`` of the load, so checkpoint
counts are per-shard sums, checkpoint durations are taken over
shard-sized state, and latencies, queue peaks and blocked time are what
the lighter load produced — merged best-effort, never invented; the
docstring of :func:`merge_metrics` spells out each field's rule.  A
sharded run is therefore something a caller asks for by count
(``repro query --shards N``), never a substitute the harness picks.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import fields, is_dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.dataflow.channels import hash_key
from repro.dataflow.graph import GraphError, LogicalGraph, Partitioning
from repro.dataflow.keygroups import group_range, key_group, validate_key_space
from repro.dataflow.results import RunResult
from repro.metrics.collectors import MetricsCollector
from repro.storage.kafka import PartitionedLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.parallel import ParallelRunner, RunRequest


class ShardingError(GraphError):
    """Raised when a graph or request cannot be sharded soundly."""


# --------------------------------------------------------------------- #
# Validation and input filtering
# --------------------------------------------------------------------- #

def validate_shardable(graph: LogicalGraph) -> None:
    """Reject topologies whose runs do not decompose along key groups.

    The three structural conditions (module docstring) are *sufficient*
    for records of different key groups to never meet: all keyed exchange
    happens on the source key, so the run is a disjoint union of per-group
    sub-runs.  Operators must additionally be key-local — their state and
    outputs for one key must not read another key's records — which is a
    semantic property of the operator code; the differential tests in
    ``tests/test_sharding.py`` audit it for the shipped pipelines.
    """
    for edge in graph.edges:
        if edge.partitioning is Partitioning.BROADCAST:
            raise ShardingError(
                f"cannot shard: BROADCAST edge {edge.src}->{edge.dst} "
                "duplicates records across instances, so their effects "
                "cannot be attributed to one key group"
            )
        if graph.operators[edge.src].is_source:
            if edge.partitioning is not Partitioning.KEY:
                raise ShardingError(
                    f"cannot shard: source out-edge {edge.src}->{edge.dst} "
                    f"is {edge.partitioning.value}; input records can only "
                    "be assigned to shards through a KEY edge's key_fn"
                )
        elif edge.partitioning is Partitioning.KEY:
            raise ShardingError(
                f"cannot shard: edge {edge.src}->{edge.dst} re-keys "
                "downstream of a source; a derived key may merge records "
                "of different source key groups into one aggregate"
            )
    for spec in graph.sources():
        if not graph.out_edges(spec.name):
            raise ShardingError(
                f"cannot shard: source {spec.name!r} has no out-edges to "
                "take a sharding key from"
            )


def shard_inputs(graph: LogicalGraph, inputs: dict[str, PartitionedLog],
                 shard_index: int, shard_count: int,
                 max_key_groups: int) -> dict[str, PartitionedLog]:
    """The slice of ``inputs`` owned by shard ``shard_index``.

    Every source topic is filtered to the records whose key group (under
    the source out-edge's ``key_fn``) falls in ``group_range(shard_index,
    shard_count, max_key_groups)``.  Filtered logs are *new* objects —
    the originals (possibly shared through the input memo) are never
    mutated — with offsets renumbered contiguously and availability
    timestamps preserved, so source cursors and checkpoints inside the
    shard are self-consistent.  Shards partition the input: every record
    lands in exactly one shard's slice.
    """
    validate_shardable(graph)
    if not 0 <= shard_index < shard_count:
        raise ShardingError(
            f"shard_index {shard_index} outside [0, {shard_count})"
        )
    validate_key_space(shard_count, max_key_groups, context="shard count")
    groups = group_range(shard_index, shard_count, max_key_groups)
    sharded = dict(inputs)
    for spec in graph.sources():
        log = inputs[spec.source_topic]
        key_fn, *other_fns = [edge.key_fn
                              for edge in graph.out_edges(spec.name)]
        #: key -> key group; keys repeat, and the mapping is a pure function
        group_of: dict[Any, int] = {}
        filtered = PartitionedLog(log.topic, len(log.partitions))
        for partition, slice_partition in zip(log.partitions,
                                              filtered.partitions):
            keep: list[int] = []
            for offset, payload in enumerate(partition.payloads):
                key = key_fn(payload)
                owner = group_of.get(key)
                if owner is None:
                    owner = group_of[key] = key_group(hash_key(key),
                                                      max_key_groups)
                if other_fns:
                    owners = {owner} | {
                        key_group(hash_key(fn(payload)), max_key_groups)
                        for fn in other_fns
                    }
                    if len(owners) > 1:
                        raise ShardingError(
                            f"cannot shard: out-edges of source {spec.name!r} "
                            "route one record to different key groups "
                            f"({sorted(owners)}); sharding needs a single "
                            "owner per record"
                        )
                if owner in groups:
                    keep.append(offset)
            # the slice is a new partition: renumbered offsets, and its
            # own rid column (never the parent's) once a run polls it
            slice_partition.extend_columns(
                [partition.times[offset] for offset in keep],
                [partition.payloads[offset] for offset in keep],
                [partition.sizes[offset] for offset in keep],
            )
        sharded[spec.source_topic] = filtered
    return sharded


# --------------------------------------------------------------------- #
# Request fan-out
# --------------------------------------------------------------------- #

def shard_requests(request: "RunRequest",
                   shard_count: int) -> "list[RunRequest]":
    """Fan one request into ``shard_count`` shard requests.

    Each shard request carries the *same* configuration (same seed, same
    failure schedule, same parallelism — the split is along data, not
    along instances) plus its ``(shard_index, shard_count)`` coordinates;
    :func:`repro.experiments.parallel.run_with_spec` applies the input
    filter, and :func:`repro.experiments.parallel.request_key` hashes the
    coordinates, so shards cache independently of the unsharded run.
    """
    if request.shard_index is not None:
        raise ShardingError(
            f"request is already shard {request.shard_index}/"
            f"{request.shard_count}; shards cannot be re-sharded"
        )
    if shard_count < 1:
        raise ShardingError(f"shard_count must be >= 1, got {shard_count}")
    validate_key_space(shard_count, request.max_key_groups,
                       context="shard count")
    return [replace(request, shard_index=index, shard_count=shard_count)
            for index in range(shard_count)]


# --------------------------------------------------------------------- #
# Merging
# --------------------------------------------------------------------- #

def merge_metrics(parts: list[MetricsCollector]) -> MetricsCollector:
    """Merge per-shard collectors into one run-level collector.

    Record-additive fields — the only ones that equal the unsharded
    run's, because every record lives in exactly one shard: sink/ingest
    counts, the latency sample *population*, records sent, data bytes,
    per-group state bytes after a rescale.

    Per-shard sums that do **not** equal the unsharded run's: each shard
    is a full deployment on its own checkpoint schedule, so checkpoint
    events, forced checkpoints and checkpoint bytes add up to
    ``shard_count`` runs' worth, each taken over shard-sized state (a
    2-way split of q12/coor at p=8: 192 checkpoints for the unsharded
    run's 96, averaging 70.61 ms against 117.33 ms — the table is in
    DESIGN.md section 15); protocol bytes, message
    counts, replay counters and blocked-time totals likewise add what
    each shard saw at ``1/shard_count`` of the load.

    Best-effort fields (shards are separate processes, so no global
    instant exists): recovery records concatenate in shard order and
    ``first_failure()`` folds those of the earliest kill (the earliest
    detection, the latest restore, checkpoint and replay counts and
    group bytes summed); outages are the interval union of the records'
    spans; queue peaks report the worst single shard.

    Compacted collectors (latency digests instead of raw samples) are
    rejected: per-shard percentiles are not mergeable, which is exactly
    why the executor never compacts shard partials.
    """
    if any(metrics.latency_digests is not None for metrics in parts):
        raise ShardingError(
            "cannot merge compacted shard results: per-shard latency "
            "digests are not mergeable (the merge concatenates raw "
            "samples before taking percentiles); RunResult.compact() "
            "applies to top-level results only"
        )
    merged = MetricsCollector()
    for metrics in parts:
        for second, values in metrics.latencies.items():
            merged.latencies.setdefault(second, array("d")).extend(values)
        for second, count in metrics.sink_counts.items():
            merged.sink_counts[second] = (
                merged.sink_counts.get(second, 0) + count
            )
        for second, count in metrics.ingest_counts.items():
            merged.ingest_counts[second] = (
                merged.ingest_counts.get(second, 0) + count
            )
        merged.data_bytes += metrics.data_bytes
        merged.protocol_bytes += metrics.protocol_bytes
        merged.messages_sent += metrics.messages_sent
        merged.records_sent += metrics.records_sent
        merged.checkpoints.extend(metrics.checkpoints)
        merged.forced_checkpoints += metrics.forced_checkpoints
        merged.duplicates_skipped += metrics.duplicates_skipped
        merged.checkpoint_bytes_uploaded += metrics.checkpoint_bytes_uploaded
        merged.checkpoint_bytes_materialized += (
            metrics.checkpoint_bytes_materialized
        )
        merged.recoveries.extend(metrics.recoveries)
        merged.interval_updates.extend(metrics.interval_updates)
        for channel, blocked in metrics.blocked_time_by_channel.items():
            merged.blocked_time_by_channel[channel] = (
                merged.blocked_time_by_channel.get(channel, 0.0) + blocked
            )
        merged.blocked_time_total += metrics.blocked_time_total
        merged.blocked_time_aligned += metrics.blocked_time_aligned
        merged.sends_parked += metrics.sends_parked
        for channel, peak in metrics.peak_in_flight_bytes.items():
            if peak > merged.peak_in_flight_bytes.get(channel, 0):
                merged.peak_in_flight_bytes[channel] = peak
        merged.peak_total_in_flight_bytes = max(
            merged.peak_total_in_flight_bytes,
            metrics.peak_total_in_flight_bytes,
        )
    merged.interval_updates.sort(key=lambda update: update[0])
    return merged


def _canonical(value: Any) -> Any:
    """Rebuild ``value`` with every string interned (canonical sharing).

    Byte-identical pickles require identical object-*sharing* structure,
    not just equal values: a string appearing in two shards is one shared
    (memo-referenced) object when both shards ran in this process, but
    two distinct equal objects when each shard's result was unpickled
    from its own IPC message or cache entry.  Interning every string
    collapses both cases to one canonical form, so a merged result
    pickles to the same bytes no matter which executor produced the
    parts.  Containers and dataclasses are rebuilt; scalars pass through
    (pickle does not memoise numbers, so only strings matter).
    """
    if isinstance(value, str):
        return sys.intern(value)
    if isinstance(value, tuple):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, list):
        return [_canonical(item) for item in value]
    if isinstance(value, dict):
        return {_canonical(key): _canonical(item)
                for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return type(value)(_canonical(item) for item in value)
    if is_dataclass(value) and not isinstance(value, type):
        return type(value)(**{
            f.name: _canonical(getattr(value, f.name))
            for f in fields(value) if f.init
        })
    return value


def merge_shard_results(results: list[RunResult]) -> RunResult:
    """Merge per-shard :class:`RunResult`\\ s into one run-level result.

    Scalars (query, protocol, parallelism, rate, window) come from shard
    0 — every shard ran the identical configuration.  Coordinated rounds
    count as completed only when **all** shards completed them (a round
    missing in one shard has no global durable cut), so the intersection
    is taken before the checkpoint accounting sees the merged events.
    """
    if not results:
        raise ShardingError("no shard results to merge")
    first = results[0]
    completed = set(first.completed_rounds)
    for result in results[1:]:
        completed &= result.completed_rounds
    return _canonical(RunResult(
        query=first.query,
        protocol=first.protocol,
        parallelism=first.parallelism,
        rate=first.rate,
        warmup=first.warmup,
        duration=first.duration,
        metrics=merge_metrics([result.metrics for result in results]),
        checkpoint_interval=first.checkpoint_interval,
        completed_rounds=completed,
        final_parallelism=first.final_parallelism,
    ))


def run_sharded(request: "RunRequest", shard_count: int,
                runner: "ParallelRunner | None" = None) -> RunResult:
    """Execute ``request`` as ``shard_count`` key-group shards and merge.

    The shards are one :meth:`~repro.experiments.parallel.ParallelRunner.map`
    batch — through ``runner``'s scheduler and cache next to whatever else
    is in flight there, or through a serial runner of their own.  The
    parts are what a cache holds (a re-run at the same count reuses them
    all, at another count none); the merged result is stored nowhere.
    """
    from repro.experiments.parallel import ParallelRunner

    return merge_shard_results((runner or ParallelRunner()).map(
        shard_requests(request, shard_count)))
