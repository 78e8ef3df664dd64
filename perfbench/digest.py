"""Digests of simulated statistics: what a faster simulator must not move.

A run's digest covers public :class:`~repro.dataflow.results.RunResult`
values only (accessors and ``RunResult.metrics`` fields), rendered as
canonical JSON: dict order does not matter, floats are exact (shortest
round-trip ``repr``).  Next to the digest a *fingerprint* keeps every
statistic by name — scalars by value, compound ones by a short hash — so a
mismatch can name the first statistic that moved instead of two hashes.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from array import array
from typing import Any


def canonical(value: Any) -> str:
    """Order-insensitive, float-exact JSON rendering of ``value``."""
    return json.dumps(_plain(value), sort_keys=True, separators=(",", ":"))


def _plain(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(key): _plain(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted((_plain(item) for item in value), key=canonical)
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    # payload objects inside recovery signatures etc.: their repr is stable
    # across processes for the value types the simulator records
    return repr(value)


def digest(value: Any) -> str:
    """sha256 of the canonical rendering."""
    return hashlib.sha256(canonical(value).encode("utf-8")).hexdigest()


def fingerprint(stats: dict[str, Any]) -> dict[str, Any]:
    """``{"digest", "fields"}`` of one case's statistics."""
    fields = {}
    for name, value in stats.items():
        scalar = isinstance(value, (str, int, float, bool)) or value is None
        fields[name] = value if scalar else "#" + digest(value)[:12]
    return {"digest": digest(stats), "fields": fields}


def first_difference(reference: dict[str, Any], got: dict[str, Any]) -> str:
    """Name the first statistic on which two fingerprints disagree."""
    ref_fields, got_fields = reference["fields"], got["fields"]
    for name in sorted(set(ref_fields) | set(got_fields)):
        if name not in got_fields:
            return f"statistic {name!r} is gone (was {ref_fields[name]!r})"
        if name not in ref_fields:
            return f"statistic {name!r} is new ({got_fields[name]!r})"
        # compare renderings, not values: 1 == 1.0 but they digest apart
        if canonical(ref_fields[name]) != canonical(got_fields[name]):
            return (f"statistic {name!r}: expected {ref_fields[name]!r}, "
                    f"got {got_fields[name]!r}")
    return "digests differ but every named statistic agrees"


def run_stats(result: Any) -> dict[str, Any]:
    """The simulated statistics of one finished run, by name."""
    metrics = result.metrics
    series = result.latency_series()
    return {
        "sink_counts": metrics.sink_counts,
        "ingest_counts": metrics.ingest_counts,
        "total_checkpoints": result.total_checkpoints(),
        "invalid_percentage": result.invalid_percentage(),
        "avg_checkpoint_time": result.avg_checkpoint_time(),
        "restart_time": result.restart_time(),
        "recovery_time": result.recovery_time(),
        "availability": result.availability(),
        "goodput": result.goodput(),
        "blocked_time": result.blocked_time(),
        "latency_p50": series.p50,
        "latency_p99": series.p99,
        "data_bytes": metrics.data_bytes,
        "protocol_bytes": metrics.protocol_bytes,
        "messages_sent": metrics.messages_sent,
        "records_sent": metrics.records_sent,
        "replayed_records": metrics.replayed_records,
        "duplicates_skipped": metrics.duplicates_skipped,
        "checkpoint_bytes_uploaded": metrics.checkpoint_bytes_uploaded,
        "recovery_lines": metrics.recovery_lines,
        "completed_rounds": sorted(result.completed_rounds),
        "final_parallelism": result.final_parallelism,
    }


def mst_stats(result: Any) -> dict[str, Any]:
    """The outcome of one MST search."""
    return {"mst": result.mst, "probes": result.probes,
            "bracket_exhausted": result.bracket_exhausted}


def inputs_stats(inputs: dict[str, Any]) -> dict[str, Any]:
    """Per partition: length, total bytes, crc32 of the packed timestamps.

    Timestamps are packed as native doubles, so a reference pinned on a
    little-endian host is only valid on little-endian hosts.
    """
    stats = {}
    for topic in sorted(inputs):
        for partition in inputs[topic].partitions:
            records = partition.records
            times = array("d", [record.available_at for record in records])
            stats[f"{topic}[{partition.index}]"] = [
                len(records),
                sum(record.size_bytes for record in records),
                zlib.crc32(times.tobytes()),
            ]
    return stats
