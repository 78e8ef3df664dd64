"""Generated input logs, pinned record by record.

``tests/data/inputs_golden.json`` holds, per case and per
``topic[partition]``, the record count and a sha256 over
``repr((available_at, payload, size_bytes))`` of every record in offset
order, plus a sha256 over the source lineage ids of partition 0 of each
topic.  ``perfbench``'s ``inputs`` digests cover lengths, bytes and
timestamps; this covers the payloads too.  The cases are every registered
query under steady arrivals, hot keys, the three shaped arrival processes
and a drifting hot set at ``p=16``, and one sharded slice.

The fixture was recorded through ``Partition.records`` from the
row-object log (one ``LogRecord`` per record) in the commit before the
log became columnar, so it is the reference the column generators are
held to.  Regenerate after an *intentional* change of a generator with

    PYTHONPATH=src python -m tests.test_inputs_golden

from the repository root, and review the diff of the JSON file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.dataflow.records import source_rid_prefix, source_rids_from_prefix
from repro.experiments.parallel import resolve_spec
from repro.experiments.sharding import shard_inputs
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import parse_arrival

FIXTURE = Path(__file__).parent / "data" / "inputs_golden.json"

QUERIES = ("q12", "q1", "q5", "q3", "q8", "reachability")
SEED = 7
RATE = 1500.0
UNTIL = 4.0

#: variant -> (parallelism, hot_ratio, arrival spec)
VARIANTS = {
    "steady": (4, 0.0, None),
    "hot": (4, 0.3, None),
    "diurnal": (4, 0.0, "diurnal:period=5,amp=0.5"),
    "flash": (4, 0.0, "flash:at=1;3,mag=3,ramp=0.5,hold=1"),
    "mmpp": (4, 0.0, "mmpp:low=0.5,high=2,dwell_low=2,dwell_high=1"),
    "drift-p16": (16, 0.2, "drift:period=4,zipf=1.2"),
}

CASES = [f"{query}-{variant}" for query in QUERIES for variant in VARIANTS]
SHARD_CASE = "q12-shard-0-of-2"


def generate(query: str, variant: str) -> dict[str, PartitionedLog]:
    """``build_inputs`` directly (no memo) for one case of the matrix."""
    parallelism, hot_ratio, arrival = VARIANTS[variant]
    process = parse_arrival(arrival) if arrival is not None else None
    return resolve_spec(query).build_inputs(
        RATE, UNTIL, parallelism, hot_ratio, SEED, process)


def build_case(case: str) -> dict[str, PartitionedLog]:
    """The logs of one fixture case."""
    if case == SHARD_CASE:
        graph = resolve_spec("q12").build_graph(4)
        return shard_inputs(graph, generate("q12", "steady"), 0, 2, 128)
    query, _, variant = case.partition("-")
    return generate(query, variant)


def rid_column(topic: str, index: int, offsets: list[int]) -> list[int]:
    """The lineage ids a source assigns to ``offsets`` of one partition."""
    return source_rids_from_prefix(source_rid_prefix(topic, index), offsets)


def _sha(parts: list[str]) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode())
    return digest.hexdigest()


def signature(inputs: dict[str, PartitionedLog]) -> dict[str, list | str]:
    """What the fixture pins of one case, read through ``.records``."""
    out: dict[str, list | str] = {}
    for topic in sorted(inputs):
        for partition in inputs[topic].partitions:
            records = partition.records
            out[f"{topic}[{partition.index}]"] = [
                len(records),
                _sha([repr((r.available_at, r.payload, r.size_bytes))
                      for r in records]),
            ]
        first = inputs[topic].partitions[0]
        out[f"rids:{topic}[0]"] = _sha([
            repr(rid_column(topic, 0, [r.offset for r in first.records]))])
    return out


def test_fixture_lists_exactly_the_cases():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CASES + [SHARD_CASE])


@pytest.mark.parametrize("case", CASES + [SHARD_CASE])
def test_generated_inputs_match_golden(case):
    expected = json.loads(FIXTURE.read_text())[case]
    actual = signature(build_case(case))
    assert sorted(actual) == sorted(expected), f"{case}: topics/partitions moved"
    for name, value in expected.items():
        assert actual[name] == value, f"{case}: {name} moved off the fixture"


def main() -> None:
    """Re-record the fixture (see the module docstring)."""
    golden = {case: signature(build_case(case)) for case in CASES + [SHARD_CASE]}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
