"""Generated input logs, pinned record by record.

``tests/data/inputs_golden.json`` holds, per case and per
``topic[partition]``, the record count and a sha256 over
``repr((available_at, payload, size_bytes))`` of every record in offset
order, plus a sha256 over the source lineage ids of partition 0 of each
topic.  ``perfbench``'s ``inputs`` digests cover lengths, bytes and
timestamps; this covers the payloads too.  The cases are every registered
query under steady arrivals, hot keys, the three shaped arrival processes,
a drifting hot set at ``p=16``, a second seed, two long logs (24,000
events, uniform and hot: several draw blocks, and for q3/q8 several
stride carry-overs between them), hot keys under a flash crowd and under
the replayed ``tests/data/arrival_trace.csv`` (past all five knots, so
the trace's hot-key shifts show), and one sharded slice.  The cyclic
query has no hot keys, so it runs the variants without a hot ratio and
replays the trace cold.

Under ``payload_pickles`` it also holds, per case and partition, a sha256
over ``pickle.dumps(partition.payloads, protocol=4)``.  ``repr`` cannot
tell two equal strings from one shared string; pickle memoises by
identity, and event pickles are inside the state hashes the engine
fixtures pin, so which ``str`` objects the payloads share is part of what
a generator produces.

The fixture was recorded through ``Partition.records`` from the
row-object log (one ``LogRecord`` per record) in the commit before the
log became columnar, and extended (second seed, long logs, pickles) from
the row-by-row generators in the commit before they drew columns, so it
is the reference the column generators are held to.  Regenerate after an
*intentional* change of a generator with

    PYTHONPATH=src python -m tests.test_inputs_golden

from the repository root, and review the diff of the JSON file.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

import pytest

from repro.dataflow.records import source_rid_from_prefix, source_rid_prefix
from repro.experiments.parallel import resolve_spec
from repro.experiments.sharding import shard_inputs
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import parse_arrival

FIXTURE = Path(__file__).parent / "data" / "inputs_golden.json"

QUERIES = ("q12", "q1", "q5", "q3", "q8", "reachability")
UNTIL = 4.0
TRACE = Path(__file__).parent / "data" / "arrival_trace.csv"

#: variant -> (parallelism, hot_ratio, arrival spec, seed, rate, until)
VARIANTS = {
    "steady": (4, 0.0, None, 7, 1500.0, UNTIL),
    "hot": (4, 0.3, None, 7, 1500.0, UNTIL),
    "diurnal": (4, 0.0, "diurnal:period=5,amp=0.5", 7, 1500.0, UNTIL),
    "flash": (4, 0.0, "flash:at=1;3,mag=3,ramp=0.5,hold=1", 7, 1500.0,
              UNTIL),
    "mmpp": (4, 0.0, "mmpp:low=0.5,high=2,dwell_low=2,dwell_high=1",
             7, 1500.0, UNTIL),
    "drift-p16": (16, 0.2, "drift:period=4,zipf=1.2", 7, 1500.0, UNTIL),
    "seed13": (4, 0.0, None, 13, 1500.0, UNTIL),
    "long": (4, 0.0, None, 7, 6000.0, UNTIL),
    "long-hot": (4, 0.3, None, 7, 6000.0, UNTIL),
    "trace-hot": (4, 0.3, f"trace:{TRACE}", 7, 500.0, 18.0),
    "flash-hot": (4, 0.3, "flash:at=1;3,mag=3,ramp=0.5,hold=1", 7, 1500.0,
                  UNTIL),
}

#: reachability has no hot keys (its builder rejects a hot ratio): it
#: runs every variant without one, drops the variants that only add one,
#: and replays the trace cold
CYCLIC_VARIANTS = {
    variant: (parallelism, 0.0, *rest)
    for variant, (parallelism, _, *rest) in VARIANTS.items()
    if not variant.endswith("hot")
} | {"trace": (4, 0.0, f"trace:{TRACE}", 7, 500.0, 18.0)}


def variants(query: str) -> dict[str, tuple]:
    """The variant table of one query."""
    return CYCLIC_VARIANTS if query == "reachability" else VARIANTS


CASES = [f"{query}-{variant}" for query in QUERIES for variant in variants(query)]
SHARD_CASE = "q12-shard-0-of-2"
PICKLES = "payload_pickles"


def generate(query: str, variant: str) -> dict[str, PartitionedLog]:
    """``build_inputs`` directly (no memo) for one case of the matrix."""
    parallelism, hot_ratio, arrival, seed, rate, until = variants(query)[variant]
    process = parse_arrival(arrival) if arrival is not None else None
    return resolve_spec(query).build_inputs(
        rate, until, parallelism, hot_ratio, seed, process)


def build_case(case: str) -> dict[str, PartitionedLog]:
    """The logs of one fixture case."""
    if case == SHARD_CASE:
        graph = resolve_spec("q12").build_graph(4)
        return shard_inputs(graph, generate("q12", "steady"), 0, 2, 128)
    query, _, variant = case.partition("-")
    return generate(query, variant)


def rid_column(topic: str, index: int, offsets: list[int]) -> list[int]:
    """The lineage ids a source assigns to ``offsets`` of one partition."""
    prefix = source_rid_prefix(topic, index)
    return [source_rid_from_prefix(prefix, offset) for offset in offsets]


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


def pickle_signature(inputs: dict[str, PartitionedLog]) -> dict[str, str]:
    """Per partition, a sha256 over the pickle of its payload column."""
    return {
        f"{topic}[{partition.index}]": hashlib.sha256(
            pickle.dumps(partition.payloads, protocol=4)).hexdigest()
        for topic in sorted(inputs)
        for partition in inputs[topic].partitions
    }


def test_fixture_lists_exactly_the_cases():
    golden = json.loads(FIXTURE.read_text())
    assert sorted(golden) == sorted(CASES + [SHARD_CASE, PICKLES])
    assert sorted(golden[PICKLES]) == sorted(CASES + [SHARD_CASE])


@pytest.mark.parametrize("case", CASES + [SHARD_CASE])
def test_generated_inputs_match_golden(case):
    golden = json.loads(FIXTURE.read_text())
    expected = golden[case]
    inputs = build_case(case)
    actual = signature(inputs)
    assert sorted(actual) == sorted(expected), f"{case}: topics/partitions moved"
    for name, value in expected.items():
        assert actual[name] == value, f"{case}: {name} moved off the fixture"
    assert pickle_signature(inputs) == golden[PICKLES][case], (
        f"{case}: payload pickles moved off the fixture "
        "(equal reprs: a shared str object became a copy, or a copy shared)")


def main() -> None:
    """Re-record the fixture (see the module docstring)."""
    golden: dict[str, dict] = {PICKLES: {}}
    for case in CASES + [SHARD_CASE]:
        inputs = build_case(case)
        golden[case] = signature(inputs)
        golden[PICKLES][case] = pickle_signature(inputs)
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE} ({len(golden) - 1} cases)")


if __name__ == "__main__":
    main()
