"""The dedup set every durable checkpoint stands for, pinned blob by blob.

``tests/data/dedup_golden.json`` holds, per case and per blob key, the
size of the exactly-once dedup set a restore of that blob would have
reinstalled when it became durable, and a sha256 over ``repr`` of its
*sorted* members.  Every blob ever made durable is covered, the ones the
collector deleted later and the ones of a timeline a rollback abandoned
included.  Every blob, snapshot or changelog delta, stands for the set
of the dedup node it sealed (``"processed_rids"``).

The collector (DESIGN.md section 8) cuts an instance's dedup history at
its checkpoint in the floor line: a cut node keeps its count and drops
its rids.  So a set is hashed when its blob becomes durable, with the
rids an earlier cut dropped added back, and the end of the run checks
what the collector did: a resident blob still holds every rid of its
set above its instance's last line and nothing it did not hold, and
every deleted blob was strictly older than its instance's checkpoint in
the line that deleted it and not in that checkpoint's chain.

The cases are the guard list of DESIGN.md sections 19-21: UNC and CIC
failure-free, UNC through a failure, the changelog backend through a
failure (q3), the q8 failure that rescales 4 -> 6, and the unaligned
coordinated protocol (which keeps no dedup set: all of its blobs stand
for the empty set).

The fixture was recorded from the eager copies (``set(processed_rids)``
per checkpoint) in the commit before payloads began to share their
history, so it is the reference the shared representation is held to.
Regenerate after an *intentional* change of what a checkpoint holds with

    PYTHONPATH=src python -m tests.test_dedup_golden

from the repository root, and review the diff of the JSON file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import pytest

from repro.dataflow.runtime import Job
from repro.dataflow.worker import InstanceRuntime, RidSnapshot
from repro.experiments.parallel import RunRequest, resolve_spec

FIXTURE = Path(__file__).parent / "data" / "dedup_golden.json"

#: case id -> (query, protocol, parallelism, request knobs)
CASES: dict[str, tuple[str, str, int, dict[str, Any]]] = {
    "q12-unc": ("q12", "unc", 3, {}),
    "q12-cic": ("q12", "cic", 3, {}),
    "q12-unc-failure": ("q12", "unc", 3, {"failure_at": 2.0}),
    "q3-unc-changelog-failure": ("q3", "unc", 3, {
        "failure_at": 2.0, "state_backend": "changelog"}),
    "q8-unc-failure-rescale-4-6": ("q8", "unc", 4, {
        "failure_at": 2.0, "rescale_to": 6}),
    "q3-coor-unaligned": ("q3", "coor-unaligned", 3, {}),
}


@dataclass
class Recorded:
    """What one run made durable and what its collector did."""

    #: blob key -> (payload, base key, instance) of every blob put
    blobs: dict[str, tuple[dict, str | None, tuple[str, int]]] = field(
        default_factory=dict)
    #: blob key -> the set it stood for when it became durable
    durable: dict[str, set[int]] = field(default_factory=dict)
    #: blob key -> (checkpoint id, line checkpoint id, line chain) of
    #: every blob a collection deleted; None for one the rescale
    #: baseline deleted
    deleted: dict[str, tuple[int, int, list[str]] | None] = field(
        default_factory=dict)
    #: the blobs put before a rescale: the old topology's
    old_topology: set[str] = field(default_factory=set)
    #: bottom node of a chain -> the rids the chain stands for but that
    #: node no longer holds (a cut, or a rescaled root's contributors')
    dropped: dict[RidSnapshot, set[int]] = field(default_factory=dict)
    job: Job | None = None


def _bottom(node: RidSnapshot) -> RidSnapshot:
    while node.parent is not None:
        node = node.parent
    return node


def run_case(case: str) -> Recorded:
    """Run one case, recording every blob made durable and every
    collection."""
    query, protocol, parallelism, knobs = CASES[case]
    spec = resolve_spec(query)
    request = RunRequest(query=query, protocol=protocol,
                         parallelism=parallelism, rate=600.0, duration=5.0,
                         warmup=1.0, checkpoint_interval=1.5, seed=7, **knobs)
    inputs = spec.make_job_inputs(request.rate, 7.0, parallelism, 0.0,
                                  request.seed)
    job = Job(spec.build_graph(parallelism), protocol, parallelism, inputs,
              request.effective_config())
    recorded = Recorded(job=job)
    store = job.coordinator.blobstore
    dropped = recorded.dropped

    def whole(node: RidSnapshot) -> set[int]:
        return node.materialize() | dropped.get(_bottom(node), set())

    store_checkpoint, collect_below = job.store_checkpoint, job.collect_below
    delete = store.delete
    #: the line being collected, while a collection runs
    collecting: list[dict] = []

    def recording_delete(blob_key):
        if collecting:
            meta = collecting[0][recorded.blobs[blob_key][2]]
            recorded.deleted[blob_key] = (
                int(blob_key.rsplit("/", 1)[1]), meta.checkpoint_id,
                store.chain_keys(meta.blob_key))
        else:
            recorded.deleted[blob_key] = None
        delete(blob_key)

    def recording_store(meta, payload, size_bytes):
        recorded.blobs[meta.blob_key] = (payload, meta.base_key, meta.instance)
        recorded.durable[meta.blob_key] = whole(payload["processed_rids"])
        store_checkpoint(meta, payload, size_bytes)

    def recording_collect(line):
        collecting.append(line)
        cut = RidSnapshot.cut

        def recording_cut(node):
            dropped[node] = whole(node)
            cut(node)

        RidSnapshot.cut = recording_cut
        try:
            collect_below(line)
        finally:
            collecting.clear()
            RidSnapshot.cut = cut
        # each instance's history is cut exactly at its line checkpoint
        for key, meta in line.items():
            bottom = _bottom(job.instance(key).rid_head)
            if meta.blob_key and bottom in dropped:
                assert dropped[bottom] == recorded.durable[meta.blob_key], key

    restore_rescaled = InstanceRuntime.restore_rescaled

    def recording_rescaled(instance, parts, *args):
        if not recorded.old_topology:
            recorded.old_topology = set(recorded.blobs)
        restore_rescaled(instance, parts, *args)
        dropped[instance.rid_head] = set().union(
            *(whole(part["processed_rids"]) for part in parts))

    job.store_checkpoint = recording_store
    store.delete = recording_delete
    job.collect_below = recording_collect
    InstanceRuntime.restore_rescaled = recording_rescaled
    try:
        result = job.run(rate=request.rate, query_name=query)
    finally:
        InstanceRuntime.restore_rescaled = restore_rescaled
    if "failure_at" in knobs:
        assert result.metrics.n_recoveries == 1
    return recorded


def signature(recorded: Recorded) -> dict[str, list]:
    """``blob key -> [size, sha256]`` of the set each blob stood for."""
    out = {}
    for key, rids in recorded.durable.items():
        ordered = sorted(rids)
        out[key] = [len(ordered),
                    hashlib.sha256(repr(ordered).encode()).hexdigest()]
    return out


def assert_collected_below_the_line(recorded: Recorded) -> None:
    """Every blob a collection deleted was strictly older than its
    instance's checkpoint in the line that deleted it and not in its
    chain, the rescale baseline deleted the old topology's blobs the
    collections had left and nothing else; every resident blob still holds its set minus what a cut
    dropped, and nothing else is gone."""
    store = recorded.job.coordinator.blobstore
    for key, collected in recorded.deleted.items():
        if collected is not None:
            counter, line_id, chain = collected
            assert counter < line_id and key not in chain, key
    at_rescale = {key for key, collected in recorded.deleted.items()
                  if collected is None}
    assert at_rescale <= recorded.old_topology <= set(recorded.deleted)
    resident = [key for key in recorded.blobs if key not in recorded.deleted]
    assert len(store) == len(resident)
    assert all(key in store for key in resident)

    def holds(key: str) -> tuple[set[int], RidSnapshot]:
        node = recorded.blobs[key][0]["processed_rids"]
        return node.materialize(), _bottom(node)

    for key in resident:
        held, bottom = holds(key)
        stood = recorded.durable[key]
        assert held == stood - recorded.dropped.get(bottom, set()), key


def test_fixture_lists_exactly_the_cases():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_checkpoint_dedup_sets_match_golden(case):
    expected = json.loads(FIXTURE.read_text())[case]
    recorded = run_case(case)
    actual = signature(recorded)
    assert list(actual) == list(expected), f"{case}: durable blobs moved"
    for key, value in expected.items():
        assert actual[key] == value, f"{case}: dedup set of {key} moved"
    assert_collected_below_the_line(recorded)


def test_the_cases_exercise_what_they_name():
    """Non-empty sets, real deltas, a rescale — not a fixture of zeros."""
    golden = json.loads(FIXTURE.read_text())
    for case in ("q12-unc", "q12-cic", "q12-unc-failure"):
        assert max(size for size, _ in golden[case].values()) > 500
    assert all(size == 0 for size, _ in golden["q3-coor-unaligned"].values())
    recorded = run_case("q3-unc-changelog-failure")
    deltas = [(key, base) for key, (_, base, _) in recorded.blobs.items()
              if base is not None]
    # some delta sealed rids its base did not hold
    assert deltas and any(recorded.durable[key] - recorded.durable[base]
                          for key, base in deltas)
    # a rescale 4 -> 6 leaves blobs of instance indices 4 and 5, and its
    # baseline deletes blobs of the old topology no collection had
    assert any(key.split("/")[1] == "5"
               for key in golden["q8-unc-failure-rescale-4-6"])
    assert None in run_case("q8-unc-failure-rescale-4-6").deleted.values()


def main() -> None:
    """Re-record the fixture (see the module docstring)."""
    golden = {case: signature(run_case(case)) for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(golden)} cases, "
          f"{sum(len(blobs) for blobs in golden.values())} blobs)")


if __name__ == "__main__":
    main()
