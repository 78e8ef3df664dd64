"""The dedup set every durable checkpoint stands for, pinned blob by blob.

``tests/data/dedup_golden.json`` holds, per case and per blob key, the
size of the exactly-once dedup set a restore of that blob reinstalls and a
sha256 over ``repr`` of its *sorted* members.  Every blob ever made
durable is covered — the ones checkpoint GC deleted later and the ones of
a timeline a rollback abandoned included — and every set is evaluated at
the *end* of the run, so a payload that shares storage with the live
instance and is changed behind its back fails here.  A changelog delta
stands for its base's set plus the ``new_rids`` of every delta on the way.

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
from pathlib import Path
from typing import Any

import pytest

from repro.dataflow.runtime import Job
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


def dedup_set(value: Any) -> set[int]:
    """The rids a base payload's ``processed_rids`` entry stands for.

    The one place that knows the representation: an eager ``set`` copy,
    or a node of the shared history that materialises one.
    """
    materialize = getattr(value, "materialize", None)
    return materialize() if materialize is not None else set(value)


def run_case(case: str) -> dict[str, tuple[dict, str | None]]:
    """Run one case; every blob made durable as ``key -> (payload, base)``."""
    query, protocol, parallelism, knobs = CASES[case]
    spec = resolve_spec(query)
    request = RunRequest(query=query, protocol=protocol,
                         parallelism=parallelism, rate=600.0, duration=5.0,
                         warmup=1.0, checkpoint_interval=1.5, seed=7, **knobs)
    inputs = spec.make_job_inputs(request.rate, 7.0, parallelism, 0.0,
                                  request.seed)
    job = Job(spec.build_graph(parallelism), protocol, parallelism, inputs,
              request.effective_config())
    store = job.coordinator.blobstore
    blobs: dict[str, tuple[dict, str | None]] = {}
    put = store.put

    def recording_put(key, value, size_bytes, now, base_key=None,
                      chain_length=0):
        blobs[key] = (value, base_key)
        return put(key, value, size_bytes, now, base_key=base_key,
                   chain_length=chain_length)

    store.put = recording_put
    result = job.run(rate=request.rate, query_name=query)
    if "failure_at" in knobs:
        assert result.metrics.n_recoveries == 1
    return blobs


def signature(blobs: dict[str, tuple[dict, str | None]]) -> dict[str, list]:
    """``blob key -> [size, sha256]`` of the set each blob stands for."""
    def stands_for(key: str) -> set[int]:
        payload, base_key = blobs[key]
        if base_key is None:
            return dedup_set(payload["processed_rids"])
        return stands_for(base_key) | set(payload["new_rids"])

    out = {}
    for key in blobs:
        rids = sorted(stands_for(key))
        out[key] = [len(rids),
                    hashlib.sha256(repr(rids).encode()).hexdigest()]
    return out


def test_fixture_lists_exactly_the_cases():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_checkpoint_dedup_sets_match_golden(case):
    expected = json.loads(FIXTURE.read_text())[case]
    actual = signature(run_case(case))
    assert list(actual) == list(expected), f"{case}: durable blobs moved"
    for key, value in expected.items():
        assert actual[key] == value, f"{case}: dedup set of {key} moved"


def test_the_cases_exercise_what_they_name():
    """Non-empty sets, real deltas, a rescale — not a fixture of zeros."""
    golden = json.loads(FIXTURE.read_text())
    for case in ("q12-unc", "q12-cic", "q12-unc-failure"):
        assert max(size for size, _ in golden[case].values()) > 500
    assert all(size == 0 for size, _ in golden["q3-coor-unaligned"].values())
    blobs = run_case("q3-unc-changelog-failure")
    deltas = [key for key, (payload, base) in blobs.items() if base is not None]
    assert deltas and any(blobs[key][0]["new_rids"] for key in deltas)
    # a rescale 4 -> 6 leaves blobs of instance indices 4 and 5
    assert any(key.split("/")[1] == "5"
               for key in golden["q8-unc-failure-rescale-4-6"])


def main() -> None:
    """Re-record the fixture (see the module docstring)."""
    golden = {case: signature(run_case(case)) for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(golden)} cases, "
          f"{sum(len(blobs) for blobs in golden.values())} blobs)")


if __name__ == "__main__":
    main()
