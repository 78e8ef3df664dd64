"""What every recovery restores and replays, pinned run by run.

``tests/data/recovery_pin.json`` holds, per grid point, the recovery
lines the run applied with the sequence numbers each one replayed
(``metrics.recovery_lines``), the replayed-message count of every
recovery, the final operator state and the messages sent.  The grid
covers the uncoordinated family where its send log matters: exactly-once
UNC and CIC through the multi-kill traces of
``tests/test_multiple_failures.py``, at-least-once (replay without a
recovery-line search), the changelog backend, and the q8 failure that
rescales 4 -> 6.  Every run ends at the drain barrier.

A change to how the log is kept (what it holds, when it is trimmed, how
a replay window is read from it) must leave all of this unchanged.
Regenerate after an *intentional* change of recovery behaviour with

    PYTHONPATH=src python -m tests.test_recovery_pin

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
from repro.sim.costs import RuntimeConfig

from tests.conftest import build_count_graph, canonical_state_bytes, make_event_log

FIXTURE = Path(__file__).parent / "data" / "recovery_pin.json"

TRACE_A = ((4.0, 0), (8.0, 1), (12.0, 2), (16.0, 0))
TRACE_B = ((3.0, 0), (6.0, 0), (9.0, 1), (12.0, 2), (15.0, 1))
ONE_KILL = ((5.0, 0),)

#: case id -> (protocol, seed, interval, kills, knobs) on the keyed count
COUNT_CASES: dict[str, tuple[str, int, float, tuple, dict[str, Any]]] = {
    "unc-s2-i3-A": ("unc", 2, 3.0, TRACE_A, {}),
    "unc-s3-i2-B": ("unc", 3, 2.0, TRACE_B, {}),
    "unc-s5-i1-A": ("unc", 5, 1.0, TRACE_A, {}),
    "cic-s2-i3-A": ("cic", 2, 3.0, TRACE_A, {}),
    "cic-s3-i2-B": ("cic", 3, 2.0, TRACE_B, {}),
    "cic-s7-i1-B": ("cic", 7, 1.0, TRACE_B, {}),
    "unc-changelog-s4-i2-A": ("unc", 4, 2.0, TRACE_A,
                              {"state_backend": "changelog"}),
    "cic-changelog-s6-i1-B": ("cic", 6, 1.0, TRACE_B,
                              {"state_backend": "changelog"}),
    "unc-at-least-once-s3-i3-1": ("unc", 3, 3.0, ONE_KILL,
                                  {"unc_semantics": "at-least-once"}),
    "unc-at-least-once-s2-i2-B": ("unc", 2, 2.0, TRACE_B,
                                  {"unc_semantics": "at-least-once"}),
    "cic-at-least-once-s1-i2-A": ("cic", 1, 2.0, TRACE_A,
                                  {"unc_semantics": "at-least-once"}),
}

#: case id -> (query, protocol, parallelism, request knobs) on NEXMark
QUERY_CASES: dict[str, tuple[str, str, int, dict[str, Any]]] = {
    "q8-unc-rescale-4-6": ("q8", "unc", 4, {"failure_at": 2.0,
                                            "rescale_to": 6}),
    "q8-cic-rescale-4-6": ("q8", "cic", 4, {"failure_at": 2.0,
                                            "rescale_to": 6}),
}

CASES = sorted([*COUNT_CASES, *QUERY_CASES])


def run_count(case: str) -> tuple[Job, Any, dict[int, int], dict[int, int]]:
    """One keyed-count run through its kill trace, drained; returns the
    job, its result, the expected and the measured counts per key."""
    protocol, seed, interval, kills, knobs = COUNT_CASES[case]
    (first_at, first_worker), rest = kills[0], kills[1:]
    config = RuntimeConfig(
        checkpoint_interval=interval, duration=24.0, warmup=2.0,
        failure_at=first_at, failure_worker=first_worker,
        extra_failures=tuple(rest), seed=seed, **knobs,
    )
    log = make_event_log(300.0, 20.0, 3, seed=seed)
    job = Job(build_count_graph(), protocol, 3, {"events": log}, config)
    result = job.run(rate=300.0, drain=True)
    expected: dict[int, int] = {}
    for partition in log.partitions:
        for record in partition.records:
            key = record.payload.key
            expected[key] = expected.get(key, 0) + 1
    measured: dict[int, int] = {}
    for idx in range(3):
        for key, value in job.instance(("count", idx)).operator.states[
                "counts"].items():
            measured[key] = measured.get(key, 0) + value
    return job, result, expected, measured


def run_query(case: str) -> tuple[Job, Any]:
    """One NEXMark run through its failure, drained."""
    query, protocol, parallelism, knobs = QUERY_CASES[case]
    spec = resolve_spec(query)
    request = RunRequest(query=query, protocol=protocol,
                         parallelism=parallelism, rate=600.0, duration=5.0,
                         warmup=1.0, checkpoint_interval=1.0, seed=7, **knobs)
    inputs = spec.make_job_inputs(request.rate, 7.0, parallelism, 0.0,
                                  request.seed)
    job = Job(spec.build_graph(parallelism), protocol, parallelism, inputs,
              request.effective_config())
    return job, job.run(rate=request.rate, query_name=query, drain=True)


def run_case(case: str) -> tuple[Job, Any]:
    """The job and result of one grid point."""
    if case in COUNT_CASES:
        job, result, _, _ = run_count(case)
        return job, result
    return run_query(case)


def sha(value: Any) -> str:
    """sha256 over ``repr`` (bytes as they are)."""
    data = value if isinstance(value, bytes) else repr(value).encode()
    return hashlib.sha256(data).hexdigest()


def signature(job: Job, result: Any) -> dict[str, Any]:
    """What the fixture holds for one run."""
    metrics = result.metrics
    return {
        "recoveries": len(metrics.recovery_lines),
        "replayed_messages": [sum(len(seqs) for _, seqs in replay)
                              for _, replay in metrics.recovery_lines],
        "recovery_lines": sha(metrics.recovery_lines),
        "final_state": sha(canonical_state_bytes(job)),
        "messages_sent": metrics.messages_sent,
        "records_sent": metrics.records_sent,
    }


def test_fixture_lists_exactly_the_cases():
    assert sorted(json.loads(FIXTURE.read_text())) == CASES


@pytest.mark.parametrize("case", CASES)
def test_recoveries_match_pin(case):
    expected = json.loads(FIXTURE.read_text())[case]
    assert signature(*run_case(case)) == expected, case


@pytest.mark.parametrize("case", sorted(
    case for case, (_, _, _, _, knobs) in COUNT_CASES.items()
    if "unc_semantics" not in knobs))
def test_exactly_once_cases_lose_nothing(case):
    _, _, expected, measured = run_count(case)
    assert measured == expected


def test_the_cases_exercise_what_they_name():
    """Several recoveries that replay, and a rescale — not a grid of
    failure-free runs."""
    golden = json.loads(FIXTURE.read_text())
    for case, (_, _, _, kills, _) in COUNT_CASES.items():
        assert golden[case]["recoveries"] >= min(len(kills), 3), case
    assert sum(sum(golden[case]["replayed_messages"]) for case in CASES) > 0
    for case in QUERY_CASES:
        assert golden[case]["recoveries"] == 1
        assert golden[case]["replayed_messages"][0] > 0, case


def main() -> None:
    """Re-record the fixture (see the module docstring)."""
    golden = {case: signature(*run_case(case)) for case in CASES}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
