"""What every recovery replays, pinned message by message.

``tests/data/replay_pin.json`` holds, per run and per applied recovery,
what the replay set handed to the transport carried: every message's
``(channel, seq, kind, record count, payload_bytes, protocol_bytes,
piggyback.lc or None)`` plus a sha256 of its ``rids``, ``source_ts``
and ``sizes`` columns.  Those rows are long, so the fixture keeps, per
recovery, the message and record counts, the channels, and one sha256
over all of its rows: a change to any field of any replayed message
shows as a mismatch that names the run and the recovery.

The runs are the 13 grid points of ``tests/test_recovery_pin.py`` and
one more, ``unc-b256-r600``: a keyed count at ``batch_max_records=256``
and a rate that fills the count's buffers some of the time, so one
channel's log holds both short messages and messages of 16 records or
more through truncations and rollbacks, and a replay window reads both.

A change to how the send log is kept must leave all of this unchanged.
Regenerate after an *intentional* change of what a recovery replays with

    PYTHONPATH=src python -m tests.test_replay_pin

from the repository root, and review the diff of the JSON file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import pytest

from repro.core.uncoordinated import UncoordinatedProtocol
from repro.dataflow.channels import Message
from repro.dataflow.lifecycle import LifecycleManager
from repro.dataflow.runtime import Job
from repro.sim.costs import CostModel, RuntimeConfig

from tests import test_recovery_pin
from tests.conftest import build_count_graph, make_event_log, trace_spec

FIXTURE = Path(__file__).parent / "data" / "replay_pin.json"

#: the run whose channels log short and long messages side by side
MIXED = "unc-b256-r600"

#: record count from which a message counts as long
LONG = 16

CASES = sorted([*test_recovery_pin.CASES, MIXED])


def message_row(channel: Any, msg: Message) -> tuple:
    """One replayed message, as the pin sees it."""
    records = msg.records
    columns = (list(records.rids), list(records.source_ts),
               list(records.sizes)) if records is not None else None
    piggyback = msg.piggyback
    return (tuple(channel), msg.seq, msg.kind,
            msg.record_count, msg.payload_bytes, msg.protocol_bytes,
            None if piggyback is None else piggyback.lc,
            hashlib.sha256(repr(columns).encode()).hexdigest())


def run_mixed() -> None:
    """The keyed count at 256-record batches, 600 rec/s, two kills."""
    config = RuntimeConfig(
        checkpoint_interval=2.0, duration=12.0, warmup=2.0, seed=3,
        failure_scenario=trace_spec(((5.0, 0), (9.0, 1))),
        cost_model=CostModel(batch_max_records=256))
    log = make_event_log(600.0, 10.0, 3, seed=3)
    job = Job(build_count_graph(), "unc", 3, {"events": log}, config)
    job.run(rate=600.0, drain=True)


def replayed(case: str) -> tuple[list[list[tuple]], int]:
    """Every applied recovery's replayed messages, as rows in the order
    the transport got them, and how many times the logs were truncated."""
    recoveries: list[list[tuple]] = []
    truncations = 0
    apply_recovery = LifecycleManager.apply_recovery
    truncate_logs = UncoordinatedProtocol.truncate_logs

    def recording(self, plan):
        recoveries.append([message_row(channel, msg)
                           for channel in sorted(plan.replay)
                           for msg in plan.replay[channel]])
        apply_recovery(self, plan)

    def counting(self, floor):
        nonlocal truncations
        truncations += 1
        truncate_logs(self, floor)

    LifecycleManager.apply_recovery = recording
    UncoordinatedProtocol.truncate_logs = counting
    try:
        if case == MIXED:
            run_mixed()
        else:
            test_recovery_pin.run_case(case)
    finally:
        LifecycleManager.apply_recovery = apply_recovery
        UncoordinatedProtocol.truncate_logs = truncate_logs
    return recoveries, truncations


def summary(rows: list[tuple]) -> dict[str, Any]:
    """What the fixture holds for one recovery."""
    return {
        "messages": len(rows),
        "records": sum(row[3] for row in rows),
        "long_messages": sum(row[3] >= LONG for row in rows),
        "channels": len({row[0] for row in rows}),
        "rows": hashlib.sha256(repr(rows).encode()).hexdigest(),
    }


def signature(case: str) -> list[dict[str, Any]]:
    """The fixture entry of one run."""
    return [summary(rows) for rows in replayed(case)[0]]


def test_fixture_lists_exactly_the_cases():
    assert sorted(json.loads(FIXTURE.read_text())) == CASES


@pytest.mark.parametrize("case", CASES)
def test_replays_match_pin(case):
    expected = json.loads(FIXTURE.read_text())[case]
    measured = signature(case)
    assert len(measured) == len(expected), case
    for k, (got, want) in enumerate(zip(measured, expected)):
        assert got == want, f"{case}: recovery {k}"


def test_the_recovery_pin_agrees_on_what_was_replayed():
    """Both pins count the same replayed messages per recovery."""
    golden = json.loads(FIXTURE.read_text())
    recovery_pin = json.loads(test_recovery_pin.FIXTURE.read_text())
    for case in test_recovery_pin.CASES:
        assert ([entry["messages"] for entry in golden[case]]
                == recovery_pin[case]["replayed_messages"]), case


def test_the_mixed_run_replays_short_and_long_messages_of_one_channel():
    """After truncations, at least one replay window of one channel holds
    messages on both sides of the 16-record mark, and more than one
    recovery replays."""
    recoveries, truncations = replayed(MIXED)
    assert truncations > 0 and len(recoveries) >= 2
    mixed = set()
    for rows in recoveries:
        by_channel: dict[tuple, set[bool]] = {}
        for row in rows:
            by_channel.setdefault(row[0], set()).add(row[3] >= LONG)
        mixed.update(channel for channel, kinds in by_channel.items()
                     if kinds == {False, True})
    assert mixed


def main() -> None:
    """Re-record the fixture (see the module docstring)."""
    golden = {case: signature(case) for case in CASES}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
