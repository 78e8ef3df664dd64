"""What the aggregate and join emitters produce, pinned field by field.

``tests/data/emitter_pin.json`` holds, per run and per emitter, how
many output records it produced and a sha256 over the ``repr`` of
their field values in arrival order at the consuming operator.  The
emitters are the library's windowed count (q12 and a dense-style keyed
count at 256-record batches), sliding-window count and per-key maximum
(both q5), and the join ``combine`` functions of q3 and q8.

Each output is a tuple in its documented field order:

* windowed and sliding-window count: ``(key, window, count)``;
* per-key maximum: ``(group, item, value)``;
* q3's join: ``(name, state, auction, category)``;
* q8's join: ``(person, name, auction)``.

A consuming operator is wrapped so that it records every payload it is
handed before it processes it; the runs are failure-free UNC runs.

Regenerate after an *intentional* change of what an emitter produces
with

    PYTHONPATH=src python -m tests.test_emitter_pin

from the repository root, and review the diff of the JSON file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import (
    SinkOperator,
    SourceOperator,
    WindowedCountOperator,
)
from repro.dataflow.runtime import Job
from repro.experiments.parallel import resolve_spec
from repro.sim.costs import CostModel, RuntimeConfig

from tests.conftest import make_event_log

FIXTURE = Path(__file__).parent / "data" / "emitter_pin.json"

#: emitter -> its field names, in tuple order
FIELDS: dict[str, tuple[str, ...]] = {
    "windowed_count": ("key", "window", "count"),
    "sliding_count": ("key", "window", "count"),
    "max_per_key": ("group", "item", "value"),
    "q3_join": ("name", "state", "auction", "category"),
    "q8_join": ("person", "name", "auction"),
}

#: query -> ((consuming operator, emitter feeding it), ...)
QUERY_TAPS: dict[str, tuple[tuple[str, str], ...]] = {
    "q3": (("sink", "q3_join"),),
    "q5": (("max_per_window", "sliding_count"), ("sink", "max_per_key")),
    "q8": (("sink", "q8_join"),),
    "q12": (("sink", "windowed_count"),),
}

DENSE = "dense-count"

CASES = sorted([*(f"{query}-unc" for query in QUERY_TAPS), DENSE])


def fields(emitter: str, payload: Any) -> tuple:
    """One output's field values, in the emitter's documented order."""
    assert type(payload) is tuple, (emitter, payload)
    assert len(payload) == len(FIELDS[emitter]), (emitter, payload)
    return payload


def tap(graph: LogicalGraph, name: str,
        record: Callable[[Any], None]) -> None:
    """Make operator ``name`` hand each input payload to ``record``."""
    spec = graph.operators[name]
    build = spec.factory

    def factory():
        operator = build()
        process = operator.process_batch

        def recording(batch, port):
            for payload in batch.payloads:
                record(payload)
            return process(batch, port)

        operator.process_batch = recording
        return operator

    spec.factory = factory


def dense_graph() -> LogicalGraph:
    """source -> keyed windowed count -> sink, the perfbench ``dense``
    shape without its map and filter."""
    graph = LogicalGraph("dense_count")
    graph.add_source("source", "events", SourceOperator)
    graph.add_operator("count", lambda: WindowedCountOperator(
        key_fn=lambda event: event.key, window=2.0), stateful=True)
    graph.add_operator("sink", SinkOperator)
    graph.connect("source", "count", Partitioning.KEY,
                  key_fn=lambda event: event.key)
    graph.connect("count", "sink", Partitioning.FORWARD)
    return graph


def captured(case: str) -> dict[str, list[tuple]]:
    """Every output of every emitter of one run, as field tuples."""
    rows: dict[str, list[tuple]] = {}

    def recorder(emitter: str) -> Callable[[Any], None]:
        out = rows.setdefault(emitter, [])
        return lambda payload: out.append(fields(emitter, payload))

    if case == DENSE:
        graph = dense_graph()
        tap(graph, "sink", recorder("windowed_count"))
        config = RuntimeConfig(
            checkpoint_interval=1.0, duration=6.0, warmup=1.0, seed=11,
            cost_model=CostModel(batch_max_records=256, linger=0.010))
        inputs = {"events": make_event_log(1500.0, 6.0, 2, num_keys=40,
                                           seed=11)}
        job = Job(graph, "unc", 2, inputs, config)
        job.run(rate=1500.0, drain=True)
        return rows
    query = case.split("-")[0]
    spec = resolve_spec(query)
    graph = spec.build_graph(2)
    for consumer, emitter in QUERY_TAPS[query]:
        tap(graph, consumer, recorder(emitter))
    config = RuntimeConfig(checkpoint_interval=2.0, duration=8.0,
                           warmup=1.0, seed=5)
    inputs = spec.make_job_inputs(300.0, 10.0, 2, 0.0, 5)
    job = Job(graph, "unc", 2, inputs, config)
    job.run(rate=300.0, drain=True)
    return rows


def signature(case: str) -> dict[str, dict[str, Any]]:
    """The fixture entry of one run: per emitter, its count and digest."""
    return {emitter: {"outputs": len(out),
                      "sha256": hashlib.sha256(repr(out).encode()).hexdigest()}
            for emitter, out in sorted(captured(case).items())}


def test_fixture_lists_exactly_the_cases():
    assert sorted(json.loads(FIXTURE.read_text())) == CASES


@pytest.mark.parametrize("case", CASES)
def test_emitter_outputs_match_pin(case):
    expected = json.loads(FIXTURE.read_text())[case]
    measured = signature(case)
    assert measured == expected, case
    assert all(entry["outputs"] > 0 for entry in measured.values()), case


def main() -> None:
    """Re-record the fixture (see the module docstring)."""
    golden = {case: signature(case) for case in CASES}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {FIXTURE} ({len(golden)} cases)")


if __name__ == "__main__":
    main()
