"""Shared test fixtures and helpers.

The ``count_query`` helper builds a tiny keyed-counting pipeline whose final
state is exactly predictable from the input log — the basis of the
exactly-once audits in ``test_exactly_once.py``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import pytest

from repro.dataflow.batch import RecordBatch
from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import Operator, OperatorContext, SinkOperator, SourceOperator
from repro.dataflow.records import StreamRecord
from repro.dataflow.runtime import Job
from repro.dataflow.state import KeyedMapState
from repro.experiments.parallel import ParallelRunner
from repro.sim.costs import CostModel, RuntimeConfig
from repro.storage.kafka import PartitionedLog


@dataclass(frozen=True, slots=True)
class KeyedEvent:
    """Minimal payload with a routing key."""

    key: int
    value: int

    @property
    def size_bytes(self) -> int:
        return 40


class CountPerKeyOperator(Operator):
    """Unwindowed keyed counter — final state is exactly auditable."""

    cpu_per_record = 0.0015

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self.counts = self.states.register("counts", KeyedMapState())

    def process(self, record: StreamRecord, port: str) -> list[StreamRecord]:
        key = record.payload.key
        self.counts.put(key, self.counts.get(key, 0) + 1, 24)
        payload = KeyedEvent(key, self.counts.get(key))
        return [record.derive(self.ctx.op_name, payload, 40)]


def batch_of(records: Iterable[StreamRecord]) -> RecordBatch:
    """A columnar batch of ``records``, in order."""
    batch = RecordBatch([], [], [], [])
    batch.extend_records(records)
    return batch


def process_one(op: Operator, record: StreamRecord, port: str) -> list[StreamRecord]:
    """Feed one record through ``op.process_batch``; the output records."""
    out = op.process_batch(batch_of([record]), port)
    return list(out) if out is not None else []


def build_count_graph() -> LogicalGraph:
    graph = LogicalGraph("count")
    graph.add_source("src", "events", SourceOperator)
    graph.add_operator("count", CountPerKeyOperator, stateful=True)
    graph.add_operator("sink", SinkOperator)
    graph.connect("src", "count", Partitioning.KEY, key_fn=lambda e: e.key)
    graph.connect("count", "sink", Partitioning.FORWARD)
    return graph


def make_event_log(rate: float, until: float, parallelism: int,
                   num_keys: int = 20, seed: int = 3) -> PartitionedLog:
    """Deterministic keyed-event log, round-robin partitioned."""
    import random

    rng = random.Random(seed)
    log = PartitionedLog("events", parallelism)
    total = int(rate * until)
    for k in range(total):
        t = (k + 0.5) / rate
        event = KeyedEvent(key=rng.randrange(num_keys), value=k)
        log.partition(k % parallelism).append(t, event, event.size_bytes)
    return log


def trace_spec(kills) -> str | None:
    """The ``trace:`` failure scenario killing ``(offset, worker)`` for
    each pair (None for no kill); every offset is written as its
    ``repr``, so it parses back to the same float."""
    if not kills:
        return None
    return "trace:" + ";".join(f"{at!r}@{worker}" for at, worker in kills)


def run_count_job(protocol: str, parallelism: int = 3, rate: float = 300.0,
                  duration: float = 14.0, warmup: float = 2.0,
                  failure_at: float | None = 6.0, input_until: float | None = None,
                  checkpoint_interval: float = 3.0, seed: int = 3,
                  state_backend: str = "full",
                  rescale_to: int | None = None, rescale_at: int = 1,
                  channel_capacity_bytes: int = 0):
    """Run the counting pipeline; input stops early so queues drain."""
    if input_until is None:
        input_until = warmup + duration - 4.0
    config = RuntimeConfig(
        checkpoint_interval=checkpoint_interval,
        duration=duration,
        warmup=warmup,
        failure_at=failure_at,
        seed=seed,
        state_backend=state_backend,
        rescale_to=rescale_to,
        rescale_at=rescale_at,
        channel_capacity_bytes=channel_capacity_bytes,
    )
    log = make_event_log(rate, input_until, parallelism, seed=seed)
    job = Job(build_count_graph(), protocol, parallelism, {"events": log}, config)
    result = job.run(rate=rate, query_name="count")
    return job, result


def _canonical(obj):
    """Order-independent, hashable rendering of nested snapshot payloads."""
    if isinstance(obj, dict):
        return ("dict",) + tuple(
            sorted(((k, _canonical(v)) for k, v in obj.items()), key=repr)
        )
    if isinstance(obj, (list, tuple)):
        return ("seq",) + tuple(_canonical(v) for v in obj)
    if isinstance(obj, set):
        return ("set",) + tuple(sorted((_canonical(v) for v in obj), key=repr))
    return obj


def canonical_state_bytes(job) -> bytes:
    """Serialized final operator state of every instance, canonicalized.

    Dict iteration order depends on processing history, so snapshots are
    sorted recursively before pickling — two runs that end in the same
    logical state produce byte-identical output regardless of the path
    that led there.  The differential backend tests compare these.
    """
    import pickle

    payload = tuple(
        (key, _canonical(job.instance(key).operator.states.snapshot()))
        for key in job.instance_keys()
    )
    # protocol pinned: tests/data/engine_golden.json stores digests of this
    return pickle.dumps(payload, protocol=4)


@pytest.fixture
def cost_model() -> CostModel:
    return CostModel()


@pytest.fixture(scope="session")
def harness_runner() -> Iterator[ParallelRunner]:
    """The serial runner every figure a test regenerates goes through:
    its memo is per session, so every distinct simulation is paid for
    once, whichever test module asks first (Figs. 9-11 share failure
    runs, the MST-relative figures share MST searches)."""
    with ParallelRunner(jobs=1) as runner:
        yield runner
