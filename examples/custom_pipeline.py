#!/usr/bin/env python
"""Build your own pipeline on the testbed's public API.

Shows the full surface a downstream user needs: a custom stateful
operator, a hand-built dataflow graph with keyed shuffling, a replayable
input log, and a run under the uncoordinated protocol with a failure —
followed by an exactly-once audit of the final state.

An operator is a batch kernel: ``process_batch`` loops over
``batch.payloads`` in row order and returns a new ``RecordBatch``; a
1-to-1 operator gives its outputs the rids ``derived_rids`` derives from
the input's, so a replay after the crash regenerates them and the
receiver's deduplication recognises them.

Run:  python examples/custom_pipeline.py
"""

import random
from dataclasses import dataclass

from repro.dataflow.batch import RecordBatch
from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import (
    FilterOperator,
    Operator,
    OperatorContext,
    SinkOperator,
    SourceOperator,
)
from repro.dataflow.records import derived_rids
from repro.dataflow.runtime import Job
from repro.dataflow.state import KeyedMapState
from repro.sim.costs import RuntimeConfig
from repro.storage.kafka import PartitionedLog


@dataclass(frozen=True, slots=True)
class Payment:
    account: int
    amount: int

    @property
    def size_bytes(self) -> int:
        return 48


class BalanceOperator(Operator):
    """Keyed running balance — a classic exactly-once-sensitive operator."""

    cpu_per_record = 0.0015

    def open(self, ctx: OperatorContext) -> None:
        super().open(ctx)
        self.balances = self.states.register("balances", KeyedMapState())

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        # each output row keeps its input's origin timestamp (the column
        # is shared: a routed batch is never mutated)
        outputs = []
        for payment in batch.payloads:
            balance = self.balances.get(payment.account, 0) + payment.amount
            self.balances.put(payment.account, balance, 24)
            outputs.append({"account": payment.account, "balance": balance})
        return RecordBatch(derived_rids(self.ctx.op_name, batch.rids), outputs,
                           batch.source_ts, [40] * len(outputs))


def build_graph() -> LogicalGraph:
    graph = LogicalGraph("payments")
    graph.add_source("src", "payments", SourceOperator)
    graph.add_operator("positive", lambda: FilterOperator(lambda p: p.amount > 0))
    graph.add_operator("balance", BalanceOperator, stateful=True)
    graph.add_operator("sink", SinkOperator)
    graph.connect("src", "positive", Partitioning.FORWARD)
    graph.connect("positive", "balance", Partitioning.KEY,
                  key_fn=lambda p: p.account)
    graph.connect("balance", "sink", Partitioning.FORWARD)
    return graph


def build_input(rate: float, until: float, parallelism: int,
                seed: int = 42) -> PartitionedLog:
    rng = random.Random(seed)
    log = PartitionedLog("payments", parallelism)
    for k in range(int(rate * until)):
        t = (k + 0.5) / rate
        payment = Payment(account=rng.randrange(50),
                          amount=rng.randrange(-50, 200))
        log.partition(k % parallelism).append(t, payment, payment.size_bytes)
    return log


def main() -> None:
    parallelism = 3
    log = build_input(rate=400.0, until=20.0, parallelism=parallelism)
    config = RuntimeConfig(
        checkpoint_interval=4.0,
        duration=26.0, warmup=2.0,
        failure_at=9.0,  # crash worker 0 mid-run
    )
    job = Job(build_graph(), "unc", parallelism, {"payments": log}, config)
    result = job.run(rate=400.0, query_name="payments")

    print(build_graph().describe())
    print()
    print(f"outputs delivered : {sum(result.metrics.sink_counts.values())}")
    print(f"restart time      : {result.restart_time() * 1000:.0f} ms")
    first = result.metrics.first_failure()
    print(f"replayed messages : {first.replayed_messages}")
    print(f"checkpoints       : {result.total_checkpoints()} "
          f"(invalid at failure: {first.invalid_checkpoints})")

    # exactly-once audit: recompute balances from the input log
    expected: dict[int, int] = {}
    for partition in log.partitions:
        for r in partition.records:
            if r.payload.amount > 0:
                expected[r.payload.account] = (
                    expected.get(r.payload.account, 0) + r.payload.amount
                )
    measured: dict[int, int] = {}
    for idx in range(parallelism):
        balances = job.instance(("balance", idx)).operator.states["balances"]
        for account, balance in balances.items():
            measured[account] = balance
    assert measured == expected, "exactly-once audit failed!"
    print()
    print("exactly-once audit: final balances identical to a lossless,")
    print("duplicate-free replay of the input — despite the worker crash.")


if __name__ == "__main__":
    main()
