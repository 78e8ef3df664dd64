"""Golden signatures of the engine's simulated behaviour.

``tests/data/engine_golden.json`` pins, per case, what a run must end in:
sha256 of the canonicalised final operator state, the recovery lines
(count and sha256 of their repr), sink record total, messages sent,
duplicates skipped and the final virtual time.  The file was recorded
from the per-record engine this codebase used to carry next to the
batch engine (``RuntimeConfig.columnar=False``, asserted against both
in the commit that added it) and covers the matrix that engine was the
reference for — count job and q12 x 4 protocols x 2 backends through a
failure, rescaled recoveries, marker-split partial batches, a stateless
map/filter chain, the two-port joins and the sliding-window/max chain.

``tests/test_columnar_differential.py`` runs every case against the
fixture.  Regenerate after an *intentional* semantic change with

    PYTHONPATH=src python -m tests.golden

from the repository root, and review the diff of the JSON file.
"""

from __future__ import annotations

import hashlib
import json
from functools import partial
from pathlib import Path
from typing import Callable

from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import (
    FilterOperator,
    MapOperator,
    SinkOperator,
    SourceOperator,
)
from repro.dataflow.runtime import Job
from repro.sim.costs import CostModel, RuntimeConfig

from tests.conftest import (
    CountPerKeyOperator,
    KeyedEvent,
    build_count_graph,
    canonical_state_bytes,
    make_event_log,
    run_count_job,
)

FIXTURE = Path(__file__).parent / "data" / "engine_golden.json"

BACKENDS = ["full", "changelog"]
ALL_PROTOCOLS = ["coor", "coor-unaligned", "unc", "cic"]

#: thresholds no buffer can reach: every data message leaves through a
#: checkpoint-forced drain, i.e. is a marker-split partial batch
MARKER_SPLIT_COST = CostModel(batch_max_records=100_000, linger=1_000.0)


def signature(job: Job) -> dict:
    """The JSON-ready statistics one finished run is pinned by."""
    metrics = job.metrics
    lines = metrics.recovery_lines
    return {
        "state_sha256": hashlib.sha256(canonical_state_bytes(job)).hexdigest(),
        "recovery_lines": len(lines),
        "recovery_lines_sha256": hashlib.sha256(repr(lines).encode()).hexdigest(),
        "sink_records": metrics.total_sink_records(),
        "messages_sent": metrics.messages_sent,
        "duplicates_skipped": metrics.duplicates_skipped,
        "virtual_time": job.sim.now,
    }


def load_golden() -> dict[str, dict]:
    """The checked-in fixture, case id -> signature."""
    return json.loads(FIXTURE.read_text())


# --------------------------------------------------------------------- #
# Case runners
# --------------------------------------------------------------------- #


def run_count_case(protocol: str, **kwargs) -> Job:
    """The conftest counting pipeline (input stops early, queues drain)."""
    job, _ = run_count_job(protocol, **kwargs)
    return job


def run_marker_split_count_case(protocol: str) -> Job:
    """Counting pipeline whose buffers only leave via checkpoint drains."""
    config = RuntimeConfig(checkpoint_interval=1.0, duration=10.0,
                           warmup=2.0, failure_at=5.0, seed=11,
                           cost_model=MARKER_SPLIT_COST)
    log = make_event_log(200.0, 8.0, 2, seed=11)
    job = Job(build_count_graph(), protocol, 2, {"events": log}, config)
    job.run(drain=True)
    return job


def chain_graph() -> LogicalGraph:
    """src -> m1 -> keep -> m2 -> count -> sink, the stateless operators
    joined by FORWARD channels."""
    def enrich(e):
        return KeyedEvent(e.key, e.value + 7)

    def keep(e):
        return e.value % 3 != 0

    def project(e):
        return KeyedEvent(e.key, e.value * 2)

    graph = LogicalGraph("stateless_chain")
    graph.add_source("src", "events", SourceOperator)
    graph.add_operator("m1", lambda: MapOperator(enrich))
    graph.add_operator("keep", lambda: FilterOperator(keep))
    graph.add_operator("m2", lambda: MapOperator(project))
    graph.connect("src", "m1", Partitioning.FORWARD)
    graph.connect("m1", "keep", Partitioning.FORWARD)
    graph.connect("keep", "m2", Partitioning.FORWARD)
    graph.add_operator("count", CountPerKeyOperator, stateful=True)
    graph.add_operator("sink", SinkOperator)
    graph.connect("m2", "count", Partitioning.KEY, key_fn=lambda e: e.key)
    graph.connect("count", "sink", Partitioning.FORWARD)
    return graph


def run_chain_case() -> Job:
    """The stateless chain under UNC through a failure + dedup-heavy replay."""
    config = RuntimeConfig(checkpoint_interval=3.0, duration=16.0,
                           warmup=2.0, failure_at=6.0, seed=5)
    log = make_event_log(150.0, 10.0, 2, seed=5)
    job = Job(chain_graph(), "unc", 2, {"events": log}, config)
    job.run(drain=True)
    return job


def run_spec_case(query: str, protocol: str, *,
                  state_backend: str = "full", rate: float = 250.0,
                  parallelism: int = 2, duration: float = 14.0,
                  warmup: float = 2.0, failure_at: float = 6.0,
                  rescale_to: int | None = None, seed: int = 7,
                  cost: CostModel | None = None,
                  checkpoint_interval: float = 3.0) -> Job:
    """One real query spec, built like ``run_with_spec`` builds it, with
    input stopping early so queues drain and totals are exact."""
    from repro.experiments.parallel import resolve_spec

    spec = resolve_spec(query)
    config = RuntimeConfig(checkpoint_interval=checkpoint_interval,
                           duration=duration, warmup=warmup,
                           failure_at=failure_at, rescale_to=rescale_to,
                           seed=seed, state_backend=state_backend,
                           cost_model=cost if cost is not None else CostModel())
    graph = spec.build_graph(parallelism)
    inputs = spec.make_job_inputs(rate, warmup + duration - 4.0, parallelism,
                                  0.0, seed)
    job = Job(graph, protocol, parallelism, inputs, config)
    job.run(rate=rate, query_name=query)
    return job


# --------------------------------------------------------------------- #
# The matrix
# --------------------------------------------------------------------- #

#: case id -> runner returning the finished job
CASES: dict[str, Callable[[], Job]] = {}

for _protocol in ALL_PROTOCOLS:
    for _backend in BACKENDS:
        CASES[f"count-{_protocol}-{_backend}"] = partial(
            run_count_case, _protocol, duration=20.0, failure_at=6.0,
            state_backend=_backend)
        CASES[f"q12-{_protocol}-{_backend}"] = partial(
            run_spec_case, "q12", _protocol, state_backend=_backend)
for _protocol in ("unc", "coor-unaligned"):
    CASES[f"count-rescale-{_protocol}"] = partial(
        run_count_case, _protocol, duration=22.0, failure_at=6.0, rescale_to=4)
    CASES[f"q12-rescale-{_protocol}"] = partial(
        run_spec_case, "q12", _protocol, duration=22.0, rescale_to=4)
for _protocol in ("coor", "unc"):
    CASES[f"count-marker-split-{_protocol}"] = partial(
        run_marker_split_count_case, _protocol)
    CASES[f"q12-marker-split-{_protocol}"] = partial(
        run_spec_case, "q12", _protocol, duration=10.0, failure_at=5.0,
        seed=11, cost=MARKER_SPLIT_COST, checkpoint_interval=1.0)
    for _query in ("q3", "q8"):
        CASES[f"{_query}-{_protocol}-changelog"] = partial(
            run_spec_case, _query, _protocol, state_backend="changelog")
for _protocol in ("coor-unaligned", "cic"):
    CASES[f"q5-{_protocol}"] = partial(run_spec_case, "q5", _protocol)
CASES["chain-unfused"] = run_chain_case


def main() -> None:
    """Re-record the fixture from the engine as it is now."""
    golden = {case: signature(CASES[case]()) for case in sorted(CASES)}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} cases to {FIXTURE}")


if __name__ == "__main__":
    main()
