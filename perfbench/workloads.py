"""The four workloads: fixed lists of short cases over ``repro``'s public API.

A case has a timed section (``run``) and an untimed ``inspect`` turning its
output into an :class:`Observation`: offered records, the simulated
statistics that get digested, a sanity verdict and the layer counts.  Each
workload exists because it puts a different layer on the critical path;
the ``why`` strings are the one-line versions ``BENCHMARK.json`` carries.
"""

from __future__ import annotations

import itertools
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from perfbench import digest

from repro.dataflow.graph import LogicalGraph, Partitioning
from repro.dataflow.operators import (
    FilterOperator,
    MapOperator,
    SinkOperator,
    SourceOperator,
    WindowedCountOperator,
)
from repro.dataflow.runtime import Job
from repro.experiments.parallel import (
    MstRequest,
    ParallelRunner,
    RunCache,
    RunRequest,
    execute_request,
    request_key,
    resolve_spec,
)
from repro.experiments.sharding import run_sharded, shard_inputs
from repro.metrics.mst import estimate_capacity
from repro.sim.costs import CostModel, RuntimeConfig
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import parse_arrival

@dataclass
class Observation:
    """What one execution of a case produced, beyond its wall time."""

    #: offered input records this execution pushed through the program
    records: int
    #: the simulated statistics (digested; must never move)
    stats: dict[str, Any]
    #: first sanity check that failed, or ``None``
    why: str | None = None
    #: deterministic simulated counts feeding the per-layer count metrics
    counters: dict[str, float] = field(default_factory=dict)
    #: wall times of harness seams measured during inspection (best-of-N)
    timings: dict[str, float] = field(default_factory=dict)


@dataclass
class Case:
    """One short unit of work: a timed section and how to check its output."""

    id: str
    #: the timed section
    run: Callable[[], Any]
    #: untimed: digest, sanity-check and count what ``run`` returned
    inspect: Callable[[Any], Observation]
    #: does the case count toward ``records_per_s`` (harness seams do not)
    scored: bool = True
    #: part of the traced pass (``cProfile`` sees this process only, so a
    #: case that fans out to worker processes is not)
    traced: bool = True


def observe_run(result: Any, expect_failure: bool,
                sparse_output: bool = False) -> Observation:
    """Digest and sanity-check one finished :class:`RunResult`.

    ``sparse_output`` relaxes "a record reached a sink" to "a record
    crossed a channel": the cyclic query emits a handful of results per
    run, and on some seeds none inside a short window.
    """
    metrics = result.metrics
    why = None
    if sparse_output and metrics.records_sent <= 0:
        why = "no record crossed a channel"
    elif not sparse_output and sum(metrics.sink_counts.values()) <= 0:
        why = "no record reached a sink"
    elif expect_failure:
        if not metrics.n_recoveries == metrics.n_failures >= 1:
            why = (f"{metrics.n_failures} failures but "
                   f"{metrics.n_recoveries} recoveries")
        elif not result.restart_time() > 0:
            why = f"restart_time {result.restart_time()} after a failure"
    elif metrics.n_failures != 0:
        why = f"{metrics.n_failures} failures in a failure-free case"
    return Observation(
        records=sum(metrics.ingest_counts.values()),
        stats=digest.run_stats(result),
        why=why,
        counters={
            "messages_sent": metrics.messages_sent,
            "records_sent": metrics.records_sent,
            "sends_parked": metrics.sends_parked,
            "checkpoints": len(metrics.checkpoints),
            "checkpoint_bytes_uploaded": metrics.checkpoint_bytes_uploaded,
            "replayed_records": metrics.replayed_records,
            "duplicates_skipped": metrics.duplicates_skipped,
            "recoveries": metrics.n_recoveries,
        },
    )


def _run_case(case_id: str, run: Callable[[], Any], expect_failure: bool,
              sparse_output: bool = False) -> Case:
    return Case(case_id, run, lambda result: observe_run(
        result, expect_failure, sparse_output))


# --------------------------------------------------------------------- #
# paper — the verified traffic
# --------------------------------------------------------------------- #

def paper_requests(seed: int) -> list[tuple[str, RunRequest]]:
    """The paper-calibrated run mix, ``(case id, request)`` in run order.

    Rates are a fixed share of ``estimate_capacity`` (0.6, or 0.5 with a
    failure or skew) — the regime the figures run in, ~2.5 records per
    message.  Windows are the shortest that still hold three checkpoint
    rounds, and for failure cases detection, restart and replay.
    """
    def request(query: str, protocol: str, parallelism: int = 4,
                share: float = 0.6, duration: float = 6.0, **knobs: Any) -> RunRequest:
        rate = share * estimate_capacity(resolve_spec(query), parallelism)
        return RunRequest(query=query, protocol=protocol,
                          parallelism=parallelism, rate=rate,
                          duration=duration, warmup=1.0,
                          checkpoint_interval=2.0, seed=seed, **knobs)

    def failing(query: str, protocol: str, **knobs: Any) -> RunRequest:
        return request(query, protocol, share=0.5, duration=7.0,
                       failure_at=2.0, **knobs)

    cases = [(f"{query}-{protocol}", request(query, protocol))
             for query in ("q1", "q3", "q8", "q12")
             for protocol in ("coor", "unc", "cic")]
    cases += [(f"reachability-{protocol}", request("reachability", protocol))
              for protocol in ("unc", "cic")]
    cases.append(("q5-coor-unaligned", request("q5", "coor-unaligned")))
    cases += [(f"q12-{protocol}-skew-failure",
               failing("q12", protocol, hot_ratio=0.3))
              for protocol in ("coor", "unc", "cic")]
    cases += [(f"q3-{protocol}-changelog-failure",
               failing("q3", protocol, state_backend="changelog"))
              for protocol in ("coor", "unc")]
    cases.append(("reachability-cic-failure", failing("reachability", "cic")))
    # at 0.8x the hot worker falls behind, so senders do run out of credit
    cases.append(("q12-coor-skew-bounded",
                  request("q12", "coor", share=0.8, hot_ratio=0.3,
                          channel_capacity_bytes=1024)))
    cases.append(("q8-unc-failure-rescale",
                  failing("q8", "unc", rescale_to=6)))
    cases.append(("q12-unc-flash",
                  request("q12", "unc",
                          arrival="flash:at=2;5,mag=3,ramp=0.5,hold=1")))
    cases.append(("q12-unc-p16",
                  request("q12", "unc", parallelism=16, duration=4.0)))
    cases.append(("q3-cic-p16",
                  request("q3", "cic", parallelism=16, duration=4.0)))
    return cases


def build_paper(seed: int, scratch: Path) -> list[Case]:
    """Input generation is inside the timed section: uncached runs pay it."""
    return [
        _run_case(case_id, lambda request=request: execute_request(request),
                  request.failure_at is not None,
                  sparse_output=resolve_spec(request.query).cyclic)
        for case_id, request in paper_requests(seed)
    ]


# --------------------------------------------------------------------- #
# dense — the batch kernels
# --------------------------------------------------------------------- #

DENSE_RATE = 50_000.0
DENSE_RECORDS = 50_000
DENSE_PARALLELISM = 4
DENSE_KEYS = 1009
EVENT_BYTES = 40


class DenseEvent:
    """Payload of the dense pipeline: a routing key and an amount."""

    __slots__ = ("key", "amount")

    def __init__(self, key: int, amount: float) -> None:
        self.key = key
        self.amount = amount


# library operators with only their virtual CPU cost overridden: calibrated
# costs would cap how many records fit a virtual second and leave the
# engine idling at a virtual bottleneck instead of working per record
class DenseSource(SourceOperator):
    """Library source at negligible virtual cost."""

    cpu_per_record = 1e-6


class DenseMap(MapOperator):
    """Library map at negligible virtual cost."""

    cpu_per_record = 1e-6


class DenseFilter(FilterOperator):
    """Library filter at negligible virtual cost."""

    cpu_per_record = 1e-6


class DenseCount(WindowedCountOperator):
    """Library windowed count at negligible virtual cost."""

    cpu_per_record = 1e-6


class DenseSink(SinkOperator):
    """Library sink at negligible virtual cost."""

    cpu_per_record = 1e-6


def dense_graph() -> LogicalGraph:
    """source -> map (q1) -> filter -> keyed windowed count (q12) -> sink."""
    graph = LogicalGraph("dense")
    graph.add_source("source", "events", DenseSource)
    graph.add_operator("convert", lambda: DenseMap(
        lambda event: DenseEvent(event.key, event.amount * 0.908),
        out_size=lambda _: EVENT_BYTES))
    graph.add_operator("keep", lambda: DenseFilter(
        lambda event: event.key % 10 != 0))
    graph.add_operator("count", lambda: DenseCount(
        key_fn=lambda event: event.key, window=10.0), stateful=True)
    graph.add_operator("sink", DenseSink)
    graph.connect("source", "convert", Partitioning.FORWARD)
    graph.connect("convert", "keep", Partitioning.FORWARD)
    graph.connect("keep", "count", Partitioning.KEY,
                  key_fn=lambda event: event.key)
    graph.connect("count", "sink", Partitioning.FORWARD)
    return graph


def dense_inputs(seed: int, hot_ratio: float) -> dict[str, PartitionedLog]:
    """Round-robin partitioned events; ``hot_ratio`` of them on one key."""
    rng = random.Random(seed)
    log = PartitionedLog("events", DENSE_PARALLELISM)
    partitions = log.partitions
    for k in range(DENSE_RECORDS):
        hot = hot_ratio > 0 and rng.random() < hot_ratio
        key = 7 if hot else rng.randrange(DENSE_KEYS)
        partitions[k % DENSE_PARALLELISM].append(
            (k + 0.5) / DENSE_RATE, DenseEvent(key, float(k % 17)),
            EVENT_BYTES)
    return {"events": log}


def dense_config(seed: int, failure_at: float | None) -> RuntimeConfig:
    """Large batches, cheap virtual costs, a few checkpoints per run."""
    cost = CostModel(
        serialize_message_base=1e-6, serialize_per_byte=0.0,
        log_append_per_record=1e-7, log_append_per_byte=0.0,
        network_latency=1e-5, detection_delay=0.05,
        source_max_poll=4096, batch_max_records=256, linger=0.010,
    )
    return RuntimeConfig(checkpoint_interval=0.25, warmup=0.1, duration=1.4,
                         failure_at=failure_at, seed=seed, cost_model=cost)


def build_dense(seed: int, scratch: Path) -> list[Case]:
    """Inputs are pre-generated here, so the timed section is the engine."""
    uniform = dense_inputs(seed, 0.0)
    skewed = dense_inputs(seed, 0.3)
    plan = [
        ("coor", "coor", uniform, None),
        ("unc", "unc", uniform, None),
        ("cic", "cic", uniform, None),
        ("coor-unaligned", "coor-unaligned", uniform, None),
        ("unc-failure", "unc", uniform, 0.4),
        ("coor-failure", "coor", uniform, 0.4),
        ("unc-skew", "unc", skewed, None),
    ]

    def run(protocol: str, inputs: dict[str, PartitionedLog],
            failure_at: float | None) -> Any:
        job = Job(dense_graph(), protocol, DENSE_PARALLELISM, inputs,
                  dense_config(seed, failure_at))
        return job.run(rate=DENSE_RATE, query_name="dense", drain=True)

    return [
        _run_case(case_id,
                  lambda protocol=protocol, inputs=inputs,
                  failure_at=failure_at: run(protocol, inputs, failure_at),
                  failure_at is not None)
        for case_id, protocol, inputs, failure_at in plan
    ]


# --------------------------------------------------------------------- #
# inputs — generation and log append
# --------------------------------------------------------------------- #

#: (case id, query, parallelism, rate, hot_ratio, arrival spec)
INPUT_PLAN = (
    ("q12", "q12", 4, 4000.0, 0.0, None),
    ("q1-diurnal", "q1", 4, 4000.0, 0.0, "diurnal:period=5,amp=0.5"),
    ("q5-skew", "q5", 4, 4000.0, 0.3, None),
    ("q3", "q3", 4, 3000.0, 0.0, None),
    ("q8-flash", "q8", 4, 3000.0, 0.0,
     "flash:at=3;7,mag=3,ramp=0.5,hold=1"),
    ("reachability", "reachability", 4, 4000.0, 0.0, None),
    ("q12-p16-drift", "q12", 16, 4000.0, 0.2, "drift:period=4,zipf=1.2"),
    ("q3-mmpp", "q3", 4, 3000.0, 0.0,
     "mmpp:low=0.5,high=2,dwell_low=2,dwell_high=1"),
)
INPUT_UNTIL = 10.0


def observe_inputs(inputs: dict[str, PartitionedLog]) -> Observation:
    """Digest generated logs; an empty topic is a sanity failure."""
    sizes = {topic: len(log) for topic, log in inputs.items()}
    empty = sorted(topic for topic, size in sizes.items() if size == 0)
    return Observation(
        records=sum(sizes.values()),
        stats=digest.inputs_stats(inputs),
        why=f"empty topics {empty}" if empty else None,
    )


def build_inputs(seed: int, scratch: Path) -> list[Case]:
    """``QuerySpec.build_inputs`` directly: the input memo cannot fake a gain."""
    def generate(query: str, parallelism: int, rate: float, hot_ratio: float,
                 arrival: str | None) -> dict[str, PartitionedLog]:
        process = parse_arrival(arrival) if arrival is not None else None
        return resolve_spec(query).build_inputs(
            rate, INPUT_UNTIL, parallelism, hot_ratio, seed, process)

    cases = [
        Case(case_id,
             lambda plan=plan: generate(*plan),
             observe_inputs)
        for case_id, *plan in INPUT_PLAN
    ]
    graph = resolve_spec("q12").build_graph(4)
    whole = generate("q12", 4, 4000.0, 0.0, None)
    cases.append(Case("q12-shard-split",
                      lambda: shard_inputs(graph, whole, 0, 2, 128),
                      observe_inputs))
    return cases


# --------------------------------------------------------------------- #
# sweep — the experiment harness
# --------------------------------------------------------------------- #

SWEEP_JOBS = 2


def sweep_requests(seed: int) -> list[RunRequest]:
    """19 unique short runs followed by 6 duplicates, in submission order."""
    def request(query: str, protocol: str, parallelism: int = 4,
                duration: float = 3.0, **knobs: Any) -> RunRequest:
        rate = 0.5 * estimate_capacity(resolve_spec(query), parallelism)
        return RunRequest(query=query, protocol=protocol,
                          parallelism=parallelism, rate=rate,
                          duration=duration, warmup=1.0,
                          checkpoint_interval=1.0, seed=seed, **knobs)

    unique = [request(query, protocol)
              for query in ("q1", "q3", "q8", "q12")
              for protocol in ("coor", "unc", "cic")]
    unique += [request("q12", protocol, duration=4.0, failure_at=1.0)
               for protocol in ("coor", "unc", "cic")]
    unique.append(request("q12", "unc", parallelism=10))
    unique += [request("q12", protocol, hot_ratio=0.3)
               for protocol in ("coor", "unc", "cic")]
    return unique + unique[:12:2]


def sweep_pass(jobs: int, directory: Path, seed: int) -> dict[str, Any]:
    """One harness pass over ``directory``: batch + MST search + sharded run."""
    requests = sweep_requests(seed)
    # q12/coor: its bracket probes the same three rates on every seed, so
    # the pass offers the same work whatever --seed says
    search = MstRequest(query="q12", protocol="coor", parallelism=4,
                        probe_duration=4.0, warmup=1.0, iterations=1,
                        seed=seed)
    sharded = RunRequest(query="q12", protocol="unc", parallelism=4,
                         rate=0.5 * estimate_capacity(resolve_spec("q12"), 4),
                         duration=4.0, warmup=1.0, checkpoint_interval=1.0,
                         seed=seed)
    with ParallelRunner(jobs=jobs, cache_dir=directory) as runner:
        search_handle = runner.submit(search)
        results = runner.map(requests)
        merged = run_sharded(sharded, 2, runner)
        mst = search_handle.result()
        return {
            "requests": requests, "results": results, "merged": merged,
            "mst": mst, "search": search, "directory": directory,
            "jobs": jobs,
            "hits": runner.hits, "misses": runner.misses,
            "deduped": runner.deduped,
        }


def observe_sweep(outcome: dict[str, Any], warm: bool) -> Observation:
    """Digest every output of a pass and check the harness accounting."""
    requests, results = outcome["requests"], outcome["results"]
    unique: dict[str, tuple[RunRequest, Any]] = {}
    for request, result in zip(requests, results):
        unique.setdefault(request_key(request), (request, result))
    search, mst = outcome["search"], outcome["mst"]
    stats: dict[str, Any] = {}
    counters: dict[str, float] = {}
    records = 0
    why = None
    for index, (request, result) in enumerate(unique.values()):
        seen = observe_run(result, request.failure_at is not None)
        name = f"run{index:02d}-{request.query}-{request.protocol}"
        stats[name] = "#" + digest.digest(seen.stats)[:16]
        records += seen.records
        why = why or (seen.why and f"{name}: {seen.why}")
        for counter, value in seen.counters.items():
            counters[counter] = counters.get(counter, 0) + value
    merged = observe_run(outcome["merged"], False)
    stats["sharded-q12-unc"] = "#" + digest.digest(merged.stats)[:16]
    records += merged.records
    why = why or (merged.why and f"sharded-q12-unc: {merged.why}")
    stats["mst-q12-coor"] = digest.mst_stats(mst)
    # MstResult exposes probe rates, not counts: offered = rate x probe span
    records += round(sum(rate for rate, _ in mst.probes)
                     * (search.warmup + search.probe_duration))
    if why is None:
        # besides the unique runs: one miss for the MST search (its probes
        # run inside it, not through the runner) and one per shard
        expected = (0 if warm else len(unique) + 1 + 2)
        if outcome["misses"] != expected or (
                not warm and outcome["deduped"] != len(requests) - len(unique)):
            why = (f"harness accounting: misses={outcome['misses']} "
                   f"(expected {expected}), deduped={outcome['deduped']}, "
                   f"hits={outcome['hits']}")
    for name in ("jobs", "misses", "deduped"):
        counters[name] = outcome[name]
    return Observation(records=records, stats=stats, why=why,
                       counters=counters)


def build_sweep(seed: int, scratch: Path) -> list[Case]:
    """Cold passes at two workers, each followed by the serial baseline.

    The timed section is the cold pass over a fresh cache directory, pool
    start-up included (users pay it per CLI call).  Its untimed inspection
    replays the pass over the directory it filled: that warm pass must be
    served entirely from the cache and reproduce every output.
    """
    numbers = itertools.count()
    first: dict[str, Any] = {}  # outputs of the first pass, whatever its jobs

    def cold(jobs: int) -> dict[str, Any]:
        return sweep_pass(jobs, scratch / f"cache{next(numbers)}", seed)

    def inspect(outcome: dict[str, Any]) -> Observation:
        seen = observe_sweep(outcome, warm=False)
        if seen.why is None and seen.stats != first.setdefault("stats", seen.stats):
            seen.why = "2-worker and serial outputs differ"
        start = time.perf_counter()
        again = sweep_pass(SWEEP_JOBS, outcome["directory"], seed)
        seen.timings["warm_pass_s"] = time.perf_counter() - start
        shutil.rmtree(outcome["directory"])
        warm = observe_sweep(again, warm=True)
        if seen.why is None and warm.why is not None:
            seen.why = f"warm pass: {warm.why}"
        elif seen.why is None and warm.stats != seen.stats:
            seen.why = "warm pass: outputs differ from the cold pass"
        return seen

    return [
        Case("cold", lambda: cold(SWEEP_JOBS), inspect, traced=False),
        Case("serial", lambda: cold(1), inspect, scored=False),
    ]


def sweep_seams(seed: int, scratch: Path) -> dict[str, float]:
    """Best-of-N micro-timings of the cache seams, outside any timed pass."""
    requests = sweep_requests(seed)[:19]
    value = execute_request(requests[0]).compact()

    def best(fn: Callable[[], Any], loops: int = 5) -> float:
        times = []
        for _ in range(loops):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    cache = RunCache(scratch / "seams")
    keys = [request_key(request) for request in requests]
    put = best(lambda: [cache.put(key, value) for key in keys])
    get = best(lambda: [cache.get(key) for key in keys])
    entry_bytes = cache.stats()["entry_bytes"] / len(keys)
    key_time = best(lambda: [request_key(request) for request in requests])
    return {
        "experiments.cache_put_us": put / len(keys) * 1e6,
        "experiments.cache_get_us": get / len(keys) * 1e6,
        "experiments.request_key_us": key_time / len(requests) * 1e6,
        "experiments.entry_bytes": entry_bytes,
    }


#: how strongly each workload's code follows the calibration kernel through
#: the host's slow spells: its time scales with (kernel time) ** sensitivity.
#: The kernel is cache-resident and core-bound; the workloads wait on memory
#: for part of their time, and a two-worker pass keeps both vCPUs busy
#: whatever the neighbours do.  Fitted once, over 20-30 runs per workload
#: spanning quiet and loaded hours (kernel 3.4-6.1 ms), as the exponent that
#: minimises the run-to-run spread; see README "Measurement method".
SENSITIVITY: dict[str, float] = {
    "paper": 0.85,
    "dense": 0.85,
    "inputs": 1.0,
    "sweep": 0.7,
}

#: workload name -> ``(seed, scratch directory) -> extra per-layer metrics``
#: measured after the traced pass, for workloads that have harness seams
SEAMS: dict[str, Callable[[int, Path], dict[str, float]]] = {
    "sweep": sweep_seams,
}

#: workload name -> ``(seed, scratch directory) -> cases``; building is the
#: workload's set-up and is what ``setup_s`` times (after the imports)
BUILDERS: dict[str, Callable[[int, Path], list[Case]]] = {
    "paper": build_paper,
    "dense": build_dense,
    "inputs": build_inputs,
    "sweep": build_sweep,
}
