#!/usr/bin/env python
"""What a batch costs before its first row: ``a + b*n`` per stage of the
data path (DESIGN.md section 22).

At the rates every figure runs at, half the batches entering
``Job.process_records`` carry one record, so what a record costs is
mostly what its *batch* costs.  This drives the real classes of the one
path every input takes — admission through ``Job.process_records`` on a
deployed instance, in each phase of the instance's life: never restored
(no dedup set; the rid column is journaled) and restored against a
resident set of 0, 60k and 600k rids (one probe, one insert; an instance
of a ``dense`` case ends at 12,500 rids, one of a minute at a few
thousand records per second at 60k and more, DESIGN.md section 23) — every
library operator's ``process_batch`` (opened against a deployed instance
as its context), KEY and FORWARD ``RouterBuffer.route_batch`` +
``take_all`` with routing keys the process has seen (warm) and has not
(cold) — at n = 1, 2, 4, 16, 64 rows per batch::

    python tools/batch_constants.py
    python tools/batch_constants.py --calls
    python tools/batch_constants.py --calls --max-hop-calls 22 \
        --max-admit-calls 1 --max-restored-admit-calls 5 \
        --max-count-calls 20 --max-key-route-calls 17 \
        --max-forward-route-calls 15

Without ``--calls`` it prints per stage the microseconds per call (the
fastest of ``--reps`` repetitions) and the fitted ``a + b*n`` (least
squares on *relative* residuals, so n = 1 weighs as much as n = 64),
then the batch-length histogram of the ``paper`` traffic — how many
calls of ``process_records`` / ``route_batch`` carry 1, <= 2, <= 4 rows,
and how many KEY-routed rows paid the ``crc32`` derivation — so a reader
can re-check that the regime the constants matter in has not moved.

With ``--calls`` it prints the exact number of Python-level calls
(``cProfile``: functions, built-ins and comprehension frames) one n = 1
batch makes per stage.  Counts repeat exactly per interpreter version,
so the ``--max-*-calls`` bounds gate without timing noise (CI's 3.11
leg); exceeding one exits 1.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import inspect
import itertools
import pstats
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent

LENGTHS = (1, 2, 4, 16, 64)
#: rows per timed repetition of one (stage, n) cell, whatever n is
ROWS_PER_REPETITION = 8192
#: routing / state keys the warm stages cycle through
KEY_POOL = 509

#: a stage: name -> builder; the builder takes (n, calls) and returns the
#: callable whose ``calls`` invocations are timed or profiled
Stage = Callable[[int, int], Callable[[], None]]


def _payload(i: int) -> dict[str, int]:
    return {"k": (i * 7919) % KEY_POOL, "v": i % 41, "i": i}


def _key(p: dict[str, int]) -> int:
    return p["k"]


def _index(p: dict[str, int]) -> int:
    # ever larger: the max fold emits (and writes state) for every row
    return p["i"]


def _bump(p: dict[str, int]) -> dict[str, int]:
    return {"k": p["k"], "v": p["v"] + 1, "i": p["i"]}


def _keep(p: dict[str, int]) -> bool:
    # every row passes: a batch's calls must not depend on its contents
    return p["v"] >= 0


def _pair(left: dict[str, int], right: dict[str, int]) -> tuple[int, int]:
    return (left["v"], right["v"])


def _batches(n: int, calls: int, first_rid: int = 1,
             payload: Callable[[int], Any] = _payload) -> list[Any]:
    """``calls`` batches of ``n`` rows; every rid distinct, real 64-bit ids."""
    from repro.dataflow.batch import RecordBatch
    from repro.dataflow.records import source_rid_from_prefix

    rids = [source_rid_from_prefix(0x9E3779B97F4A7C15, offset)
            for offset in range(first_rid, first_rid + n * calls)]
    return [
        RecordBatch(rids[lo:lo + n],
                    [payload(i) for i in range(lo, lo + n)],
                    [0.001 * i for i in range(lo, lo + n)],
                    [40] * n)
        for lo in range(0, n * calls, n)
    ]


# --------------------------------------------------------------------- #
# Stages
# --------------------------------------------------------------------- #


def _deployed(protocol: str) -> Any:
    """A deployed two-worker job whose middle operator does nothing."""
    from repro.dataflow.graph import LogicalGraph, Partitioning
    from repro.dataflow.operators import Operator, SourceOperator
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig
    from repro.storage.kafka import PartitionedLog

    class Discard(Operator):
        """Consumes the batch: admission and the frame around it remain."""

        def process_batch(self, batch: Any, port: str) -> None:
            return None

    graph = LogicalGraph("batch-constants")
    graph.add_source("src", "events", SourceOperator)
    graph.add_operator("probe", Discard, stateful=True)
    graph.connect("src", "probe", Partitioning.KEY, key_fn=_key)
    return Job(graph, protocol, 2, {"events": PartitionedLog("events", 2)},
               RuntimeConfig())


def _process_records(protocol: str, resident: int | None = None) -> Stage:
    """``process_records`` on an instance that was never restored
    (``resident`` None) or was restored to a dedup set of ``resident``
    rids — real 64-bit ids from another prefix than the batches'."""
    def build(n: int, calls: int) -> Callable[[], None]:
        from repro.dataflow.batch import RecordBatch
        from repro.dataflow.records import source_rid_column

        job = _deployed(protocol)
        instance = job.instance(("probe", 0))
        if resident is not None:
            # admitted through the real path, then rolled back to where
            # it stands: what a recovery leaves behind
            rids = source_rid_column(0xD1B54A32D192ED03, resident).tolist()
            job.process_records(instance, RecordBatch(
                rids, [None] * resident, [0.0] * resident, [0] * resident),
                "in")
            meta, snapshot = job.capture_checkpoint(instance, "local", None)
            instance.restore(meta, [snapshot])
        batches = _batches(n, calls)
        process_records = job.process_records

        def run() -> None:
            for batch in batches:
                process_records(instance, batch, "in")

        return run

    return build


def _hop(protocol: str) -> Stage:
    """One DATA message of ``n`` rows through the whole hop on a deployed
    job: ``Transport.send_data`` on the source instance, the arrival
    event (``Transport.deliver`` -> the receiver's ``_start_next`` ->
    ``_run_data`` -> ``process_records`` into an operator that does
    nothing), then the task's completion event, which finds the queue
    empty.  The two events run as the simulator loop runs them — one
    ``EventQueue.pop`` each, the clock set, the callback called — without
    the loop's per-run set-up."""
    def build(n: int, calls: int) -> Callable[[], None]:
        job = _deployed(protocol)
        source = job.instance(("src", 0))
        (edge,) = source.out_edges
        batches = [(batch, sum(batch.sizes)) for batch in _batches(n, calls)]
        send_data = job.transport.send_data
        sim = job.sim
        pop = sim._queue.pop

        def run() -> None:
            for batch, nbytes in batches:
                send_data(source, edge.edge_id, 1, batch, nbytes)
                entry = pop()
                while entry is not None:  # the arrival, then the completion
                    sim.now = entry[0]
                    entry[2](*entry[3])
                    entry = pop()

        return run

    return build


def _library_operators() -> dict[str, tuple[Callable[[], Any], str]]:
    """name -> (factory, the port batches arrive on), one per kernel."""
    import repro.dataflow.operators as operators
    from repro.dataflow.operators import (
        FilterOperator, IncrementalJoinOperator, MapOperator,
        MaxPerKeyOperator, Operator, SinkOperator, SlidingWindowCountOperator,
        SourceOperator, WindowedCountOperator, WindowedJoinOperator)

    table: dict[str, tuple[Callable[[], Any], str]] = {
        "source": (SourceOperator, "in"),
        "map": (lambda: MapOperator(_bump), "in"),
        "filter": (lambda: FilterOperator(_keep), "in"),
        "incremental_join": (
            lambda: IncrementalJoinOperator(_key, _key, _pair), "left"),
        "windowed_join": (
            lambda: WindowedJoinOperator(_key, _key, _pair, window=10.0),
            "left"),
        "windowed_count": (
            lambda: WindowedCountOperator(_key, window=10.0), "in"),
        "sliding_count": (
            lambda: SlidingWindowCountOperator(
                _key, window_range=10.0, slide=2.0), "in"),
        "max_per_key": (
            lambda: MaxPerKeyOperator(_key, _index, _key), "in"),
        "sink": (SinkOperator, "in"),
    }
    kernels = {
        cls for _, cls in inspect.getmembers(operators, inspect.isclass)
        if issubclass(cls, Operator) and cls is not Operator
        and "process_batch" in vars(cls)
    }
    covered = {type(factory()) for factory, _ in table.values()}
    if covered != kernels:
        missing = ", ".join(sorted(cls.__name__ for cls in kernels ^ covered))
        raise SystemExit(f"batch_constants: operator table out of date "
                         f"({missing})")
    return table


def _operator(factory: Callable[[], Any], port: str) -> Stage:
    def build(n: int, calls: int) -> Callable[[], None]:
        # a deployed instance is the context: now() reads the job's
        # simulator, register_timer schedules on it (never run here)
        job = _deployed("coor")
        op = factory()
        op.open(job.instance(("probe", 1)))
        if port == "left":
            # one stored row per key on the probed side: every input
            # row finds exactly one match, as many outputs as inputs
            for batch in _batches(KEY_POOL, 1, first_rid=1 << 40):
                op.process_batch(batch, "right")
        batches = _batches(n, calls)
        process_batch = op.process_batch

        def run() -> None:
            for batch in batches:
                process_batch(batch, port)

        return run

    return build


#: a fresh block of integers per cold-routing fixture, so no routing key
#: repeats within the process whatever memo the router keeps
_cold_blocks = itertools.count(1)


def _route(partitioning_name: str, cold: bool = False) -> Stage:
    def build(n: int, calls: int) -> Callable[[], None]:
        from repro.dataflow.channels import RouterBuffer
        from repro.dataflow.graph import EdgeSpec, Partitioning
        from repro.dataflow.keygroups import DEFAULT_MAX_KEY_GROUPS
        from repro.sim.costs import CostModel

        partitioning = Partitioning[partitioning_name]
        key_fn = _key if partitioning is Partitioning.KEY else None
        edge = EdgeSpec(0, "a", "b", partitioning, key_fn, "in")
        router = RouterBuffer([edge], 0, 4, DEFAULT_MAX_KEY_GROUPS,
                              CostModel().batch_max_records)
        if cold:
            base = next(_cold_blocks) << 32
            batches = _batches(n, calls, payload=lambda i: {"k": base + i})
        else:
            batches = _batches(n, calls)
            for batch in _batches(KEY_POOL, 1):
                router.route_batch(batch)
            router.take_all()
        route_batch, take_all = router.route_batch, router.take_all

        def run() -> None:
            for batch in batches:
                route_batch(batch)
                take_all()

        return run

    return build


def stages() -> dict[str, Stage]:
    """Every measured stage, in data-path order."""
    table: dict[str, Stage] = {
        "hop coor (send -> completion)": _hop("coor"),
        "process_records coor (no dedup)": _process_records("coor"),
    }
    for phase, resident in ADMISSION_PHASES.items():
        table[f"process_records unc {phase}"] = _process_records(
            "unc", resident)
    for name, (factory, port) in _library_operators().items():
        table[f"{name}.process_batch"] = _operator(factory, port)
    table["route KEY warm + take_all"] = _route("KEY")
    table["route KEY cold + take_all"] = _route("KEY", cold=True)
    table["route FORWARD + take_all"] = _route("FORWARD")
    return table


#: admission phase -> rids resident in the instance's dedup set when the
#: timed batches arrive; ``None`` is an instance never restored, which
#: has no set
ADMISSION_PHASES: dict[str, int | None] = {
    "never restored": None,
    "restored/0": 0,
    "restored/60k": 60_000,
    "restored/600k": 600_000,
}
#: derived rows: name -> (minuend stage, subtrahend stage)
DERIVED = {
    f"admit {phase} (unc - coor)": (f"process_records unc {phase}",
                                    "process_records coor (no dedup)")
    for phase in ADMISSION_PHASES
}
#: ``--max-*-calls`` option -> the row it bounds
GATES = {
    "max_hop_calls": "hop coor (send -> completion)",
    "max_admit_calls": "admit never restored (unc - coor)",
    "max_restored_admit_calls": "admit restored/0 (unc - coor)",
    "max_count_calls": "windowed_count.process_batch",
    "max_key_route_calls": "route KEY warm + take_all",
    "max_forward_route_calls": "route FORWARD + take_all",
}


# --------------------------------------------------------------------- #
# Measuring
# --------------------------------------------------------------------- #


def time_stage(build: Stage, n: int, reps: int) -> float:
    """Microseconds per call at batch length ``n``: fastest of ``reps``."""
    calls = max(ROWS_PER_REPETITION // n, 64)
    best = float("inf")
    for _ in range(reps):
        run = build(n, calls)
        gc.collect()
        gc.disable()  # the event loop runs with the collector paused
        try:
            start = time.perf_counter()
            run()
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        best = min(best, elapsed / calls)
    return best * 1e6


def fit(times: dict[int, float]) -> tuple[float, float]:
    """``(a, b)`` of ``t = a + b*n`` minimising the relative residuals."""
    s_ww = s_wn = s_wnn = s_wt = s_wnt = 0.0
    for n, t in times.items():
        w = 1.0 / (t * t)
        s_ww += w
        s_wn += w * n
        s_wnn += w * n * n
        s_wt += w * t
        s_wnt += w * n * t
    det = s_ww * s_wnn - s_wn * s_wn
    return ((s_wt * s_wnn - s_wn * s_wnt) / det,
            (s_ww * s_wnt - s_wn * s_wt) / det)


def count_calls(name: str, build: Stage) -> int:
    """Python-level calls one n = 1 batch makes (exact).

    The difference of two profiled runs of different lengths, so what a
    fixture's first batch does once (arming a sweep timer, creating a
    buffer's destination) and the profiler's own bookkeeping cancel; an
    unprofiled run first fills the process-wide memos (name hashes).
    """
    build(1, 4)()
    totals = []
    for calls in (16, 48):
        run = build(1, calls)
        profile = cProfile.Profile()
        profile.enable()
        run()
        profile.disable()
        totals.append(pstats.Stats(profile).total_calls)
    extra, remainder = divmod(totals[1] - totals[0], 32)
    if remainder:
        raise SystemExit(f"batch_constants: {name}: call count is not a "
                         f"whole number per batch ({totals})")
    return extra


def with_derived(values: dict[str, Any],
                 subtract: Callable[[Any, Any], Any]) -> dict[str, Any]:
    """``values`` plus the :data:`DERIVED` rows, placed after their minuend."""
    rows: dict[str, Any] = {}
    for name, value in values.items():
        rows[name] = value
        for derived, (minuend, subtrahend) in DERIVED.items():
            if name == minuend:
                rows[derived] = subtract(value, values[subtrahend])
    return rows


def report_times(reps: int) -> None:
    """Print the per-stage table of times and fits."""
    measured = {
        name: {n: time_stage(build, n, reps) for n in LENGTHS}
        for name, build in stages().items()
    }
    rows = with_derived(
        measured, lambda a, b: {n: max(a[n] - b[n], 1e-3) for n in LENGTHS})
    header = "".join(f"{f'n={n}':>8}" for n in LENGTHS)
    print(f"== us per call, fastest of {reps} repetitions; fit a + b*n")
    print(f"  {'stage':<36}{header}{'a':>9}{'b':>8}")
    for name, times in rows.items():
        a, b = fit(times)
        cells = "".join(f"{times[n]:>8.2f}" for n in LENGTHS)
        print(f"  {name:<36}{cells}{a:>9.2f}{b:>8.3f}")


def report_calls(bounds: dict[str, int | None]) -> bool:
    """Print the n = 1 call counts; returns whether every bound held."""
    counts = with_derived(
        {name: count_calls(name, build) for name, build in stages().items()},
        lambda a, b: a - b)
    version = ".".join(map(str, sys.version_info[:2]))
    print(f"== Python-level calls per n = 1 batch (cProfile, CPython {version})")
    for name, calls in counts.items():
        print(f"  {name:<36}{calls:>6}")
    ok = True
    for option, row in GATES.items():
        bound = bounds[option]
        if bound is not None and counts[row] > bound:
            print(f"FAILED: {row}: {counts[row]} calls per batch exceed {bound}")
            ok = False
    return ok


# --------------------------------------------------------------------- #
# The regime: batch lengths of the paper traffic
# --------------------------------------------------------------------- #


def report_histogram(seed: int) -> None:
    """Run the ``paper`` cases once, counting batch lengths on the way."""
    sys.path.insert(0, str(ROOT))  # perfbench lives beside tools/
    from perfbench import workloads
    from perfbench.env import scratch_dir

    import repro.dataflow.channels as channels
    from repro.dataflow.runtime import Job

    entered: Counter[int] = Counter()
    routed: Counter[int] = Counter()
    keyed = {"rows": 0, "derived": 0}
    process_records = Job.process_records
    route_batch = channels.RouterBuffer.route_batch
    key_group = channels.key_group

    def counted_process(job: Any, instance: Any, batch: Any, port: str) -> float:
        if batch is not None and batch.rids:
            entered[len(batch.rids)] += 1
        return process_records(job, instance, batch, port)

    def counted_route(router: Any, batch: Any) -> None:
        routed[len(batch.rids)] += 1
        # a plan's third field is its static destinations: None on KEY edges
        keyed["rows"] += len(batch.rids) * sum(
            1 for plan in router._plans if plan[2] is None)
        route_batch(router, batch)

    def counted_key_group(key_hash: int, max_key_groups: int) -> int:
        # only a routing key the memo does not hold reaches key_group
        keyed["derived"] += 1
        return key_group(key_hash, max_key_groups)

    Job.process_records = counted_process  # type: ignore[method-assign]
    channels.RouterBuffer.route_batch = counted_route  # type: ignore[method-assign]
    channels.key_group = counted_key_group
    try:
        with scratch_dir("batch-constants-") as scratch:
            cases = [case for case in workloads.BUILDERS["paper"](seed, scratch)
                     if case.traced]
            for case in cases:
                seen = case.inspect(case.run())
                if seen.why:
                    raise SystemExit(f"batch_constants: {case.id}: {seen.why}")
    finally:
        Job.process_records = process_records  # type: ignore[method-assign]
        channels.RouterBuffer.route_batch = route_batch  # type: ignore[method-assign]
        channels.key_group = key_group

    print(f"== batch lengths over the {len(cases)} paper cases (seed {seed}, "
          "one pass in one process)")
    print(f"  {'entry point':<30}{'calls':>9}{'rows':>9}{'mean':>7}"
          f"{'n=1':>8}{'n<=2':>8}{'n<=4':>8}{'n<=16':>8}")
    for label, lengths in (("Job.process_records", entered),
                           ("RouterBuffer.route_batch", routed)):
        calls = sum(lengths.values())
        rows = sum(n * count for n, count in lengths.items())
        shares = "".join(
            f"{sum(c for n, c in lengths.items() if n <= limit) / calls:>8.1%}"
            for limit in (1, 2, 4, 16))
        print(f"  {label:<30}{calls:>9}{rows:>9}{rows / calls:>7.2f}{shares}")
    print(f"  KEY-routed rows {keyed['rows']}, of which "
          f"{keyed['derived']} ({keyed['derived'] / keyed['rows']:.1%}) "
          "derived their destination (routing key not memoised)")


def main(argv: list[str] | None = None) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--calls", action="store_true",
                        help="print exact n = 1 call counts instead of times")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed repetitions per cell (default: 5)")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed of the histogram's paper cases (default: 7)")
    for option in GATES:
        parser.add_argument("--" + option.replace("_", "-"), type=int,
                            default=None, metavar="N")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    if args.calls:
        ok = report_calls({option: getattr(args, option) for option in GATES})
        return 0 if ok else 1
    report_times(args.reps)
    report_histogram(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
