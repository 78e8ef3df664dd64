#!/usr/bin/env python
"""Host overheads the layer profile hides (DESIGN.md sections 19 and 21).

``cProfile`` charges the cyclic collector to whichever frame happened to
allocate when a collection fired, and a checkpoint's state capture to the
``sim`` row's callbacks, so neither shows up as a layer.  This runs the
in-process cases of one ``perfbench`` workload under perfbench's own
procedure — cases built once, ``gc.collect()`` + ``gc.freeze()`` after
set-up, ``gc.collect()`` before every timed section — and reports per
case the wall time, the collector's time and collections by generation
(``gc.callbacks``), the time and number of
``InstanceRuntime.capture_snapshot`` calls, and what the exactly-once
dedup history cost the host: how many dedup sets were installed and how
many lineage ids were journaled (DESIGN.md section 23)::

    python tools/host_overheads.py dense
    python tools/host_overheads.py paper --events
    python tools/host_overheads.py dense --max-collector-share 0.0123 \
        --max-snapshot-share 0.02 --check-dedup-sets

``--events`` adds the event-kind ledger: simulator events per offered
record by callback, how many task completions found an empty queue and
how many arrivals landed on an idle CPU.  The ``--max-*-share`` bounds
are shares of the timed wall, not times, so a slow host cannot flake
them; ``--check-dedup-sets`` holds every case to "a dedup set is
installed if and only if a recovery was applied under a protocol that
dedups" — a count, which repeats exactly.  Failing a bound or the check
exits 1.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


class CollectorClock:
    """Time and count collections while ``timing`` is set (``gc.callbacks``)."""

    def __init__(self) -> None:
        self.timing = False
        self.seconds = 0.0
        self.collections = [0, 0, 0]
        self._started = 0.0

    def __call__(self, phase: str, info: dict[str, int]) -> None:
        if not self.timing:
            return
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1


class SnapshotClock:
    """Time and count ``capture_snapshot`` by wrapping the method."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.calls = 0

    def install(self) -> None:
        from repro.dataflow.worker import InstanceRuntime

        capture = InstanceRuntime.capture_snapshot

        def timed(instance: Any) -> Any:
            start = time.perf_counter()
            try:
                return capture(instance)
            finally:
                self.seconds += time.perf_counter() - start
                self.calls += 1

        InstanceRuntime.capture_snapshot = timed  # type: ignore[method-assign]


class DedupLedger:
    """Count what the dedup history makes the host do, by wrapping.

    ``sets`` — dedup sets installed under a protocol that dedups: by a
    restore (``InstanceRuntime.install_rids``), a rescaled restore
    (``restore_rescaled``) or the first read of ``processed_rids``.
    Installed, not non-empty: a restore at the floor line installs an
    empty set, because the cut there dropped every rid it held
    (DESIGN.md section 8);
    ``journaled`` — lineage ids handed to a checkpoint by ``seal_rids``
    plus the journals' tails when ``Job.run`` returns (a tail dropped by
    a rollback is not counted);
    ``recoveries`` — recoveries applied under a protocol that dedups,
    the only thing that should ever make ``sets`` non-zero.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        """Zero the counters (before each timed section)."""
        self.sets = 0
        self.journaled = 0
        self.recoveries = 0

    def install(self) -> None:
        from repro.dataflow.lifecycle import LifecycleManager
        from repro.dataflow.runtime import Job
        from repro.dataflow.worker import InstanceRuntime

        install_rids = InstanceRuntime.install_rids
        restore_rescaled = InstanceRuntime.restore_rescaled
        processed_rids = InstanceRuntime.processed_rids.fget
        seal_rids = InstanceRuntime.seal_rids
        run = Job.run
        apply_recovery = LifecycleManager.apply_recovery

        def counted_install(instance: Any, head: Any) -> None:
            install_rids(instance, head)
            self.sets += instance.job.protocol.requires_dedup

        def counted_rescaled(instance: Any, *args: Any) -> None:
            restore_rescaled(instance, *args)
            self.sets += instance.job.protocol.requires_dedup

        def counted_read(instance: Any) -> Any:
            if instance.rid_set is None:
                self.sets += instance.job.protocol.requires_dedup
            return processed_rids(instance)

        def counted_seal(instance: Any) -> Any:
            self.journaled += len(instance.rid_journal)
            return seal_rids(instance)

        def counted_run(job: Any, *args: Any, **kwargs: Any) -> Any:
            result = run(job, *args, **kwargs)
            self.journaled += sum(len(instance.rid_journal)
                                  for instance in job.instances())
            return result

        def counted_recovery(lifecycle: Any, plan: Any) -> None:
            self.recoveries += lifecycle.job.protocol.requires_dedup
            apply_recovery(lifecycle, plan)

        InstanceRuntime.install_rids = counted_install  # type: ignore[method-assign]
        InstanceRuntime.processed_rids = property(counted_read)  # type: ignore[method-assign]
        InstanceRuntime.restore_rescaled = counted_rescaled  # type: ignore[method-assign]
        InstanceRuntime.seal_rids = counted_seal  # type: ignore[method-assign]
        Job.run = counted_run  # type: ignore[method-assign]
        LifecycleManager.apply_recovery = counted_recovery  # type: ignore[method-assign]


class EventLedger:
    """Count executed simulator events by callback (wraps ``EventQueue.pop``)."""

    def __init__(self) -> None:
        self.kinds: Counter[str] = Counter()
        self.empty_completions = 0
        self.arrivals = 0
        self.idle_arrivals = 0

    def install(self) -> None:
        from repro.dataflow.channels import DATA
        from repro.dataflow.transport import Transport
        from repro.dataflow.worker import WorkerRuntime
        from repro.sim.events import EventQueue

        pop = EventQueue.pop
        kinds = self.kinds
        start_next = WorkerRuntime._start_next
        deliver = Transport.deliver

        def counted(queue: Any, limit: float = float("inf")) -> Any:
            entry = pop(queue, limit)
            if entry is not None:
                fn = entry[2]
                kinds[getattr(fn, "__qualname__", repr(fn))] += 1
                func = getattr(fn, "__func__", None)
                if func is start_next:
                    if not fn.__self__._tasks:
                        self.empty_completions += 1
                elif func is deliver:
                    self.arrivals += 1
                    channel, msg = entry[3][:2]
                    job = fn.__self__.job
                    worker = job.workers[channel[2]]
                    # what an arrive-and-run event could fuse: a data
                    # message that starts its own task straight away
                    if (msg.kind == DATA and not worker._busy
                            and worker.alive and not job.recovering
                            and channel not in worker.blocked):
                        self.idle_arrivals += 1
            return entry

        EventQueue.pop = counted  # type: ignore[method-assign]


def measure(cases: list[Any], reps: int, collector: CollectorClock,
            snapshots: SnapshotClock,
            dedup: DedupLedger) -> tuple[list[dict[str, Any]], int]:
    """One untimed warm-up repetition, then ``reps`` timed ones, summed."""
    rows = [{"id": case.id, "wall": 0.0, "gc": 0.0, "gens": [0, 0, 0],
             "snap": 0.0, "snaps": 0, "sets": 0, "journaled": 0,
             "recoveries": 0} for case in cases]
    records = 0
    for rep in range(reps + 1):
        for case, row in zip(cases, rows):
            gc.collect()
            collector.seconds = snapshots.seconds = 0.0
            collector.collections = [0, 0, 0]
            snapshots.calls = 0
            dedup.reset()
            collector.timing = True
            start = time.perf_counter()
            output = case.run()
            wall = time.perf_counter() - start
            collector.timing = False
            seen = case.inspect(output)
            if seen.why:
                raise SystemExit(f"host_overheads: {case.id}: {seen.why}")
            if rep == 0:  # lazy imports, cold caches
                records += seen.records
                continue
            row["wall"] += wall
            row["gc"] += collector.seconds
            row["snap"] += snapshots.seconds
            row["snaps"] += snapshots.calls
            for count in ("sets", "journaled", "recoveries"):
                row[count] += getattr(dedup, count)
            for generation, count in enumerate(collector.collections):
                row["gens"][generation] += count
    return rows, records


def report(name: str, rows: list[dict[str, Any]], reps: int) -> tuple[float, float]:
    """Print the table; returns (collector share, snapshot share) of wall."""
    print(f"== {name}: {len(rows)} in-process cases, {reps} timed "
          "repetitions each (per-repetition means)")
    print(f"  {'case':<34}{'wall ms':>9}{'gc ms':>8}{'gen0/1/2':>11}"
          f"{'snap ms':>9}{'snaps':>7}{'rid sets':>10}{'rids jrnl':>11}")
    total = {"wall": 0.0, "gc": 0.0, "snap": 0.0}
    for row in rows:
        gens = "/".join(str(round(count / reps)) for count in row["gens"])
        print(f"  {row['id']:<34}{row['wall'] / reps * 1e3:>9.1f}"
              f"{row['gc'] / reps * 1e3:>8.2f}{gens:>11}"
              f"{row['snap'] / reps * 1e3:>9.2f}{row['snaps'] // reps:>7}"
              f"{row['sets'] // reps:>10}{row['journaled'] // reps:>11}")
        for key in total:
            total[key] += row[key]
    collector_share = total["gc"] / total["wall"]
    snapshot_share = total["snap"] / total["wall"]
    print(f"  {'total':<34}{total['wall'] / reps * 1e3:>9.1f}"
          f"{total['gc'] / reps * 1e3:>8.2f}{'':>11}"
          f"{total['snap'] / reps * 1e3:>9.2f}")
    print(f"  collector share of timed wall       {collector_share:.4f}")
    print(f"  capture_snapshot share of timed wall {snapshot_share:.4f}")
    return collector_share, snapshot_share


def check_dedup_sets(rows: list[dict[str, Any]]) -> bool:
    """A set is built iff a deduping protocol recovered; prints offenders."""
    ok = True
    for row in rows:
        if (row["sets"] > 0) != (row["recoveries"] > 0):
            print(f"FAILED: {row['id']}: {row['sets']} dedup sets "
                  f"installed over {row['recoveries']} recoveries under a "
                  "protocol that dedups")
            ok = False
    return ok


def report_events(ledger: EventLedger, records: int, repetitions: int) -> None:
    """Print events per offered record by callback, most frequent first."""
    offered = records * repetitions
    events = sum(ledger.kinds.values())
    print(f"  events per offered record: {events / offered:.3f} "
          f"({events // repetitions} events, {records} records per repetition)")
    for kind, count in ledger.kinds.most_common():
        print(f"    {kind:<52}{count / offered:>8.3f}")
    print(f"    {'task completions finding an empty queue':<52}"
          f"{ledger.empty_completions / offered:>8.3f}")
    print(f"    {'arrivals landing on an idle CPU':<52}"
          f"{ledger.idle_arrivals / offered:>8.3f}"
          f"  ({ledger.idle_arrivals // repetitions} of "
          f"{ledger.arrivals // repetitions})")


def main(argv: list[str] | None = None) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", help="a perfbench workload name")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per case (default: 3)")
    parser.add_argument("--events", action="store_true",
                        help="also print the event-kind ledger")
    parser.add_argument("--max-collector-share", type=float, default=None)
    parser.add_argument("--max-snapshot-share", type=float, default=None)
    parser.add_argument("--check-dedup-sets", action="store_true",
                        help="fail unless dedup sets are installed exactly in "
                             "the cases that recover under a protocol that "
                             "dedups")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT))  # perfbench lives beside tools/
    from perfbench.env import ensure_repro, scratch_dir

    ensure_repro()
    from perfbench import workloads

    if args.workload not in workloads.BUILDERS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.BUILDERS)}")
    collector, snapshots, dedup = CollectorClock(), SnapshotClock(), DedupLedger()
    snapshots.install()
    dedup.install()
    ledger = EventLedger() if args.events else None
    if ledger is not None:
        ledger.install()
    with scratch_dir("overheads-") as scratch:
        # cases that fan out to worker processes cannot be observed here
        cases = [case for case in workloads.BUILDERS[args.workload](
            args.seed, scratch) if case.traced]
        gc.collect()
        gc.freeze()
        gc.callbacks.append(collector)
        try:
            rows, records = measure(cases, args.reps, collector, snapshots,
                                    dedup)
        finally:
            gc.callbacks.remove(collector)
            gc.unfreeze()
    collector_share, snapshot_share = report(args.workload, rows, args.reps)
    if ledger is not None:
        report_events(ledger, records, args.reps + 1)
    failed = args.check_dedup_sets and not check_dedup_sets(rows)
    for label, share, bound in (
            ("collector", collector_share, args.max_collector_share),
            ("capture_snapshot", snapshot_share, args.max_snapshot_share)):
        if bound is not None and share > bound:
            print(f"FAILED: {label} share {share:.4f} exceeds {bound}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
