"""Command-line interface: ``python -m repro <command>``.

Commands
--------
list
    Show the available experiments (paper tables/figures, extension
    sweeps and ablations).
run EXPERIMENT [--scale quick|default|full] [--out DIR] [--jobs N]
        [--cache-dir DIR]
    Regenerate one artifact at ``--scale`` (default: ``default``) and
    print the paper-vs-measured table.  ``--jobs N`` fans independent
    runs (sweeps, MST searches) across N worker processes;
    ``--cache-dir`` reuses finished runs from a content-addressed
    on-disk cache across invocations.
all [--scale ...] [--out DIR] [--jobs N] [--cache-dir DIR]
    Regenerate every table and figure through one runner, then write
    ``DIR/EXPERIMENTS.md`` from these outputs.
query NAME --protocol P [--parallelism N] [--rate R] [--failure-at T] ...
    Run a single configuration and print its summary (exploration tool).
cache-stats DIR
    Inspect a run-cache directory: entries, bytes, compression ratio.

``--jobs 0`` (or ``--jobs auto``) resolves to ``os.cpu_count()`` on
``run``/``all`` and on a ``query --shards N`` above 1, announced in a
banner.  Ctrl-C on any of the three prints ``interrupted: <n> finished,
<m> in flight abandoned`` on stderr and exits 130; finished runs stay in
``--cache-dir``.
"""

from __future__ import annotations

import argparse
import math
import os
import pathlib
import sys
import time
import traceback

from repro.dataflow.keygroups import validate_key_space
from repro.dataflow.runtime import check_topology
from repro.experiments import experiments_md, figures
from repro.experiments.config import scale_by_name
from repro.experiments.parallel import ParallelRunner, RunRequest
from repro.metrics.report import format_recoveries
from repro.metrics.series import percentile
from repro.sim.failure import (
    SCENARIOS,
    AdaptiveIntervalController,
    scenario_from_config,
)
from repro.sim.specs import usage
from repro.workloads.arrivals import ARRIVALS, parse_arrival
from repro.workloads.cyclic import REACHABILITY
from repro.workloads.nexmark import QUERIES


def _count_or_auto(value: str) -> int | str:
    """Parse ``--jobs``: a count of at least zero, or ``auto``."""
    if value == "auto":
        return value
    number = int(value)
    if number < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 or 'auto', got {value!r}")
    return number


def _positive_int(value: str) -> int:
    """Parse ``--shards``: a whole number of at least one."""
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value!r}")
    return number


def _positive_float(value: str) -> float:
    """Parse ``--rate`` / ``--duration``: a finite number above zero."""
    number = float(value)
    if not 0.0 < number < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {value!r}")
    return number


def _ratio(value: str) -> float:
    """Parse ``--hot-ratio``: a share in [0, 1]."""
    number = float(value)
    if not 0.0 <= number <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {value!r}")
    return number


def _resolve_jobs(jobs: int | str) -> int:
    """Resolve ``--jobs``: 0 / ``auto`` means one worker per CPU (a
    banner says so when a resolution actually happened)."""
    if jobs == "auto" or jobs == 0:
        resolved = max(1, os.cpu_count() or 1)
        print(f"[jobs] resolved to {resolved} worker process(es) "
              "(os.cpu_count)")
        return resolved
    return int(jobs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CheckMate reproduction: checkpointing protocols for "
                    "streaming dataflows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="regenerate one paper table/figure")
    run.add_argument("experiment", choices=sorted(figures.SPECS))
    _add_common(run)

    everything = sub.add_parser("all", help="regenerate every table and figure")
    _add_common(everything)

    query = sub.add_parser("query", help="run a single configuration")
    query.add_argument("name", choices=sorted(QUERIES) + ["reachability"])
    query.add_argument("--protocol", default="coor",
                       choices=["none", "coor", "coor-unaligned", "unc", "cic"])
    query.add_argument("--parallelism", type=int, default=4)
    query.add_argument("--rate", type=_positive_float, default=None,
                       help="records/second (default: 60%% of capacity hint)")
    query.add_argument("--duration", type=_positive_float, default=30.0)
    query.add_argument("--warmup", type=float, default=5.0)
    query.add_argument("--failure-at", type=float, default=None)
    query.add_argument("--failure-scenario", default=None,
                       help="failure-scenario spec (DESIGN.md §12), one of "
                            f"{', '.join(usage(SCENARIOS))}; overrides "
                            "--failure-at")
    query.add_argument("--hot-ratio", type=_ratio, default=0.0)
    query.add_argument("--arrival", default=None,
                       help="arrival-process spec (DESIGN.md §17), one of "
                            f"{', '.join(usage(ARRIVALS))}; default keeps "
                            "the rate constant (steady)")
    query.add_argument("--checkpoint-interval", type=float, default=5.0)
    query.add_argument("--interval-policy", default="fixed",
                       choices=["fixed", "adaptive"],
                       help="checkpoint-interval policy: fixed keeps "
                            "--checkpoint-interval, adaptive retunes it to "
                            "the Young–Daly optimum from observed "
                            "checkpoint costs and failure gaps (DESIGN.md §12)")
    query.add_argument("--state-backend", default="full",
                       choices=["full", "changelog"],
                       help="checkpoint state backend: full snapshots or "
                            "incremental changelog deltas (DESIGN.md §10)")
    query.add_argument("--rescale-to", type=int, default=None,
                       help="restore the recovery at this parallelism "
                            "instead of the checkpoint's (requires "
                            "--failure-at or --failure-scenario; "
                            "DESIGN.md §11)")
    query.add_argument("--rescale-at", type=int, default=1,
                       help="which recovery applies the rescale, from 1 "
                            "(default: the first failure's)")
    query.add_argument("--max-key-groups", type=int, default=128,
                       help="size of the key-group address space keyed "
                            "routing and state are partitioned over")
    query.add_argument("--channel-capacity", type=int, default=0,
                       help="per-channel credit budget in bytes for "
                            "credit-based flow control; 0 (default) keeps "
                            "channels unbounded (DESIGN.md §13)")
    query.add_argument("--shards", type=_positive_int, default=1,
                       help="split this one run into N independent "
                            "key-group shards and merge their results "
                            "(requires all source out-edges to be "
                            "KEY-partitioned); only the record-additive "
                            "statistics equal the unsharded run's "
                            "(DESIGN.md §15)")
    query.add_argument("--jobs", type=_count_or_auto, default=0,
                       help="worker processes for --shards; 0 or 'auto' "
                            "(the default) resolves to os.cpu_count()")
    query.add_argument("--seed", type=int, default=7)

    stats = sub.add_parser("cache-stats",
                           help="inspect a run-cache directory")
    stats.add_argument("cache_dir",
                       help="content-addressed run cache directory "
                            "(the --cache-dir of run/all)")
    return parser


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scale", default="default",
                     choices=["quick", "default", "full"],
                     help="parameter grid (default: default)")
    sub.add_argument("--out", default="results",
                     help="directory for the rendered text blocks")
    sub.add_argument("--jobs", type=_count_or_auto, default=1,
                     help="worker processes for independent runs "
                          "(default: 1; 0 or 'auto': one per CPU)")
    sub.add_argument("--cache-dir", default=None,
                     help="content-addressed run cache shared across invocations")


def _cmd_list() -> int:
    print("experiments (paper artifacts, extensions, ablations):")
    width = max(map(len, figures.SPECS))
    for name, spec in sorted(figures.SPECS.items()):
        print(f"  {name:<{width}} {spec.heading}")
    print("\nscales: quick (CI smoke), default (shape grid), full (paper grid)")
    return 0


def _write(out_dir: str, filename: str, text: str) -> pathlib.Path:
    directory = pathlib.Path(out_dir)
    directory.mkdir(exist_ok=True)
    path = directory / filename
    path.write_text(text, encoding="utf-8")
    return path


def _emit(out_dir: str, name: str, text: str) -> None:
    print(text)
    print()
    _write(out_dir, f"{name}.txt", text + "\n")


def _print_cache(args, runner: ParallelRunner) -> None:
    """The run cache's tally, under ``--cache-dir``."""
    if args.cache_dir is not None:
        print(f"[cache] served={runner.hits} simulated={runner.misses} "
              f"hit-ratio={runner.hit_ratio:.0%}")


def _interrupted(runner: ParallelRunner) -> int:
    """Ctrl-C: drop the pool and what is in flight, say so, exit 130."""
    finished, abandoned = runner.finished, runner.close()
    print(f"interrupted: {finished} finished, {abandoned} in flight "
          "abandoned", file=sys.stderr)
    return 130


def _cmd_run(args) -> int:
    scale = scale_by_name(args.scale)
    started = time.time()
    with ParallelRunner(jobs=_resolve_jobs(args.jobs),
                        cache_dir=args.cache_dir) as runner:
        try:
            out = figures.run_figure(figures.SPECS[args.experiment], scale,
                                     runner)
        except KeyboardInterrupt:
            return _interrupted(runner)
    _print_cache(args, runner)
    _emit(args.out, args.experiment, out["text"])
    print(f"[{args.experiment}] scale={scale.name} "
          f"wall={time.time() - started:.1f}s")
    return 0 if all(ok for _, ok in out["checks"]) else 1


def _cmd_all(args) -> int:
    scale = scale_by_name(args.scale)
    status = 0
    with ParallelRunner(jobs=_resolve_jobs(args.jobs),
                        cache_dir=args.cache_dir) as runner:
        try:
            for name, spec in figures.SPECS.items():
                started = time.time()
                # an earlier sweep's block must not stand in for a figure
                # that fails in this one (EXPERIMENTS.md reads every file)
                pathlib.Path(args.out, f"{name}.txt").unlink(missing_ok=True)
                try:
                    out = figures.run_figure(spec, scale, runner)
                except Exception as exc:  # one broken figure must not kill the sweep
                    # str() of an AssertionError or KeyError is empty or
                    # one word: name the type here, the place on stderr.
                    # A run that died arrives as RunFailed, whose message
                    # names the request (query, protocol, parallelism,
                    # seed, rate, shard)
                    print(f"[{name}] FAILED: {type(exc).__name__}: {exc}\n")
                    traceback.print_exc()
                    status = 1
                    continue
                _emit(args.out, name, out["text"])
                print(f"[{name}] scale={scale.name} "
                      f"wall={time.time() - started:.1f}s\n")
                if not all(ok for _, ok in out["checks"]):
                    status = 1
        except KeyboardInterrupt:
            return _interrupted(runner)
    _print_cache(args, runner)
    path = _write(args.out, "EXPERIMENTS.md",
                  experiments_md.assemble(args.out, scale.name))
    print(f"[all] wrote {path}")
    return status


def _cmd_query(args) -> int:
    spec = REACHABILITY if args.name == "reachability" else QUERIES[args.name]
    rate = (args.rate if args.rate is not None
            else spec.capacity_per_worker * args.parallelism * 0.6)
    from repro.experiments.sharding import (
        ShardingError,
        run_sharded,
        validate_shardable,
    )

    request = RunRequest(
        query=spec.name, protocol=args.protocol,
        parallelism=args.parallelism, rate=rate,
        duration=args.duration, warmup=args.warmup,
        failure_at=args.failure_at, hot_ratio=args.hot_ratio,
        checkpoint_interval=args.checkpoint_interval, seed=args.seed,
        state_backend=args.state_backend,
        rescale_to=args.rescale_to, rescale_at=args.rescale_at,
        max_key_groups=args.max_key_groups,
        failure_scenario=args.failure_scenario,
        interval_policy=args.interval_policy,
        channel_capacity_bytes=args.channel_capacity,
        arrival=args.arrival,
    )
    try:
        # RuntimeConfig names the bad field, the parser the bad spec token
        scenario = scenario_from_config(request.effective_config())
        arrival_banner = (parse_arrival(args.arrival).describe()
                          if args.arrival is not None else None)
        for flag, workers in (("--parallelism", args.parallelism),
                              ("--rescale-to", args.rescale_to)):
            if workers is not None \
                    and not 1 <= workers <= args.max_key_groups:
                raise ValueError(
                    f"{flag} must be between 1 and --max-key-groups "
                    f"({args.max_key_groups}), got {workers}")
        if spec is REACHABILITY and args.hot_ratio:
            raise ValueError(f"--hot-ratio must be 0: reachability has no "
                             f"hot keys, got {args.hot_ratio}")
        # what the run itself would refuse, refused before it starts
        graph = spec.build_graph(args.parallelism)
        check_topology(graph, args.protocol, args.channel_capacity)
        if args.shards > 1:
            validate_key_space(args.shards, args.max_key_groups,
                               context="--shards")
            try:
                validate_shardable(graph)
            except ShardingError as exc:
                raise ValueError(f"--shards {args.shards}: {exc}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # without --shards the run is one process: there is nothing to resolve
    jobs = (min(_resolve_jobs(args.jobs), args.shards) if args.shards > 1
            else 1)
    with ParallelRunner(jobs=jobs) as runner:
        try:
            result = (run_sharded(request, args.shards, runner)
                      if args.shards > 1 else runner.run(request))
        except KeyboardInterrupt:
            return _interrupted(runner)
    if args.shards > 1:
        print(f"[sharded] {args.shards} key-group shards across "
              f"{jobs} worker processes")
        print("[sharded] only record counts and data bytes equal the "
              "unsharded run's: checkpoint counts are per-shard sums, "
              "durations are over shard-sized state (DESIGN.md §15)")
    series = result.latency_series()
    p50 = percentile([v for v in series.p50 if v > 0], 50)
    p99 = percentile([v for v in series.p99 if v > 0], 50)
    workers = (f"{result.parallelism}->{result.final_parallelism}"
               if result.rescaled else f"{result.parallelism}")
    print(f"query={result.query} protocol={result.protocol} "
          f"workers={workers} rate={rate:.0f} rec/s")
    if arrival_banner is not None:
        print(f"  arrival process  : {arrival_banner}")
    print(f"  sink records     : {sum(result.metrics.sink_counts.values())}")
    print(f"  p50 / p99        : {p50 * 1000:.1f} ms / {p99 * 1000:.1f} ms")
    print(f"  checkpoints      : {result.total_checkpoints()} "
          f"(avg {result.avg_checkpoint_time() * 1000:.2f} ms)")
    uploaded = result.metrics.checkpoint_bytes_uploaded
    materialized = result.metrics.checkpoint_bytes_materialized
    ratio = uploaded / materialized if materialized else 1.0
    print(f"  ckpt bytes       : {uploaded} uploaded / "
          f"{materialized} materialized ({ratio:.2f}x, "
          f"backend={args.state_backend})")
    print(f"  message overhead : {result.metrics.overhead_ratio():.2f}x")
    if args.channel_capacity > 0:
        m = result.metrics
        print(f"  backpressure     : {result.blocked_time():.2f} s blocked "
              f"({m.sends_parked} parks, peak queue "
              f"{m.peak_total_in_flight_bytes} B)")
    if args.interval_policy == "adaptive":
        updates = result.metrics.interval_updates
        if updates:
            final = updates[-1][1]
        else:
            # no adjustment was recorded: the controller held its
            # initial interval, clamped to its bounds
            final = AdaptiveIntervalController(
                initial_interval=args.checkpoint_interval).interval
        print(f"  adaptive interval: {final:.2f} s "
              f"({len(updates)} adjustments)")
    if scenario is not None:
        m = result.metrics
        print(f"  failure scenario : {scenario.describe()}")
        wrapped = scenario.wrapped(args.parallelism)
        if wrapped:
            print(f"  wrapped indices  : {wrapped} (a worker index is "
                  "taken modulo the live parallelism)")
        print(f"  failures injected: {m.n_failures} "
              f"({m.n_recoveries} recoveries)")
        if m.recoveries:
            print(format_recoveries(m.recoveries))
        print(f"  availability     : {result.availability():.1%}")
        print(f"  goodput          : {result.goodput():.0f} rec/s of uptime")
        if result.restart_time() >= 0:
            print(f"  restart time     : {result.restart_time() * 1000:.0f} ms")
        if result.recovery_time() >= 0:
            print(f"  recovery time    : {result.recovery_time():.1f} s")
        first = m.first_failure()
        if first is not None and first.detected_at is not None:
            print(f"  invalid ckpts    : {first.invalid_checkpoints} "
                  f"of {first.total_checkpoints}")
        print(f"  replayed messages: "
              f"{first.replayed_messages if first is not None else 0}")
    if result.rescaled:
        rescale = result.metrics.first_failure(rescaled=True)
        print(f"  rescaled         : {rescale.rescale[0]} -> "
              f"{rescale.rescale[1]} workers at t={rescale.applied_at:.1f}s "
              f"(group imbalance {rescale.group_imbalance():.2f}x)")
    return 0


def _cmd_cache_stats(args) -> int:
    """Report entry count, bytes and compression ratio of a run cache."""
    from repro.experiments.parallel import RunCache

    path = pathlib.Path(args.cache_dir)
    if not path.is_dir():
        print(f"no cache directory at {path}", file=sys.stderr)
        return 2
    stats = RunCache(path).stats()
    print(f"[cache-stats] {path}")
    print(f"  entries          : {int(stats['entries'])}")
    if stats["stale_files"]:
        print(f"  stale files      : {int(stats['stale_files'])} "
              "(older cache format; read as misses)")
    if stats["quarantined"]:
        print(f"  quarantined      : {int(stats['quarantined'])} "
              "(damaged entries moved aside as *.pkl.bad)")
    print(f"  entry bytes      : {int(stats['entry_bytes'])} on disk / "
          f"{int(stats['raw_bytes'])} raw")
    print(f"  total bytes      : {int(stats['total_bytes'])}")
    print(f"  compressed ratio : {stats['ratio']:.2f}x" if stats["raw_bytes"]
          else "  compressed ratio : n/a (no decodable entries)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to the selected subcommand."""
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "all":
        return _cmd_all(args)
    if args.command == "query":
        return _cmd_query(args)
    if args.command == "cache-stats":
        return _cmd_cache_stats(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
