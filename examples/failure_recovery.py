#!/usr/bin/env python
"""Failure and recovery: watch the three protocols ride through a crash.

Runs NexMark Q12 (windowed count, keyed shuffle) at 80% of each protocol's
measured maximum sustainable throughput, kills worker 0 eighteen seconds
into the measured window (as the paper does), and prints:

* the per-second p50 latency series around the failure (Fig. 9's shape),
* restart time (Fig. 11) and recovery time,
* invalid checkpoints at the failure (Table III),
* how many in-flight messages UNC/CIC replayed from their logs.

Run:  python examples/failure_recovery.py
"""

from repro.experiments.runner import run_query
from repro.metrics.mst import find_mst
from repro.metrics.report import format_recoveries, format_series, format_table
from repro.workloads.nexmark import QUERIES


def main() -> None:
    spec = QUERIES["q12"]
    parallelism = 4
    rows = []
    for protocol in ["coor", "unc", "cic"]:
        mst = find_mst(spec, protocol, parallelism,
                       probe_duration=8.0, warmup=4.0, iterations=2).mst
        result = run_query(
            spec, protocol, parallelism,
            rate=0.8 * mst,
            duration=45.0, warmup=5.0,
            failure_at=18.0,
        )
        series = result.latency_series()
        print(format_series(
            f"--- {protocol} @ 80% MST ({0.8 * mst:.0f} rec/s), "
            f"failure at t=18s — p50 per second",
            series.seconds, series.p50, step=3,
        ))
        # one line per recovery: a multi-failure run shows every one
        print(format_recoveries(result.metrics.recoveries))
        first = result.metrics.first_failure()
        print()
        rows.append([
            protocol,
            round(mst),
            result.restart_time() * 1000.0,
            result.recovery_time(),
            first.invalid_checkpoints,
            first.total_checkpoints,
            first.replayed_messages,
        ])
    print(format_table(
        ["protocol", "MST (rec/s)", "restart (ms)", "recovery (s)",
         "invalid ckpts", "ckpts at failure", "replayed msgs"],
        rows, title="Q12 failure summary (paper Figs. 9/11, Table III)",
    ))
    print()
    print("COOR restores the last aligned round: nothing to replay, fast restart.")
    print("UNC/CIC compute a recovery line (rollback propagation) and replay the")
    print("in-flight messages of that line from their durable send logs.")


if __name__ == "__main__":
    main()
