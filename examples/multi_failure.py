#!/usr/bin/env python
"""Multi-failure scenarios with an MTBF-adaptive checkpoint interval.

Runs NexMark Q12 under a seeded Poisson failure stream (MTBF ~8 s — a
deliberately hostile failure rate) twice: once with the paper's fixed
checkpoint interval and once with the adaptive (Young–Daly) policy that
retunes the interval to ``sqrt(2 * MTBF * checkpoint_cost)`` from the
observed failure gaps and checkpoint durations (DESIGN.md §12).

Prints every recovery, the availability and goodput of both
runs, and the adaptive controller's interval trajectory.

Run:  python examples/multi_failure.py
"""

from repro.experiments.runner import run_query
from repro.metrics.report import format_recoveries, format_table
from repro.workloads.nexmark import QUERIES

SCENARIO = "poisson:mtbf=8,min_gap=5"


def main() -> None:
    """Run the fixed-vs-adaptive comparison and print the summary."""
    spec = QUERIES["q12"]
    parallelism = 4
    rate = spec.capacity_per_worker * parallelism * 0.4
    rows = []
    for policy in ("fixed", "adaptive"):
        result = run_query(
            spec, "unc", parallelism,
            rate=rate, duration=40.0, warmup=5.0,
            checkpoint_interval=5.0,
            failure_scenario=SCENARIO,
            interval_policy=policy,
        )
        m = result.metrics
        print(f"--- {policy} interval policy, scenario {SCENARIO!r}")
        print(format_recoveries(m.recoveries))
        if policy == "adaptive" and m.interval_updates:
            trajectory = " -> ".join(
                f"{interval:.2f}s@t={t:.0f}" for t, interval in m.interval_updates[:6]
            )
            more = (f" (+{len(m.interval_updates) - 6} more)"
                    if len(m.interval_updates) > 6 else "")
            print(f"    interval trajectory: 5.00s -> {trajectory}{more}")
        print()
        rows.append([
            policy,
            m.n_failures,
            m.n_recoveries,
            f"{result.availability():.1%}",
            round(result.goodput()),
            result.total_checkpoints(),
            (f"{m.interval_updates[-1][1]:.2f}"
             if m.interval_updates else "5.00"),
        ])
    print(format_table(
        ["policy", "failures", "recoveries", "availability",
         "goodput (rec/s)", "checkpoints", "final interval (s)"],
        rows, title="Q12 under a Poisson failure stream — fixed vs adaptive",
    ))
    print()
    print("With failures every ~8s the Young–Daly optimum sits well below")
    print("the default 5s interval: the adaptive run checkpoints more often,")
    print("so each rollback replays less work — availability and goodput")
    print("recover what the extra checkpoints cost.")


if __name__ == "__main__":
    main()
