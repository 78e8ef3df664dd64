"""Ablation: checkpoint-interval sweep (not in the paper's figures).

The paper fixes one checkpoint interval; this ablation sweeps it to expose
the trade-off the protocols sit on: shorter intervals shrink the rollback
window (faster recovery, fewer replayed messages) but cost more rounds /
snapshots.  COOR's alignment makes its cost grow much faster than UNC's
as the interval shrinks.
"""

from repro.experiments.config import current_scale
from repro.experiments.runner import run_query
from repro.metrics.report import format_table, shape_report
from repro.workloads.nexmark import QUERIES

from benchmarks._common import emit

INTERVALS = (1.5, 3.0, 5.0, 10.0)


def run_sweep() -> dict:
    scale = current_scale()
    spec = QUERIES["q12"]
    parallelism = 4
    rate = spec.capacity_per_worker * parallelism * 0.55
    rows = []
    measured = {}
    for protocol in ("coor", "unc"):
        for interval in INTERVALS:
            result = run_query(
                spec, protocol, parallelism, rate=rate,
                duration=scale.duration, warmup=scale.warmup,
                failure_at=scale.failure_at,
                checkpoint_interval=interval,
                seed=scale.seed,
            )
            total = result.total_checkpoints()
            ct = result.avg_checkpoint_time() * 1000.0
            recovery = result.recovery_time()
            replayed = result.metrics.replayed_records
            measured[(protocol, interval)] = (total, recovery, replayed)
            rows.append([protocol, interval, total, ct, recovery, replayed])
    checks = [
        ("shorter intervals mean more checkpoints for both protocols",
         all(measured[(p, INTERVALS[0])][0] > measured[(p, INTERVALS[-1])][0]
             for p in ("coor", "unc"))),
        ("UNC's replay volume grows with the interval (rollback window)",
         measured[("unc", INTERVALS[0])][2] <= measured[("unc", INTERVALS[-1])][2]),
    ]
    text = format_table(
        ["protocol", "interval (s)", "checkpoints", "avg CT (ms)",
         "recovery (s)", "replayed records"],
        rows, title="Ablation — checkpoint interval sweep (Q12, 4 workers)",
    ) + "\n" + shape_report("shape checks:", checks)
    return {"rows": rows, "checks": checks, "text": text}


def test_ablation_interval(benchmark):
    out = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    emit("ablation_interval", out["text"])
    assert all(ok for _, ok in out["checks"])
