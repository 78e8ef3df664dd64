"""Ablation: per-operator checkpoint schedules (UNC configurability).

Section III-B argues a strength of the uncoordinated family is that
operators can checkpoint on their own schedule — for instance a windowed
aggregation "can checkpoint right after the aggregate is calculated in
order to avoid storing the large window's contents".  This ablation
demonstrates exactly that on Q12: scheduling the window operator's
snapshots just after the tumbling-window boundary (state near-empty)
versus mid-window (state full) changes the checkpointed bytes, at
identical exactly-once guarantees.
"""

from repro.dataflow.runtime import Job
from repro.experiments.config import current_scale
from repro.metrics.report import format_table, shape_report
from repro.sim.costs import RuntimeConfig
from repro.workloads.nexmark import QUERIES
from repro.workloads.nexmark.queries import WINDOW_SECONDS

from benchmarks._common import emit


def _run(schedules, scale):
    spec = QUERIES["q12"]
    parallelism = 4
    rate = spec.capacity_per_worker * parallelism * 0.5
    config = RuntimeConfig(
        checkpoint_interval=5.0,
        duration=min(scale.duration, 40.0),
        warmup=min(scale.warmup, 5.0),
        seed=scale.seed,
        per_operator_schedules=schedules,
    )
    inputs = spec.make_job_inputs(rate, config.warmup + config.duration + 1.0,
                                  parallelism, 0.0, scale.seed)
    job = Job(spec.build_graph(parallelism), "unc", parallelism, inputs, config)
    result = job.run(rate=rate, query_name="q12")
    window_ckpts = [
        e for e in result.metrics.checkpoints
        if e.kind == "local" and e.instance[0] == "count_window"
    ]
    avg_bytes = (sum(e.state_bytes for e in window_ckpts) / len(window_ckpts)
                 if window_ckpts else 0.0)
    return len(window_ckpts), avg_bytes


def run_comparison() -> dict:
    scale = current_scale()
    # boundary-aligned: fire 0.4 s after each tumbling window closes
    boundary = {"count_window": (WINDOW_SECONDS, WINDOW_SECONDS + 0.4)}
    # mid-window: fire halfway through each window, state at its fullest
    mid = {"count_window": (WINDOW_SECONDS, WINDOW_SECONDS / 2)}
    rows = []
    measured = {}
    for label, schedules in [("default (jittered 5s)", None),
                             ("window-boundary", boundary),
                             ("mid-window", mid)]:
        count, avg_bytes = _run(schedules, scale)
        measured[label] = (count, avg_bytes)
        rows.append([label, count, avg_bytes])
    checks = [
        ("boundary-aligned snapshots are smaller than mid-window ones",
         measured["window-boundary"][1] < measured["mid-window"][1]),
    ]
    text = format_table(
        ["window-operator schedule", "checkpoints", "avg ckpt bytes"],
        rows,
        title="Ablation — per-operator checkpoint schedules (Q12, UNC)",
    ) + "\n" + shape_report("shape checks:", checks)
    return {"rows": rows, "checks": checks, "text": text}


def test_ablation_schedules(benchmark):
    out = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    emit("ablation_schedules", out["text"])
    assert all(ok for _, ok in out["checks"])
