"""Ablation: UNC's message-logging tax and its configurability lever.

Two sub-experiments around Section III-B:

* sweep the per-record log-append CPU cost and measure UNC's MST — the
  logging tax is exactly the COOR-vs-UNC throughput gap of Figure 7;
* toggle ``unc_checkpoint_stateless`` (the paper notes stateless non-source
  operators need not participate in uncoordinated checkpointing) and
  compare checkpoint counts and blob traffic.
"""

import dataclasses

from repro.dataflow.runtime import Job
from repro.experiments.config import current_scale
from repro.metrics.mst import find_mst
from repro.metrics.report import format_table, shape_report
from repro.sim.costs import CostModel, RuntimeConfig
from repro.workloads.nexmark import QUERIES

from benchmarks._common import emit

LOG_COST_MULTIPLIERS = (0.0, 1.0, 2.0, 4.0)


def run_logging_sweep() -> dict:
    scale = current_scale()
    spec = QUERIES["q1"]
    parallelism = 4
    rows = []
    msts = {}
    base_cost = CostModel()
    for mult in LOG_COST_MULTIPLIERS:
        cost_model = dataclasses.replace(
            base_cost,
            log_append_per_record=base_cost.log_append_per_record * mult,
            log_append_per_byte=base_cost.log_append_per_byte * mult,
        )
        config = RuntimeConfig(seed=scale.seed, cost_model=cost_model)
        result = find_mst(
            spec, "unc", parallelism,
            probe_duration=scale.probe_duration, warmup=scale.probe_warmup,
            iterations=scale.mst_iterations, seed=scale.seed, config=config,
        )
        msts[mult] = result.mst
        rows.append(["unc", f"{mult:.1f}x", round(result.mst)])

    # configurability: exclude stateless operators from checkpointing
    count_rows = []
    for flag in (True, False):
        config = RuntimeConfig(duration=min(scale.duration, 30.0),
                               warmup=min(scale.warmup, 5.0),
                               unc_checkpoint_stateless=flag, seed=scale.seed)
        rate = spec.capacity_per_worker * parallelism * 0.5
        inputs = spec.make_job_inputs(rate, config.warmup + config.duration + 1,
                                      parallelism, 0.0, scale.seed)
        job = Job(spec.build_graph(parallelism), "unc", parallelism, inputs, config)
        result = job.run(rate=rate, query_name="q1")
        count_rows.append([
            "all operators" if flag else "stateful+sources only",
            result.total_checkpoints(),
            job.coordinator.blobstore.bytes_written,
        ])

    checks = [
        ("MST decreases monotonically with the logging cost",
         all(msts[a] >= msts[b] * 0.97
             for a, b in zip(LOG_COST_MULTIPLIERS, LOG_COST_MULTIPLIERS[1:]))),
        ("excluding stateless operators takes fewer checkpoints",
         count_rows[1][1] < count_rows[0][1]),
    ]
    text = (
        format_table(["protocol", "log cost", "MST (rec/s)"], rows,
                     title="Ablation — UNC logging tax (Q1, 4 workers)")
        + "\n\n"
        + format_table(["participants", "checkpoints", "blob bytes"], count_rows,
                       title="Ablation — UNC checkpoint participation")
        + "\n" + shape_report("shape checks:", checks)
    )
    return {"rows": rows + count_rows, "checks": checks, "text": text}


def test_ablation_logging(benchmark):
    out = benchmark.pedantic(run_logging_sweep, rounds=1, iterations=1)
    emit("ablation_logging", out["text"])
    assert all(ok for _, ok in out["checks"])
