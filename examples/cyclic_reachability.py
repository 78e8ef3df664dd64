#!/usr/bin/env python
"""Cyclic dataflow: the query COOR cannot run, and the domino effect
that never happens.

Builds the paper's reachability query (Fig. 6) whose PROJECT operator
feeds results back into the JOIN — a true dataflow cycle:

* shows that the coordinated protocol *rejects* the topology (an aligned
  marker would have to originate from the operator itself: deadlock);
* runs UNC and CIC, reporting checkpoint time, restart time and invalid
  checkpoints (paper Table IV);
* finds every checkpoint on a Z-cycle (one pass over checkpoint
  intervals) to demonstrate the paper's surprise: the uncoordinated
  protocol exhibits **no domino effect** even on a cyclic query, and
  CIC's forced checkpoints leave no useless checkpoint at all.

Run:  python examples/cyclic_reachability.py
"""

from repro.dataflow.graph import UnsupportedTopologyError
from repro.dataflow.runtime import Job
from repro.metrics.report import format_table
from repro.sim.costs import RuntimeConfig
from repro.workloads.cyclic import REACHABILITY


def main() -> None:
    parallelism = 5
    rate = 600.0  # ~70% of the cyclic query MST at this parallelism
    print(REACHABILITY.build_graph(parallelism).describe())
    print()

    # 1. COOR cannot handle the cycle
    try:
        inputs = REACHABILITY.make_job_inputs(rate, 5.0, parallelism)
        Job(REACHABILITY.build_graph(parallelism), "coor", parallelism,
            inputs, RuntimeConfig())
    except UnsupportedTopologyError as exc:
        print(f"COOR rejected, as the paper predicts: {exc}")
    print()

    # 2. UNC vs CIC on the cycle, with a failure near the end of the run
    rows = []
    jobs = {}
    for protocol in ["unc", "cic"]:
        config = RuntimeConfig(duration=40.0, warmup=5.0, failure_at=32.0)
        inputs = REACHABILITY.make_job_inputs(rate, 46.0, parallelism)
        job = Job(REACHABILITY.build_graph(parallelism), protocol,
                  parallelism, inputs, config)
        result = job.run(rate=rate, query_name="reachability")
        jobs[protocol] = job
        rows.append([
            protocol,
            result.avg_checkpoint_time() * 1000.0,
            result.restart_time() * 1000.0,
            result.invalid_percentage(),
            result.metrics.forced_checkpoints,
            sum(result.metrics.sink_counts.values()),
        ])
    print(format_table(
        ["protocol", "avg CT (ms)", "restart (ms)", "invalid %",
         "forced ckpts", "reachability facts out"],
        rows, title=f"cyclic query on {parallelism} workers (paper Table IV)",
    ))
    print()

    # 3. Z-cycle analysis: is there a domino effect?
    for protocol, job in jobs.items():
        zcycles = job.protocol.zcycle_analysis()
        print(f"{protocol}: useless checkpoints (on a Z-cycle): "
              f"{len(zcycles.useless)}, domino depth: {zcycles.domino_depth}")
    print()
    print("Depth 0-1 means recovery never cascades: the paper's conclusion is")
    print("that the theoretical domino effect does not bite in practice, so")
    print("CIC's expensive piggybacking buys little on real streaming topologies.")


if __name__ == "__main__":
    main()
