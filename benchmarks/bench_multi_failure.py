"""Multi-failure scenario sweep: availability/goodput per protocol.

Regenerates the ``multi_failure`` extension figure (protocol x failure
scenario, plus the adaptive-interval variant of the Poisson stream) and
records availability, goodput, recovery counts and restart times in
``results/BENCH_multi_failure.json`` so the failure-resilience trajectory
is tracked across revisions, not just steady-state throughput.
"""

import json

from repro.experiments import figures

from benchmarks._common import RESULTS_DIR, checks_pass, emit


def test_multi_failure_scenarios(benchmark):
    """Run the multi_failure figure once and persist its measurements."""
    out = benchmark.pedantic(
        figures.ALL_EXPERIMENTS["multi_failure"], rounds=1, iterations=1
    )
    emit("multi_failure", out["text"])
    payload = {
        f"{protocol}/{label}/{policy}": {
            "availability": m["availability"],
            "goodput": m["goodput"],
            "failures": m["failures"],
            "recoveries": m["recoveries"],
            "restart_ms": m["restart_ms"],
            "interval_updates": m["interval_updates"],
        }
        for (protocol, label, policy), m in out["measured"].items()
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_multi_failure.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    assert checks_pass(out), [c for c in out["checks"] if not c[1]]
