"""One measuring process: set up a workload, repeat its cases, report.

``python3 -m perfbench.child WORKLOAD SEED BUDGET_S TRACE SPAWNED_AT`` is
started by :mod:`perfbench.harness`, never by hand.  It builds the cases,
runs them round-robin until ``BUDGET_S`` of wall time is spent (one case at
a time, closed loop; with a budget of 0 it stops after set-up), optionally
adds one repetition under ``cProfile``, and prints one JSON report as its
last line.  Every repetition is timed and every timed section is bracketed
by the calibration kernel.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import resource
import statistics
import sys
import time
from typing import Any

from perfbench import calibration, digest, layers
from perfbench.env import ensure_repro, scratch_dir


def execute(case: Any, entry: dict[str, Any], sensitivity: float,
            profile: cProfile.Profile | None = None) -> tuple[float, float]:
    """Run one case once and check its output against ``entry``.

    Returns the section's wall time and the calibration kernel's time
    around it (see :mod:`perfbench.calibration`).
    """
    gc.collect()  # no case pays for the garbage of the one before it
    before = [calibration.spin(), calibration.spin()]
    if profile is not None:
        profile.enable()
    start = time.perf_counter()
    output = case.run()
    elapsed = time.perf_counter() - start
    if profile is not None:
        profile.disable()
    kernel = calibration.bracket(before, elapsed)
    seen = case.inspect(output)
    mark = digest.fingerprint(seen.stats)
    if entry["fingerprint"] is None:
        entry.update(fingerprint=mark, records=seen.records,
                     counters=seen.counters)
    elif mark["digest"] != entry["fingerprint"]["digest"] and not entry["why"]:
        entry["why"] = ("not deterministic across repetitions: "
                        + digest.first_difference(entry["fingerprint"], mark))
    if seen.why and not entry["why"]:
        entry["why"] = seen.why
    for name, value in seen.timings.items():
        value = calibration.normalised(value, kernel, sensitivity)
        entry["timings"][name] = min(value, entry["timings"].get(name, value))
    return elapsed, kernel


def measure(cases: list[Any], budget: float,
            sensitivity: float) -> tuple[list[dict[str, Any]], int]:
    """Round-robin repetitions until ``budget`` seconds are spent."""
    entries = [
        {"id": case.id, "scored": case.scored, "traced": case.traced,
         "records": 0, "samples_s": [], "kernel_s": [], "fingerprint": None,
         "why": None, "counters": {}, "timings": {}}
        for case in cases
    ]
    start = time.perf_counter()
    repetitions = 0
    while True:
        for case, entry in zip(cases, entries):
            # seams are sampled once per process, in its second repetition:
            # the first still pays one-off costs (lazy imports, cold caches)
            if case.scored or repetitions == 1:
                elapsed, kernel = execute(case, entry, sensitivity)
                entry["samples_s"].append(elapsed)
                entry["kernel_s"].append(kernel)
        repetitions += 1
        elapsed = time.perf_counter() - start
        # start another repetition only if at least half of it fits; two
        # at least, so that every case has been run
        if repetitions > 1 and elapsed + 0.5 * elapsed / repetitions > budget:
            return entries, repetitions


def traced_pass(cases: list[Any], entries: list[dict[str, Any]],
                sensitivity: float) -> dict[str, Any]:
    """One more repetition of the traced cases under ``cProfile``."""
    profile = cProfile.Profile()
    wall = 0.0
    kernels = []
    for case, entry in zip(cases, entries):
        if case.traced:
            elapsed, kernel = execute(case, entry, sensitivity, profile)
            wall += calibration.normalised(elapsed, kernel, sensitivity)
            kernels.append(kernel)
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    return {
        "wall_s": wall,
        "kernel_s": statistics.fmean(kernels),
        "layers": layers.attribute(stats),
        "events": layers.calls_named(stats, "repro/sim/events", "pop"),
    }


def main(argv: list[str]) -> int:
    """Run one workload in this process and print the report."""
    workload, seed, budget, trace, spawned_at = argv
    ensure_repro()
    from perfbench import workloads

    report: dict[str, Any] = {}
    sensitivity = workloads.SENSITIVITY[workload]
    with scratch_dir("child-") as scratch:
        cases = workloads.BUILDERS[workload](int(seed), scratch)
        # pre-generated inputs live for the whole process: keep the
        # collector from re-traversing them during (and between) cases
        gc.collect()
        gc.freeze()
        report["setup_s"] = time.time() - float(spawned_at)
        if float(budget) > 0:  # else: a set-up-only process
            report["cases"], report["repetitions"] = measure(
                cases, float(budget), sensitivity)
        if int(trace):
            report["trace"] = traced_pass(cases, report["cases"], sensitivity)
            seams = workloads.SEAMS.get(workload)
            report["seams"] = seams(int(seed), scratch) if seams else {}
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    report["rss_mb"] = usage / 1024.0  # Linux reports KiB
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
