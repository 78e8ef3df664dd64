#!/usr/bin/env python
"""Count ratchet for the message hop, the batch constants, admission, the
input log and the generators (DESIGN.md 19, 20, 22, 23).

Reads the output of ``python3 -m perfbench --workload paper --workload
dense --workload inputs --trace 1`` (seed 7) on stdin — one ``== NAME:
...`` header and one result object per workload — and fails when a
*count* of a traced pass left its pinned range.  Counts repeat exactly
per seed and interpreter version, so this gates a regression of the
per-event or per-batch Python chain, of a kernel's per-row calls, or of
the per-record log append or draw loop, without any timing noise::

    python3 -m perfbench --workload paper --workload dense \
        --workload inputs --seconds 5 --trace 1 \
        | python tools/check_perf_counts.py

Exit status 0 when every count of all three workloads holds, 1 otherwise
(a missing workload is a failure: a gate that was not run did not pass).
"""

from __future__ import annotations

import json
import sys

#: ``paper``, Python calls per offered record: ~5 % above the 54.17 that
#: array timestamps, column hot keys and inline cyclic draws landed at on
#: CPython 3.11 (staging each destination as its message's batch read
#: 54.78, the message hop without its helper frames 55.14, journal-only
#: admission 60.74, the cut batch constants 63.10, the generators drawing
#: columns 69.56, the columnar input log 71.6, the shortened hop 77.6,
#: the commit before it 119.1)
CALLS_PER_RECORD_CEILING = 56.8
#: ``dense``, Python calls per offered record: 17.15 landed (17.28 with a
#: buffer object per staged destination, 17.31 while every admission
#: probed a set, 18.44 before the kernels folded a batch in one pass);
#: one more call per row in a kernel or in KEY routing reads +1.0
DENSE_CALLS_PER_RECORD_CEILING = 17.9
#: ``inputs``, calls into ``repro.storage`` per generated record: the
#: generators hand whole columns over, a few calls per partition (0.002);
#: one checked ``append`` per record reads 1.0 and a row object per
#: record on top of it 5.12, where the row-object log stood
STORAGE_CALLS_PER_RECORD_CEILING = 0.5
#: ``inputs``, calls in the generators per generated record: ~5 % above
#: the 1.00 landed once shaped timestamps and hot keys became array work
#: and the cyclic query's draws ``getrandbits`` loops (2.79 with a resumed
#: emitter frame per shaped event, a hook call per hot row and
#: ``randrange``'s two frames per draw; 6.59 where the row loops stood)
GENERATOR_CALLS_PER_RECORD_CEILING = 1.05
#: simulated traffic that no host-side optimisation may move:
#: metric -> (expected at seed 7, tolerance = display rounding)
PINNED = {
    "sim.events_per_record": (2.00, 0.005),
    "dataflow.transport.messages_per_record": (0.654, 0.0005),
}


def check_paper(metrics: dict[str, dict[str, float]]) -> list[str]:
    """The violated bounds of the ``paper`` pass, one message each."""
    problems = []
    calls = metrics["total.calls_per_record"]["value"]
    if calls > CALLS_PER_RECORD_CEILING:
        problems.append(
            f"paper: total.calls_per_record = {calls:.2f} exceeds the "
            f"ceiling {CALLS_PER_RECORD_CEILING} (a frame crept back into "
            "the per-event path?)")
    for name, (expected, tolerance) in PINNED.items():
        value = metrics[name]["value"]
        if abs(value - expected) > tolerance:
            problems.append(f"paper: {name} = {value:.5f}, expected "
                            f"{expected} +/- {tolerance} at seed 7")
    return problems


def check_dense(metrics: dict[str, dict[str, float]]) -> list[str]:
    """The violated bounds of the ``dense`` pass, one message each."""
    calls = metrics["total.calls_per_record"]["value"]
    if calls > DENSE_CALLS_PER_RECORD_CEILING:
        return [
            f"dense: total.calls_per_record = {calls:.2f} exceeds the "
            f"ceiling {DENSE_CALLS_PER_RECORD_CEILING} (a call per row "
            "crept into a kernel or into routing?)"]
    return []


def check_inputs(metrics: dict[str, dict[str, float]]) -> list[str]:
    """The violated bounds of the ``inputs`` pass, one message each."""
    problems = []
    calls = metrics["storage.calls_per_record"]["value"]
    if calls > STORAGE_CALLS_PER_RECORD_CEILING:
        problems.append(
            f"inputs: storage.calls_per_record = {calls:.3f} exceeds the "
            f"ceiling {STORAGE_CALLS_PER_RECORD_CEILING} (a generator "
            "appending record by record again?)")
    calls = metrics["workloads.generators.calls_per_record"]["value"]
    if calls > GENERATOR_CALLS_PER_RECORD_CEILING:
        problems.append(
            f"inputs: workloads.generators.calls_per_record = {calls:.2f} "
            f"exceeds the ceiling {GENERATOR_CALLS_PER_RECORD_CEILING} (a "
            "generator drawing or constructing record by record again?)")
    return problems


CHECKS = {"paper": check_paper, "dense": check_dense, "inputs": check_inputs}


def parse(text: str) -> dict[str, dict[str, dict[str, float]]]:
    """``{workload: metrics}`` from a perfbench transcript."""
    results = {}
    workload = None
    for line in text.splitlines():
        if line.startswith("== "):
            workload = line[3:].split(":", 1)[0]
        elif line.startswith("{") and workload is not None:
            results[workload] = json.loads(line)["metrics"]
    return results


def main() -> int:
    """Check the perfbench transcript on stdin."""
    results = parse(sys.stdin.read())
    problems = [f"no traced {name!r} pass on stdin"
                for name in CHECKS if name not in results]
    for name, check in CHECKS.items():
        if name in results:
            problems += check(results[name])
    for problem in problems:
        print(f"check_perf_counts: {problem}")
    if not problems:
        print("check_perf_counts: ok "
              f"({results['paper']['total.calls_per_record']['value']:.2f} "
              "calls/record on paper, "
              f"{results['dense']['total.calls_per_record']['value']:.2f} "
              "on dense, "
              f"{results['inputs']['storage.calls_per_record']['value']:.3f} "
              "storage and "
              f"{results['inputs']['workloads.generators.calls_per_record']['value']:.2f} "
              "generator calls/record on inputs)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
