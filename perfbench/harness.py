"""Run a workload in fresh processes and turn their reports into metrics.

Method (see README): a workload is a fixed list of short cases; it runs in
:data:`PROCESSES` fresh child processes, each repeating the cases
round-robin for its share of ``--seconds``.  Every sample is divided by
the calibration kernel's time around it (:mod:`perfbench.calibration`); a
case's cost is the median of those ratios over all processes, scaled to
the reference host, and the workload's time is the sum of its scored
cases' costs.  End-to-end timing is always untraced; ``--trace 1`` runs
one process with one extra repetition under ``cProfile`` and reports the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from perfbench import digest
from perfbench.calibration import normalised
from perfbench.env import ROOT
from perfbench.layers import LAYER_NAMES

#: fresh processes per untraced workload run (each gets seconds/PROCESSES)
PROCESSES = 3
#: set-ups timed per untraced run: the measuring processes' own plus
#: processes that stop after set-up, interleaved with them
SETUPS = 2 * PROCESSES + 1
#: the seed ``reference.json`` was pinned at; other seeds skip that check
REFERENCE_SEED = 7
REFERENCE = Path(__file__).with_name("reference.json")
#: a child that outlives this is killed with its process group
CHILD_TIMEOUT_S = 150.0
END_TO_END = ("records_per_s", "peak_rss_mb", "setup_s")


def per_layer_names() -> list[str]:
    """Every per-layer metric the traced pass reports, in print order."""
    names = [f"{layer}.{kind}" for layer in LAYER_NAMES
             for kind in ("self_us_per_record", "calls_per_record")]
    return names + [
        "total.calls_per_record",
        "sim.events_per_record",
        "dataflow.transport.messages_per_record",
        "dataflow.transport.records_per_message",
        "dataflow.transport.sends_parked",
        "core.checkpoints",
        "core.ckpt_bytes_uploaded",
        "core.replayed_records",
        "core.duplicates_skipped",
        "core.recoveries",
        "experiments.parallel_efficiency",
        "experiments.warm_pass_ms",
        "experiments.cache_put_us",
        "experiments.cache_get_us",
        "experiments.request_key_us",
        "experiments.entry_bytes",
        "experiments.misses",
        "experiments.deduped",
        "trace.overhead_x",
        "host.kernel_ms",
        "host.raw_records_per_s",
    ]


def check_registry(spec: dict, workload_names: list[str]) -> None:
    """``BENCHMARK.json`` and the harness must name the same things."""
    def names(key: str) -> list[str]:
        return [item["name"] for item in spec[key]]

    for label, declared, built in (
        ("workloads", names("workloads"), workload_names),
        ("end_to_end", names("end_to_end"), list(END_TO_END)),
        ("per_layer", names("per_layer"), per_layer_names()),
    ):
        if sorted(declared) != sorted(built):
            odd = sorted(set(declared) ^ set(built))
            raise SystemExit(f"perfbench: BENCHMARK.json {label} and the "
                             f"harness disagree on {odd}")


def spawn(workload: str, seed: int, budget: float, trace: int) -> dict[str, Any]:
    """Run one child to completion and return its report."""
    command = [sys.executable, "-m", "perfbench.child", workload, str(seed),
               repr(budget), str(trace), repr(time.time())]
    # a fixed hash seed removes one per-process source of timing variance;
    # simulated results do not depend on it (the repo hashes with crc32)
    env = dict(os.environ, PYTHONHASHSEED="0")
    child = subprocess.Popen(command, cwd=ROOT, env=env, text=True,
                             stdout=subprocess.PIPE, start_new_session=True)
    try:
        output, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    finally:
        if child.poll() is None:
            # the sweep's pool workers share the child's process group
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
    if child.returncode != 0:
        raise RuntimeError(f"perfbench child for {workload!r} exited with "
                           f"code {child.returncode}")
    return json.loads(output.splitlines()[-1])


def merge_cases(reports: list[dict[str, Any]], pinned: dict[str, Any] | None,
                sensitivity: float = 1.0) -> list[dict[str, Any]]:
    """Fold the processes' per-case entries; apply the cross-process checks.

    ``pinned`` maps case id to its reference fingerprint, or is ``None``
    when the reference does not apply (another seed, or reblessing).
    """
    cases = []
    for entries in zip(*(report["cases"] for report in reports)):
        first = entries[0]
        why = next((entry["why"] for entry in entries if entry["why"]), None)
        mark = first["fingerprint"]
        for entry in entries[1:]:
            if why is None and entry["fingerprint"]["digest"] != mark["digest"]:
                why = ("not deterministic across processes: "
                       + digest.first_difference(mark, entry["fingerprint"]))
        if why is None and pinned is not None:
            if first["id"] not in pinned:
                why = "no pinned reference (run --rebless)"
            elif pinned[first["id"]]["digest"] != mark["digest"]:
                why = ("simulated statistics moved from reference.json: "
                       + digest.first_difference(pinned[first["id"]], mark))
        samples = [entry["samples_s"] for entry in entries]
        kernels = [entry["kernel_s"] for entry in entries]
        cases.append({
            "id": first["id"],
            "scored": first["scored"],
            "traced": first["traced"],
            "records": first["records"],
            "norm_s": case_cost(samples, kernels, sensitivity),
            "best_s": min(min(row) for row in samples),
            "samples_s": samples,
            "kernel_s": kernels,
            "digest": mark["digest"],
            "fields": mark["fields"],
            "counters": first["counters"],
            "timings": {name: min(entry["timings"][name] for entry in entries)
                        for name in first["timings"]},
            "ok": why is None,
            "why": why,
        })
    return cases


def case_cost(samples: list[list[float]], kernels: list[list[float]],
              sensitivity: float = 1.0) -> float:
    """Median kernel-relative sample of one case, in reference-host seconds."""
    return statistics.median(
        normalised(sample, kernel, sensitivity)
        for row, kernel_row in zip(samples, kernels)
        for sample, kernel in zip(row, kernel_row))


def records_per_s(cases: list[dict[str, Any]], time_key: str = "norm_s") -> float:
    """Offered records of the scored cases over the sum of their times."""
    scored = [case for case in cases if case["scored"]]
    return (sum(case["records"] for case in scored)
            / sum(case[time_key] for case in scored))


def process_summary(report: dict[str, Any]) -> dict[str, float]:
    """One measuring process: its memory, repetitions and view of the host."""
    return {
        "rss_mb": report["rss_mb"],
        "repetitions": report["repetitions"],
        "kernel_s": statistics.median(
            kernel for case in report["cases"] for kernel in case["kernel_s"]),
    }


def end_to_end(cases: list[dict[str, Any]], processes: list[dict[str, float]],
               setups: list[float]) -> dict[str, float]:
    """The user-visible metrics.

    Set-up is the one raw time here, and a minimum: a quarter-second of
    imports meets a quiet host often enough that the fastest of
    :data:`SETUPS` fresh processes repeats within 2 %, which neither their
    median nor anything kernel-relative does.
    """
    return {
        "records_per_s": records_per_s(cases),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in processes),
        "setup_s": min(setups),
    }


def per_layer(cases: list[dict[str, Any]], report: dict[str, Any],
              sensitivity: float) -> dict[str, float]:
    """The traced pass of one process as per-layer metrics."""
    trace = report["trace"]
    traced = [case for case in cases if case["traced"]]
    records = sum(case["records"] for case in traced)
    metrics: dict[str, float] = {}
    for layer in LAYER_NAMES:
        cost = trace["layers"][layer]
        metrics[f"{layer}.self_us_per_record"] = normalised(
            cost["self_s"], trace["kernel_s"], sensitivity) * 1e6 / records
        metrics[f"{layer}.calls_per_record"] = cost["calls"] / records
    metrics["total.calls_per_record"] = sum(
        cost["calls"] for cost in trace["layers"].values()) / records
    metrics["sim.events_per_record"] = trace["events"] / records

    def count(name: str) -> float:
        return sum(case["counters"].get(name, 0) for case in traced)

    messages = count("messages_sent")
    metrics["dataflow.transport.messages_per_record"] = messages / records
    metrics["dataflow.transport.records_per_message"] = (
        count("records_sent") / messages if messages else 0.0)
    metrics["dataflow.transport.sends_parked"] = count("sends_parked")
    metrics["core.checkpoints"] = count("checkpoints")
    metrics["core.ckpt_bytes_uploaded"] = count("checkpoint_bytes_uploaded")
    metrics["core.replayed_records"] = count("replayed_records")
    metrics["core.duplicates_skipped"] = count("duplicates_skipped")
    metrics["core.recoveries"] = count("recoveries")

    # harness seams: only the sweep has a serial baseline and a cold pass
    by_id = {case["id"]: case for case in cases}
    serial, cold = by_id.get("serial"), by_id.get("cold")
    metrics["experiments.parallel_efficiency"] = (
        serial["norm_s"] / (cold["counters"]["jobs"] * cold["norm_s"])
        if serial and cold else 0.0)
    metrics["experiments.warm_pass_ms"] = (
        cold["timings"]["warm_pass_s"] * 1e3 if cold else 0.0)
    for name in ("misses", "deduped"):
        metrics[f"experiments.{name}"] = (
            cold["counters"][name] if cold else 0.0)
    for name in ("cache_put_us", "cache_get_us", "request_key_us",
                 "entry_bytes"):
        metrics[f"experiments.{name}"] = report["seams"].get(
            f"experiments.{name}", 0.0)
    metrics["trace.overhead_x"] = (
        trace["wall_s"] / sum(case["norm_s"] for case in traced))
    metrics["host.kernel_ms"] = statistics.median(
        kernel for case in cases for row in case["kernel_s"]
        for kernel in row) * 1e3
    metrics["host.raw_records_per_s"] = records_per_s(cases, "best_s")
    return metrics


def load_reference() -> dict[str, Any]:
    """The pinned per-case fingerprints, ``{workload: {case id: ...}}``."""
    if not REFERENCE.exists():
        return {}
    return json.loads(REFERENCE.read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 sensitivity: float, use_reference: bool = True) -> dict[str, Any]:
    """Measure one workload; returns its entry of the output document."""
    budget = seconds / PROCESSES
    reports, setups = [], []
    # measuring processes (budget > 0) alternate with set-up-only ones
    plan = [budget] if trace else [
        budget if index % 2 else 0.0 for index in range(SETUPS)]
    for share in plan:
        report = spawn(name, seed, share, trace)
        setups.append(report["setup_s"])
        if share:
            reports.append(report)
    pinned = None
    if use_reference and seed == REFERENCE_SEED:
        pinned = load_reference().get(name, {})
    cases = merge_cases(reports, pinned, sensitivity)
    processes = [process_summary(report) for report in reports]
    return {
        "metrics": end_to_end(cases, processes, setups),
        "layers": per_layer(cases, reports[0], sensitivity) if trace else {},
        "sensitivity": sensitivity,
        "processes": processes,
        "setups_s": setups,
        "cases": cases,
    }
