"""Command line: run workloads, rebless the reference, compare two runs."""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from typing import Any

from perfbench import compare, harness
from perfbench.env import ROOT, ensure_repro, load_spec

SCHEMA = "perfbench/1"


def commit() -> str:
    """``git rev-parse HEAD`` of the checkout, 'unknown' outside git."""
    try:
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def result_line(entry: dict[str, Any], units: dict[str, str], trace: int) -> str:
    """The one-object summary the benchmark contract asks for."""
    values = entry["layers"] if trace else entry["metrics"]
    failed = sum(1 for case in entry["cases"] if not case["ok"])
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(entry["cases"]),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    })


def report(name: str, entry: dict[str, Any], units: dict[str, str]) -> None:
    """Print every metric by name with its unit, then each failed check."""
    runs = ", ".join(str(p["repetitions"]) for p in entry["processes"])
    print(f"== {name}: {len(entry['cases'])} cases, repetitions per "
          f"process: {runs}")
    for metric, value in {**entry["metrics"], **entry["layers"]}.items():
        print(f"  {metric:<46} {value:>16.6g} {units[metric]}")
    for case in entry["cases"]:
        if not case["ok"]:
            print(f"  FAILED {case['id']}: {case['why']}")


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python3 -m perfbench``."""
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="python3 -m perfbench",
        description="Host-time benchmark of the CheckMate simulator "
                    "(also: python3 -m perfbench compare A.json B.json).")
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=harness.REFERENCE_SEED,
                        help="seed of every generated input (default: "
                             "%(default)s, the seed reference.json pins)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the cProfile pass and report the "
                             "per-layer metrics instead of the end-to-end ones")
    parser.add_argument("--out", metavar="FILE",
                        help="write the full JSON document here")
    parser.add_argument("--rebless", action="store_true",
                        help="pin the digests this run produces in "
                             "reference.json instead of checking against it")
    args = parser.parse_args(argv)

    # die like an exception would, so a running child's group is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ensure_repro()
    from perfbench.workloads import BUILDERS, SENSITIVITY

    spec = load_spec()
    harness.check_registry(spec, list(BUILDERS))
    units = {item["name"]: item["unit"]
             for item in spec["end_to_end"] + spec["per_layer"]}
    names = args.workload or list(BUILDERS)
    unknown = [name for name in names if name not in BUILDERS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; "
                     f"choose from {', '.join(BUILDERS)}")
    if args.rebless and args.seed != harness.REFERENCE_SEED:
        parser.error(f"--rebless pins seed {harness.REFERENCE_SEED} only")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    document: dict[str, Any] = {
        "schema": SCHEMA, "commit": commit(),
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "seed": args.seed, "seconds": seconds,
        "processes": 1 if args.trace else harness.PROCESSES, "workloads": {},
    }
    for name in names:
        entry = harness.run_workload(name, args.seed, seconds, args.trace,
                                     SENSITIVITY[name],
                                     use_reference=not args.rebless)
        document["workloads"][name] = entry
        report(name, entry, units)
        print(result_line(entry, units, args.trace), flush=True)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
    ok = all(case["ok"] for entry in document["workloads"].values()
             for case in entry["cases"])
    if args.rebless and ok:
        pinned = harness.load_reference()
        for name, entry in document["workloads"].items():
            pinned[name] = {case["id"]: {"digest": case["digest"],
                                         "fields": case["fields"]}
                            for case in entry["cases"]}
        harness.REFERENCE.write_text(
            json.dumps(pinned, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"pinned {', '.join(document['workloads'])} in "
              f"{harness.REFERENCE.name}")
    return 0 if ok else 1
