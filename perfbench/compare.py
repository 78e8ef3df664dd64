"""``python3 -m perfbench compare A.json B.json``: did B regress against A?

Per workload and end-to-end metric: base, new, the ratio with its base, the
bound from ``BENCHMARK.json`` and a verdict.  A difference inside a file's
own process-to-process spread is ``unresolved``, not ``ok``.  Per-layer
deltas follow when both files carry a traced pass.  Exit code 1 on any
``regressed`` metric or any case whose simulated statistics moved.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Any

from perfbench.env import load_spec
from perfbench.harness import case_cost


def process_values(entry: dict[str, Any], metric: str) -> list[float]:
    """The values of ``metric`` a workload entry's own processes gave."""
    if metric == "records_per_s":
        scored = [case for case in entry["cases"] if case["scored"]]
        records = sum(case["records"] for case in scored)
        return [records / sum(case_cost([case["samples_s"][index]],
                                        [case["kernel_s"][index]],
                                        entry["sensitivity"])
                              for case in scored)
                for index in range(len(entry["processes"]))]
    if metric == "setup_s":
        return entry["setups_s"]
    return [process["rss_mb"] for process in entry["processes"]]


def spread(values: list[float], floor: bool = False) -> float:
    """How far a file's own runs disagree, as a share of their middle.

    Range over median; for a metric reported as a minimum (``floor``) the
    gap between the two lowest runs, i.e. how well the floor is resolved.
    """
    if len(values) < 2:
        return 0.0
    if floor:
        low, second = sorted(values)[:2]
        return (second - low) / low
    return (max(values) - min(values)) / statistics.median(values)


def verdict(base: dict[str, Any], new: dict[str, Any],
            item: dict[str, Any]) -> tuple[str, float, float]:
    """``(verdict, worse_by, spread)`` of one metric on one workload.

    ``worse_by`` is the share of the base by which the new value is worse
    (negative when better), whatever the metric's direction.
    """
    name, bound = item["name"], item["bound"]
    old, now = base["metrics"][name], new["metrics"][name]
    worse_by = (now - old) / old if item["better"] == "lower" else (old - now) / old
    base_runs, new_runs = process_values(base, name), process_values(new, name)
    floor = name == "setup_s"
    own = max(spread(base_runs, floor), spread(new_runs, floor))
    if own > bound:
        lower = item["better"] == "lower"
        apart = (max(new_runs) < min(base_runs) if lower
                 else min(new_runs) > max(base_runs))
        return ("improved" if apart else "unresolved"), worse_by, own
    if worse_by > bound:
        return "regressed", worse_by, own
    if worse_by < -bound:
        return "improved", worse_by, own
    return "ok", worse_by, own


def main(argv: list[str]) -> int:
    """Print the comparison; 1 if anything regressed."""
    if len(argv) != 2:
        print("usage: python3 -m perfbench compare A.json B.json",
              file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        base = json.load(handle)
    with open(argv[1], encoding="utf-8") as handle:
        new = json.load(handle)
    spec = load_spec()
    print(f"base {argv[0]}: commit {base['commit'][:12]} seed {base['seed']}")
    print(f"new  {argv[1]}: commit {new['commit'][:12]} seed {new['seed']}")
    bad = False
    for name in base["workloads"]:
        if name not in new["workloads"]:
            continue
        old, now = base["workloads"][name], new["workloads"][name]
        print(f"== {name}")
        for item in spec["end_to_end"]:
            word, worse_by, own = verdict(old, now, item)
            bad = bad or word == "regressed"
            metric = item["name"]
            print(f"  {metric:<14} base {old['metrics'][metric]:>12.6g}  "
                  f"new {now['metrics'][metric]:>12.6g} {item['unit']:<6} "
                  f"x{now['metrics'][metric] / old['metrics'][metric]:.4f} "
                  f"of base  worse by {worse_by:+.2%} (bound "
                  f"{item['bound']:.0%}, own spread {own:.2%})  {word}")
        if base["seed"] == new["seed"]:
            digests = {case["id"]: case["digest"] for case in old["cases"]}
            for case in now["cases"]:
                if digests.get(case["id"], case["digest"]) != case["digest"]:
                    bad = True
                    print(f"  moved: simulated statistics of case "
                          f"{case['id']!r} differ between the two files")
        if old["layers"] and now["layers"]:
            suffix = ".self_us_per_record"
            deltas = sorted(
                ((now["layers"][key] - old["layers"][key], key)
                 for key in old["layers"]
                 if key.endswith(suffix) and key in now["layers"]),
                key=lambda pair: -abs(pair[0]))
            for delta, key in deltas:
                print(f"  {key[:-len(suffix)]:<22} self "
                      f"{old['layers'][key]:>9.3f} -> {now['layers'][key]:>9.3f} "
                      f"us/rec ({delta:+.3f})")
    return 1 if bad else 0
