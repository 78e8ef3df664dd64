"""Tests of the benchmark harness itself (collected by the tier-1 command)."""

from __future__ import annotations

import json
import math
import statistics
import subprocess
import sys

import pytest

from perfbench import calibration, compare, digest, harness, layers
from perfbench.calibration import NOMINAL_S
from perfbench.env import ROOT, SCRATCH, ensure_repro, load_spec

ensure_repro()

from perfbench import workloads  # noqa: E402  (needs repro importable)
from repro.dataflow.results import RunResult  # noqa: E402
from repro.experiments.parallel import (  # noqa: E402
    MstRequest,
    RunRequest,
    request_key,
)
from repro.metrics.collectors import MetricsCollector  # noqa: E402
from repro.metrics.mst import MstResult  # noqa: E402


# --------------------------------------------------------------------- #
# layer map and attribution
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("path, layer", [
    ("/x/src/repro/sim/events.py", "sim"),
    ("/x/src/repro/dataflow/transport.py", "dataflow.transport"),
    ("/x/src/repro/dataflow/channels.py", "dataflow.transport"),
    ("/x/src/repro/dataflow/records.py", "dataflow.batch"),
    ("/x/src/repro/dataflow/results.py", "metrics"),
    # first match wins: everything else under dataflow/ is the engine
    ("/x/src/repro/dataflow/worker.py", "dataflow.engine"),
    ("/x/src/repro/workloads/nexmark/queries.py", "workloads.queries"),
    ("/x/src/repro/workloads/nexmark/generator.py", "workloads.generators"),
    ("/x/src/repro/workloads/arrivals.py", "workloads.generators"),
    ("/x/src/repro/experiments/parallel.py", "experiments"),
    # a repro module no prefix covers is 'other', never an error
    ("/x/src/repro/cli.py", "other"),
    ("/x/src/repro/brand_new/module.py", "other"),
])
def test_layer_map_first_match_and_other_fallback(path, layer):
    assert layers.layer_of(path) == layer


@pytest.mark.parametrize("path", ["~", "/usr/lib/python3.11/heapq.py",
                                  "/x/perfbench/workloads.py"])
def test_code_outside_repro_has_no_layer_of_its_own(path):
    assert layers.layer_of(path) is None


def test_builtin_self_time_is_charged_to_the_calling_layer():
    pop = ("/x/src/repro/sim/events.py", 98, "pop")
    transmit = ("/x/src/repro/dataflow/transport.py", 10, "transmit")
    heappop = ("~", 0, "<built-in method _heapq.heappop>")
    key_fn = ("/x/perfbench/workloads.py", 5, "<lambda>")
    length = ("~", 0, "<built-in method builtins.len>")
    harness_loop = ("/x/perfbench/child.py", 30, "execute")
    stats = {
        # func: (cc, nc, tt, ct, {caller: (nc, cc, tt, ct)})
        harness_loop: (1, 1, 0.5, 10.0, {}),
        pop: (10, 10, 1.0, 3.0, {harness_loop: (10, 10, 1.0, 3.0)}),
        transmit: (4, 4, 2.0, 4.0, {harness_loop: (4, 4, 2.0, 4.0)}),
        heappop: (10, 10, 2.0, 2.0, {pop: (10, 10, 2.0, 2.0)}),
        # a benchmark lambda called from transport, calling a built-in
        key_fn: (4, 4, 1.0, 2.0, {transmit: (4, 4, 1.0, 2.0)}),
        # len: 6 calls from the lambda, 2 straight from sim
        length: (8, 8, 1.5, 1.5, {key_fn: (6, 6, 1.0, 1.0),
                                  pop: (2, 2, 0.5, 0.5)}),
    }
    totals = layers.attribute(stats)
    assert totals["sim"]["self_s"] == pytest.approx(1.0 + 2.0 + 0.5)
    assert totals["sim"]["calls"] == pytest.approx(10 + 10 + 2)
    assert totals["dataflow.transport"]["self_s"] == pytest.approx(2.0 + 1.0 + 1.0)
    assert totals["dataflow.transport"]["calls"] == pytest.approx(4 + 4 + 6)
    # the harness's own frame has no repro caller
    assert totals["other"]["self_s"] == pytest.approx(0.5)
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(
        sum(entry[2] for entry in stats.values()))
    assert sum(t["calls"] for t in totals.values()) == pytest.approx(
        sum(entry[1] for entry in stats.values()))
    assert layers.calls_named(stats, "repro/sim/events", "pop") == 10


def test_recursive_foreign_code_still_sums_to_the_total():
    run = ("/x/src/repro/metrics/series.py", 1, "percentile")
    deep = ("/usr/lib/python3.11/copy.py", 128, "deepcopy")
    stats = {
        run: (1, 1, 1.0, 4.0, {}),
        deep: (5, 1, 3.0, 3.0, {run: (1, 1, 1.0, 3.0),
                                deep: (4, 0, 2.0, 0.0)}),
    }
    totals = layers.attribute(stats)
    assert totals["metrics"]["self_s"] == pytest.approx(4.0)
    assert totals["metrics"]["calls"] == pytest.approx(6)


# --------------------------------------------------------------------- #
# digests
# --------------------------------------------------------------------- #

def test_digest_ignores_dict_order_and_keeps_floats_exact():
    one = {"b": {2: 1.0, 1: [0.1, 0.2]}, "a": {3, 1, 2}}
    two = {"a": {2, 3, 1}, "b": {1: [0.1, 0.2], 2: 1.0}}
    assert digest.canonical(one) == digest.canonical(two)
    assert digest.digest(one) == digest.digest(two)
    # one ulp apart, an int where a float was, a reordered list: all differ
    assert digest.digest({"x": 0.1 + 0.2}) != digest.digest({"x": 0.3})
    assert digest.digest({"x": 1}) != digest.digest({"x": 1.0})
    assert digest.digest({"x": [1, 2]}) != digest.digest({"x": [2, 1]})
    assert json.loads(digest.canonical({"x": 0.1 + 0.2}))["x"] == 0.1 + 0.2


def test_first_difference_names_the_statistic():
    pinned = digest.fingerprint({"goodput": 10.5, "sink_counts": {1: 4}})
    same = digest.fingerprint({"sink_counts": {1: 4}, "goodput": 10.5})
    moved = digest.fingerprint({"goodput": 10.75, "sink_counts": {1: 4}})
    deep = digest.fingerprint({"goodput": 10.5, "sink_counts": {1: 5}})
    assert pinned["digest"] == same["digest"]
    assert "'goodput': expected 10.5, got 10.75" in digest.first_difference(
        pinned, moved)
    assert "'sink_counts'" in digest.first_difference(pinned, deep)


# --------------------------------------------------------------------- #
# aggregation and records accounting
# --------------------------------------------------------------------- #

def _entry(case_id, samples, records=100, scored=True, mark=None, why=None,
           kernel=NOMINAL_S):
    return {"id": case_id, "scored": scored, "traced": True,
            "records": records, "samples_s": samples,
            "kernel_s": [kernel] * len(samples),
            "fingerprint": mark or digest.fingerprint({"n": records}),
            "why": why, "counters": {}, "timings": {}}


def test_case_cost_is_the_median_ratio_over_all_processes():
    reports = [
        {"cases": [_entry("a", [0.5, 0.25, 0.3]), _entry("b", [1.0, 2.0]),
                   _entry("seam", [9.0], records=999, scored=False)]},
        # a host running half as fast: samples and kernel both double
        {"cases": [_entry("a", [1.0, 0.5, 0.6], kernel=2 * NOMINAL_S),
                   _entry("b", [3.0], kernel=2 * NOMINAL_S),
                   _entry("seam", [16.0], records=999, scored=False,
                          kernel=2 * NOMINAL_S)]},
    ]
    cases = harness.merge_cases(reports, pinned=None)
    assert [case["norm_s"] for case in cases] == pytest.approx([0.3, 1.5, 8.5])
    assert [case["best_s"] for case in cases] == [0.25, 1.0, 9.0]
    assert cases[0]["samples_s"] == [[0.5, 0.25, 0.3], [1.0, 0.5, 0.6]]
    assert all(case["ok"] for case in cases)
    # unscored cases add neither records nor time
    assert harness.records_per_s(cases) == pytest.approx(200 / 1.8)
    assert harness.records_per_s(cases, "best_s") == pytest.approx(200 / 1.25)


def test_calibration_brackets_long_sections_for_longer(monkeypatch):
    runs = []
    tick = 0.0625  # exact in binary, so the sums below are too
    monkeypatch.setattr(calibration, "spin",
                        lambda: runs.append(tick) or tick)
    # as many runs after the section as before it; the mean of them all
    assert calibration.bracket([tick, 3 * tick], elapsed=0.0) == 1.5 * tick
    assert len(runs) == 2
    # ... and more until SHARE of the section's own time is spent
    del runs[:]
    calibration.bracket([tick], elapsed=1.0)
    assert len(runs) == math.ceil(calibration.SHARE * 1.0 / tick) == 3
    assert calibration.normalised(2.0, 2 * NOMINAL_S) == pytest.approx(1.0)
    assert calibration.normalised(2.0, 4 * NOMINAL_S, 0.5) == pytest.approx(1.0)
    assert calibration.normalised(2.0, 4 * NOMINAL_S, 0.0) == 2.0
    monkeypatch.undo()
    assert 0 < calibration.spin() < 1.0


def test_merge_flags_nondeterminism_and_reference_mismatch():
    good = digest.fingerprint({"goodput": 1.0})
    bad = digest.fingerprint({"goodput": 2.0})
    reports = [{"cases": [_entry("a", [1.0], mark=good)]},
               {"cases": [_entry("a", [1.0], mark=bad)]}]
    [case] = harness.merge_cases(reports, pinned=None)
    assert not case["ok"] and "across processes" in case["why"]
    assert "'goodput'" in case["why"]

    reports = [{"cases": [_entry("a", [1.0], mark=good)]}]
    [case] = harness.merge_cases(reports, pinned={"a": bad})
    assert not case["ok"] and "reference.json" in case["why"]
    assert "expected 2.0, got 1.0" in case["why"]
    [case] = harness.merge_cases(reports, pinned={"a": good})
    assert case["ok"]
    [case] = harness.merge_cases(reports, pinned={})
    assert "--rebless" in case["why"]


def _result(ingested: int) -> RunResult:
    metrics = MetricsCollector(sink_counts={1: 5},
                               ingest_counts={0: 1, 1: ingested - 1})
    return RunResult(query="q1", protocol="unc", parallelism=2, rate=10.0,
                     warmup=1.0, duration=3.0, metrics=metrics,
                     checkpoint_interval=1.0)


def test_sweep_counts_unique_runs_and_mst_probes_not_duplicates():
    first = RunRequest(query="q1", protocol="unc", parallelism=2, rate=10.0)
    second = RunRequest(query="q1", protocol="unc", parallelism=2, rate=20.0)
    search = MstRequest(query="q1", protocol="coor", parallelism=4,
                        probe_duration=4.0, warmup=1.0, iterations=1)
    mst = MstResult(query="q1", protocol="coor", parallelism=4, mst=100.0,
                    probes=[(100.0, True), (130.0, False)])
    outcome = {
        "requests": [first, second, first],
        "results": [_result(10), _result(20), _result(10)],
        "merged": _result(40), "mst": mst, "search": search,
        "jobs": 2, "hits": 0, "misses": 2 + 1 + 2, "deduped": 1,
    }
    seen = workloads.observe_sweep(outcome, warm=False)
    assert seen.why is None
    # 10 + 20 unique, the duplicate not again, 40 sharded, 230 rec/s x 5 s
    assert seen.records == 10 + 20 + 40 + 1150
    outcome["misses"] = 4
    assert "accounting" in workloads.observe_sweep(outcome, warm=False).why

    requests = workloads.sweep_requests(7)
    assert len(requests) == 25
    assert len({request_key(request) for request in requests}) == 19


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #

def test_benchmark_json_and_harness_name_the_same_things():
    spec = load_spec()
    harness.check_registry(spec, list(workloads.BUILDERS))
    assert spec["paths"] == ["perfbench"]
    assert len(harness.per_layer_names()) == len(set(harness.per_layer_names()))
    spec["per_layer"] = spec["per_layer"][1:]
    with pytest.raises(SystemExit, match="per_layer"):
        harness.check_registry(spec, list(workloads.BUILDERS))


def test_reference_pins_every_case_of_every_workload():
    pinned = harness.load_reference()
    assert sorted(pinned) == sorted(workloads.BUILDERS) == sorted(
        workloads.SENSITIVITY)
    assert sorted(pinned["paper"]) == sorted(
        case_id for case_id, _ in workloads.paper_requests(7))


# --------------------------------------------------------------------- #
# compare
# --------------------------------------------------------------------- #

def _document(times, rss=50.0, setup=0.5, digest_="d0", seed=7):
    """One workload, one case; ``times`` is one sample per process."""
    return {
        "commit": "0" * 40, "seed": seed,
        "workloads": {"paper": {
            "metrics": {"records_per_s": 1000 / statistics.median(times),
                        "peak_rss_mb": rss, "setup_s": setup},
            "layers": {}, "sensitivity": 1.0,
            "processes": [{"rss_mb": rss, "repetitions": 1} for _ in times],
            "setups_s": [setup, setup * 1.02, setup * 1.4],
            "cases": [{"id": "a", "scored": True, "records": 1000,
                       "samples_s": [[t] for t in times],
                       "kernel_s": [[NOMINAL_S] for _ in times],
                       "digest": digest_, "ok": True}],
        }},
    }


def _verdict(base, new, metric="records_per_s"):
    item = next(item for item in load_spec()["end_to_end"]
                if item["name"] == metric)
    return compare.verdict(base["workloads"]["paper"],
                           new["workloads"]["paper"], item)[0]


def test_compare_verdicts():
    base = _document([1.0, 1.01, 1.02])
    assert _verdict(base, _document([1.03, 1.04, 1.05])) == "ok"
    assert _verdict(base, _document([1.2, 1.21, 1.22])) == "regressed"
    assert _verdict(base, _document([0.8, 0.81, 0.82])) == "improved"
    # a file whose own processes disagree by more than the bound resolves
    # nothing, unless every new run beats every base run
    assert _verdict(base, _document([0.95, 1.2, 1.4])) == "unresolved"
    assert _verdict(base, _document([0.5, 0.6, 0.7])) == "improved"
    assert _verdict(base, _document([1.0, 1.0, 1.0], rss=60.0),
                    "peak_rss_mb") == "regressed"
    assert _verdict(base, _document([1.0, 1.0, 1.0], setup=0.55),
                    "setup_s") == "ok"


def test_compare_exit_code_and_moved_digests(tmp_path, capsys):
    paths = {}
    for name, document in {
        "base": _document([1.0, 1.01, 1.02]),
        "same": _document([1.01, 1.0, 1.02]),
        "slow": _document([1.3, 1.31, 1.32]),
        "moved": _document([1.0, 1.01, 1.02], digest_="d1"),
    }.items():
        paths[name] = str(tmp_path / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as handle:
            json.dump(document, handle)
    assert compare.main([paths["base"], paths["same"]]) == 0
    assert compare.main([paths["base"], paths["slow"]]) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare.main([paths["base"], paths["moved"]]) == 1
    assert "moved" in capsys.readouterr().out
    assert compare.main([paths["base"]]) == 2


# --------------------------------------------------------------------- #
# end to end
# --------------------------------------------------------------------- #

def test_smoke_run_of_the_inputs_workload(tmp_path):
    out = tmp_path / "run.json"
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "--workload", "inputs",
         "--seconds", "1", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(workloads.INPUT_PLAN) + 1
    assert sorted(line["metrics"]) == sorted(harness.END_TO_END)
    assert all(value["value"] > 0 for value in line["metrics"].values())

    document = json.loads(out.read_text(encoding="utf-8"))
    assert {"schema", "commit", "python", "platform", "nproc", "seed",
            "seconds", "processes", "workloads"} <= set(document)
    entry = document["workloads"]["inputs"]
    assert len(entry["processes"]) == harness.PROCESSES
    assert len(entry["setups_s"]) == harness.SETUPS
    assert entry["metrics"]["setup_s"] == min(entry["setups_s"])
    for case in entry["cases"]:
        assert case["ok"] and case["records"] > 0
        assert len(case["samples_s"]) == harness.PROCESSES
        assert [len(row) for row in case["kernel_s"]] == [
            len(row) for row in case["samples_s"]]
        assert case["best_s"] == min(min(row) for row in case["samples_s"])
        assert case["norm_s"] > 0
    # scratch space is gone again
    assert not SCRATCH.exists()
