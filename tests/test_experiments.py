"""Smoke tests of the experiment harness at quick scale."""

import pytest

from repro.experiments import figures
from repro.experiments.config import scale_by_name
from repro.experiments.runner import run_query
from repro.workloads.nexmark import QUERIES

QUICK = scale_by_name("quick")


def run(name: str, runner) -> dict:
    """Regenerate one spec at quick scale through ``runner`` (the
    session's ``harness_runner``, so tests and modules share every run)."""
    return figures.run_figure(figures.SPECS[name], QUICK, runner)


def test_scales_are_well_formed():
    for name in ("quick", "default", "full"):
        scale = scale_by_name(name)
        assert scale.duration > scale.failure_at
        assert scale.probe_duration > 0
        assert all(p > 0 for p in scale.parallelism_grid)


def test_run_query_basic():
    result = run_query(QUERIES["q1"], "coor", 2, rate=200.0,
                       duration=8.0, warmup=2.0)
    assert result.protocol == "coor"
    assert sum(result.metrics.sink_counts.values()) > 0


def test_run_query_rejects_a_field_runrequest_does_not_have():
    with pytest.raises(TypeError, match="not_a_field"):
        run_query(QUERIES["q1"], "coor", 2, rate=200.0, not_a_field=1)


def test_get_mst_is_cached(harness_runner):
    """The figures' MST search, fetched twice, simulates once."""
    runner = harness_runner
    request = figures._mst_request("q1", "none", QUICK.parallelism_grid[0],
                                   QUICK)
    first = figures._fetch(request, runner).mst
    assert runner.misses > 0
    misses = runner.misses
    second = figures._fetch(request, runner).mst
    assert first == second
    assert runner.misses == misses  # the second search simulated nothing


def test_fig7_structure(harness_runner):
    out = run("fig7", harness_runner)
    assert out["rows"]
    assert "Figure 7" in out["text"]
    # every (query, protocol, parallelism) combination present
    expected = 4 * 3 * len(QUICK.parallelism_grid)
    assert len(out["measured"]) == expected
    assert all(0.0 <= v <= 1.0 for v in out["measured"].values())


def test_table2_structure(harness_runner):
    out = run("table2", harness_runner)
    assert all(ratio >= 1.0 for (_, _, _), ratio in out["measured"].items())
    assert "Table II" in out["text"]


def test_fig8_unc_cic_fast(harness_runner):
    out = run("fig8", harness_runner)
    for (query, protocol, parallelism), ct in out["measured"].items():
        if protocol in ("unc", "cic"):
            assert ct < 50.0, (query, protocol, ct)


def test_fig9_and_fig10_share_runs(harness_runner):
    runner = harness_runner
    before = runner.misses
    run("fig9", runner)
    mid = runner.misses
    run("fig10", runner)
    after = runner.misses
    assert mid > before
    assert after == mid  # p99 reuses the p50 runs: nothing simulated


def test_fig11_restart_positive(harness_runner):
    out = run("fig11", harness_runner)
    assert all(rt > 0 for rt in out["measured"].values())


def test_table3_coor_never_invalid(harness_runner):
    out = run("table3", harness_runner)
    for (workers, query, protocol), (total, invalid) in out["measured"].items():
        if protocol == "coor":
            assert invalid == 0.0


def test_table4_runs_unc_and_cic_only(harness_runner):
    out = run("table4", harness_runner)
    protocols = {p for p, _ in out["measured"]}
    assert protocols == {"unc", "cic"}


def test_all_experiments_registry():
    assert set(figures.SPECS) == {
        "fig7", "table2", "fig8", "fig9", "fig10", "fig11",
        "table3", "fig12", "fig13", "table4", "state_size", "rescale",
        "multi_failure", "backpressure", "arrivals",
        "ablation_interval", "ablation_logging", "ablation_participation",
        "ablation_schedules", "ablation_unaligned",
    }


def test_rescale_figure_structure(harness_runner):
    out = run("rescale", harness_runner)
    factors = {f for (_, f) in out["measured"]}
    assert factors == {"down", "same", "up"}
    protocols = {p for (p, _) in out["measured"]}
    assert protocols == {"coor", "coor-unaligned", "unc", "cic"}
    # the acceptance checks of the rescale figure must hold at smoke scale
    assert all(ok for _, ok in out["checks"]), out["checks"]
    for (_, factor), m in out["measured"].items():
        if factor == "same":
            assert m["rescaled_at"] < 0
        else:
            assert m["rescaled_at"] > 0


def test_multi_failure_figure_structure(harness_runner):
    out = run("multi_failure", harness_runner)
    protocols = {p for (p, _, _) in out["measured"]}
    assert protocols == {"coor", "coor-unaligned", "unc", "cic"}
    labels = {label for (_, label, _) in out["measured"]}
    assert labels == {"none", "double", "poisson", "correlated", "flaky"}
    # the poisson scenario runs under both interval policies
    policies = {pol for (_, label, pol) in out["measured"] if label == "poisson"}
    assert policies == {"fixed", "adaptive"}
    # the acceptance checks of the scenario figure must hold at smoke scale
    assert all(ok for _, ok in out["checks"]), out["checks"]


def test_state_size_figure_structure(harness_runner):
    out = run("state_size", harness_runner)
    backends = {b for (_, _, b) in out["measured"]}
    assert backends == {"full", "changelog"}
    # the acceptance check of the backend figure must hold at smoke scale
    assert all(ok for _, ok in out["checks"]), out["checks"]
    # full backend accounts uploaded == materialized exactly
    for (_, _, backend), m in out["measured"].items():
        if backend == "full":
            assert m["uploaded"] == m["materialized"]
        else:
            assert m["uploaded"] < m["materialized"]


def test_arrivals_figure_structure(harness_runner):
    out = run("arrivals", harness_runner)
    protocols = {p for (p, _, _) in out["measured"]}
    assert protocols == {"coor", "coor-unaligned", "unc", "cic"}
    labels = {label for (_, label, _) in out["measured"]}
    assert labels == {"steady", "diurnal", "flash", "mmpp", "drift"}
    capacities = {cap for (_, _, cap) in out["measured"]}
    assert capacities == {"unbounded", "tight"}
    # the acceptance checks of the arrivals figure must hold at smoke
    # scale — in particular the flash-vs-steady parking contrast: flash
    # crowds park senders at tight capacity, steady at the same *mean*
    # rate does not (satellite check of DESIGN.md section 17)
    assert all(ok for _, ok in out["checks"]), out["checks"]
    for (_, label, cap), m in out["measured"].items():
        if cap == "tight" and label == "flash":
            assert m["parked"] > 0
        if cap == "tight" and label == "steady":
            assert m["parked"] == 0


class _RecordingRunner:
    """Stands where a ``ParallelRunner(jobs=8)`` would: records every
    request it is asked for and answers with a canned result."""

    jobs = 8

    def __init__(self):
        self.asked = []

    def run(self, request):
        self.asked.append(request)
        return "canned"

    def submit(self, request):
        raise AssertionError("the figure driver submits nothing one by one")

    def map(self, requests):
        return [self.run(request) for request in requests]


def test_a_figure_request_is_executed_as_itself_whatever_the_worker_count():
    """q12 at 10 000 rec/s for 70 s is 700k records — what the auto-shard
    policy used to split 7 ways on an 8-worker runner, changing fig8's
    checkpoint statistics with ``--jobs`` (DESIGN.md section 16)."""
    from repro.experiments.parallel import RunRequest, request_key

    request = RunRequest("q12", "unc", 4, 10_000.0, duration=60.0, warmup=10.0)
    spec = figures.FigureSpec(
        name="_one_cell", heading="", note="", title="one cell",
        headers=("query", "result"),
        cells=lambda scale: [("q12",)],
        point=lambda scale, query: request,
        measure=lambda result, scale, query: result,
        row=lambda entry, result, scale, query: [query, entry],
    )
    runner = _RecordingRunner()
    out = figures.run_figure(spec, QUICK, runner)
    assert out["measured"] == {("q12",): "canned"}
    assert {request_key(asked) for asked in runner.asked} \
        == {request_key(request)}
    assert all(asked.shard_index is None for asked in runner.asked)
