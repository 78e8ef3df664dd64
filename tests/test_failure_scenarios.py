"""Failure-scenario engine: generation, parsing, and end-to-end recovery.

The acceptance test of the scenario subsystem is differential: a
deterministic two-failure scenario must leave the pipeline in a final
state byte-identical to the no-failure run — for all four protocols and
both state backends (exactly-once under repeated recoveries, DESIGN.md
section 12).
"""

import random

import pytest

from repro.dataflow.runtime import Job
from repro.sim.costs import RuntimeConfig
from repro.sim.failure import (
    CorrelatedScenario,
    FailureScenario,
    FlakyNodeScenario,
    PoissonScenario,
    SingleKillScenario,
    TraceScenario,
    parse_scenario,
    scenario_from_config,
)
from repro.sim.rng import RngRegistry

from tests.conftest import build_count_graph, canonical_state_bytes, make_event_log

PROTOCOLS = ["coor", "coor-unaligned", "unc", "cic"]


def run_scenario_job(protocol, scenario_spec, duration=24.0, seed=3,
                     parallelism=3, rate=300.0, state_backend="full",
                     interval_policy="fixed"):
    """Run the auditable counting pipeline under a failure scenario."""
    config = RuntimeConfig(
        checkpoint_interval=3.0, duration=duration, warmup=2.0,
        failure_scenario=scenario_spec, seed=seed,
        state_backend=state_backend, interval_policy=interval_policy,
    )
    log = make_event_log(rate, duration - 4.0, parallelism, seed=seed)
    job = Job(build_count_graph(), protocol, parallelism, {"events": log}, config)
    result = job.run(rate=rate)
    expected = {}
    for partition in log.partitions:
        for r in partition.records:
            expected[r.payload.key] = expected.get(r.payload.key, 0) + 1
    measured = {}
    for idx in range(parallelism):
        counts = job.instance(("count", idx)).operator.states["counts"]
        for key, value in counts.items():
            measured[key] = measured.get(key, 0) + value
    return job, result, expected, measured


# --------------------------------------------------------------------- #
# Scenario generation
# --------------------------------------------------------------------- #

def _events(scenario: FailureScenario, start=2.0, end=26.0, seed=7, name="s"):
    return scenario.events(start, end, RngRegistry(seed).stream(name))


def test_single_kill_event():
    (event,) = _events(SingleKillScenario(at=5.0, worker=2))
    assert event.at == 7.0 and event.worker_indices == (2,)


def test_trace_events_sorted():
    events = _events(TraceScenario(((13.0, 1), (5.0, 0))))
    assert [(e.at, e.worker_indices) for e in events] == [(7.0, (0,)), (15.0, (1,))]


def test_trace_requires_kills():
    with pytest.raises(ValueError):
        TraceScenario(())


def test_poisson_deterministic_for_seed():
    scenario = PoissonScenario(mtbf=6.0)
    assert _events(scenario) == _events(scenario)
    other = scenario.events(2.0, 26.0, RngRegistry(8).stream("s"))
    assert other != _events(scenario)


def test_poisson_respects_min_gap_and_horizon():
    events = _events(PoissonScenario(mtbf=1.0, min_gap=3.0), end=40.0)
    assert all(e.at < 40.0 for e in events)
    gaps = [b.at - a.at for a, b in zip(events, events[1:])]
    assert gaps and all(gap >= 3.0 - 1e-9 for gap in gaps)


def test_correlated_hits_k_workers():
    (event,) = _events(CorrelatedScenario(at=4.0, k=3, worker=1))
    assert event.worker_indices == (1, 2, 3)
    assert event.detection_delay_factor == 1.0


def test_flaky_pins_worker_and_slows_detection():
    events = _events(FlakyNodeScenario(worker=2, mtbf=5.0, slowdown=3.0),
                     end=60.0)
    assert events
    assert all(e.worker_indices == (2,) for e in events)
    assert all(e.detection_delay_factor == 3.0 for e in events)


def test_scenarios_use_only_the_given_stream():
    """Determinism rule: generation must not touch the global random."""
    random.seed(1)
    before = random.random()
    random.seed(1)
    _events(PoissonScenario(mtbf=3.0), end=60.0)
    _events(FlakyNodeScenario(worker=0, mtbf=3.0), end=60.0)
    assert random.random() == before


# --------------------------------------------------------------------- #
# Spec parsing and config mapping
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("spec,cls", [
    ("single:at=18,worker=1", SingleKillScenario),
    ("trace:5@0;13@1", TraceScenario),
    ("poisson:mtbf=12,min_gap=2", PoissonScenario),
    ("correlated:at=10,k=2", CorrelatedScenario),
    ("flaky:worker=1,mtbf=8,slowdown=3", FlakyNodeScenario),
])
def test_parse_scenario_kinds(spec, cls):
    scenario = parse_scenario(spec)
    assert isinstance(scenario, cls)
    assert scenario.describe()


@pytest.mark.parametrize("spec", [
    "nope:at=1", "poisson:mtbf=-1", "poisson:", "single:worker=0",
    "flaky:mtbf=5,slowdown=0.5", "correlated:at=2,k=0", "trace:",
    "single:at",
])
def test_parse_scenario_rejects_malformed(spec):
    with pytest.raises(ValueError):
        parse_scenario(spec)


@pytest.mark.parametrize("spec, names", [
    # accepted before: 0 failures injected, availability 100 %
    ("poisson:mtbf=nan", "finite number, got 'nan'"),
    ("poisson:mtbf=inf", "finite number, got 'inf'"),
    ("poisson:mtbf=9,min_gap=nan", "finite number, got 'nan'"),
    ("single:at=nan", "finite number, got 'nan'"),
    ("correlated:at=inf", "finite number, got 'inf'"),
    ("flaky:mtbf=5,slowdown=inf", "finite number, got 'inf'"),
    ("trace:nan@0", "finite number, got 'nan'"),
    # accepted before: the empty field read as worker 0
    ("trace:5@", "'5@' names no worker"),
    ("trace:5@0;13@", "'13@' names no worker"),
    # accepted before: the misspelt parameter was dropped
    ("single:at=3,wrker=1", "unknown parameter 'wrker' (expected: at, worker)"),
    ("poisson:mtbf=9,gap=2", "unknown parameter 'gap'"),
    # rejected before too; the message names the token
    ("single:at=x", "could not convert string to float: 'x'"),
    ("poisson:mtbf=0", "mtbf must be positive"),
    ("trace:@1", "could not convert string to float"),
    ("single:worker=0", "requires parameter 'at'"),
    # accepted before: the last value won; the index wrapped to a worker
    ("single:at=3,at=4", "parameter 'at' given twice"),
    ("single:at=3,worker=-1", "'worker' must be a whole number >= 0, got '-1'"),
    ("trace:5@-1", "kill '5@-1': must be a whole number >= 0, got '-1'"),
    ("correlated:at=3,k=-2", "'k' must be a whole number >= 0, got '-2'"),
])
def test_parse_scenario_names_what_is_wrong(spec, names):
    with pytest.raises(ValueError) as raised:
        parse_scenario(spec)
    message = str(raised.value)
    assert message.startswith(f"malformed failure scenario {spec!r}: ")
    assert names in message


@pytest.mark.parametrize("spec", [
    "single:at=x", "poisson:mtbf=0", "poisson:mtbf=nan", "trace:5@"])
def test_a_config_with_a_malformed_scenario_cannot_be_built(spec):
    """``RunRequest`` users meet the same ``ValueError``, at construction:
    nothing gets as far as a pool worker or a cache key."""
    from repro.experiments.parallel import RunRequest, request_key

    with pytest.raises(ValueError, match="malformed failure scenario"):
        RuntimeConfig(failure_scenario=spec)
    request = RunRequest(query="q1", protocol="coor", parallelism=2,
                         rate=100.0, failure_scenario=spec)
    with pytest.raises(ValueError, match="malformed failure scenario"):
        request.effective_config()
    with pytest.raises(ValueError, match="malformed failure scenario"):
        request_key(request)


#: one row per spec string: the class and ``describe()`` text of an
#: accepted spec, ``None`` for a rejected one.  Every spec of the tables
#: above is here, with every spec string DESIGN.md section 12, README, the
#: CLI help, ``figures.py`` (quick scale) and the examples spell; a
#: rewrite of the parser may move messages, never a row of this table
SCENARIO_VERDICTS = [
    ("single:at=18,worker=1", SingleKillScenario,
     "single kill of worker 1 at +18s"),
    ("single:at=18,worker=0", SingleKillScenario,
     "single kill of worker 0 at +18s"),
    ("single:at=18", SingleKillScenario, "single kill of worker 0 at +18s"),
    ("Single:at=3", SingleKillScenario, "single kill of worker 0 at +3s"),
    (" single : at = 3 , worker = 1 ", SingleKillScenario,
     "single kill of worker 1 at +3s"),
    ("single:at=3,,worker=1", SingleKillScenario,
     "single kill of worker 1 at +3s"),
    ("single:at=3,", SingleKillScenario, "single kill of worker 0 at +3s"),
    ("trace:5@0;13@1", TraceScenario, "deterministic trace: +5s@w0, +13s@w1"),
    ("trace:5;13@1", TraceScenario, "deterministic trace: +5s@w0, +13s@w1"),
    ("trace:4@0;10@1", TraceScenario, "deterministic trace: +4s@w0, +10s@w1"),
    ("trace:1.8@0;3.6@1", TraceScenario,
     "deterministic trace: +1.8s@w0, +3.6s@w1"),
    ("poisson:mtbf=12,min_gap=2", PoissonScenario,
     "poisson failures, MTBF 12s (min gap 2s)"),
    ("poisson:mtbf=12,min_gap=4", PoissonScenario,
     "poisson failures, MTBF 12s (min gap 4s)"),
    ("poisson:mtbf=12", PoissonScenario,
     "poisson failures, MTBF 12s (min gap 4s)"),
    ("poisson:mtbf=2.4", PoissonScenario,
     "poisson failures, MTBF 2.4s (min gap 4s)"),
    ("poisson:mtbf=5,min_gap=4", PoissonScenario,
     "poisson failures, MTBF 5s (min gap 4s)"),
    ("poisson:mtbf=6,min_gap=5", PoissonScenario,
     "poisson failures, MTBF 6s (min gap 5s)"),
    ("poisson:mtbf=8,min_gap=5", PoissonScenario,
     "poisson failures, MTBF 8s (min gap 5s)"),
    ("poisson:mtbf=9,first_offset=1", PoissonScenario,
     "poisson failures, MTBF 9s (min gap 4s)"),
    ("correlated:at=10,k=2", CorrelatedScenario,
     "correlated kill of 2 workers (w0..) at +10s"),
    ("correlated:at=10,k=2,worker=0", CorrelatedScenario,
     "correlated kill of 2 workers (w0..) at +10s"),
    ("correlated:at=2,k=2", CorrelatedScenario,
     "correlated kill of 2 workers (w0..) at +2s"),
    ("correlated:at=6,k=2", CorrelatedScenario,
     "correlated kill of 2 workers (w0..) at +6s"),
    ("flaky:worker=1,mtbf=8,slowdown=3", FlakyNodeScenario,
     "flaky worker 1: MTBF 8s, 3x slower detection"),
    ("flaky:worker=1,mtbf=8,slowdown=3,min_gap=6", FlakyNodeScenario,
     "flaky worker 1: MTBF 8s, 3x slower detection"),
    ("flaky:worker=0,mtbf=2.4,slowdown=2", FlakyNodeScenario,
     "flaky worker 0: MTBF 2.4s, 2x slower detection"),
    ("flaky:mtbf=5", FlakyNodeScenario,
     "flaky worker 0: MTBF 5s, 2x slower detection"),
] + [(spec, None, None) for spec in (
    "nope:at=1", "", "poisson:mtbf=-1", "poisson:", "single:worker=0",
    "flaky:mtbf=5,slowdown=0.5", "correlated:at=2,k=0", "trace:",
    "single:at", "single:at=", "single:=3",
    "poisson:mtbf=nan", "poisson:mtbf=inf", "poisson:mtbf=9,min_gap=nan",
    "single:at=nan", "correlated:at=inf", "flaky:mtbf=5,slowdown=inf",
    "flaky:mtbf=inf", "trace:nan@0", "trace:5@", "trace:5@0;13@",
    "single:at=3,wrker=1", "poisson:mtbf=9,gap=2", "single:at=x",
    "poisson:mtbf=0", "trace:@1", "single:at=3,worker=1.5",
    "correlated:at=2,k=two",
    # rejected since the two grammars share a parser
    "single:at=3,at=4", "single:at=3,worker=-1", "trace:5@-1",
    "correlated:at=3,k=-2",
)]


@pytest.mark.parametrize("spec, cls, text", SCENARIO_VERDICTS)
def test_scenario_grammar_verdicts(spec, cls, text):
    if cls is None:
        with pytest.raises(ValueError):
            parse_scenario(spec)
        return
    scenario = parse_scenario(spec)
    assert type(scenario) is cls
    assert scenario.describe() == text


@pytest.mark.parametrize("spec", [
    "diurnal:period=sixty", "diurnal:period=nan", "mmpp:dwell_low=inf",
    "diurnal:period=60,period=30", "flash:at=10;11,ramp=2,hold=4", "trace:"])
def test_a_request_with_a_malformed_arrival_cannot_be_built(spec):
    """The other spec string fails at the same boundary: before a cache
    key exists, so before a ``--jobs`` sweep hands it to a pool worker."""
    from repro.experiments.parallel import RunRequest, request_key

    request = RunRequest(query="q1", protocol="coor", parallelism=2,
                         rate=100.0, arrival=spec)
    with pytest.raises(ValueError, match="malformed arrival process"):
        request.effective_config()
    with pytest.raises(ValueError, match="malformed arrival process"):
        request_key(request)


def test_a_trace_file_is_not_opened_when_the_request_is_hashed(tmp_path):
    from repro.experiments.parallel import RunRequest, request_key

    missing = RunRequest(query="q1", protocol="coor", parallelism=2,
                         rate=100.0, arrival=f"trace:{tmp_path / 'later.csv'}")
    assert len(request_key(missing)) == 64


@pytest.mark.parametrize("knobs, names", [
    (dict(failure_scenario="single:at=24"), "+24s can never fire"),
    (dict(failure_scenario="single:at=-0.5"), "+-0.5s can never fire"),
    (dict(failure_scenario="trace:5@0;30@1"), "+30s can never fire"),
    (dict(failure_scenario="correlated:at=1e9,k=2"), "+1e+09s can never"),
    (dict(failure_at=24.0), "at +24s': a kill at +24s can never fire"),
    (dict(failure_at=5.0, extra_failures=((40.0, 1),)), "+40s can never"),
])
def test_a_planned_kill_outside_the_window_cannot_be_configured(knobs, names):
    """Decision (ROADMAP, small and open): an offset the spec fixes and
    the window excludes is a usage error where the window is known."""
    with pytest.raises(ValueError) as raised:
        RuntimeConfig(duration=24.0, **knobs)
    assert names in str(raised.value)
    assert "measured window is [0, 24)s" in str(raised.value)
    # the random kinds fix no offset; the last instant inside is fine
    RuntimeConfig(duration=24.0, failure_scenario="poisson:mtbf=500")
    RuntimeConfig(duration=24.0, failure_at=23.999)


def test_a_worker_index_beyond_the_deployment_wraps_and_says_so():
    """The other half of the decision: the wrap stays the contract."""
    scenario = parse_scenario("correlated:at=10,k=99")
    assert scenario.wrapped(128) == ""
    assert scenario.wrapped(98) == "worker 98 -> 0 of 98"
    assert parse_scenario("flaky:worker=9,mtbf=1").wrapped(2) \
        == "worker 9 -> 1 of 2"
    assert parse_scenario("trace:5@0;13@7").wrapped(4) == "worker 7 -> 3 of 4"
    assert parse_scenario("poisson:mtbf=5").wrapped(2) == ""  # raw draws
    _, result, expected, measured = run_scenario_job(
        "coor", "single:at=6,worker=9")
    assert measured == expected
    assert [r.worker_index for r in result.metrics.failure_records] == [0]


def test_a_trace_kill_without_a_worker_field_hits_worker_zero():
    assert parse_scenario("trace:5;13@1").kills == ((5.0, 0), (13.0, 1))


def test_scenario_from_config_legacy_mapping():
    assert scenario_from_config(RuntimeConfig()) is None
    single = scenario_from_config(RuntimeConfig(failure_at=6.0, failure_worker=1))
    assert isinstance(single, SingleKillScenario)
    assert (single.at, single.worker) == (6.0, 1)
    trace = scenario_from_config(
        RuntimeConfig(failure_at=5.0, extra_failures=((13.0, 1),))
    )
    assert isinstance(trace, TraceScenario)
    assert trace.kills == ((5.0, 0), (13.0, 1))


def test_scenario_spec_overrides_legacy_knobs():
    config = RuntimeConfig(failure_at=6.0, failure_scenario="poisson:mtbf=9")
    scenario = scenario_from_config(config)
    assert isinstance(scenario, PoissonScenario)
    assert scenario.mtbf == 9.0


# --------------------------------------------------------------------- #
# End-to-end: multi-failure runs stay exactly-once
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("state_backend", ["full", "changelog"])
@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_two_failure_trace_matches_no_failure_run(protocol, state_backend):
    """Differential acceptance: final state is byte-identical to the
    no-failure run for every protocol x backend combination."""
    job_fail, _, expected, measured = run_scenario_job(
        protocol, "trace:5@0;13@1", state_backend=state_backend,
    )
    job_clean, _, _, measured_clean = run_scenario_job(
        protocol, None, state_backend=state_backend,
    )
    assert measured == expected
    assert measured_clean == expected
    assert canonical_state_bytes(job_fail) == canonical_state_bytes(job_clean)


@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_correlated_kill_stays_exactly_once(protocol):
    _, result, expected, measured = run_scenario_job(
        protocol, "correlated:at=6,k=2",
    )
    assert measured == expected
    assert result.metrics.n_failures == 2
    assert result.metrics.n_recoveries == 1


def test_poisson_scenario_recovers_every_failure():
    _, result, expected, measured = run_scenario_job(
        "unc", "poisson:mtbf=6,min_gap=5", duration=30.0,
    )
    assert measured == expected
    assert result.metrics.n_failures >= 2
    assert result.metrics.n_recoveries >= 1


def test_flaky_scenario_slows_detection():
    _, result, expected, measured = run_scenario_job(
        "unc", "flaky:worker=1,mtbf=8,slowdown=3,min_gap=6", duration=30.0,
    )
    assert measured == expected
    detected = [r for r in result.metrics.failure_records if r.detected_at >= 0]
    assert detected
    # cost model detection delay is 1s; the flaky node triples it
    assert all(r.detected_at - r.failed_at == pytest.approx(3.0)
               for r in detected)


# --------------------------------------------------------------------- #
# Records and availability metrics
# --------------------------------------------------------------------- #

def test_failure_records_accumulate_in_metrics():
    _, result, _, _ = run_scenario_job("unc", "trace:5@0;13@1")
    records = result.metrics.failure_records
    assert [r.worker_index for r in records] == [0, 1]
    assert records[0].failed_at == pytest.approx(7.0)   # warmup 2 + 5
    assert records[0].detected_at == pytest.approx(8.0)
    assert records[1].failed_at == pytest.approx(15.0)
    assert all(r.detected_at > r.failed_at for r in records)


def test_availability_and_goodput_reflect_outages():
    _, clean, _, _ = run_scenario_job("coor", None)
    _, failed, _, _ = run_scenario_job("coor", "trace:5@0;13@1")
    assert clean.availability() == 1.0
    assert clean.metrics.downtime(0.0, 30.0) == 0.0
    assert 0.0 < failed.availability() < 1.0
    assert len(failed.metrics.outages()) == 2
    for start, end in failed.metrics.outages():
        assert end > start
    assert failed.goodput() > 0


def test_outage_spans_kill_to_recovery_applied():
    _, result, _, _ = run_scenario_job("coor", "single:at=5")
    ((start, end),) = result.metrics.outages()
    assert start == pytest.approx(7.0)
    assert end >= result.metrics.first_failure().applied_at
    downtime = result.metrics.downtime(result.warmup,
                                       result.warmup + result.duration)
    assert downtime == pytest.approx(end - start)
