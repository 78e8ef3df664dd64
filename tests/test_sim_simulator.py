"""Unit tests for the virtual-time simulator."""

import gc
import math

import pytest

from repro.sim.simulator import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_until_executes_in_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "b")
    sim.schedule(1.0, seen.append, "a")
    sim.run_until(3.0)
    assert seen == ["a", "b"]
    assert sim.now == 3.0


def test_run_until_executes_events_at_boundary():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "x")
    sim.run_until(1.0)
    assert seen == ["x"]


def test_run_until_leaves_future_events():
    sim = Simulator()
    seen = []
    sim.schedule(5.0, seen.append, "later")
    sim.run_until(2.0)
    assert seen == []
    assert sim.pending_events == 1
    sim.run_until(6.0)
    assert seen == ["later"]


def test_clock_advances_to_event_times():
    sim = Simulator()
    stamps = []
    sim.schedule(0.5, lambda: stamps.append(sim.now))
    sim.schedule(1.5, lambda: stamps.append(sim.now))
    sim.run_until(2.0)
    assert stamps == [0.5, 1.5]


def test_events_can_schedule_more_events():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run_until(10.0)
    assert seen == [0, 1, 2, 3]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Simulator().schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize("call", ["schedule", "schedule_at"])
def test_nan_times_are_rejected(call):
    """NaN fails ``delay < 0`` and ``time < now`` alike; accepted, it
    would become the clock and poison every later relative schedule."""
    sim = Simulator()
    with pytest.raises(SimulationError, match="nan"):
        getattr(sim, call)(float("nan"), lambda: None)
    assert sim.pending_events == 0


def test_a_nan_network_latency_stops_the_run():
    """The reachable NaN: a cost model whose latency is NaN makes every
    arrival time NaN, and the message hop refuses the first one."""
    from repro.dataflow.runtime import Job
    from repro.sim.costs import CostModel, RuntimeConfig

    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(duration=2.0, warmup=1.0,
                           cost_model=CostModel(network_latency=float("nan")))
    job = Job(build_count_graph(), "none", 2,
              {"events": make_event_log(100.0, 2.0, 2)}, config)
    with pytest.raises(SimulationError, match="nan"):
        job.run()
    assert not math.isnan(job.sim.now)


def test_schedule_at_absolute_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(4.0, seen.append, "x")
    sim.run_until(5.0)
    assert seen == ["x"]
    assert sim.now == 5.0


def test_run_drains_queue():
    sim = Simulator()
    seen = []
    for i in range(3):
        sim.schedule(float(i), seen.append, i)
    sim.run_until(2.0)
    assert seen == [0, 1, 2]
    assert sim.pending_events == 0


def test_run_until_same_time_twice_is_safe():
    sim = Simulator()
    sim.run_until(5.0)
    sim.run_until(5.0)
    assert sim.now == 5.0


def test_determinism_same_schedule_same_order():
    def run_once():
        sim = Simulator()
        seen = []
        sim.schedule(1.0, seen.append, "a")
        sim.schedule(1.0, seen.append, "b")
        sim.schedule(0.5, seen.append, "c")
        sim.run_until(2.0)
        return seen

    assert run_once() == run_once()


# --------------------------------------------------------------------- #
# The collector pause is scoped to the loop
# --------------------------------------------------------------------- #

@pytest.fixture
def restore_collector():
    """Leave the collector the way pytest had it, whatever the test did."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_loop_pauses_collector_and_restores_callers_setting(
        restore_collector, enabled):
    (gc.enable if enabled else gc.disable)()
    sim = Simulator()
    inside = []
    sim.schedule(1.0, lambda: inside.append(gc.isenabled()))
    sim.run_until(5.0)
    assert inside == [False]
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_loop_restores_collector_when_a_callback_raises(
        restore_collector, enabled):
    (gc.enable if enabled else gc.disable)()
    sim = Simulator()

    def boom():
        raise RuntimeError("callback failed")

    sim.schedule(1.0, boom)
    with pytest.raises(RuntimeError, match="callback failed"):
        sim.run_until(5.0)
    assert gc.isenabled() is enabled
    sim.run_until(5.0)  # and the simulator is usable again


def _cyclic_garbage_of_a_run(query, protocol, **knobs):
    """Unreachable objects ``gc.collect()`` finds right after one full run."""
    from repro.dataflow.runtime import Job
    from repro.experiments.parallel import RunRequest
    from repro.workloads.nexmark import QUERIES

    spec = QUERIES[query]
    request = RunRequest(query=query, protocol=protocol, parallelism=3,
                         rate=600.0, duration=5.0, warmup=1.0,
                         checkpoint_interval=1.5, seed=7, **knobs)
    inputs = spec.make_job_inputs(request.rate, 7.0, 3, 0.0, request.seed)
    job = Job(spec.build_graph(3), protocol, 3, inputs,
              request.effective_config())
    gc.collect()
    gc.disable()  # nothing may be collected before we count it
    result = job.run(rate=request.rate)
    unreachable = gc.collect()
    assert sum(result.metrics.sink_counts.values()) > 0
    if "failure_at" in knobs:
        assert result.metrics.n_recoveries == 1
    return unreachable


GARBAGE_CASES = [
    ("q12", "none", {}),
    ("q12", "coor", {}),
    ("q3", "coor-unaligned", {}),
    ("q3", "unc", {}),
    ("q12", "cic", {"failure_at": 2.0}),
    ("q3", "coor", {"failure_at": 2.0, "state_backend": "changelog"}),
    ("q8", "unc", {"failure_at": 2.0, "rescale_to": 4}),
]


@pytest.mark.parametrize("query, protocol, knobs", GARBAGE_CASES)
def test_a_run_leaves_no_cyclic_garbage(restore_collector, query, protocol,
                                        knobs):
    """The invariant the collector pause rests on (DESIGN.md section 19).

    Everything the event loop allocates dies by reference count; a change
    that makes simulator callbacks leave unreachable cycles behind would
    grow memory for the length of a run, and must fail here first.
    """
    assert _cyclic_garbage_of_a_run(query, protocol, **knobs) == 0


@pytest.mark.parametrize("query, protocol, knobs", GARBAGE_CASES)
def test_a_finished_request_leaves_no_job_behind(restore_collector, query,
                                                 protocol, knobs):
    """``run_with_spec`` releases its job (DESIGN.md section 20).

    A deployment is full of back-references, so an unreleased job — send
    log, operator state, dedup sets — is cyclic garbage that waits for
    whichever full collection comes next, and a sweep's resident memory
    then depends on how often unrelated allocations trigger one.  After
    ``execute_request`` nothing unreachable may be left, and nothing of
    the deployment (retired workers of a rescale included) may be alive.
    """
    from repro.dataflow.runtime import Job
    from repro.dataflow.worker import InstanceRuntime, WorkerRuntime
    from repro.experiments.parallel import RunRequest, execute_request

    request = RunRequest(query=query, protocol=protocol, parallelism=3,
                         rate=600.0, duration=5.0, warmup=1.0,
                         checkpoint_interval=1.5, seed=7, **knobs)
    execute_request(request)  # the input memo and lazy imports, once
    gc.collect()
    gc.disable()  # nothing may be collected before we count it
    result = execute_request(request)
    alive = [type(obj).__name__ for obj in gc.get_objects()
             if isinstance(obj, (Job, WorkerRuntime, InstanceRuntime))]
    assert gc.collect() == 0
    assert alive == []
    # the result outlives the job it came from
    assert sum(result.metrics.sink_counts.values()) > 0
    assert result.total_checkpoints() >= 0 and result.latency_series() is not None
    if "failure_at" in knobs:
        assert result.metrics.n_recoveries == 1


@pytest.mark.parametrize("query, protocol, knobs", GARBAGE_CASES)
def test_no_collection_runs_while_a_request_holds_its_job(
        restore_collector, monkeypatch, query, protocol, knobs):
    """``run_with_spec`` pauses the collector from deploy to release.

    A collection while the deployment is alive traverses send log,
    operator state and dedup history to free nothing (DESIGN.md section
    21).  ``gc.callbacks`` must see none between the start of
    ``Job.__init__`` and the end of ``Job.release`` — with the collector
    *enabled* around the request, where the loop's own pause would let
    one fire between ``run_until`` returning and the release.
    """
    from repro.dataflow.runtime import Job
    from repro.experiments.parallel import RunRequest, execute_request

    request = RunRequest(query=query, protocol=protocol, parallelism=3,
                         rate=600.0, duration=5.0, warmup=1.0,
                         checkpoint_interval=1.5, seed=7, **knobs)
    seen = {"inside": 0, "outside": 0, "deployed": 0, "released": 0}
    holding = []
    init, release = Job.__init__, Job.release

    def deploy(job, *args, **kwargs):
        holding.append(job)
        seen["deployed"] += 1
        init(job, *args, **kwargs)

    def let_go(job):
        release(job)
        holding.clear()
        seen["released"] += 1

    def on_collection(phase, info):
        if phase == "start":
            seen["inside" if holding else "outside"] += 1

    monkeypatch.setattr(Job, "__init__", deploy)
    monkeypatch.setattr(Job, "release", let_go)
    gc.enable()
    gc.callbacks.append(on_collection)
    try:
        result = execute_request(request)
        gc.collect()  # the probe does see collections
    finally:
        gc.callbacks.remove(on_collection)
    assert seen["deployed"] == seen["released"] == 1
    assert seen["inside"] == 0
    assert seen["outside"] >= 1
    assert gc.isenabled()
    assert sum(result.metrics.sink_counts.values()) > 0


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("outcome", ["returns", "deploy-raises", "callback-raises"])
def test_a_request_restores_the_callers_collector_setting(
        restore_collector, monkeypatch, enabled, outcome):
    from repro.dataflow.runtime import Job
    from repro.experiments.parallel import RunRequest, execute_request
    from repro.sim.costs import RuntimeConfig

    config = None
    if outcome == "deploy-raises":
        config = RuntimeConfig(unc_semantics="exactly-twice")
    elif outcome == "callback-raises":
        def boom(job, instance):
            raise RuntimeError("poll failed")

        monkeypatch.setattr(Job, "_enqueue_poll", boom)
    request = RunRequest(query="q12", protocol="unc", parallelism=2,
                         rate=300.0, duration=3.0, warmup=1.0, seed=7,
                         config=config)
    (gc.enable if enabled else gc.disable)()
    if outcome == "returns":
        execute_request(request)
    else:
        error = ValueError if outcome == "deploy-raises" else RuntimeError
        with pytest.raises(error, match="exactly-twice|poll failed"):
            execute_request(request)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("query, hot_ratio, arrival", [
    ("q12", 0.3, None),
    ("q8", 0.3, "flash:at=1;3,mag=3,ramp=0.5,hold=1"),
    ("reachability", 0.0, "diurnal:period=5,amp=0.5"),
])
def test_generating_inputs_leaves_no_cyclic_garbage(restore_collector, query,
                                                    hot_ratio, arrival):
    """The invariant the generators' collector pause rests on."""
    from repro.experiments.parallel import resolve_spec
    from repro.experiments.sharding import shard_inputs
    from repro.workloads.arrivals import parse_arrival

    spec = resolve_spec(query)
    process = parse_arrival(arrival) if arrival else None
    gc.collect()
    gc.disable()
    inputs = spec.build_inputs(2000.0, 4.0, 4, hot_ratio, 7, process)
    assert gc.isenabled() is False  # the pause restored *our* setting
    assert gc.collect() == 0
    assert sum(len(log) for log in inputs.values()) > 0
    if query == "q12":
        sliced = shard_inputs(spec.build_graph(4), inputs, 0, 2, 128)
        assert gc.collect() == 0
        assert 0 < len(sliced["bids"]) < len(inputs["bids"])
