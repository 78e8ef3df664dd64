"""Adaptive (Young–Daly) checkpoint-interval controller tests.

The acceptance test is convergence: fed a synthetic MTBF workload, the
controller's chosen interval must land within 20% of the analytic
Young–Daly optimum ``sqrt(2 * MTBF * C)``.
"""

import random

import pytest

from repro.sim.costs import RuntimeConfig
from repro.sim.failure import (
    ASSUMED_MTBF,
    CLAMP_FACTOR,
    MAX_INTERVAL,
    MIN_INTERVAL,
    AdaptiveIntervalController,
    young_daly_interval,
)

from tests.test_failure_scenarios import run_scenario_job


def make_controller():
    return AdaptiveIntervalController(initial_interval=5.0)


def test_young_daly_formula():
    assert young_daly_interval(10.0, 0.05) == pytest.approx(1.0)
    assert young_daly_interval(0.0, 0.05) == 0.0


def test_keeps_initial_interval_until_cost_observed():
    controller = make_controller()
    assert controller.interval == 5.0
    controller.observe_failure(10.0)
    controller.observe_failure(20.0)
    assert controller.interval == 5.0  # MTBF alone is not enough
    assert controller.updates == []


def test_uses_assumed_mtbf_before_first_gap():
    controller = make_controller()
    controller.observe_checkpoint(1.0, 0.04)
    assert controller.mtbf_estimate == ASSUMED_MTBF
    assert controller.interval == pytest.approx(
        young_daly_interval(ASSUMED_MTBF, 0.04))
    assert MIN_INTERVAL < controller.interval < MAX_INTERVAL  # unclamped


def test_interval_clamped_to_bounds():
    # under the prior, a microsecond checkpoint asks for ~8 ms and a
    # 100 s one for ~77 s
    low = make_controller()
    low.observe_checkpoint(1.0, 1e-6)
    assert young_daly_interval(ASSUMED_MTBF, 1e-6) < MIN_INTERVAL
    assert low.interval == MIN_INTERVAL
    high = make_controller()
    high.observe_checkpoint(1.0, 100.0)
    assert young_daly_interval(ASSUMED_MTBF, 100.0) > MAX_INTERVAL
    assert high.interval == MAX_INTERVAL


def test_outlier_observations_are_clamped():
    controller = make_controller()
    for t in range(1, 20):
        controller.observe_checkpoint(float(t), 0.05)
    settled = controller._cost_ema
    controller.observe_checkpoint(21.0, 500.0)  # one freak stall
    # the sample was clamped to CLAMP_FACTOR x the EMA before mixing
    assert controller._cost_ema <= settled * CLAMP_FACTOR
    assert controller._cost_ema < 1.0


def test_updates_record_the_trajectory():
    controller = make_controller()
    controller.observe_checkpoint(3.0, 0.05)
    controller.observe_checkpoint(6.0, 0.08)
    assert len(controller.updates) == 2
    times = [t for t, _ in controller.updates]
    assert times == [3.0, 6.0]


def test_converges_within_20pct_of_young_daly_optimum():
    """Acceptance: synthetic MTBF workload -> interval within 20% of
    sqrt(2 * MTBF * C)."""
    mtbf, cost = 12.0, 0.06
    optimum = young_daly_interval(mtbf, cost)
    controller = make_controller()
    rng = random.Random(11)
    now = 0.0
    next_failure = rng.expovariate(1.0 / mtbf)
    while now < 600.0:
        now += controller.interval
        controller.observe_checkpoint(now, rng.uniform(0.9, 1.1) * cost)
        while next_failure <= now:
            controller.observe_failure(next_failure)
            next_failure += rng.expovariate(1.0 / mtbf)
    assert controller.interval == pytest.approx(optimum, rel=0.20)
    assert controller.mtbf_estimate == pytest.approx(mtbf, rel=0.5)


# --------------------------------------------------------------------- #
# Runtime integration
# --------------------------------------------------------------------- #

def test_invalid_policy_rejected():
    from repro.dataflow.runtime import Job
    from tests.conftest import build_count_graph, make_event_log

    config = RuntimeConfig(interval_policy="sometimes")
    log = make_event_log(100.0, 5.0, 2)
    with pytest.raises(ValueError, match="interval_policy"):
        Job(build_count_graph(), "unc", 2, {"events": log}, config)


@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_adaptive_run_stays_exactly_once(protocol):
    _, result, expected, measured = run_scenario_job(
        protocol, "poisson:mtbf=7,min_gap=5", duration=30.0,
        interval_policy="adaptive",
    )
    assert measured == expected
    assert result.metrics.interval_updates  # the controller reacted
    for _, interval in result.metrics.interval_updates:
        assert MIN_INTERVAL <= interval <= MAX_INTERVAL


def test_fixed_policy_records_no_interval_updates():
    _, result, _, _ = run_scenario_job("unc", "single:at=5")
    assert result.metrics.interval_updates == []


def test_adaptive_shortens_interval_under_frequent_failures():
    """With failures every ~6s and cheap checkpoints, Young–Daly sits far
    below the configured 3s interval, so the controller must shrink it."""
    _, result, _, _ = run_scenario_job(
        "unc", "poisson:mtbf=6,min_gap=5", duration=30.0,
        interval_policy="adaptive",
    )
    final = result.metrics.interval_updates[-1][1]
    # cheap checkpoints + MTBF ~6s put the optimum near (or below) the
    # 0.5s clamp floor — well under the configured 3s either way
    assert MIN_INTERVAL <= final < 3.0
