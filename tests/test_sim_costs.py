"""Unit tests for the cost model."""

import pytest

from repro.sim.costs import RuntimeConfig


def test_network_delay_has_latency_floor(cost_model):
    assert cost_model.network_delay(0) == pytest.approx(cost_model.network_latency)


def test_network_delay_grows_with_size(cost_model):
    small = cost_model.network_delay(100)
    big = cost_model.network_delay(1_000_000)
    assert big > small


def test_serialize_cost_base_plus_bytes(cost_model):
    base = cost_model.serialize_cost(0)
    assert base == pytest.approx(cost_model.serialize_message_base)
    assert cost_model.serialize_cost(1000) == pytest.approx(
        base + 1000 * cost_model.serialize_per_byte
    )


def test_log_append_cost_scales_with_records(cost_model):
    one = cost_model.log_append_cost(1, 100)
    ten = cost_model.log_append_cost(10, 1000)
    assert ten > one


def test_snapshot_sync_cost_scales_with_state(cost_model):
    empty = cost_model.snapshot_sync_cost(0)
    big = cost_model.snapshot_sync_cost(10_000_000)
    assert empty == pytest.approx(cost_model.snapshot_base)
    assert big > empty


def test_blob_delays_positive(cost_model):
    assert cost_model.blob_upload_delay(0) > 0
    assert cost_model.chain_restore_delay(1000, 1) >= cost_model.blob_latency


def test_cic_piggyback_grows_with_instances(cost_model):
    small = cost_model.cic_piggyback_bytes(10)
    large = cost_model.cic_piggyback_bytes(400)
    assert large > small
    assert small >= cost_model.cic_header_bytes


def test_cic_piggyback_is_integer(cost_model):
    assert isinstance(cost_model.cic_piggyback_bytes(33), int)


def test_runtime_config_defaults_match_paper():
    config = RuntimeConfig()
    assert config.checkpoint_interval == 5.0
    assert config.duration == 60.0
    assert config.failure_at is None


def test_runtime_config_has_independent_cost_models():
    a = RuntimeConfig()
    b = RuntimeConfig()
    a.cost_model.network_latency = 42.0
    assert b.cost_model.network_latency != 42.0


def test_marker_cheaper_than_typical_piggyback(cost_model):
    """COOR's marker must be lightweight vs CIC's per-record piggyback."""
    assert cost_model.marker_bytes < cost_model.cic_piggyback_bytes(10)


def test_detection_delay_positive(cost_model):
    assert cost_model.detection_delay > 0


def test_channel_epsilon_tiny(cost_model):
    assert 0 < cost_model.channel_epsilon < 1e-3


@pytest.mark.parametrize("field", ["source_max_poll", "batch_max_records"])
@pytest.mark.parametrize("value", [0, -3])
def test_non_positive_poll_and_batch_bounds_rejected(field, value):
    """0 used to run to completion with nothing ingested; -3 read wrong slices."""
    from repro.sim.costs import CostModel

    with pytest.raises(ValueError, match=f"{field} must be positive"):
        CostModel(**{field: value})
    assert getattr(CostModel(**{field: 1}), field) == 1


@pytest.mark.parametrize("field, value", [
    ("checkpoint_interval", 0.0), ("checkpoint_interval", -1.0),
    ("checkpoint_interval", float("nan")), ("checkpoint_interval", float("inf")),
    ("warmup", -1.0), ("warmup", float("nan")), ("warmup", float("inf")),
    ("channel_capacity_bytes", -5), ("max_key_groups", 0),
    ("per_operator_schedules", {"count": (0.0, 1.0)}),
    ("per_operator_schedules", {"count": (-2.0, 1.0)}),
])
def test_runtime_config_rejects_a_run_shape_that_cannot_run(field, value):
    """Each of these hung, died later as a traceback, or ran silently."""
    from repro.sim.costs import RuntimeConfig

    with pytest.raises(ValueError, match=field):
        RuntimeConfig(**{field: value})


def test_runtime_config_accepts_the_boundaries():
    from repro.sim.costs import RuntimeConfig

    config = RuntimeConfig(
        checkpoint_interval=1e-3, warmup=0.0, channel_capacity_bytes=0,
        max_key_groups=1,
        per_operator_schedules={"count": (10.0, 0.0), "other": (None, 2.0)})
    assert config.warmup == 0.0 and config.max_key_groups == 1


@pytest.mark.parametrize("protocol", ["coor", "unc"])
def test_a_zero_interval_request_fails_at_once_instead_of_spinning(protocol):
    """The round / local timer re-armed itself at the same virtual
    instant, so the run (or the pool worker given it) never returned."""
    import signal

    from repro.experiments.parallel import (
        RunRequest, execute_request, request_key)

    def too_slow(signum, frame):
        raise AssertionError("a zero checkpoint interval is still spinning")

    request = RunRequest(query="q12", protocol=protocol, parallelism=2,
                         rate=200.0, duration=2.0, warmup=1.0,
                         checkpoint_interval=0.0)
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match="checkpoint_interval"):
            execute_request(request)
        # a --jobs sweep keys the request before any worker sees it
        with pytest.raises(ValueError, match="checkpoint_interval"):
            request_key(request)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
