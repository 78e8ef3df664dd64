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
    assert cost_model.blob_restore_delay(1000) >= cost_model.blob_latency


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
