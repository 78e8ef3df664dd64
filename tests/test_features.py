"""Table I cross-checks: the declared feature matrix matches behaviour."""

import pytest

from repro.core.features import FEATURES, feature_table, features_of

from tests.conftest import run_count_job


def test_paper_rows_match_table1():
    """The paper's Table I entries for the three evaluated families."""
    coor = features_of("coor")
    unc = features_of("unc")
    cic = features_of("cic")
    # COOR: blocking markers only
    assert coor.blocking_markers
    assert not coor.inflight_logging and not coor.dedup_required
    assert not coor.message_overhead
    assert coor.straggler_stalls and coor.unused_checkpoints
    # UNC: logging + dedup + independent checkpoints + unused checkpoints
    assert unc.inflight_logging and unc.dedup_required
    assert unc.independent_checkpoints and unc.unused_checkpoints
    assert not unc.blocking_markers and not unc.straggler_stalls
    # CIC: everything UNC has, plus message overhead and forced checkpoints
    assert cic.inflight_logging and cic.message_overhead
    assert cic.forced_checkpoints


def test_rendered_table_lists_features():
    text = feature_table()
    assert "Table I" in text
    assert "coor" in text and "cic" in text
    for feature in FEATURES:
        assert feature.replace("_", " ") in text


def test_logging_trait_matches_runtime_behaviour():
    for name, expect_log in [("coor", False), ("unc", True), ("cic", True)]:
        job, _ = run_count_job(name, failure_at=None, duration=10.0)
        assert job.protocol.logs_messages == expect_log, name
        assert features_of(name).inflight_logging == expect_log


def test_blocking_trait_matches_runtime_behaviour():
    """COOR blocks channels during alignment at least once; UNC never."""
    blocked_seen = {"coor": False, "unc": False}
    for name in ("coor", "unc"):
        from repro.dataflow.runtime import Job
        from repro.sim.costs import RuntimeConfig
        from tests.conftest import build_count_graph, make_event_log

        log = make_event_log(300.0, 10.0, 2)
        job = Job(build_count_graph(), name, 2, {"events": log},
                  RuntimeConfig(duration=12.0, warmup=1.0,
                                checkpoint_interval=3.0))
        original_block = job.workers[0].block_channel

        def spy(channel, _name=name):
            blocked_seen[_name] = True
            original_block(channel)

        job.workers[0].block_channel = spy
        job.run()
    assert blocked_seen["coor"] is True
    assert blocked_seen["unc"] is False


def test_forced_trait_matches_runtime_behaviour():
    _, unc = run_count_job("unc", failure_at=None, duration=16.0)
    assert unc.metrics.forced_checkpoints == 0
    assert not features_of("unc").forced_checkpoints


def test_unknown_protocol_raises():
    with pytest.raises(KeyError):
        features_of("flink")
