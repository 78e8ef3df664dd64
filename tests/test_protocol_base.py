"""Tests for protocol registry, checkpoint metadata and recovery plans."""

import pytest

from repro.core.base import (
    CheckpointMeta,
    CheckpointRegistry,
    PROTOCOLS,
    RecoveryPlan,
    create_protocol,
    initial_checkpoint,
)
from repro.dataflow.channels import DATA, Message


def meta(instance=("op", 0), cid=1, **kw):
    defaults = dict(
        instance=instance, checkpoint_id=cid, kind="local", round_id=None,
        started_at=0.0, durable_at=1.0, state_bytes=10, blob_key="b",
        last_sent={}, last_received={},
        upload_bytes=10,
    )
    defaults.update(kw)
    return CheckpointMeta(**defaults)


def test_registry_contains_all_four_protocols():
    assert {"none", "coor", "unc", "cic"} <= set(PROTOCOLS)


def test_create_protocol_unknown_name():
    with pytest.raises(ValueError):
        create_protocol("flink", job=None)


def test_initial_checkpoint_shape():
    init = initial_checkpoint(("op", 3))
    assert init.checkpoint_id == 0
    assert init.kind == "initial"
    assert init.sent_cursor((0, 0, 0)) == 0
    assert init.received_cursor((9, 9, 9)) == 0


def test_meta_cursor_defaults():
    m = meta(last_sent={(0, 0, 1): 5})
    assert m.sent_cursor((0, 0, 1)) == 5
    assert m.sent_cursor((0, 0, 2)) == 0


def test_checkpoint_registry_orders_and_validates():
    reg = CheckpointRegistry()
    reg.register(meta(cid=1))
    reg.register(meta(cid=2))
    with pytest.raises(ValueError):
        reg.register(meta(cid=2))  # ids must strictly increase
    assert [m.checkpoint_id for m in reg.with_initial(("op", 0))[1:]] == [1, 2]
    assert reg.latest(("op", 0)).checkpoint_id == 2
    assert reg.total() == 2


def test_registry_with_initial_prepends_virtual_checkpoint():
    reg = CheckpointRegistry()
    reg.register(meta(cid=1))
    metas = reg.with_initial(("op", 0))
    assert [m.checkpoint_id for m in metas] == [0, 1]
    assert metas[0].kind == "initial"


def test_registry_unknown_instance():
    reg = CheckpointRegistry()
    assert reg.with_initial(("ghost", 0))[1:] == []
    assert reg.latest(("ghost", 0)) is None
    assert reg.with_initial(("ghost", 0))[0].kind == "initial"


def test_recovery_plan_counts_replay():
    msgs = [
        Message(channel=(0, 0, 0), seq=1, kind=DATA,
                records=[object()] * 3, payload_bytes=1),
        Message(channel=(0, 0, 0), seq=2, kind=DATA,
                records=[object()], payload_bytes=1),
    ]
    plan = RecoveryPlan(line={}, replay={(0, 0, 0): msgs})
    assert plan.replayed_messages == 2
    assert plan.replayed_records == 4


def test_base_protocol_recovery_plan_is_virgin_restart():
    from tests.conftest import build_count_graph, make_event_log
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig

    log = make_event_log(100.0, 2.0, 2)
    job = Job(build_count_graph(), "none", 2, {"events": log},
              RuntimeConfig(duration=4.0, warmup=1.0))
    plan = job.protocol.build_recovery_plan()
    assert all(m.kind == "initial" for m in plan.line.values())
    assert plan.replay == {}


# --------------------------------------------------------------------- #
# The data-path hooks: called per DATA message where a protocol has them
# --------------------------------------------------------------------- #

def _count_job(protocol, **knobs):
    from tests.conftest import build_count_graph, make_event_log
    from repro.dataflow.runtime import Job
    from repro.sim.costs import RuntimeConfig

    log = make_event_log(200.0, 4.0, 2)
    return Job(build_count_graph(), protocol, 2, {"events": log},
               RuntimeConfig(duration=5.0, warmup=1.0, **knobs))


def _count_data_arrivals(job):
    """Wrap the arrival seam; the list holds one count per DATA arrival."""
    original, seen = job.transport.arrive, []

    def counting(channel, msg, deploy_epoch=0):
        if msg.kind == DATA:
            seen.append(1)
        original(channel, msg, deploy_epoch)

    job.transport.arrive = counting
    return seen


def test_an_overriding_protocol_sees_every_data_message_once(monkeypatch):
    """A subclass that overrides ``on_send`` / ``on_data_received`` is
    called exactly once per DATA message sent / processed."""
    from repro.core.base import CheckpointProtocol

    calls = {"send": 0, "receive": 0}

    class Hooked(CheckpointProtocol):
        name = "hooked"

        def on_send(self, instance, channel, msg):
            assert msg.kind == DATA
            calls["send"] += 1
            return 0.0

        def on_data_received(self, instance, channel, msg):
            assert msg.kind == DATA
            calls["receive"] += 1
            return 0.0

    monkeypatch.setitem(PROTOCOLS, "hooked", Hooked)
    job = _count_job("hooked")
    arrivals = _count_data_arrivals(job)
    job.run(drain=True)  # every message sent has landed and been processed
    assert calls["send"] > 50
    assert calls["send"] == len(arrivals) == calls["receive"]
    assert calls["send"] == job.metrics.messages_sent  # no markers here


@pytest.mark.parametrize("protocol", ["none", "coor", "coor-unaligned", "unc"])
def test_the_base_no_op_hooks_are_never_called(monkeypatch, protocol):
    """Where a protocol keeps the base's no-op hook, the data path does
    not call it at all (``coor-unaligned`` overrides only
    ``on_data_received``, ``unc`` only ``on_send``)."""
    from repro.core.base import CheckpointProtocol

    calls = []

    def counted(self, instance, channel, msg):
        calls.append(msg.kind)
        return 0.0

    monkeypatch.setattr(CheckpointProtocol, "on_send", counted)
    monkeypatch.setattr(CheckpointProtocol, "on_data_received", counted)
    job = _count_job(protocol, checkpoint_interval=1.0)
    arrivals = _count_data_arrivals(job)
    job.run()
    assert len(arrivals) > 50
    assert calls == []
