"""A checkpoint is written in one place and read in one place.

Structure tests over the source of ``repro`` (DESIGN.md section 10): the
protocols differ in *when* an instance checkpoints and *which* line it
restores; describing a checkpoint, making it durable and putting it back
is shared machinery, and these tests keep it from forking again.  Whoever
adds a second site has to come here and say why.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.dataflow.runtime import Job
from repro.dataflow.worker import RidSnapshot
from repro.sim.costs import RuntimeConfig

from tests.conftest import build_count_graph, make_event_log

#: every function of the package, as (file name, function name, node)
FUNCTIONS = [
    (path.name, node.name, node)
    for path in sorted(Path(repro.__file__).parent.rglob("*.py"))
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, ast.FunctionDef)
]


def _callers_of(name: str) -> set[tuple[str, str]]:
    """The functions whose body calls ``name(...)`` directly."""
    return {
        (filename, function)
        for filename, function, node in FUNCTIONS
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name) and call.func.id == name
    }


def test_one_function_describes_a_checkpoint():
    assert _callers_of("CheckpointMeta") == {
        ("base.py", "initial_checkpoint"),     # the implicit virgin state
        ("runtime.py", "capture_checkpoint"),  # the write step
    }


def test_the_blob_key_is_spelled_once():
    """``<operator>/<index>/<counter>``: three fields joined by slashes."""
    spelled = [
        (filename, function)
        for filename, function, node in FUNCTIONS
        for string in ast.walk(node)
        if isinstance(string, ast.JoinedStr)
        and [part.value for part in string.values
             if isinstance(part, ast.Constant)] == ["/", "/"]
        and len(string.values) == 5
    ]
    assert spelled == [("runtime.py", "capture_checkpoint")]


def test_one_function_reports_an_instance_checkpoint():
    assert _callers_of("CheckpointEvent") == {
        ("runtime.py", "_checkpoint_durable"),  # every instance checkpoint
        ("coordinated.py", "_complete_round"),  # the summary of a round
    }


def test_an_instance_is_put_back_through_two_methods():
    """Same parallelism or another one; nothing else restores or resets."""
    tree = ast.parse(
        (Path(repro.__file__).parent / "dataflow" / "worker.py").read_text())
    (instance,) = [node for node in tree.body
                   if isinstance(node, ast.ClassDef)
                   and node.name == "InstanceRuntime"]
    putting_back = {
        node.name for node in instance.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith(("restore", "reset"))
    }
    assert putting_back == {"restore", "restore_rescaled"}


def test_the_chain_is_folded_once():
    """Base restored, deltas applied: ``apply_delta`` on an operator's
    state registry is called from the one fold."""
    folding = {
        (filename, function)
        for filename, function, node in FUNCTIONS
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "apply_delta"
        and isinstance(call.func.value, ast.Attribute)
        and call.func.value.attr == "states"
    }
    assert folding == {("worker.py", "fold_chain")}


#: what every checkpoint blob holds, a snapshot or a changelog delta
PAYLOAD_KEYS = frozenset({"states", "processed_rids", "source_cursors",
                          "extra"})


@pytest.mark.parametrize("protocol", ["unc", "coor-unaligned"])
def test_snapshots_and_deltas_are_one_payload_format(protocol):
    """A snapshot and a delta differ in what ``"states"`` holds, not in
    their keys: each carries the dedup node it sealed and no channel
    cursor (its ``CheckpointMeta`` holds those).  Unaligned COOR adds the
    channel state of the channels whose marker a capture waited for, so
    only a receiving instance's blob has it."""
    job = Job(build_count_graph(), protocol, 2,
              {"events": make_event_log(300.0, 6.0, 2)},
              RuntimeConfig(checkpoint_interval=1.0, duration=6.0,
                            warmup=2.0, failure_at=None, seed=3,
                            state_backend="changelog"))
    store = job.coordinator.blobstore
    put = store.put
    shapes = set()

    def recording_put(key, payload, size_bytes, base_key=None):
        assert type(payload["processed_rids"]) is RidSnapshot
        shapes.add((base_key is None, frozenset(payload)))
        return put(key, payload, size_bytes, base_key=base_key)

    store.put = recording_put
    job.run(rate=300.0, query_name="count")
    expected = {(True, PAYLOAD_KEYS), (False, PAYLOAD_KEYS)}
    if protocol == "coor-unaligned":
        expected |= {(base, PAYLOAD_KEYS | {"channel_state"})
                     for base, _ in expected}
    assert shapes == expected
