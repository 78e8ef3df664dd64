"""The premise of journal-only admission (DESIGN.md section 23).

An instance that has never been rolled back admits without probing a
dedup set, because nothing can be offered to it twice: channels are FIFO
and exactly-once while no worker has failed, and a lineage id is a
bijection of its parent's.  Three things hold that premise:

* the system itself — the first time such a history becomes a set (a
  restore, or a read of ``processed_rids``) its size must equal the
  number of rids journaled, or :class:`RepeatedRidError` names the
  instance and both counts;
* every registered query under UNC and CIC, failure-free: no instance
  ever builds a set, and the sets built afterwards pass that check;
* every recovery path: once ``apply_recovery`` has run — a plain
  rollback, a rollback to the initial state, a rescaled redeploy — every
  instance of a protocol that dedups holds a set, so the set-less arm of
  admission is unreachable from the moment a repeat is possible.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro

from repro.dataflow.runtime import Job
from repro.dataflow.worker import RepeatedRidError
from repro.experiments.parallel import resolve_spec
from repro.metrics.collectors import KIND_INITIAL
from repro.sim.costs import CostModel, RuntimeConfig
from repro.workloads.cyclic import REACHABILITY
from repro.workloads.nexmark import QUERIES

from tests.conftest import build_count_graph, make_event_log
from tests.test_state_backends import _admit, _dedup_job

DEDUP_PROTOCOLS = ["unc", "cic"]


# --------------------------------------------------------------------- #
# The transition check
# --------------------------------------------------------------------- #

def test_a_rid_journaled_twice_is_named_at_the_first_restore():
    job = _dedup_job("full")
    instance = job.instance(("count", 0))
    instance.rid_journal.extend([11, 12, 11])  # what a broken engine would do
    meta, snapshot = job.capture_checkpoint(instance, "local", None)
    assert snapshot["processed_rids"].count == 3  # sealed blind, as journaled
    with pytest.raises(RepeatedRidError) as raised:
        instance.restore(meta, [snapshot])
    error = raised.value
    assert (error.instance, error.journaled, error.distinct) == (
        ("count", 0), 3, 2)
    assert "('count', 0)" in str(error) and "3" in str(error)
    assert instance.rid_set is None  # nothing half-installed


def test_a_rid_journaled_twice_is_named_at_the_first_read():
    job = _dedup_job("full")
    instance = job.instance(("count", 1))
    _admit(job, instance, [21, 22])
    instance.seal_rids()
    instance.rid_journal.extend([23, 21])  # repeats a sealed rid
    with pytest.raises(RepeatedRidError) as raised:
        instance.processed_rids
    assert (raised.value.journaled, raised.value.distinct) == (4, 3)


def test_the_first_read_builds_the_set_and_admission_probes_from_then_on():
    job = _dedup_job("full")
    instance = job.instance(("count", 0))
    _admit(job, instance, [1, 2])
    head = instance.seal_rids()
    _admit(job, instance, [3])
    assert instance.rid_set is None
    charged = instance.state_bytes
    rids = instance.processed_rids
    assert rids == {1, 2, 3} and instance.rid_set is rids
    # the history itself is untouched: same head, same journal, same bytes
    assert instance.rid_head is head and instance.rid_journal == [3]
    assert instance.state_bytes == charged
    assert instance.processed_rids is rids  # built once
    _admit(job, instance, [3, 4])
    assert job.metrics.duplicates_skipped == 1
    assert rids == {1, 2, 3, 4} and instance.rid_journal == [3, 4]
    sealed = instance.seal_rids()
    assert sealed.parent is head and sealed.materialize() == rids


# --------------------------------------------------------------------- #
# Failure-free runs build no set, and nothing repeated in them
# --------------------------------------------------------------------- #

def _assert_no_set_then_build_them(job: Job) -> int:
    """No instance probed; then build every set, which checks it.

    The set holds what was admitted above the cut at the floor line; the
    cut is the instance's checkpoint in that line, never one above it,
    and it keeps the number of rids it dropped.
    """
    assert job.metrics.duplicates_skipped == 0
    for instance in job.instances():
        assert instance.rid_set is None, instance.key
    store = job.coordinator.blobstore
    admitted = sealed = cut = 0
    for instance in job.instances():
        history = instance.rid_head.count + len(instance.rid_journal)
        floor = job.protocol.floor[instance.key]
        at_floor = (0 if floor.kind == KIND_INITIAL else
                    store.get(floor.blob_key)["processed_rids"].count)
        assert instance.rid_head.forgotten() == at_floor, instance.key
        # a repeated rid raises RepeatedRidError here
        assert len(instance.processed_rids) == history - at_floor, instance.key
        admitted += history
        sealed += instance.rid_head.count
        cut += at_floor
    assert sealed > 0, "no checkpoint sealed anything: the run was too short"
    assert cut > 0, "no floor line cut anything: the run was too short"
    return admitted


@pytest.mark.parametrize("protocol", DEDUP_PROTOCOLS)
@pytest.mark.parametrize("query", [*sorted(QUERIES), REACHABILITY.name])
def test_a_failure_free_run_builds_no_dedup_set(query, protocol):
    spec = resolve_spec(query)
    parallelism = 2
    rate = spec.capacity_per_worker * parallelism * 0.6
    inputs = spec.make_job_inputs(rate, 7.0, parallelism, 0.0, 7)
    job = Job(spec.build_graph(parallelism), protocol, parallelism, inputs,
              RuntimeConfig(duration=5.0, warmup=1.0, checkpoint_interval=1.5,
                            seed=7))
    job.run(rate=rate, query_name=query)
    assert _assert_no_set_then_build_them(job) > 0


@pytest.mark.parametrize("protocol", DEDUP_PROTOCOLS)
def test_a_failure_free_run_of_long_batches_builds_no_dedup_set(protocol):
    """The ``dense`` regime: hundreds of records per message."""
    cost = CostModel(source_max_poll=4096, batch_max_records=256, linger=0.010)
    job = Job(build_count_graph(), protocol, 2,
              {"events": make_event_log(20_000.0, 0.3, 2, num_keys=50)},
              RuntimeConfig(duration=6.0, warmup=0.5, checkpoint_interval=1.0,
                            cost_model=cost))
    lengths: list[int] = []
    process_records = job.process_records

    def measured(instance, batch, port):
        if batch is not None:
            lengths.append(len(batch.rids))
        return process_records(instance, batch, port)

    job.process_records = measured
    job.run(rate=20_000.0, query_name="count", drain=True)
    assert max(lengths) >= 256 and sum(lengths) / len(lengths) > 50
    # 6,000 records through three operators, each admitted exactly once
    assert _assert_no_set_then_build_them(job) == 3 * 6_000


# --------------------------------------------------------------------- #
# Every recovery path leaves a set behind
# --------------------------------------------------------------------- #

def _run_through_a_recovery(protocol: str, **config) -> tuple[Job, list]:
    """Run the count job through its failure; what ``apply_recovery`` left.

    Returns the job and, per applied recovery, whether each instance held
    a set the moment the recovery had been applied.
    """
    parallelism = config.pop("parallelism", 3)
    log = make_event_log(300.0, 10.0, parallelism)
    job = Job(build_count_graph(), protocol, parallelism, {"events": log},
              RuntimeConfig(duration=14.0, warmup=2.0, seed=3, **config))
    observed: list[list[bool]] = []
    apply_recovery = job.lifecycle.apply_recovery

    def observing(plan) -> None:
        apply_recovery(plan)
        observed.append([i.rid_set is not None for i in job.instances()])

    job.lifecycle.apply_recovery = observing
    job.run(rate=300.0, query_name="count")
    return job, observed


def _line_kinds(job: Job) -> set[str]:
    (line, _replay), = job.metrics.recovery_lines
    return {kind for _key, _checkpoint_id, kind in line}


@pytest.mark.parametrize("protocol", DEDUP_PROTOCOLS)
def test_a_rollback_leaves_every_instance_with_a_set(protocol):
    job, observed = _run_through_a_recovery(
        protocol, failure_at=6.0, checkpoint_interval=3.0)
    assert _line_kinds(job) - {KIND_INITIAL}, "the line restored no checkpoint"
    assert observed == [[True] * job.n_instances]


@pytest.mark.parametrize("protocol", DEDUP_PROTOCOLS)
def test_a_rollback_to_the_initial_state_leaves_every_instance_with_a_set(
        protocol):
    # the kill lands before any checkpoint is durable: the line restores nothing
    job, observed = _run_through_a_recovery(
        protocol, failure_at=0.5, checkpoint_interval=30.0)
    assert _line_kinds(job) == {KIND_INITIAL}
    assert observed == [[True] * job.n_instances]


@pytest.mark.parametrize("protocol", DEDUP_PROTOCOLS)
def test_a_rescaled_recovery_leaves_every_new_instance_with_a_set(protocol):
    job, observed = _run_through_a_recovery(
        protocol, parallelism=4, failure_at=6.0, checkpoint_interval=3.0,
        rescale_to=6)
    assert job.parallelism == 6
    assert observed == [[True] * job.n_instances]
    assert job.n_instances == 3 * 6


def test_only_the_restore_paths_and_the_accessor_assign_the_set():
    """The list of section 23 is closed: whoever adds an assignment of
    ``rid_set`` has to decide which side of a rollback it is on."""
    assigned_in = set()
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target] if isinstance(node, ast.AnnAssign)
                           else [])
                if any(isinstance(target, ast.Attribute)
                       and target.attr == "rid_set" for target in targets):
                    assigned_in.add((path.name, function.name))
    assert assigned_in == {
        ("worker.py", "__init__"),          # None: never restored
        ("worker.py", "processed_rids"),    # the accessor (tests, tools)
        ("worker.py", "install_rids"),      # every same-parallelism restore
        ("worker.py", "restore_rescaled"),  # every rescaled restore
    }
