"""Unit tests for the state-backend layer (DESIGN.md section 10).

Two levels: the dirty-tracking/delta protocol of the state primitives
(delta folded onto a base snapshot must equal a direct snapshot, for any
operation sequence — checked by example and by property), and the chain
bookkeeping of the chain tracker against a real job (base/delta
cadence, compaction, forced base after recovery).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.base import CheckpointMeta, initial_checkpoint
from repro.dataflow.batch import RecordBatch
from repro.dataflow.runtime import Job
from repro.dataflow.state import (
    CHANGELOG_MAX_CHAIN,
    ChainTracker,
    KeyedListState,
    KeyedMapState,
    StateRegistry,
    ValueState,
)
from repro.dataflow.keygroups import group_range
from repro.dataflow.worker import (
    NO_RIDS, RidSnapshot, fold_chain, folded_snapshot)
from repro.experiments.parallel import resolve_spec
from repro.metrics.collectors import KIND_INITIAL, KIND_RESCALE
from repro.sim.costs import RuntimeConfig

from tests.conftest import KeyedEvent, build_count_graph, make_event_log, run_count_job


# --------------------------------------------------------------------- #
# Delta protocol of the state primitives
# --------------------------------------------------------------------- #

def test_value_state_delta_lifecycle():
    s = ValueState(0, 8)
    s.mark_clean()
    assert s.snapshot_delta() is None
    assert s.delta_bytes() == 0
    s.set(5, 16)
    assert s.delta_bytes() == 16
    replica = ValueState(0, 8)
    replica.apply_delta(s.snapshot_delta())
    assert replica.snapshot() == s.snapshot()
    s.mark_clean()
    assert s.snapshot_delta() is None


def test_keyed_map_delta_tracks_writes_and_deletes():
    s = KeyedMapState()
    s.put("a", 1, 10)
    s.put("b", 2, 10)
    s.mark_clean()
    assert s.snapshot_delta() is None
    s.put("b", 3, 12)
    s.put("c", 4, 10)
    s.delete_many(["a"])
    replica = KeyedMapState()
    replica.put("a", 1, 10)
    replica.put("b", 2, 10)
    replica.apply_delta(s.snapshot_delta())
    assert replica.snapshot() == s.snapshot()
    # deleting a freshly written key removes it from the written set too
    s.mark_clean()
    s.put("d", 9, 10)
    s.delete_many(["d"])
    kind, written, deleted, _ = s.snapshot_delta()
    assert "d" not in written and "d" in deleted


def test_keyed_map_restore_degenerates_to_full_delta():
    s = KeyedMapState()
    s.put("a", 1, 10)
    s.mark_clean()
    s.restore(({}, {}, 0))  # what a restore of the initial state installs
    s.put("b", 2, 10)
    delta = s.snapshot_delta()
    assert delta[0] == "full"
    replica = KeyedMapState()
    replica.put("zzz", 99, 10)  # stale content must vanish
    replica.apply_delta(delta)
    assert replica.snapshot() == s.snapshot()


def test_keyed_list_delta_rewrites_dirty_keys():
    s = KeyedListState(entry_bytes=10)
    s.append("a", 1)
    s.append("a", 2)
    s.append("b", 3)
    s.mark_clean()
    s.append("a", 4)
    s.delete("b")
    replica = KeyedListState(entry_bytes=10)
    replica.append("a", 1)
    replica.append("a", 2)
    replica.append("b", 3)
    replica.apply_delta(s.snapshot_delta())
    assert replica.snapshot() == s.snapshot()
    assert s.delta_bytes() == 3 * 10 + 12  # a's 3 entries + one deletion


def test_keyed_list_remove_value_marks_dirty():
    s = KeyedListState(entry_bytes=10)
    s.append("a", 1)
    s.append("a", 2)
    s.mark_clean()
    removed = s.remove_value("a", lambda v: v == 1)
    assert removed == 1
    replica = KeyedListState(entry_bytes=10)
    replica.append("a", 1)
    replica.append("a", 2)
    replica.apply_delta(s.snapshot_delta())
    assert replica.snapshot() == s.snapshot()


@pytest.mark.xfail(strict=True, reason=(
    "remove_value subtracts entry_bytes, not the size an entry was "
    "appended at; the fix moves three pinned reachability perfbench "
    "digests, so it lands with ROADMAP item 3's re-pin"))
def test_keyed_list_remove_value_gives_back_the_appended_size():
    s = KeyedListState()
    s.append("a", "fact", size_bytes=100)
    assert s.remove_value("a", lambda v: True) == 1
    assert s.size_bytes == 0


def test_registry_delta_roundtrip_and_sparseness():
    reg = StateRegistry()
    v = reg.register("v", ValueState(0, 8))
    m = reg.register("m", KeyedMapState())
    m.put("k", 1, 10)
    reg.mark_clean()
    v.set(7, 8)  # only "v" is dirty
    deltas, size = reg.snapshot_delta()
    assert deltas["m"] is None
    assert deltas["v"] is not None
    assert size == 8
    replica = StateRegistry()
    replica.register("v", ValueState(0, 8))
    rm = replica.register("m", KeyedMapState())
    rm.put("k", 1, 10)
    replica.apply_delta(deltas)
    assert replica.snapshot() == reg.snapshot()


@settings(max_examples=120, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 6),            # op
              st.integers(0, 7),            # key
              st.integers(0, 50)),          # value
    min_size=0, max_size=60,
))
def test_map_base_plus_deltas_equals_direct_snapshot(ops):
    """Property: base snapshot + periodic deltas == direct snapshot.

    Random put/delete/delete-all sequences with checkpoints sprinkled
    between — the replica only ever sees the base and the deltas, never
    the state.
    """
    state = KeyedMapState()
    replica = KeyedMapState()
    replica.restore(state.snapshot())
    state.mark_clean()
    for op, key, value in ops:
        if op == 0:
            state.delete_many([key])
        elif op == 6 and value < 5:
            state.delete_many(list(state.keys()))
        else:
            state.put(key, value, 8 + (value % 3))
        if value % 7 == 0:  # checkpoint: ship a delta
            delta = state.snapshot_delta()
            if delta is not None:
                replica.apply_delta(delta)
            state.mark_clean()
    delta = state.snapshot_delta()
    if delta is not None:
        replica.apply_delta(delta)
    assert replica.snapshot() == state.snapshot()


@settings(max_examples=120, deadline=None)
@given(st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 50)),
    min_size=0, max_size=60,
))
def test_list_base_plus_deltas_equals_direct_snapshot(ops):
    state = KeyedListState(entry_bytes=10)
    replica = KeyedListState(entry_bytes=10)
    replica.restore(state.snapshot())
    state.mark_clean()
    for op, key, value in ops:
        if op == 0:
            state.delete(key)
        elif op == 1:
            state.remove_value(key, lambda v: v % 2 == 0)
        else:
            state.append(key, value)
        if value % 6 == 0:
            delta = state.snapshot_delta()
            if delta is not None:
                replica.apply_delta(delta)
            state.mark_clean()
    delta = state.snapshot_delta()
    if delta is not None:
        replica.apply_delta(delta)
    assert replica.snapshot() == state.snapshot()


# --------------------------------------------------------------------- #
# Backend factory and chain bookkeeping
# --------------------------------------------------------------------- #

def test_create_state_backend():
    """A backend is a bound on the chain: none, or at least one delta."""
    assert ChainTracker("full", 64).max_chain == 0
    assert ChainTracker("changelog", 64).max_chain == CHANGELOG_MAX_CHAIN == 4
    with pytest.raises(ValueError, match="unknown state backend 'rocksdb'"):
        ChainTracker("rocksdb", 64)
    with pytest.raises(ValueError, match="known: .'changelog', 'full'."):
        Job(build_count_graph(), "unc", 2,
            {"events": make_event_log(10.0, 1.0, 2)},
            RuntimeConfig(state_backend="bogus"))


def watch_metadata(job: Job, fn) -> None:
    """Call ``fn(meta)`` for every checkpoint that registers, before the
    protocol's ``on_metadata`` (which may collect blobs below its floor)."""
    protocol_hook = job.protocol.on_metadata

    def both(meta) -> None:
        fn(meta)
        protocol_hook(meta)

    job.protocol.on_metadata = both


@pytest.mark.parametrize("max_chain", [1, 2, 3, 4])
def test_chain_cadence_and_compaction_bound(max_chain, monkeypatch):
    """Blob metadata shows base / delta / ... / base with bounded chains.

    The collector deletes what the floor line leaves behind, so each
    checkpoint's blob is read while it is resident: as its metadata
    registers, when every link of its chain is resident too.
    """
    monkeypatch.setattr("repro.dataflow.state.CHANGELOG_MAX_CHAIN", max_chain)
    job = _count_job("changelog", 16.0)
    store = job.coordinator.blobstore
    registered = []

    def check(meta) -> None:
        chain = store.chain_keys(meta.blob_key)
        assert all(key in store for key in chain)
        length = len(chain) - 1
        assert length <= max_chain
        assert store.chain_size(meta.blob_key)[0] == length + 1
        # the registry's base link is the store's
        assert meta.base_key == (chain[-2] if length else None)
        registered.append(length)

    watch_metadata(job, check)
    job.run(rate=300.0, query_name="count")
    assert len(registered) == job.registry.total()
    assert max(registered) == max_chain  # chains grew to the bound
    assert store.bytes_deleted > 0


def test_first_checkpoint_after_recovery_is_a_base():
    """Each instance's first checkpoint after a recovery is a chain of
    one blob, read from the store as it registers."""
    job = _count_job("changelog", 16.0, failure_at=6.0)
    store = job.coordinator.blobstore
    blobs: dict[str, int] = {}
    watch_metadata(job, lambda meta: blobs.__setitem__(
        meta.blob_key, store.chain_size(meta.blob_key)[0]))
    job.run(rate=300.0, query_name="count")
    detected = job.metrics.first_failure().detected_at
    firsts = 0
    for instance in job.instance_keys():
        post = [m for m in job.registry.with_initial(instance)[1:]
                if m.started_at > detected]
        if post:
            first = min(post, key=lambda m: m.checkpoint_id)
            assert first.base_key is None
            assert blobs[first.blob_key] == 1
            firsts += 1
    assert firsts


def _expected_restart(job: Job, plan, billed: dict[str, int]) -> float:
    """:meth:`LifecycleManager.restart_duration` recomputed from what the
    blob store holds: each line checkpoint's chain (``chain_keys``) and
    every chain blob's billed size as it was put."""
    store, cost = job.coordinator.blobstore, job.cost
    groups = job.max_key_groups
    p_old = 1 + max(idx for _, idx in plan.line)
    p_new = plan.rescale_to or job.parallelism
    new_ranges = [group_range(j, p_new, groups) for j in range(p_new)]
    per_worker = [0.0] * p_new
    for key, meta in plan.line.items():
        if meta.kind == KIND_INITIAL:
            continue
        chain = store.chain_keys(meta.blob_key)
        nbytes = sum(billed[blob] for blob in chain)
        old_range = group_range(key[1], p_old, groups)
        for j, new_range in enumerate(new_ranges):
            overlap = (min(old_range.stop, new_range.stop)
                       - max(old_range.start, new_range.start))
            if overlap > 0:
                per_worker[j] += cost.chain_restore_delay(
                    int(nbytes * overlap / len(old_range)), len(chain))
    for channel, messages in plan.replay.items():
        if messages:
            dst = channel[2] % p_new
            per_worker[dst] += (sum(m.total_bytes for m in messages)
                                / cost.log_fetch_bandwidth)
            per_worker[dst] += len(messages) * cost.replay_prep_per_message
    base = (cost.restart_base if p_new == p_old
            else cost.restart_base + cost.rescale_base)
    return (base + cost.restart_per_worker * max(p_old, p_new)
            + max(per_worker))


def _run_checking_restarts(protocol: str, backend: str,
                           reached: dict[str, int]) -> None:
    """One q12 run whose every restart time is held to
    :func:`_expected_restart`; counts into ``reached`` the line blobs
    holding channel state, on chains of two or more blobs, and the
    rescale baselines."""
    spec = resolve_spec("q12")
    job = Job(spec.build_graph(4), protocol, 4,
              spec.make_job_inputs(900.0, 18.0, 4, 0.3, 7),
              RuntimeConfig(duration=16.0, warmup=2.0, checkpoint_interval=1.0,
                            seed=7, failure_scenario="trace:3@0;7@1;11@2",
                            rescale_to=6, state_backend=backend))
    store = job.coordinator.blobstore
    billed: dict[str, int] = {}
    put, restart_duration = store.put, job.lifecycle.restart_duration

    def billing_put(key, value, size_bytes, base_key=None):
        billed[key] = size_bytes
        return put(key, value, size_bytes, base_key)

    def checked(plan) -> float:
        duration = restart_duration(plan)
        assert duration == _expected_restart(job, plan, billed)
        for meta in plan.line.values():
            if meta.kind == KIND_INITIAL:
                continue
            reached["channel_state"] += bool(
                store.get(meta.blob_key).get("channel_state"))
            reached["chain"] += len(store.chain_keys(meta.blob_key)) >= 2
            reached["rescale"] += meta.kind == KIND_RESCALE
        return duration

    store.put = billing_put
    job.lifecycle.restart_duration = checked
    job.run(rate=900.0, query_name="q12")


def test_restart_time_is_what_the_store_holds():
    """Every restart time (paper Fig. 11) is what the line's chains in
    the blob store cost to fetch: per line checkpoint, the blobs
    ``chain_keys`` names and the bytes each was billed when it was put.

    q12 at p = 4, 900 rec/s, hot 0.3, three kills and a rescale to 6 on
    the first, under every protocol and both backends.  The runs reach a
    line blob holding unaligned channel state, a chain of two or more
    blobs and a rescale baseline, so the check is not vacuous.
    """
    reached = {"channel_state": 0, "chain": 0, "rescale": 0}
    for protocol in ("coor", "coor-unaligned", "unc", "cic"):
        for backend in ("full", "changelog"):
            _run_checking_restarts(protocol, backend, reached)
    assert all(reached.values()), reached


def _count_job(backend: str, duration: float,
               failure_at: float | None = None) -> Job:
    """The counting pipeline of ``run_count_job`` under UNC, not yet
    run (failure-free unless ``failure_at``)."""
    return Job(build_count_graph(), "unc", 3,
               {"events": make_event_log(300.0, duration - 2.0, 3, seed=3)},
               RuntimeConfig(checkpoint_interval=3.0, duration=duration,
                             warmup=2.0, failure_at=failure_at, seed=3,
                             state_backend=backend))


def checkpoint_rids(job: Job, meta) -> set[int]:
    """The dedup set a restore of ``meta`` installs: what the one fold
    makes of its chain (base + deltas)."""
    payloads = job.lifecycle.line_payloads(meta)
    return fold_chain(job.graph.operators[meta.instance[0]],
                      payloads)[1].materialize()


def test_every_backend_journals_rids_and_checkpoints_complete_dedup_sets(
        monkeypatch):
    """The journal belongs to the instance, not to a backend.

    Both backends leave a plain list on every instance, whose head node
    plus journal is the live set, counted with what the cut at the floor
    line dropped; every checkpoint, read while resident (as it
    registers), materialises together with what a cut had dropped from
    its chain to a set the run really went through (failure-free:
    nested, growing with the checkpoint id); and both end in the same
    dedup sets.
    """
    dropped: dict[RidSnapshot, set[int]] = {}

    def whole(node: RidSnapshot) -> set[int]:
        bottom = node
        while bottom.parent is not None:
            bottom = bottom.parent
        return node.materialize() | dropped.get(bottom, set())

    cut = RidSnapshot.cut

    def recording_cut(node: RidSnapshot) -> None:
        dropped[node] = whole(node)
        cut(node)

    monkeypatch.setattr(RidSnapshot, "cut", recording_cut)
    final = {}
    for backend in ("full", "changelog"):
        job = _count_job(backend, 10.0)
        store = job.coordinator.blobstore
        stood: dict[tuple, list[set[int]]] = {}

        def registered(meta) -> None:
            rids = whole(store.get(meta.blob_key)["processed_rids"])
            stood.setdefault(meta.instance, []).append(rids)

        watch_metadata(job, registered)
        job.run(rate=300.0, query_name="count")
        saw_rids = False
        for instance in job.instances():
            assert type(instance.rid_journal) is list
            head = instance.rid_head
            live = instance.processed_rids
            assert head.count + len(instance.rid_journal) == (
                instance.rid_head.forgotten() + len(live))
            assert head.materialize() | set(instance.rid_journal) == live
            everything = whole(head) | set(instance.rid_journal)
            assert len(everything) == instance.rid_head.forgotten() + len(live)
            previous: set[int] = set()
            for rids in stood[instance.key]:
                assert previous <= rids <= everything
                previous = rids
            saw_rids = saw_rids or bool(previous)
            final.setdefault(backend, {})[instance.key] = everything
        assert saw_rids
        assert any(dropped)
    assert final["full"] == final["changelog"]


def test_delta_blobs_store_less_than_full_state():
    """The store's live footprint shrinks under the changelog backend."""
    job_full, _ = run_count_job("unc", failure_at=None, duration=16.0)
    job_chg, _ = run_count_job("unc", failure_at=None, duration=16.0,
                               state_backend="changelog")
    full_store = job_full.coordinator.blobstore
    chg_store = job_chg.coordinator.blobstore
    assert chg_store.bytes_written < full_store.bytes_written


# --------------------------------------------------------------------- #
# The shared dedup-set history (DESIGN.md section 21)
# --------------------------------------------------------------------- #

def test_rid_snapshot_nodes():
    assert NO_RIDS.materialize() == set() and NO_RIDS.count == 0
    first = NO_RIDS.extend([3, 1])
    second = first.extend([7])
    branch = first.extend([9, 8])
    assert first.segments() == [[], [3, 1]]
    assert second.materialize() == {1, 3, 7} and second.count == 3
    assert branch.materialize() == {1, 3, 8, 9} and branch.count == 4
    assert first.materialize() == {1, 3}  # untouched by its two children
    root = RidSnapshot.root({5, 2, 9})
    assert root.parent is None and root.added == [2, 5, 9] and root.count == 3
    # a fresh set every time: the caller may mutate what it gets
    assert second.materialize() is not second.materialize()


def _dedup_job(backend: str) -> Job:
    config = RuntimeConfig(duration=8.0, warmup=1.0, failure_at=None,
                           state_backend=backend)
    return Job(build_count_graph(), "unc", 2,
               {"events": make_event_log(10.0, 1.0, 2)}, config)


def _admit(job: Job, instance, rids: list[int]) -> None:
    """Push one batch with these lineage ids through the real data path."""
    job.process_records(instance, RecordBatch(
        rids=list(rids),
        payloads=[KeyedEvent(rid % 5, rid) for rid in rids],
        source_ts=[0.0] * len(rids),
        sizes=[40] * len(rids),
    ), "in")


def _record_deliveries(instance) -> list[list[int]]:
    """The rid column of every batch the instance's operator is handed
    from now on (a restore reinstalls the operator: call this again)."""
    delivered: list[list[int]] = []
    process_batch = instance.operator.process_batch

    def spy(records: RecordBatch, port: str):
        delivered.append(list(records.rids))
        return process_batch(records, port)

    instance.operator.process_batch = spy
    return delivered


def _checkpoint(job: Job, instance) -> CheckpointMeta:
    """Checkpoint ``instance`` through the job's write step and make the
    blob durable at once; returns its metadata (blob key
    ``count/<index>/<n>``)."""
    meta, payload = job.capture_checkpoint(instance, "local", None)
    job.coordinator.blobstore.put(
        meta.blob_key, payload, meta.upload_bytes, base_key=meta.base_key)
    return meta


def _restore(job: Job, instance, meta: CheckpointMeta | None) -> list[dict]:
    """Roll ``instance`` back as ``LifecycleManager.apply_recovery`` does;
    ``None`` is the initial checkpoint.  Returns the payloads folded."""
    meta = meta or initial_checkpoint(instance.key)
    payloads = job.lifecycle.line_payloads(meta)
    instance.restore(meta, payloads)
    return payloads


def _restore_in_place(job: Job, instance) -> None:
    """Checkpoint ``instance`` and roll it back to that checkpoint: where
    it stands, as a recovery leaves it."""
    _restore(job, instance, _checkpoint(job, instance))


#: every shape of batch admission has to tell apart, against a dedup
#: set that already holds rids 1 and 2
_ADMISSIONS = {
    # name: (batch, survivors in order, duplicates skipped)
    "all-new": ([3, 4, 5], [3, 4, 5], 0),
    "repeats-an-unseen-rid": ([3, 4, 3], [3, 4], 1),
    "overlaps-the-set": ([2, 3, 4], [3, 4], 1),
    "repeats-and-overlaps": ([3, 1, 3, 4], [3, 4], 2),
    "one-rid-thrice": ([3, 3, 3], [3], 2),
    "all-seen": ([2, 1], [], 2),
    "singleton-new": ([3], [3], 0),
    "singleton-seen": ([2], [], 1),
}


@pytest.mark.parametrize("backend", ["full", "changelog"])
@pytest.mark.parametrize("case", sorted(_ADMISSIONS))
def test_admission_drops_duplicates_first_occurrence_wins(backend, case):
    """One batch through ``Job.process_records``: who survives, in what
    order, and what admission leaves behind.

    The operator sees exactly the first occurrence of every rid the set
    did not hold, in batch order; the set gains exactly those; the
    journal gains them in that order; every other row counts as a
    skipped duplicate — and no rid is left in the set that the journal
    does not know, so the next checkpoint still seals in O(1) (a node
    hanging off the previous head) instead of re-rooting.

    A repeated rid reaches an instance only after a rollback (channels
    are FIFO and exactly-once until a worker fails), so the instance is
    restored to a checkpoint holding rids 1 and 2 first.
    """
    batch, survivors, duplicates = _ADMISSIONS[case]
    job = _dedup_job(backend)
    instance = job.instance(("count", 0))
    _admit(job, instance, [1, 2])
    _restore_in_place(job, instance)
    previous = instance.rid_head
    assert previous.materialize() == {1, 2}
    _admit(job, instance, [6])  # a journal that is not empty to begin with
    delivered = _record_deliveries(instance)
    skipped = job.metrics.duplicates_skipped
    _admit(job, instance, batch)
    assert delivered == ([survivors] if survivors else [])
    assert instance.processed_rids == {1, 2, 6, *survivors}
    assert instance.rid_journal == [6, *survivors]
    assert job.metrics.duplicates_skipped - skipped == duplicates
    assert (instance.rid_head.count + len(instance.rid_journal)
            == len(instance.processed_rids))
    sealed = instance.seal_rids()
    assert sealed.parent is previous and sealed.added == [6, *survivors]
    assert sealed.materialize() == instance.processed_rids


def _dedup_bytes(instance) -> int:
    """The share of ``state_bytes`` that stands for the dedup history."""
    return (instance.state_bytes - instance.operator.state_bytes
            - 12 * (len(instance.out_seq) + len(instance.last_received)))


@pytest.mark.parametrize("backend", ["full", "changelog"])
@pytest.mark.parametrize("case", sorted(
    case for case, (batch, survivors, _) in _ADMISSIONS.items()
    if survivors == batch))
def test_admission_before_any_rollback_journals_the_batch(backend, case):
    """The other half of the matrix: an instance never rolled back.

    No rid can be offered twice there, so only the all-new rows apply.
    The operator sees the batch whole; the journal gains it in batch
    order; ``state_bytes`` grows by the 8 bytes a rid is charged; and
    the next checkpoint seals in O(1) into a child of the previous head
    that stands for exactly what was admitted.
    """
    batch, _, _ = _ADMISSIONS[case]
    job = _dedup_job(backend)
    instance = job.instance(("count", 0))
    _admit(job, instance, [1, 2])
    previous = instance.seal_rids()
    _admit(job, instance, [6])  # a journal that is not empty to begin with
    delivered = _record_deliveries(instance)
    charged = _dedup_bytes(instance)
    _admit(job, instance, batch)
    assert instance.rid_set is None  # nothing to probe, nothing built
    assert delivered == [batch]
    assert instance.rid_journal == [6, *batch]
    assert _dedup_bytes(instance) - charged == 8 * len(batch)
    assert job.metrics.duplicates_skipped == 0
    sealed = instance.seal_rids()
    assert sealed.parent is previous and sealed.added == [6, *batch]
    assert sealed.count == 3 + len(batch)
    assert sealed.materialize() == {1, 2, 6, *batch}
    assert instance.rid_journal == []
    assert _dedup_bytes(instance) == 8 * sealed.count


def _with_a_repeat(rids: list[int]) -> list[int]:
    return [*rids, rids[0]]


#: mostly what the paper traffic admits — one to three rids a batch —
#: and often a batch that repeats one of its own rids, which only the
#: slow path may admit; the long lists keep the old coverage
_SHORT = st.lists(st.integers(0, 40), min_size=1, max_size=3)
_RIDS = st.one_of(
    _SHORT,
    _SHORT.map(_with_a_repeat),
    st.lists(st.integers(41, 10_000), min_size=1, max_size=3,
             unique=True).map(_with_a_repeat),
    st.lists(st.integers(0, 40), max_size=10),
)
_OPS = st.lists(st.one_of(
    st.tuples(st.just("admit"), _RIDS),
    st.tuples(st.just("seal"), st.none()),
    st.tuples(st.just("restore"), st.integers(0, 10_000)),
    st.tuples(st.just("merge"), st.tuples(st.integers(0, 10_000),
                                          st.integers(0, 10_000))),
), max_size=40)


@pytest.mark.parametrize("backend", ["full", "changelog"])
@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_dedup_history_matches_eager_copies(backend, ops):
    """Property: a checkpoint stands for the set an eager copy would hold.

    Random admissions (mostly one to three rids; a small rid space, so
    batches repeat rids within themselves and across batches, and a large
    one, so a batch repeats a rid the set has never held), checkpoints
    through the real backend
    (base/delta cadence and compaction under ``changelog``), rollbacks to
    *any* checkpoint taken so far — also one of a timeline an earlier
    rollback abandoned — and rescale-merges of two of them.  The model
    copies the set at every checkpoint; at the end every checkpoint ever
    taken must still restore to its copy.

    Batches repeat rids from the first admission on, which only an
    instance that has been rolled back can meet: the sequence starts
    from a restore of the (empty) initial state.
    """
    job = _dedup_job(backend)
    instance = job.instance(("count", 0))
    _restore_in_place(job, instance)
    model: set[int] = set()
    taken: list[tuple[CheckpointMeta, set[int]]] = []

    for op, arg in ops:
        if op == "admit":
            _admit(job, instance, arg)
            model |= set(arg)
        elif op == "seal":
            taken.append((_checkpoint(job, instance), set(model)))
        elif op == "restore" and taken:
            meta, copy = taken[arg % len(taken)]
            _restore(job, instance, meta)
            model = set(copy)
        elif op == "merge" and taken:
            picks = [taken[index % len(taken)] for index in arg]
            parts = [folded_snapshot(instance.spec,
                                     job.lifecycle.line_payloads(meta))
                     for meta, _ in picks]
            instance.restore_rescaled(parts, 2)
            model = picks[0][1] | picks[1][1]
        assert instance.processed_rids == model
        assert (instance.rid_head.count + len(instance.rid_journal)
                == len(model))
    for meta, copy in taken:
        assert checkpoint_rids(job, meta) == copy
        _restore(job, instance, meta)
        assert instance.processed_rids == copy


#: a step of the lifecycle property.  ``offer`` carries how many rids
#: never seen before it admits and which earlier rids (positions into
#: everything offered so far, in any timeline) it repeats — the repeats
#: are dropped from the batch while the instance has never been restored
_LIFECYCLE_OPS = st.lists(st.one_of(
    st.tuples(st.just("offer"), st.tuples(
        st.integers(0, 4), st.lists(st.integers(0, 10_000), max_size=4))),
    st.tuples(st.just("checkpoint"), st.none()),
    st.tuples(st.just("restore"), st.integers(0, 10_000)),
    st.tuples(st.just("merge"), st.tuples(st.integers(0, 10_000),
                                          st.integers(0, 10_000))),
), max_size=40)


@pytest.mark.parametrize("backend", ["full", "changelog"])
@settings(max_examples=80, deadline=None)
@given(ops=_LIFECYCLE_OPS)
def test_dedup_lifecycle_matches_an_eager_set_model(backend, ops):
    """Property: journal-only, then live — indistinguishable from a set.

    The model is what the engine used to be: one eager ``set`` probed on
    every admission and copied at every checkpoint.  Random sequences of
    admissions, checkpoints through the real backend (full, or base /
    delta / compaction under ``changelog``), rollbacks to *any*
    checkpoint taken so far and rescale-merges of two of them; a batch
    repeats earlier rids — of this timeline or an abandoned one, also
    one of its own — only once the instance has been restored, as in the
    engine.  After every step the operator has seen exactly the
    survivors the model admits, in order; ``duplicates_skipped`` and the
    dedup share of ``state_bytes`` are the model's; the instance holds a
    set if and only if a restore has happened, and then it is the
    model's; and every checkpoint ever taken stands for the copy made
    when it was.

    Mutations this must fail on (checked by hand when it was written):
    an ``install_rids`` that leaves a never-restored instance without a
    set (the transition assert, then the first repeated rid survives);
    a ``state_bytes`` that forgets the journal while there is no set.
    """
    job = _dedup_job(backend)
    instance = job.instance(("count", 0))
    model: set[int] = set()
    restored = False
    skipped = 0
    offered: list[int] = []
    taken: list[tuple[CheckpointMeta, set[int]]] = []
    delivered = _record_deliveries(instance)
    for op, arg in ops:
        if op == "offer":
            fresh, repeats = arg
            batch = list(range(len(offered) + 1, len(offered) + 1 + fresh))
            if restored and offered:
                for position in repeats:
                    batch.insert(position % (len(batch) + 1),
                                 offered[position % len(offered)])
            if restored and batch and repeats and repeats[0] % 3 == 0:
                batch.append(batch[0])  # a batch repeating a rid of its own
            survivors = list(dict.fromkeys(
                rid for rid in batch if rid not in model))
            _admit(job, instance, batch)
            assert delivered == ([survivors] if survivors else [])
            delivered.clear()
            skipped += len(batch) - len(survivors)
            model.update(survivors)
            offered.extend(range(len(offered) + 1, len(offered) + 1 + fresh))
        elif op == "checkpoint":
            taken.append((_checkpoint(job, instance), set(model)))
            assert instance.rid_head.materialize() == model
            assert instance.rid_journal == []
        elif op == "restore" and taken:
            meta, copy = taken[arg % len(taken)]
            _restore(job, instance, meta)
            model, restored = set(copy), True
            delivered = _record_deliveries(instance)
        elif op == "merge" and taken:
            picks = [taken[index % len(taken)] for index in arg]
            parts = [folded_snapshot(instance.spec,
                                     job.lifecycle.line_payloads(meta))
                     for meta, _ in picks]
            instance.restore_rescaled(parts, 2)
            model, restored = picks[0][1] | picks[1][1], True
            delivered = _record_deliveries(instance)
        assert (instance.rid_set is not None) == restored
        if restored:
            assert instance.rid_set == model
        assert job.metrics.duplicates_skipped == skipped
        assert _dedup_bytes(instance) == 8 * len(model)
        assert (instance.rid_head.count + len(instance.rid_journal)
                == len(model))
    for meta, copy in taken:
        assert checkpoint_rids(job, meta) == copy
    # the first read builds (and checks) what was only journaled
    assert instance.processed_rids == model
    assert instance.rid_set is instance.processed_rids


def test_rollback_branches_and_the_abandoned_timeline_stays_restorable():
    job = _dedup_job("full")
    instance = job.instance(("count", 0))
    _admit(job, instance, [1, 2])
    first_meta, first = job.capture_checkpoint(instance, "local", None)
    _admit(job, instance, [3])
    abandoned_meta, abandoned = job.capture_checkpoint(
        instance, "local", None)
    instance.restore(first_meta, [first])
    _admit(job, instance, [4, 5])
    _, kept = job.capture_checkpoint(instance, "local", None)
    # both timelines hang off the same node, which neither changed
    assert abandoned["processed_rids"].parent is first["processed_rids"]
    assert kept["processed_rids"].parent is first["processed_rids"]
    assert first["processed_rids"].materialize() == {1, 2}
    assert abandoned["processed_rids"].materialize() == {1, 2, 3}
    assert kept["processed_rids"].materialize() == {1, 2, 4, 5}
    instance.restore(abandoned_meta, [abandoned])
    assert instance.processed_rids == {1, 2, 3}


# --------------------------------------------------------------------- #
# One restore: nothing, a snapshot, or a base and its deltas
# --------------------------------------------------------------------- #

def _standing(instance) -> dict:
    """Everything a rollback reinstalls, as plain values."""
    return {
        "states": instance.operator.states.snapshot(),
        "out_seq": dict(instance.out_seq),
        "last_received": dict(instance.last_received),
        "source_cursors": dict(instance.source_cursors),
        "rids": instance.rid_head.materialize() | set(instance.rid_journal),
        "state_bytes": instance.state_bytes,
    }


@pytest.mark.parametrize("backend", ["full", "changelog"])
@pytest.mark.parametrize("checkpoints", [0, 1, 3])
def test_restore_reinstalls_what_the_checkpoint_held(backend, checkpoints):
    """Chain lengths 0 / 1 / n through the one restore.

    No checkpoint is the initial state, one is a snapshot, and three are
    a base and two deltas under ``changelog`` (compaction bound 3) and
    the newest of three snapshots under ``full``.  Either way the
    instance stands where it stood at the last checkpoint: state,
    cursors, dedup history and the bytes they are charged; what came
    after is gone, the operator is a new object, the router is empty and
    the next checkpoint starts a chain of its own.
    """
    job = _dedup_job(backend)
    store = job.coordinator.blobstore
    instance = job.instance(("count", 0))
    sent, received = (1, 0, 0), (0, 1, 0)
    meta = None
    for n in range(checkpoints):
        _admit(job, instance, [10 * n + 1, 10 * n + 2])
        instance.out_seq[sent] = n + 1
        instance.last_received[received] = 7 * (n + 1)
        meta = _checkpoint(job, instance)
    held = _standing(instance)
    assert len(held["rids"]) == 2 * checkpoints
    before = instance.operator
    _admit(job, instance, [900, 901])      # what the rollback throws away
    instance.out_seq[sent] = 99
    instance.last_received[received] = 99
    instance.router.route_batch(RecordBatch(
        rids=[5], payloads=[KeyedEvent(1, 1)], source_ts=[0.0], sizes=[40]))
    assert instance.router.staged_records

    payloads = _restore(job, instance, meta)

    deltas = checkpoints - 1 if backend == "changelog" else 0
    assert len(payloads) == (1 + deltas if checkpoints else 0)
    if checkpoints:
        # a base and the deltas chained onto it, each onto the one before
        chain = store.chain_keys(meta.blob_key)
        assert len(chain) == 1 + deltas
        assert meta.base_key == (chain[-2] if deltas else None)
        assert [store.chain_keys(key) for key in chain] == [
            chain[:i + 1] for i in range(len(chain))]
    assert _standing(instance) == held
    assert instance.operator is not before
    assert instance.rid_set == held["rids"]          # a rollback: a live set
    assert instance.rid_head.count == len(held["rids"])
    assert instance.rid_journal == []
    assert not instance.router.staged_records
    following = _checkpoint(job, instance).blob_key
    assert store.chain_keys(following) == [following]  # a base


def _windowed_job() -> Job:
    """src -> tumbling windowed count -> sink: an operator whose
    ``on_restore`` registers a timer."""
    from repro.dataflow.graph import LogicalGraph, Partitioning
    from repro.dataflow.operators import (
        SinkOperator, SourceOperator, WindowedCountOperator)

    graph = LogicalGraph("windowed")
    graph.add_source("src", "events", SourceOperator)
    graph.add_operator(
        "count", lambda: WindowedCountOperator(lambda e: e.key, window=2.0),
        stateful=True)
    graph.add_operator("sink", SinkOperator)
    graph.connect("src", "count", Partitioning.KEY, key_fn=lambda e: e.key)
    graph.connect("count", "sink", Partitioning.FORWARD)
    return Job(graph, "unc", 2, {"events": make_event_log(10.0, 1.0, 2)},
               RuntimeConfig(duration=8.0, warmup=1.0, failure_at=None))


@pytest.mark.parametrize("name", ["src", "count", "sink"])
def test_restoring_nothing_is_a_freshly_wired_instance(name):
    """The initial checkpoint holds what deployment wired, no more.

    After work, a checkpoint and a rollback to *nothing*, the instance
    equals its twin in a job that never ran: state, cursors (a source
    back at offset 0 of the partitions it owns), an empty dedup history
    and the bytes charged for them.  Unlike a restore of a checkpoint it
    calls neither ``protocol.restore_extra`` nor ``operator.on_restore``:
    nothing was captured to reinstall, and the timer ``on_restore``
    would register is one the instance does not have at deployment.
    """
    job, twin = _windowed_job(), _windowed_job()
    instance, fresh = job.instance((name, 1)), twin.instance((name, 1))
    _admit(job, instance, [1, 2, 3])
    instance.out_seq[(1, 1, 1)] = 4
    instance.last_received[(0, 0, 1)] = 9
    if instance.source_cursors:
        instance.source_cursors[1] = 5
    checkpointed = _checkpoint(job, instance)
    _admit(job, instance, [4])

    timers: list[tuple] = []
    extras: list[object] = []
    job.register_timer = lambda *args: timers.append(args)
    job.protocol.restore_extra = lambda inst, extra: extras.append(extra)

    _restore(job, instance, None)
    assert _standing(instance) == _standing(fresh)
    assert instance.source_cursors == ({1: 0} if name == "src" else {})
    assert instance.rid_head is NO_RIDS and instance.rid_set == set()
    assert timers == [] and extras == []

    # the same instance from a checkpoint: both hooks run, once
    _restore(job, instance, checkpointed)
    assert len(extras) == 1
    assert len(timers) == (1 if name == "count" else 0)


@pytest.mark.parametrize("backend", ["full", "changelog"])
def test_a_set_changed_behind_the_journal_still_checkpoints_whole(backend):
    """The seal-time size check: a short snapshot is impossible.

    ``tests/test_mst_and_worker.py`` grows ``processed_rids`` directly;
    nothing journals that.  The sizes then no longer add up, and the
    checkpoint is a self-contained sorted root — under the changelog
    backend the *delta* ships the whole set, so its chain restores whole.
    """
    job = _dedup_job(backend)
    instance = job.instance(("count", 0))
    metas = []

    def checkpoint() -> None:
        metas.append(_checkpoint(job, instance))

    _admit(job, instance, [200, 201])
    checkpoint()
    instance.processed_rids.update(range(100))
    _admit(job, instance, [300])
    checkpoint()
    expected = {200, 201, 300, *range(100)}
    assert instance.rid_head.parent is None
    assert instance.rid_head.added == sorted(expected)
    assert checkpoint_rids(job, metas[-1]) == expected
    # and the history is sound again from here on
    _admit(job, instance, [301])
    checkpoint()
    assert instance.rid_head.parent is not None
    assert checkpoint_rids(job, metas[-1]) == expected | {301}
    assert checkpoint_rids(job, metas[0]) == {200, 201}


def test_checkpoints_of_a_run_share_their_history():
    """Over a UNC run an instance's checkpoints hold each rid at most once.

    Deterministic stand-in for a timing claim: the rids stored over all
    nodes reachable from an instance's checkpoints number no more than
    the rids it admitted, where eager copies held the sum of the sets.
    """
    log = make_event_log(300.0, 10.0, 3)
    job = Job(build_count_graph(), "unc", 3, {"events": log},
              RuntimeConfig(checkpoint_interval=1.0, duration=12.0, warmup=2.0,
                            failure_at=None, seed=3))
    store = job.coordinator.blobstore
    heads: dict[tuple, list[RidSnapshot]] = {}
    put = store.put

    def recording_put(key, value, *args, **kwargs):
        name, index, _ = key.split("/")
        heads.setdefault((name, int(index)), []).append(value["processed_rids"])
        return put(key, value, *args, **kwargs)

    store.put = recording_put
    job.run(rate=300.0, query_name="count")
    shared_anything = False
    for instance in job.instances():
        snapshots = heads[instance.key]
        assert len(snapshots) >= 8
        nodes = {}
        for head in snapshots:
            node = head
            while node is not None:
                nodes[id(node)] = node
                node = node.parent
        stored = sum(len(node.added) for node in nodes.values())
        # failure-free: no re-admission; a cut keeps the number it dropped
        admitted = instance.rid_head.forgotten() + len(instance.processed_rids)
        assert stored <= admitted
        eager = sum(head.count for head in snapshots)
        if admitted:
            assert eager > 3 * stored
            shared_anything = True
    assert shared_anything
