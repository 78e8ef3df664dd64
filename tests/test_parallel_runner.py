"""Parallel experiment executor and content-addressed run cache."""

import pickle

import pytest

from repro.experiments.parallel import (
    MstRequest,
    ParallelRunner,
    RunCache,
    RunFailed,
    RunRequest,
    estimate_cost,
    execute_request,
    request_key,
    resolve_spec,
)
from repro.sim.costs import RuntimeConfig

from tests.test_scheduler_determinism import InterleavedRunner, _FakePool


def req(**overrides) -> RunRequest:
    base = dict(query="q1", protocol="unc", parallelism=2, rate=300.0,
                duration=6.0, warmup=2.0, seed=7)
    base.update(overrides)
    return RunRequest(**base)


# --------------------------------------------------------------------- #
# Cache keys
# --------------------------------------------------------------------- #

def test_request_key_is_stable_and_sensitive():
    assert request_key(req()) == request_key(req())
    assert request_key(req()) != request_key(req(rate=301.0))
    assert request_key(req()) != request_key(req(seed=8))
    assert request_key(req()) != request_key(req(protocol="cic"))
    assert request_key(req()) != request_key(req(state_backend="changelog"))
    assert request_key(req()) != request_key(
        req(failure_scenario="poisson:mtbf=12"))
    assert request_key(req()) != request_key(req(interval_policy="adaptive"))


def test_request_key_sees_config_changes():
    """A new RuntimeConfig knob can never alias an older cache entry."""
    plain = req()
    tweaked = req(config=RuntimeConfig(unc_checkpoint_stateless=False))
    scheduled = req(config=RuntimeConfig(
        per_operator_schedules={"count": (2.0, 1.0)}))
    keys = {request_key(plain), request_key(tweaked), request_key(scheduled)}
    assert len(keys) == 3


def test_mst_request_key_distinct_from_run_key():
    run = req()
    mst = MstRequest(query="q1", protocol="unc", parallelism=2, seed=7)
    assert request_key(run) != request_key(mst)
    assert request_key(mst) == request_key(
        MstRequest(query="q1", protocol="unc", parallelism=2, seed=7))


def test_resolve_spec_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown query"):
        resolve_spec("nope")


# --------------------------------------------------------------------- #
# On-disk cache
# --------------------------------------------------------------------- #

def test_run_cache_roundtrip_and_corruption(tmp_path):
    cache = RunCache(tmp_path)
    found, _ = cache.get("k")
    assert not found
    cache.put("k", {"x": 1})
    found, value = cache.get("k")
    assert found and value == {"x": 1}
    # 'g' is pickle's GET opcode expecting an int line: unpickling this
    # raises ValueError, not UnpicklingError — any corruption must read
    # as a miss, whatever exception the pickle machinery surfaces
    cache.path("k").write_bytes(b"garbage\n")
    found, _ = cache.get("k")
    assert not found  # corrupt entry reads as a miss, not an error
    cache.put("k", {"x": 2})
    found, value = cache.get("k")
    assert found and value == {"x": 2}  # rewritten cleanly


def _truncate(blob: bytes) -> bytes:
    return blob[:len(blob) // 2]


def _flip_a_bit(blob: bytes) -> bytes:
    middle = len(blob) // 2
    return blob[:middle] + bytes([blob[middle] ^ 0x10]) + blob[middle + 1:]


def _lie_about_length(blob: bytes) -> bytes:
    # magic (5 bytes), then the raw pickle length as uint64 LE
    return blob[:5] + (int.from_bytes(blob[5:13], "little") + 1).to_bytes(
        8, "little") + blob[13:]


def _cut_inside_the_header(blob: bytes) -> bytes:
    return blob[:9]


@pytest.mark.parametrize("damage", [_truncate, _flip_a_bit, _lie_about_length,
                                    _cut_inside_the_header])
def test_a_damaged_entry_is_quarantined_not_silently_rewritten(tmp_path, damage):
    cache = RunCache(tmp_path)
    cache.put("k", {"x": list(range(500))})
    cache.put("other", {"y": 2})
    assert cache.stats()["entries"] == 2
    good = cache.path("k").read_bytes()
    cache.path("k").write_bytes(damage(good))
    found, value = cache.get("k")
    assert (found, value) == (False, None)  # still a miss, never an error
    bad = tmp_path / "k.pkl.bad"
    assert bad.read_bytes() == damage(good)  # the evidence is kept
    assert not cache.path("k").exists()
    stats = cache.stats()
    assert (stats["entries"], stats["stale_files"], stats["quarantined"]) == (1, 0, 1)
    assert cache.get("k") == (False, None)  # and nothing reads it again
    cache.put("k", {"x": 3})  # the rewrite starts clean
    assert cache.get("k") == (True, {"x": 3})
    assert cache.get("other") == (True, {"y": 2})
    assert cache.stats()["entries"] == 2 and bad.exists()
    # a second casualty under the same key replaces the first
    cache.path("k").write_bytes(good[:20])
    assert cache.get("k") == (False, None)
    assert bad.read_bytes() == good[:20]
    assert cache.stats()["quarantined"] == 1


def test_foreign_and_older_format_files_stay_plain_misses(tmp_path):
    cache = RunCache(tmp_path)
    for name, blob in (("v7", pickle.dumps({"y": 1})), ("junk", b"garbage\n"),
                       ("empty", b""), ("half-magic", b"RPR")):
        cache.path(name).write_bytes(blob)
        assert cache.get(name) == (False, None)
        assert cache.path(name).read_bytes() == blob  # left where it was
    stats = cache.stats()
    assert (stats["stale_files"], stats["quarantined"]) == (4, 0)
    assert not list(tmp_path.glob("*.bad"))


def test_runner_recomputes_over_a_quarantined_entry(tmp_path):
    first = ParallelRunner(jobs=1, cache_dir=tmp_path)
    result = first.run(req())
    (path,) = tmp_path.glob("*.pkl")
    path.write_bytes(_flip_a_bit(path.read_bytes()))
    second = ParallelRunner(jobs=1, cache_dir=tmp_path)
    again = second.run(req())
    assert (second.hits, second.misses) == (0, 1)
    assert pickle.dumps(again.metrics) == pickle.dumps(result.metrics)
    assert path.exists() and path.with_name(path.name + ".bad").exists()
    third = ParallelRunner(jobs=1, cache_dir=tmp_path)
    third.run(req())
    assert (third.hits, third.misses) == (1, 0)


def test_runner_hits_disk_cache_across_instances(tmp_path):
    first = ParallelRunner(jobs=1, cache_dir=tmp_path)
    result = first.run(req())
    assert (first.hits, first.misses) == (0, 1)
    assert first.run(req()) is result  # in-memory memo
    assert (first.hits, first.misses) == (1, 1)

    second = ParallelRunner(jobs=1, cache_dir=tmp_path)
    cached = second.run(req())
    assert (second.hits, second.misses) == (1, 0)
    assert pickle.dumps(cached.metrics) == pickle.dumps(result.metrics)
    # a config change invalidates (different address, so a miss)
    second.run(req(checkpoint_interval=4.0))
    assert second.misses == 1


# --------------------------------------------------------------------- #
# Parallel execution parity
# --------------------------------------------------------------------- #

def test_parallel_map_matches_serial_byte_for_byte(tmp_path):
    """Streaming multi-process execution returns the exact bytes serial
    single-process execution does — scheduling may reorder work, never
    change result content (the DESIGN.md §18 invariant)."""
    requests = [req(protocol=p) for p in ("none", "coor", "unc", "cic")]
    serial = ParallelRunner(jobs=1).map(requests)
    with ParallelRunner(jobs=2, cache_dir=tmp_path) as runner:
        parallel = runner.map(requests)
        assert runner.misses == len(requests)
        for a, b in zip(serial, parallel):
            assert pickle.dumps(a.metrics) == pickle.dumps(b.metrics)
            assert a.completed_rounds == b.completed_rounds

    # a fresh runner over the same cache dir serves everything from disk
    rerun = ParallelRunner(jobs=2, cache_dir=tmp_path)
    again = rerun.map(requests)
    assert (rerun.hits, rerun.misses) == (len(requests), 0)
    assert rerun.hit_ratio >= 0.9
    for a, b in zip(serial, again):
        assert pickle.dumps(a.metrics) == pickle.dumps(b.metrics)


def test_compact_results_keep_derived_metrics_identical():
    """The executor compacts results (drops raw latency samples); every
    derived metric must equal the raw in-process run's."""
    raw = execute_request(req())
    runner_result = ParallelRunner(jobs=1).run(req())
    assert runner_result.metrics.latency_digests is not None
    assert runner_result.metrics.latencies == {}
    assert raw.metrics.latency_digests is None
    a, b = raw.latency_series(), runner_result.latency_series()
    assert (a.seconds, a.p50, a.p99) == (b.seconds, b.p50, b.p99)
    assert raw.sustainable(300.0) == runner_result.sustainable(300.0)
    assert raw.goodput() == runner_result.goodput()
    assert raw.avg_checkpoint_time() == runner_result.avg_checkpoint_time()
    # compact() is idempotent
    assert runner_result.compact() is runner_result


def test_map_deduplicates_identical_requests():
    runner = ParallelRunner(jobs=1)
    results = runner.map([req(), req(), req()])
    assert runner.misses == 1
    assert runner.deduped == 2  # folded into the pending miss, not cache hits
    assert runner.hits == 0
    assert results[0] is results[1] is results[2]
    # the same request later IS a cache hit
    runner.run(req())
    assert runner.hits == 1


def test_map_preserves_request_order():
    runner = ParallelRunner(jobs=1)
    requests = [req(rate=r) for r in (250.0, 350.0, 300.0)]
    results = runner.map(requests)
    assert [r.rate for r in results] == [250.0, 350.0, 300.0]


# --------------------------------------------------------------------- #
# A run that fails (the real pool; the fake-pool half is in
# tests/test_scheduler_determinism.py)
# --------------------------------------------------------------------- #

def test_a_run_raising_in_a_pool_worker_names_its_request_and_poisons_nothing():
    """An unknown protocol dies in ``Job(...)``, milliseconds in."""
    good, bad = req(duration=3.0, warmup=1.0), req(protocol="nope")
    with ParallelRunner(jobs=2) as runner:
        with pytest.raises(RunFailed) as raised:
            runner.map([good, bad])
        failure = raised.value
        assert failure.request is bad and failure.key == request_key(bad)
        assert str(failure).startswith(
            "query=q1 protocol=nope parallelism=2 seed=7 rate=300 shard=- "
            f"key={request_key(bad)[:12]}: ValueError: unknown protocol")
        assert isinstance(failure.__cause__, ValueError)
        assert request_key(bad) not in runner._pending
        runner.drain()  # the good run was never part of the failure
        assert runner._pending == {} and runner._inflight == {}
        # the same request again is a fresh miss with the real error
        with pytest.raises(RunFailed, match="unknown protocol 'nope'"):
            runner.submit(bad).result()
        assert (runner.hits, runner.misses) == (0, 3)
        assert runner.run(good).query == "q1"
        assert runner.hits == 1
        assert runner._pending == {} and runner._inflight == {}


def test_a_dead_worker_fails_its_requests_by_name_and_the_pool_is_replaced(
        monkeypatch):
    """``BrokenProcessPool`` is a failed run like any other."""
    import os
    from concurrent.futures import BrokenExecutor

    import repro.experiments.parallel as parallel

    def dying_resolve_spec(name: str):
        if name == "die":
            os._exit(3)  # the forked worker, never this process
        return resolve_spec(name)

    # workers fork on the first launch, after this patch
    monkeypatch.setattr(parallel, "resolve_spec", dying_resolve_spec)
    good, fatal = req(duration=3.0, warmup=1.0), req(query="die")
    with ParallelRunner(jobs=2) as runner:
        with pytest.raises(RunFailed, match="query=die") as raised:
            runner.submit(fatal).result()
        assert isinstance(raised.value.__cause__, BrokenExecutor)
        assert runner._pending == {} and runner._inflight == {}
        assert runner.submit(good).result().query == "q1"  # a new pool
        # the fatal request was tried twice, and counted once
        assert runner.misses == 2


def _await(path, seconds: float = 30.0) -> None:
    """Poll for a marker file another worker process creates."""
    import time

    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)


def test_a_worker_death_is_retried_once_and_the_request_returns(
        monkeypatch, tmp_path):
    """The request that killed its worker on the first attempt only."""
    import os

    import repro.experiments.parallel as parallel

    died = tmp_path / "died"

    def dying_once(name: str):
        if not died.exists():
            died.touch()
            os._exit(3)  # the forked worker, never this process
        return resolve_spec(name)

    monkeypatch.setattr(parallel, "resolve_spec", dying_once)
    request = req(duration=3.0, warmup=1.0)
    with ParallelRunner(jobs=2) as runner:
        assert runner.submit(request).result().query == "q1"
        assert died.exists()
        assert (runner.hits, runner.misses) == (0, 1)
        assert runner._pending == {} and runner._inflight == {}


def test_a_bystander_of_a_worker_death_is_retried_and_returns(
        monkeypatch, tmp_path):
    """A run in flight when another request's worker died is not failed:
    the pool breaks under it, and it is resubmitted with the culprit."""
    import os
    import time

    import repro.experiments.parallel as parallel

    running, died = tmp_path / "bystander-running", tmp_path / "died"

    def patched(name: str):
        if name == "q1" and not running.exists():
            # the bystander's first attempt: in flight until the pool
            # breaks under it
            running.touch()
            time.sleep(30.0)
        if name == "q3" and not died.exists():
            _await(running)  # the bystander is in flight: die now
            died.touch()
            os._exit(3)
        return resolve_spec(name)

    monkeypatch.setattr(parallel, "resolve_spec", patched)
    bystander = req(duration=3.0, warmup=1.0)
    culprit = req(query="q3", duration=3.0, warmup=1.0)
    started = time.monotonic()
    with ParallelRunner(jobs=2) as runner:
        handles = [runner.submit(bystander), runner.submit(culprit)]
        assert [h.result().query for h in handles] == ["q1", "q3"]
        assert running.exists() and died.exists()
        assert (runner.hits, runner.misses, runner.deduped) == (0, 2, 0)
        assert runner._pending == {} and runner._inflight == {}
    # the bystander's first attempt was killed, not waited out
    assert time.monotonic() - started < 25.0


def test_a_run_that_raises_is_never_retried():
    """Only a worker's death is retried: an exception of the run itself
    would only raise again."""
    bad = req(protocol="nope")
    runner = InterleavedRunner(picks=(), jobs=2)
    runner._pool = pool = _LoggingPool()
    with pytest.raises(RunFailed, match="unknown protocol"):
        runner.submit(bad).result()
    assert pool.launched == [bad] and runner.misses == 1


def test_a_run_raising_inline_is_named_too():
    bad = req(protocol="nope")
    runner = ParallelRunner(jobs=1)
    for entry in (runner.submit, runner.run, lambda r: runner.map([r])):
        with pytest.raises(RunFailed, match="protocol=nope") as raised:
            entry(bad)
        assert isinstance(raised.value.__cause__, ValueError)
    assert runner.misses == 3 and runner._pending == {}
    search = MstRequest(query="q1", protocol="nope", parallelism=2,
                        probe_duration=3.0, warmup=1.0, iterations=1)
    with pytest.raises(RunFailed, match="protocol=nope") as raised:
        runner.run(search)
    # the probe that died is what is named, once
    assert isinstance(raised.value.request, RunRequest)
    assert isinstance(raised.value.__cause__, ValueError)


class _LoggingPool(_FakePool):
    """The synchronous fake pool, logging the order requests arrive in."""

    def __init__(self) -> None:
        self.launched: list[RunRequest] = []

    def submit(self, fn, request, cache_dir):
        self.launched.append(request)
        return super().submit(fn, request, cache_dir)


def test_map_launches_longest_first_ties_in_request_order():
    """The straggler-last batch — the list-scheduling adversary a FIFO
    barrier parks behind the shorts — starts its straggler first, then
    the rest by descending estimated cost, equal costs as submitted."""
    shorts = [req(rate=rate, duration=2.0, warmup=1.0, seed=seed)
              for seed, rate in enumerate((200.0, 240.0) * 4)]
    straggler = req(rate=200.0, duration=9.0, warmup=1.0, seed=99)
    runner = InterleavedRunner(picks=(), jobs=2)
    runner._pool = pool = _LoggingPool()
    results = runner.map(shorts + [straggler])
    assert pool.launched == [straggler, *shorts[1::2], *shorts[0::2]]
    costs = [estimate_cost(r) for r in pool.launched]
    assert costs == sorted(costs, reverse=True) and costs[0] > costs[1]
    # results still come back in request order
    assert [r.duration for r in results] == [2.0] * 8 + [9.0]


def test_compact_entry_is_a_third_of_raw_pickle(tmp_path):
    """A v8 cache entry (compacted + compressed) vs the raw v7 pickle."""
    request = RunRequest(query="q1", protocol="coor", parallelism=4,
                         rate=1500.0, duration=12.0, warmup=3.0, seed=7)
    raw_bytes = len(pickle.dumps(execute_request(request),
                                 protocol=pickle.HIGHEST_PROTOCOL))
    runner = ParallelRunner(jobs=1, cache_dir=tmp_path)
    runner.run(request)
    (entry,) = tmp_path.glob("*.pkl")
    entry_bytes = entry.stat().st_size
    assert entry_bytes <= raw_bytes / 3, (
        f"compact entry {entry_bytes} B exceeds a third of the raw "
        f"pickle ({raw_bytes} B)"
    )


# --------------------------------------------------------------------- #
# MST through the runner
# --------------------------------------------------------------------- #

def test_mst_request_cached_and_probes_shared(tmp_path):
    request = MstRequest(query="q1", protocol="none", parallelism=2,
                         probe_duration=5.0, warmup=2.0, iterations=1, seed=7)
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        first = runner.run(request)
        assert first.mst > 0
        assert not first.bracket_exhausted
        misses_after_first = runner.misses
        second = runner.run(request)
        assert second.mst == first.mst
        assert runner.misses == misses_after_first  # served from cache


# --------------------------------------------------------------------- #
# Accounting: what each entry point counts, scenario by scenario
# --------------------------------------------------------------------- #

def _short(**overrides) -> RunRequest:
    return req(rate=220.0, duration=3.0, warmup=1.0, **overrides)


def _enter(runner: ParallelRunner, entry: str, request: RunRequest):
    """One request through one of the three public entries, to its value."""
    if entry == "run":
        return runner.run(request)
    if entry == "submit":
        return runner.submit(request).result()
    return runner.map([request])[0]


def _cold_miss(entry, jobs, tmp_path):
    with ParallelRunner(jobs=jobs) as runner:
        _enter(runner, entry, _short())
        return runner


def _memo_hit(entry, jobs, tmp_path):
    with ParallelRunner(jobs=jobs) as runner:
        first = _enter(runner, entry, _short())
        assert _enter(runner, entry, _short()) is first
        return runner


def _disk_hit_from_a_fresh_runner(entry, jobs, tmp_path):
    with ParallelRunner(jobs=jobs, cache_dir=tmp_path) as first:
        _enter(first, entry, _short())
    with ParallelRunner(jobs=jobs, cache_dir=tmp_path) as fresh:
        _enter(fresh, entry, _short())
        return fresh


def _duplicate_of_a_pending_key(entry, jobs, tmp_path):
    # at jobs=1 a submit has run by the time it returns: nothing is ever
    # pending there, and the duplicate is a memo hit
    with ParallelRunner(jobs=jobs) as runner:
        pending = runner.submit(_short())
        assert pending.done() == (jobs == 1)
        assert _enter(runner, entry, _short()) is pending.result()
        return runner


def _duplicates_inside_one_batch(entry, jobs, tmp_path):
    with ParallelRunner(jobs=jobs) as runner:
        results = runner.map([_short(), _short(protocol="coor"), _short(),
                              _short()])
        assert results[0] is results[2] is results[3]
        return runner


def _a_failed_run_resubmitted(entry, jobs, tmp_path):
    with ParallelRunner(jobs=jobs) as runner:
        for _ in range(2):
            with pytest.raises(RunFailed, match="protocol=nope"):
                _enter(runner, entry, _short(protocol="nope"))
        assert runner._pending == {} and runner._inflight == {}
        return runner


#: (scenario, entry) -> (hits, misses, deduped) at jobs=1, at jobs=2
_ACCOUNTING = {
    (_cold_miss, "run"): ((0, 1, 0), (0, 1, 0)),
    (_cold_miss, "submit"): ((0, 1, 0), (0, 1, 0)),
    (_cold_miss, "map"): ((0, 1, 0), (0, 1, 0)),
    (_memo_hit, "run"): ((1, 1, 0), (1, 1, 0)),
    (_memo_hit, "submit"): ((1, 1, 0), (1, 1, 0)),
    (_memo_hit, "map"): ((1, 1, 0), (1, 1, 0)),
    (_disk_hit_from_a_fresh_runner, "run"): ((1, 0, 0), (1, 0, 0)),
    (_disk_hit_from_a_fresh_runner, "submit"): ((1, 0, 0), (1, 0, 0)),
    (_disk_hit_from_a_fresh_runner, "map"): ((1, 0, 0), (1, 0, 0)),
    (_duplicate_of_a_pending_key, "run"): ((1, 1, 0), (0, 1, 1)),
    (_duplicate_of_a_pending_key, "submit"): ((1, 1, 0), (0, 1, 1)),
    (_duplicate_of_a_pending_key, "map"): ((1, 1, 0), (0, 1, 1)),
    (_duplicates_inside_one_batch, "map"): ((0, 2, 2), (0, 2, 2)),
    (_a_failed_run_resubmitted, "run"): ((0, 2, 0), (0, 2, 0)),
    (_a_failed_run_resubmitted, "submit"): ((0, 2, 0), (0, 2, 0)),
    (_a_failed_run_resubmitted, "map"): ((0, 2, 0), (0, 2, 0)),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "scenario, entry", list(_ACCOUNTING),
    ids=[f"{scenario.__name__.strip('_')}-{entry}"
         for scenario, entry in _ACCOUNTING])
def test_what_each_entry_point_counts(scenario, entry, jobs, tmp_path):
    """``run`` / ``submit`` / ``map`` admit a request the same way: a
    pending key is ``deduped``, a memo or disk entry a hit, anything else
    a miss — serially and on the pool (perfbench's ``sweep`` checks the
    same three counters on a whole pass)."""
    runner = scenario(entry, jobs, tmp_path)
    assert (runner.hits, runner.misses, runner.deduped) \
        == _ACCOUNTING[scenario, entry][jobs - 1]
