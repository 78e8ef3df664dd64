"""Completion-order interleaving never changes what the scheduler returns.

The streaming scheduler (DESIGN.md section 18) may observe completions in
any order the pool produces them.  This suite swaps the process pool for a
synchronous fake whose completion order is chosen by hypothesis — every
"worker" runs in-process when the drain loop picks it, and its return
value is pickle-roundtripped to emulate the IPC pipe — and asserts the
results of a batch containing duplicates *and* a shard group sharing the
scheduler with it are byte-identical to serial single-process execution.
"""

import pickle
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.experiments.parallel import (
    ParallelRunner,
    RunFailed,
    RunRequest,
    request_key,
)
from repro.experiments.sharding import run_sharded


def req(**overrides) -> RunRequest:
    base = dict(query="q1", protocol="unc", parallelism=2, rate=220.0,
                duration=3.0, warmup=1.0, seed=7)
    base.update(overrides)
    return RunRequest(**base)


#: batch with a duplicate (index 0 == index 2) plus distinct requests
BATCH = [req(), req(protocol="coor"), req(), req(rate=260.0)]
#: a sharded run submitted into the same scheduler alongside the batch
#: (q12 is key-partitioned at the source, so it shards soundly)
SHARDED = req(query="q12", protocol="none", rate=240.0)
SHARDS = 2


class _FakeFuture:
    """An unstarted unit of work; runs synchronously when picked."""

    def __init__(self, fn, args):
        self._fn = fn
        self._args = args
        self._value = None
        self._error = None

    def run(self) -> None:
        # the pickle roundtrip emulates the IPC pipe: the parent receives
        # a deserialized copy, never the worker's in-process objects —
        # and, like a real future, what the work raised
        try:
            self._value = pickle.loads(pickle.dumps(
                self._fn(*self._args), protocol=pickle.HIGHEST_PROTOCOL))
        except Exception as exc:
            self._error = pickle.loads(pickle.dumps(exc))

    def result(self):
        if self._error is not None:
            raise self._error
        return self._value


class _FakePool:
    """Pool stand-in: submissions queue unstarted, nothing runs eagerly."""

    def submit(self, fn, *args):
        return _FakeFuture(fn, args)

    def shutdown(self):
        pass


class InterleavedRunner(ParallelRunner):
    """Runner whose completion order is dictated by a pick sequence."""

    def __init__(self, picks, **kwargs):
        super().__init__(**kwargs)
        self._picks = list(picks)

    def _make_pool(self):
        return _FakePool()

    def _wait_any(self, futures):
        ordered = sorted(futures, key=lambda f: self._inflight[f][0])
        pick = self._picks.pop(0) if self._picks else 0
        future = ordered[pick % len(ordered)]
        future.run()
        return {future}


@lru_cache(maxsize=1)
def _serial_baseline():
    runner = ParallelRunner(jobs=1)
    merged = run_sharded(SHARDED, SHARDS, runner=runner)
    batch = runner.map(BATCH)
    return [pickle.dumps(r) for r in batch], pickle.dumps(merged)


@settings(max_examples=8, deadline=None)
@given(picks=st.lists(st.integers(min_value=0, max_value=7), max_size=12))
def test_any_interleaving_matches_serial(picks):
    """Byte-identity to serial execution holds for every completion order,
    with a batch holding a duplicate in flight while a shard group maps."""
    expected_batch, expected_merged = _serial_baseline()
    runner = InterleavedRunner(picks, jobs=3)
    handles = [runner.submit(request) for request in BATCH]
    merged = run_sharded(SHARDED, SHARDS, runner)
    batch = [handle.result() for handle in handles]
    assert runner._inflight == {}  # resolving every handle drained it all
    assert [pickle.dumps(r) for r in batch] == expected_batch
    assert pickle.dumps(merged) == expected_merged
    # the duplicate in the batch was folded into one simulation
    assert batch[0] is batch[2]
    assert runner.deduped == 1
    assert runner.misses == 3 + SHARDS  # three unique batch runs + shards


#: dies in ``Job(...)``, milliseconds into the run
BAD = req(protocol="nope")


def _drain_collecting_failures(runner: ParallelRunner) -> list[RunFailed]:
    """Drain to the end, as a sweep that catches per-figure errors does."""
    failures = []
    while runner._inflight:
        try:
            runner._wait_some()
        except RunFailed as failure:
            failures.append(failure)
    return failures


@settings(max_examples=8, deadline=None)
@given(picks=st.lists(st.integers(min_value=0, max_value=7), max_size=12))
def test_a_failed_run_in_any_interleaving_poisons_nothing(picks):
    """One request of the batch raises: wherever its completion lands,
    the others resolve to what serial execution returns, every waiter of
    the failed one is handed the same named error, and the scheduler's
    tables end empty."""
    expected_batch, _ = _serial_baseline()
    runner = InterleavedRunner(picks, jobs=3)
    bad = runner.submit(BAD)
    handles = [runner.submit(request) for request in BATCH]
    assert runner.submit(BAD) is bad  # folded into the pending launch
    failures = _drain_collecting_failures(runner)
    assert [failure.request for failure in failures] == [BAD]
    assert runner._pending == {} and runner._inflight == {}
    assert [pickle.dumps(h.result()) for h in handles] == expected_batch
    for _ in range(2):  # every waiter, every time
        with pytest.raises(RunFailed) as raised:
            bad.result()
        assert raised.value is failures[0]
    assert isinstance(failures[0].__cause__, ValueError)
    assert "protocol=nope" in str(failures[0])
    # a re-submission is a fresh miss, not a drain of nothing
    misses = runner.misses
    again = runner.submit(BAD)
    assert again is not bad and runner.misses == misses + 1
    with pytest.raises(RunFailed, match="unknown protocol"):
        again.result()


def test_a_failed_shard_fails_the_merge_and_writes_no_merged_result():
    bad = req(query="q12", protocol="nope", rate=240.0)
    runner = InterleavedRunner((2, 0), jobs=3)
    good = runner.submit(req())
    # the group fails with the first shard to land, by name
    with pytest.raises(RunFailed, match=r"shard=1/2") as raised:
        run_sharded(bad, SHARDS, runner)
    assert raised.value.request.shard_index == 1
    # the other shard dies too, to whoever drains; nothing else does
    failures = _drain_collecting_failures(runner)
    assert [f.request.shard_index for f in failures] == [0]
    assert good.result() is not None
    assert runner._pending == {} and runner._inflight == {}
    # the memo holds results under request keys, and nothing merged
    assert set(runner._memory) == {request_key(req())}
