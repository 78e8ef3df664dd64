"""Parallel experiment executor with a content-addressed run cache.

The paper's grid sweeps thousands of independent (query, protocol,
parallelism, rate, failure) runs; each run is a deterministic function of
its :class:`RunRequest`, so two things follow (DESIGN.md section 9):

* independent runs can fan across worker **processes** with no loss of
  reproducibility — the simulator is single-threaded and seeded, so a run
  produces byte-identical metrics no matter which process executes it;
* a finished :class:`~repro.dataflow.runtime.RunResult` can be **cached on
  disk** under a stable hash of the request, and every later sweep, probe
  or re-bracketing that needs the same configuration is served from the
  cache instead of re-simulating.

:class:`ParallelRunner` bundles both around one machine-wide scheduler
(DESIGN.md section 18): ``submit()`` enqueues a request and returns a
:class:`RunHandle`, ``map()`` submits a batch **longest-first** (ordered
by :func:`estimate_cost`, so stragglers start early and short runs
backfill the tail) and drains completions as they land instead of
barriering on a ``pool.map``.  Shard groups, figure-harness batches and
whole MST searches all go into this one shared pool — no nested pools,
no per-figure pool churn; a dependent group (the shards of one run) is a
``map()`` batch whose results its caller merges.

A worker returns its compacted result
(:meth:`repro.dataflow.results.RunResult.compact`) through the pipe, a
few kilobytes per run; the runner stores it (:meth:`ParallelRunner._store`
is the one writer of the cache directory, zlib-compressed, format v8).
Byte-identical results to serial execution stay the invariant:
scheduling order may change, result content may not.

The figure harness (:mod:`repro.experiments.figures`) routes its runs
and MST searches (one cache entry each, :func:`execute`) through one
runner; ``python -m repro run/all --jobs N --cache-dir DIR`` wires one up.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import signal
import struct
import tempfile
import zlib
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.sim.collector import collector_paused
from repro.sim.costs import RuntimeConfig

if TYPE_CHECKING:  # pragma: no cover
    from concurrent.futures import ProcessPoolExecutor

    from repro.dataflow.results import RunResult
    from repro.workloads.spec import QuerySpec

#: bump when RunResult / metrics layout or the entry encoding changes so
#: stale cache entries from an older code revision are never served; v8 =
#: compacted results in zlib-compressed entries (older plain-pickle dirs
#: read as misses, never as errors); v9 = same format, but a recovery no
#: longer restores a timeline an earlier one abandoned, so v8 results of
#: multi-failure runs are wrong; v10 = the collector keeps one
#: RecoveryRecord per recovery instead of first-failure stamps
CACHE_VERSION = 10


# --------------------------------------------------------------------- #
# Requests
# --------------------------------------------------------------------- #

@dataclass(frozen=True, eq=False)
class RunRequest:
    """One experiment run, by value.

    The query is referenced by *name* (resolved via :func:`resolve_spec`)
    so requests pickle cheaply across processes and hash stably for the
    run cache.  ``config`` optionally carries the long-tail knobs
    (schedules, semantics, cost model); the scalar fields below override
    their counterparts in it (:meth:`effective_config`).
    """

    query: str
    protocol: str
    parallelism: int
    rate: float
    duration: float = 60.0
    warmup: float = 10.0
    failure_at: float | None = None
    failure_worker: int = 0
    hot_ratio: float = 0.0
    checkpoint_interval: float = 5.0
    seed: int = 7
    #: checkpoint state backend ('full' | 'changelog', DESIGN.md section 10)
    state_backend: str = "full"
    #: restore at this parallelism when the ``rescale_at``-th recovery is
    #: applied (elastic rescale-on-recovery, DESIGN.md section 11)
    rescale_to: int | None = None
    rescale_at: int = 1
    #: size of the key-group address space (routing + keyed state)
    max_key_groups: int = 128
    #: failure-scenario spec string (DESIGN.md section 12); overrides the
    #: single-kill failure_at/failure_worker pair when set
    failure_scenario: str | None = None
    #: checkpoint-interval policy: 'fixed' | 'adaptive' (Young–Daly)
    interval_policy: str = "fixed"
    #: per-channel credit budget in bytes (0 = unbounded channels); the
    #: credit-based flow-control knob of DESIGN.md section 13
    channel_capacity_bytes: int = 0
    #: when set, run only the input slice whose source keys fall in
    #: key-group range ``shard_index`` of ``shard_count`` — one shard of
    #: an intra-run split (:mod:`repro.experiments.sharding`, DESIGN.md
    #: section 15); ``None`` runs the whole input
    shard_index: int | None = None
    shard_count: int = 1
    #: arrival-process spec string (``--arrival`` grammar, DESIGN.md
    #: section 17); ``None`` = steady, today's constant-rate behavior
    arrival: str | None = None
    config: RuntimeConfig | None = None

    def effective_config(self) -> RuntimeConfig:
        """The full :class:`RuntimeConfig` this request runs under; a
        malformed spec string of either grammar is a ``ValueError`` here,
        before a cache key or a pool worker sees it."""
        if self.arrival is not None:
            from repro.workloads.arrivals import check_arrival

            check_arrival(self.arrival)
        base = self.config if self.config is not None else RuntimeConfig()
        return replace(
            base,
            checkpoint_interval=self.checkpoint_interval,
            duration=self.duration,
            warmup=self.warmup,
            failure_at=self.failure_at,
            failure_worker=self.failure_worker,
            seed=self.seed,
            state_backend=self.state_backend,
            rescale_to=self.rescale_to,
            rescale_at=self.rescale_at,
            max_key_groups=self.max_key_groups,
            failure_scenario=self.failure_scenario,
            interval_policy=self.interval_policy,
            channel_capacity_bytes=self.channel_capacity_bytes,
        )


@dataclass(frozen=True, eq=False)
class MstRequest:
    """One full MST search, by value (cacheable / process-shippable).

    A search is sequential — each probe decides the next rate — so the
    harness fans across independent searches, one per worker
    (:meth:`ParallelRunner.map` / ``submit`` / ``run``), each one cache
    miss and entry.  ``config`` carries the long-tail knobs into every probe.
    """

    query: str
    protocol: str
    parallelism: int
    probe_duration: float = 14.0
    warmup: float = 6.0
    iterations: int = 4
    seed: int = 7
    config: RuntimeConfig | None = None


def resolve_spec(name: str) -> "QuerySpec":
    """Look up a query spec by name (NexMark queries + the cyclic query)."""
    from repro.workloads.cyclic import REACHABILITY
    from repro.workloads.nexmark import QUERIES

    if name == REACHABILITY.name:
        return REACHABILITY
    try:
        return QUERIES[name]
    except KeyError:
        raise ValueError(
            f"unknown query {name!r}; parallel runs resolve specs by name "
            f"(known: {sorted(QUERIES) + [REACHABILITY.name]})"
        ) from None


def _jsonable(value: Any) -> Any:
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def request_key(request: "RunRequest | MstRequest") -> str:
    """Stable content hash of a request (the cache address)."""
    if isinstance(request, MstRequest):
        payload: dict[str, Any] = {
            "v": CACHE_VERSION,
            "task": "mst",
            "query": request.query,
            "protocol": request.protocol,
            "parallelism": request.parallelism,
            "probe_duration": request.probe_duration,
            "warmup": request.warmup,
            "iterations": request.iterations,
            "seed": request.seed,
            "config": _jsonable(asdict(request.config)) if request.config else None,
        }
    else:
        payload = {
            "v": CACHE_VERSION,
            "task": "run",
            "query": request.query,
            "protocol": request.protocol,
            "parallelism": request.parallelism,
            "rate": request.rate,
            "hot_ratio": request.hot_ratio,
            "arrival": request.arrival,
            "shard_index": request.shard_index,
            "shard_count": request.shard_count,
            "config": _jsonable(asdict(request.effective_config())),
        }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def execute_request(request: RunRequest) -> "RunResult":
    """Run one request to completion in this process (no cache)."""
    return run_with_spec(resolve_spec(request.query), request)


class RunFailed(RuntimeError):
    """A request raised, or its worker died, instead of returning a result.

    Raised by the runner in place of whatever the run raised (``cause``,
    chained as ``__cause__``, a worker's remote traceback included), so
    that a sweep of hundreds of runs says *which* one died: the message
    names the request's coordinates and the head of its cache key.
    """

    def __init__(self, request: "RunRequest | MstRequest", key: str,
                 cause: BaseException) -> None:
        coordinates = (f"query={request.query} protocol={request.protocol} "
                       f"parallelism={request.parallelism} "
                       f"seed={request.seed}")
        if isinstance(request, MstRequest):
            coordinates = f"mst {coordinates}"
        else:
            shard = ("-" if request.shard_index is None
                     else f"{request.shard_index}/{request.shard_count}")
            coordinates += f" rate={request.rate:g} shard={shard}"
        super().__init__(f"{coordinates} key={key[:12]}: "
                         f"{type(cause).__name__}: {cause}")
        self.__cause__ = cause
        self.request = request
        self.key = key

    def __reduce__(self):
        # a pool worker's MST search raises its probe's RunFailed, which
        # must cross the pipe to the parent whole
        return type(self), (self.request, self.key, self.__cause__)


def run_with_spec(spec: "QuerySpec", request: RunRequest) -> "RunResult":
    """Execute ``request`` against an explicit spec object.

    ``run_query`` uses this for specs that are not in the name registry
    (ad-hoc test pipelines); cached/parallel execution requires registered
    names so worker processes can re-resolve them.
    """
    from repro.dataflow.runtime import Job

    config = request.effective_config()
    graph = spec.build_graph(request.parallelism)
    inputs = spec.make_job_inputs(
        request.rate, request.warmup + request.duration + 1.0,
        request.parallelism, request.hot_ratio, request.seed,
        arrival=request.arrival,
    )
    if request.shard_index is not None:
        from repro.experiments.sharding import shard_inputs

        # intra-run sharding: keep only the key-group slice this shard
        # owns (the filter copies; the memoised logs are never mutated)
        inputs = shard_inputs(graph, inputs, request.shard_index,
                              request.shard_count, request.max_key_groups)
    # one pause from deployment to release: the collector comes back on
    # only once the job has died by reference count, so its first sweep
    # meets a RunResult, not a live deployment (DESIGN.md section 21)
    with collector_paused():
        job = Job(graph, request.protocol, request.parallelism, inputs, config)
        try:
            return job.run(rate=request.rate, query_name=spec.name)
        finally:
            job.release()


# --------------------------------------------------------------------- #
# Cost model
# --------------------------------------------------------------------- #

def estimate_cost(request: "RunRequest | MstRequest") -> float:
    """Relative wall-clock estimate of one request (a scheduling key).

    The scheduler orders submissions longest-first, so only the *ordering*
    matters, not the unit: simulated work scales with the records pushed
    through the pipeline (rate x window, split across shards) times a
    per-record factor that grows with the instance count, inflated by the
    scenario knobs that add replay, parking or controller work.  An MST
    request is a whole sequential bracket search — probe budget x probe
    window x the query's analytic capacity hint.
    """
    if isinstance(request, MstRequest):
        from repro.metrics.mst import MAX_BRACKET_PROBES, estimate_capacity

        try:
            capacity = estimate_capacity(
                resolve_spec(request.query), request.parallelism)
        except ValueError:
            capacity = 1000.0
        window = request.warmup + request.probe_duration + 1.0
        return (MAX_BRACKET_PROBES + request.iterations) * capacity * window
    cost = request.rate * (request.warmup + request.duration + 1.0)
    if request.shard_index is not None:
        cost /= max(1, request.shard_count)
    cost *= 1.0 + 0.1 * max(0, request.parallelism - 1)
    if request.failure_at is not None or request.failure_scenario:
        cost *= 1.3  # replay + restart work on top of steady processing
    if request.rescale_to is not None:
        cost *= 1.1
    if request.interval_policy != "fixed":
        cost *= 1.05
    if request.channel_capacity_bytes:
        cost *= 1.2  # credit bookkeeping and parked-sender wakeups
    if request.hot_ratio:
        cost *= 1.0 + request.hot_ratio  # skew deepens the hot queues
    if request.arrival is not None:
        cost *= 1.15
    return cost


# --------------------------------------------------------------------- #
# Execution (a pool worker or inline)
# --------------------------------------------------------------------- #

def execute(request: "RunRequest | MstRequest") -> Any:
    """Run one request to the result the cache stores: what a pool worker
    and the inline path both call.

    An MST search probes through a serial runner of its own, so it is one
    cache entry at any entry point.  A run's result is compacted
    (:meth:`~repro.dataflow.results.RunResult.compact`), except a shard
    partial's: the shard merge concatenates the raw latency samples
    before taking percentiles.
    """
    if isinstance(request, MstRequest):
        from repro.metrics.mst import find_mst

        return find_mst(
            resolve_spec(request.query), request.protocol, request.parallelism,
            probe_duration=request.probe_duration, warmup=request.warmup,
            iterations=request.iterations, seed=request.seed,
            config=request.config,
        )
    result = execute_request(request)
    return result.compact() if request.shard_index is None else result


# --------------------------------------------------------------------- #
# On-disk cache
# --------------------------------------------------------------------- #

#: entry format v8: magic, then the raw pickle length (uint64 LE), then
#: the zlib-compressed pickle.  Anything else in the directory — v7 plain
#: pickles, truncated writes, foreign files — reads as a miss, never as
#: an error, so old cache dirs keep working (as empty caches).
_ENTRY_MAGIC = b"RPRC\x08"
_ENTRY_HEADER = struct.Struct("<Q")


class RunCache:
    """Content-addressed compressed store: one file per request hash.

    Entries are compacted results pickled and zlib-compressed (format v8,
    see :data:`_ENTRY_MAGIC`).  Within a sweep only the runner's parent
    process writes (:meth:`ParallelRunner._store`); writes are atomic
    (tempfile + rename), so concurrent sweeps can share a directory and
    a reader never sees half an entry.  An older-format file reads as a
    miss and is overwritten, a corrupt or truncated v8 entry reads as a
    miss and is quarantined (:meth:`get`).
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        """On-disk path of the entry stored under ``key``."""
        return self.directory / f"{key}.pkl"

    def get(self, key: str) -> tuple[bool, Any]:
        """(found, value) for ``key``; a damaged entry is a quarantined miss.

        A file that is not a v8 entry at all (a v7 plain pickle, foreign
        bytes) is a plain miss and is left alone.  One that claims to be —
        it has the magic — but fails the length check, decompression or
        unpickling is damage: it reads as a miss and is moved aside as
        ``<key>.pkl.bad``, so the evidence survives the rewrite and
        :meth:`stats` can count it.
        """
        path = self.path(key)
        try:
            blob = path.read_bytes()
        except OSError:
            return False, None
        if not blob.startswith(_ENTRY_MAGIC):
            return False, None
        try:
            offset = len(_ENTRY_MAGIC) + _ENTRY_HEADER.size
            (raw_length,) = _ENTRY_HEADER.unpack_from(blob, len(_ENTRY_MAGIC))
            raw = zlib.decompress(blob[offset:])
            if len(raw) == raw_length:
                return True, pickle.loads(raw)
        except Exception:
            # decompressing/unpickling corrupt bytes can raise nearly
            # anything (error, ValueError, EOFError, ImportError, ...);
            # a damaged entry must always read as a miss
            pass
        self._quarantine(path)
        return False, None

    def _quarantine(self, path: Path) -> None:
        """Move a damaged entry aside; best effort, atomic when it works."""
        try:
            os.replace(path, path.with_name(path.name + ".bad"))
        except OSError:
            pass  # already moved or rewritten by another process

    def put(self, key: str, value: Any) -> None:
        """Atomically write ``value`` under ``key`` (tempfile + rename)."""
        raw = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        payload = (_ENTRY_MAGIC + _ENTRY_HEADER.pack(len(raw))
                   + zlib.compress(raw, 6))
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> dict[str, float]:
        """One directory scan: entry count, bytes, compression ratio.

        ``entries``/``entry_bytes``/``raw_bytes`` cover decodable v8
        entries (``ratio`` is compressed over raw for those);
        ``stale_files`` counts files of other formats — e.g. a v7 cache
        dir — which read as misses; ``total_bytes`` covers both.
        ``quarantined`` counts the damaged entries :meth:`get` moved
        aside (``*.pkl.bad``), which nothing reads again.
        """
        entries = stale = 0
        entry_bytes = raw_bytes = total_bytes = 0
        prefix = len(_ENTRY_MAGIC) + _ENTRY_HEADER.size
        for path in sorted(self.directory.glob("*.pkl")):
            try:
                size = path.stat().st_size
                with open(path, "rb") as fh:
                    head = fh.read(prefix)
            except OSError:
                continue
            total_bytes += size
            if head.startswith(_ENTRY_MAGIC) and len(head) == prefix:
                entries += 1
                entry_bytes += size
                raw_bytes += _ENTRY_HEADER.unpack_from(
                    head, len(_ENTRY_MAGIC))[0]
            else:
                stale += 1
        return {
            "entries": entries,
            "stale_files": stale,
            "entry_bytes": entry_bytes,
            "raw_bytes": raw_bytes,
            "total_bytes": total_bytes,
            "ratio": entry_bytes / raw_bytes if raw_bytes else 0.0,
            "quarantined": sum(1 for _ in self.directory.glob("*.pkl.bad")),
        }


# --------------------------------------------------------------------- #
# Executor
# --------------------------------------------------------------------- #

def _mp_context():
    """Fork keeps worker start cheap and inherits the spec registries; fall
    back to the platform default where fork is unavailable.

    ``multiprocessing`` and ``concurrent.futures`` are imported here and
    on the pool's other paths, not at module top: a run that never
    builds a pool never loads them (DESIGN.md section 9).
    """
    import multiprocessing

    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


class RunHandle:
    """One submitted request: resolves as the scheduler drains.

    Handles dedup naturally: every submission of a key that is still in
    flight returns the same handle.
    """

    __slots__ = ("key", "_runner", "_result", "_error", "_done")

    def __init__(self, key: str, runner: "ParallelRunner"):
        self.key = key
        self._runner = runner
        self._result: Any = None
        self._error: RunFailed | None = None
        self._done = False

    def result(self) -> Any:
        """The resolved value, draining the scheduler until it lands.

        A handle whose run failed re-raises its :class:`RunFailed`, for
        every waiter: the submitter, a deduped second submitter, the
        ``map()`` of a shard group it was a part of.
        """
        while not self._done:
            self._runner._wait_some()
        if self._error is not None:
            raise self._error
        return self._result

    def _resolve(self, value: Any = None,
                 error: RunFailed | None = None) -> None:
        self._result = value
        self._error = error
        self._done = True


class ParallelRunner:
    """Cache-first executor around one machine-wide streaming scheduler.

    ``jobs=1`` degrades to serial in-process execution (still cached), so
    the same code path serves the CI smoke sweep and a 32-way grid sweep.
    ``jobs`` must be an ``int`` of at least 1: a bool, any other type or
    a smaller count is a ``ValueError`` naming it (the CLI resolves its
    ``0`` / ``auto`` to a CPU count first).
    Results are additionally memoised in-process, so repeated ``run()``
    calls inside one harness invocation never touch the disk twice.

    With ``jobs>1`` every miss — figure batch, shard fan-out, MST
    search — is a ``submit()`` into one persistent process pool;
    batches submit longest-first (:func:`estimate_cost`) and completions
    stream back as they land, so a straggler never idles the other
    workers behind a batch barrier.

    A run that raises — in this process or in a worker, a worker's death
    included — surfaces as :class:`RunFailed` naming the request, to
    whoever drains and to every holder of its handle, and leaves nothing
    behind: the same request submitted again is a fresh miss.  Only a
    worker's death is retried first, once (:meth:`_wait_some`).
    """

    def __init__(self, jobs: int = 1, cache_dir: str | os.PathLike | None = None):
        if isinstance(jobs, bool) or not isinstance(jobs, int) or jobs < 1:
            raise ValueError(f"jobs must be an int >= 1, got {jobs!r}")
        self.jobs = jobs
        self.cache = RunCache(cache_dir) if cache_dir is not None else None
        self._memory: dict[str, Any] = {}
        self._pool: ProcessPoolExecutor | None = None
        #: in-flight futures: future -> (submit seq, key, request, handle,
        #: the pool running it, whether this attempt is the retry)
        self._inflight: dict[Any, tuple] = {}
        #: unresolved handles by key (cross-batch dedup table)
        self._pending: dict[str, RunHandle] = {}
        self._submit_seq = 0
        #: runs executing inline in this process right now (an MST search
        #: and the probe it is running are two)
        self._inline = 0
        #: requests served from the cache (memory or disk)
        self.hits = 0
        #: requests that had to be simulated
        self.misses = 0
        #: duplicates folded into a pending simulation — served without
        #: executing, but not from the cache, so not a hit
        self.deduped = 0

    def close(self) -> int:
        """Shut the worker pool down (idempotent); how many runs it dropped.

        Nothing is in flight when a sweep ends normally.  After Ctrl-C or
        a failure that ended the sweep something may be, and nobody will
        read it: queued futures are cancelled and the workers terminated;
        a result a worker finished but the runner had not drained yet is
        not stored.  Workers never write the cache, so there is nothing
        of theirs to clean up: stored entries stay and the directory is
        reusable.  A run the interrupt caught executing inline
        (``jobs=1``, or :meth:`run`) is dropped too, and counted.
        """
        abandoned = len(self._inflight) + self._inline
        self._inline = 0
        self._inflight.clear()
        self._pending.clear()
        pool, self._pool = self._pool, None
        if pool is None:
            return abandoned
        workers = list(pool._processes.values()) if abandoned else []
        pool.shutdown(wait=not abandoned, cancel_futures=True)
        for worker in workers:
            worker.terminate()
        for worker in workers:
            worker.join()
        return abandoned

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _make_pool(self) -> ProcessPoolExecutor:
        """Build the persistent worker pool (scheduler tests override).

        Workers ignore SIGINT: a terminal's Ctrl-C reaches the whole
        process group, and it is the parent that decides what happens to
        them (:meth:`close`).
        """
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=_mp_context(),
            initializer=signal.signal,
            initargs=(signal.SIGINT, signal.SIG_IGN),
        )

    # -- cache plumbing ------------------------------------------------- #

    def _lookup(self, key: str) -> tuple[bool, Any]:
        if key in self._memory:
            return True, self._memory[key]
        if self.cache is not None:
            found, value = self.cache.get(key)
            if found:
                self._memory[key] = value
                return True, value
        return False, None

    def _store(self, key: str, value: Any) -> None:
        """Write a finished result's cache entry, then memoise it: the one
        caller of :meth:`RunCache.put`, always in this process.  A write
        that raises memoises nothing, so the key stays a miss."""
        if self.cache is not None:
            self.cache.put(key, value)
        self._memory[key] = value

    @property
    def finished(self) -> int:
        """Distinct results this runner holds, served or simulated."""
        return len(self._memory)

    @property
    def hit_ratio(self) -> float:
        """Cache hits over all cache-consulting requests."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    # -- scheduler core -------------------------------------------------- #

    def _claim(self, key: str) -> RunHandle | None:
        """The one admission step behind ``run`` / ``submit`` / ``map``.

        The handle of a key already in flight (``deduped``), a resolved
        one for a key the memo or the disk cache holds (``hits``), or
        ``None`` — a miss, counted here, that the caller must execute.
        """
        pending = self._pending.get(key)
        if pending is not None:
            self.deduped += 1
            return pending
        found, value = self._lookup(key)
        if not found:
            self.misses += 1
            return None
        self.hits += 1
        handle = RunHandle(key, self)
        handle._resolve(value)
        return handle

    def submit(self, request: "RunRequest | MstRequest") -> RunHandle:
        """Enqueue one request into the shared scheduler, cache-first.

        Hits resolve immediately; a key already in flight returns the
        existing handle (deduped); a fresh miss is shipped to the pool
        (or, with ``jobs=1``, executed inline before returning).
        """
        key = request_key(request)
        return self._claim(key) or self._launch(key, request)

    def _launch(self, key: str, request: "RunRequest | MstRequest",
                retry_of: RunHandle | None = None) -> RunHandle:
        handle = retry_of or RunHandle(key, self)
        if self.jobs <= 1:
            value = self._execute_inline(key, request)
            self._store(key, value)
            handle._resolve(value)
            return handle
        self._pending[key] = handle
        if self._pool is None:
            self._pool = self._make_pool()
        future = self._pool.submit(execute, request)
        self._inflight[future] = (self._submit_seq, key, request, handle,
                                  self._pool, retry_of is not None)
        self._submit_seq += 1
        return handle

    def _wait_any(self, futures: "set[Any]") -> "set[Any]":
        """Block until at least one future completes (test seam: the
        scheduler-determinism suite overrides this to force arbitrary
        completion interleavings)."""
        from concurrent.futures import FIRST_COMPLETED, wait

        done, _ = wait(futures, return_when=FIRST_COMPLETED)
        return done

    def _wait_some(self) -> None:
        """Drain at least one completion; fire its callbacks.

        A future that raised — the run itself, or ``BrokenProcessPool``
        when its worker died — leaves the scheduler as clean as one that
        returned: its entries are dropped (a re-submission is a fresh
        miss), its handle resolves with a :class:`RunFailed` that every
        waiter re-raises, and once everything that landed in this wait
        is settled the first such failure is raised to whoever drains.
        Storing the result is part of the same step, so a cache write
        that fails is a :class:`RunFailed` as well.
        A dead worker fails every run its pool had in flight, so one that
        failed with ``BrokenExecutor`` is first resubmitted, once, to a
        rebuilt pool (not a second miss); nothing else is retried.
        """
        if not self._inflight:
            raise RuntimeError("scheduler drain with nothing in flight")
        from concurrent.futures import BrokenExecutor

        done = self._wait_any(set(self._inflight))
        failed: RunFailed | None = None
        # resolve in submission order so callback order is deterministic
        # even when several futures land in one wait
        for future in sorted(done, key=lambda f: self._inflight[f][0]):
            _, key, request, handle, pool, retried = self._inflight.pop(future)
            self._pending.pop(key, None)
            try:
                value = future.result()
                self._store(key, value)
            except Exception as exc:
                if isinstance(exc, BrokenExecutor):
                    if pool is self._pool:
                        # a dead worker broke the whole pool: every other
                        # in-flight future of it fails the same way, and
                        # the next launch builds a new one
                        pool.shutdown(wait=False)
                        self._pool = None
                    if not retried:
                        self._launch(key, request, retry_of=handle)
                        continue
                # a probe's RunFailed already names what died
                error = (exc if isinstance(exc, RunFailed)
                         else RunFailed(request, key, exc))
                handle._resolve(error=error)
                failed = failed or error
            else:
                handle._resolve(value)
        if failed is not None:
            raise failed

    # -- execution ------------------------------------------------------ #

    def run(self, request: "RunRequest | MstRequest") -> Any:
        """Execute one request, cache-first, in this process."""
        key = request_key(request)
        claimed = self._claim(key)
        if claimed is not None:
            return claimed.result()  # a hit, or the wait for one in flight
        result = self._execute_inline(key, request)
        self._store(key, result)
        return result

    def _execute_inline(self, key: str, request: "RunRequest | MstRequest") -> Any:
        """Execute ``request`` in this process, counted while it runs.

        An exception becomes :class:`RunFailed` naming the request (a
        probe's ``RunFailed`` already names what died and passes through)
        and the run stops counting; ``KeyboardInterrupt`` is not an
        ``Exception``, so an interrupted run stays counted for
        :meth:`close`.
        """
        self._inline += 1
        try:
            value = execute(request)
        except Exception as exc:
            self._inline -= 1
            if isinstance(exc, RunFailed):
                raise
            raise RunFailed(request, key, exc)
        self._inline -= 1
        return value

    def map(self, requests: "list[RunRequest] | list[MstRequest]") -> list[Any]:
        """Execute a batch; misses stream through the shared scheduler.

        Results come back in request order and are byte-identical to
        serial execution — workers run the same deterministic simulator,
        they just run it concurrently.  Duplicate requests in one batch
        are simulated once.  Misses are submitted **longest-first**
        (:func:`estimate_cost`) and collected as they complete, so the
        estimated straggler starts immediately and short runs backfill
        the tail instead of waiting behind a batch barrier.
        """
        keys = [request_key(r) for r in requests]
        handles: dict[str, RunHandle] = {}
        missing: dict[str, Any] = {}
        for key, request in zip(keys, requests):
            if key in missing:
                # a miss of this batch, not launched yet: nothing for
                # _claim to find, so the fold is counted here
                self.deduped += 1
                continue
            claimed = self._claim(key)
            if claimed is None:
                missing[key] = request
            else:
                handles[key] = claimed
        # stable sort: equal-cost requests keep request order
        for key, request in sorted(missing.items(),
                                   key=lambda item: -estimate_cost(item[1])):
            handles[key] = self._launch(key, request)
        return [handles[key].result() for key in keys]
