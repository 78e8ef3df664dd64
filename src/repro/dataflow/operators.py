"""Operator library: map, filter, joins, windows, sink.

These are the "fundamental processing operators in modern stream processing
engines" the paper implements in its testbed (Section IV).  Operators are
pure processing logic; the runtime owns scheduling, channels, checkpointing
and CPU accounting.  An operator interacts with the world only through its
:class:`OperatorContext` (time, timers, output recording) and its
:class:`~repro.dataflow.state.StateRegistry`.

Windowed operators use processing-time tumbling windows in the paper's
"running" flavour: processing is triggered on record arrival and the window
contents are cleared when it expires (Section VI, Q8/Q12).
"""

from __future__ import annotations

from typing import Any, Callable

from repro.dataflow.batch import RecordBatch
from repro.dataflow.records import StreamRecord, derived_rids, joined_rid
from repro.dataflow.state import KeyedListState, KeyedMapState, StateRegistry, ValueState


def _join_batch(
    op: str,
    batch: RecordBatch,
    port: str,
    left_key: Callable[[Any], Any],
    right_key: Callable[[Any], Any],
    combine: Callable[[Any, Any], Any],
    left_state: KeyedListState,
    right_state: KeyedListState,
    out_size: int,
) -> RecordBatch | None:
    """Batched insert-and-probe shared by both join operators.

    A batch arrives on exactly one port, so the probed side is constant
    for the whole batch and no row of it can match another: one pass
    computes each row's key, queues its insert and probes the other side,
    and one :meth:`append_many` stores the queued rows — the per-record
    interleaving byte for byte: same stored lists, same match order, same
    order-invariant ``joined_rid`` lineage (DESIGN.md section 16).
    """
    if port == "left":
        key_of, own, other, flip = left_key, left_state, right_state, False
    elif port == "right":
        key_of, own, other, flip = right_key, right_state, left_state, True
    else:
        raise ValueError(f"unknown join port {port!r}")
    inserts: list[tuple[Any, Any, None]] = []
    out_rids: list[int] = []
    out_payloads: list[Any] = []
    out_ts: list[float] = []
    probe = other.get
    for rid, payload, ts in zip(batch.rids, batch.payloads, batch.source_ts):
        key = key_of(payload)
        inserts.append((key, (rid, payload, ts), None))
        for other_rid, other_payload, other_ts in probe(key):
            if flip:
                out_rids.append(joined_rid(op, other_rid, rid))
                out_payloads.append(combine(other_payload, payload))
            else:
                out_rids.append(joined_rid(op, rid, other_rid))
                out_payloads.append(combine(payload, other_payload))
            out_ts.append(ts if ts >= other_ts else other_ts)
    own.append_many(inserts)
    if not out_rids:
        return None
    return RecordBatch(out_rids, out_payloads, out_ts,
                       [out_size] * len(out_rids))


class OperatorContext:
    """What the runtime exposes to operator logic.

    Concrete implementation lives in :mod:`repro.dataflow.runtime`; this base
    class documents (and in tests, stubs) the contract.
    """

    op_name: str = ""
    index: int = 0
    parallelism: int = 1

    def now(self) -> float:
        """Current virtual time."""
        raise NotImplementedError

    def register_timer(self, at: float, tag: Any) -> None:
        """Ask for ``on_timer(tag)`` at virtual time ``at`` (fires once)."""
        raise NotImplementedError

    def record_outputs(self, source_ts: list[float]) -> None:
        """Sink hook: report one final output per origin timestamp
        (drives latency metrics)."""
        raise NotImplementedError


class Operator:
    """Base operator; subclasses override :meth:`process_batch` — or only
    :meth:`process`, which the base :meth:`process_batch` loops over —
    and maybe timers."""

    #: virtual CPU seconds charged per processed record
    cpu_per_record: float = 0.0008

    def __init__(self) -> None:
        self.ctx: OperatorContext | None = None
        self.states = StateRegistry()

    # -- lifecycle ------------------------------------------------------ #

    def open(self, ctx: OperatorContext) -> None:
        """Bind the context and declare states. Subclasses must call super()."""
        self.ctx = ctx

    def on_restore(self) -> None:
        """Called after state restore on recovery (re-register timers etc.)."""

    # -- processing ------------------------------------------------------ #

    def process(self, record: StreamRecord, port: str) -> list[StreamRecord]:
        """Consume one record, return output records.

        Only called by the base :meth:`process_batch`; the library
        operators override that instead and define no ``process``.
        """
        raise NotImplementedError

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Consume a columnar batch, return an output batch (or None).

        The base implementation is the fallback for operators that only
        define :meth:`process`: it materializes record views, calls
        :meth:`process` on each, and re-columnarizes the outputs, while
        still letting the runtime route and flush once per batch.  Every
        library operator overrides it with a column-wise or grouped kernel
        (DESIGN.md sections 15 and 16).  ``Job.process_records`` never
        passes an empty batch, and the windowed kernels rely on that: given
        one, they would arm a sweep timer no record asked for.
        """
        out = RecordBatch([], [], [], [])
        process = self.process
        for record in batch:
            outputs = process(record, port)
            if outputs:
                out.extend_records(outputs)
        return out if len(out.rids) else None

    def on_timer(self, tag: Any) -> None:
        """Handle a previously registered timer (it emits no records)."""

    @property
    def state_bytes(self) -> int:
        """Byte footprint of the operator's registered states."""
        return self.states.size_bytes


class SourceOperator(Operator):
    """Pass-through head of the pipeline; the runtime feeds it log records.

    Sources are stateful in every protocol because their checkpoint stores
    the input offset used to rewind on recovery.
    """

    cpu_per_record = 0.0012

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Forward the polled batch into the pipeline unchanged."""
        return batch


class MapOperator(Operator):
    """1-to-1 transformation (NexMark Q1's currency conversion)."""

    cpu_per_record = 0.0015

    def __init__(self, fn: Callable[[Any], Any], out_size: Callable[[Any], int] | None = None) -> None:
        super().__init__()
        self._fn = fn
        self._out_size = out_size

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Apply the mapping function across the whole batch in one call.

        Lineage ids derive through the vectorized kernel; the timestamp
        (and, without ``out_size``, the size) columns are aliased from the
        input — batches are immutable once routed, so sharing is safe.
        """
        payloads = list(map(self._fn, batch.payloads))
        out_size = self._out_size
        return RecordBatch(
            derived_rids(self.ctx.op_name, batch.rids),
            payloads,
            batch.source_ts,
            list(map(out_size, payloads)) if out_size else batch.sizes,
        )


class FilterOperator(Operator):
    """Keep records whose payload satisfies the predicate."""

    cpu_per_record = 0.0008

    def __init__(self, predicate: Callable[[Any], bool]) -> None:
        super().__init__()
        self._predicate = predicate

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Apply the predicate column-wise; survivors keep their rids."""
        predicate = self._predicate
        payloads = batch.payloads
        keep = [i for i in range(len(payloads)) if predicate(payloads[i])]
        if len(keep) == len(payloads):
            return batch
        if not keep:
            return None
        return batch.select(keep)


class IncrementalJoinOperator(Operator):
    """Unbounded symmetric hash join (NexMark Q3).

    Inputs arrive on ports ``left`` and ``right``; both sides are retained
    forever (the paper notes Q3's state "grows"), and a match is emitted by
    whichever side arrives second.  Join-output lineage ids are
    order-invariant (:func:`~repro.dataflow.records.joined_rid`), so
    re-execution after rollback regenerates identical ids regardless of
    interleaving.
    """

    cpu_per_record = 0.0030
    #: serialized size of one joined pair
    out_size = 128

    def __init__(
        self,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any],
    ) -> None:
        super().__init__()
        self._left_key = left_key
        self._right_key = right_key
        self._combine = combine
        self._left: KeyedListState | None = None
        self._right: KeyedListState | None = None

    def open(self, ctx: OperatorContext) -> None:
        """Register the left/right join-side list states."""
        super().open(ctx)
        self._left = self.states.register("left", KeyedListState(entry_bytes=96))
        self._right = self.states.register("right", KeyedListState(entry_bytes=96))

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Insert the whole batch on its side, then probe the other side."""
        return _join_batch(
            self.ctx.op_name, batch, port, self._left_key, self._right_key,
            self._combine, self._left, self._right, self.out_size,
        )


class WindowedJoinOperator(Operator):
    """Tumbling processing-time window join (NexMark Q8), running flavour.

    Both sides are buffered per window; matches are emitted on arrival; the
    whole window is dropped when it expires.
    """

    cpu_per_record = 0.0026
    #: serialized size of one joined pair
    out_size = 128

    def __init__(
        self,
        left_key: Callable[[Any], Any],
        right_key: Callable[[Any], Any],
        combine: Callable[[Any, Any], Any],
        window: float = 10.0,
    ) -> None:
        super().__init__()
        self._left_key = left_key
        self._right_key = right_key
        self._combine = combine
        self.window = window
        self._left: KeyedListState | None = None
        self._right: KeyedListState | None = None
        self._window_id: ValueState | None = None

    def open(self, ctx: OperatorContext) -> None:
        """Register join-side states plus the current-window marker."""
        super().open(ctx)
        self._left = self.states.register("left", KeyedListState(entry_bytes=96))
        self._right = self.states.register("right", KeyedListState(entry_bytes=96))
        self._window_id = self.states.register("window_id", ValueState(-1, 8))

    def _roll_window(self) -> None:
        """Clear buffered contents if we crossed into a new window."""
        current = int(self.ctx.now() // self.window)
        if self._window_id.get() != current:
            self._left.clear()
            self._right.clear()
            self._window_id.set(current, 8)
            self.ctx.register_timer((current + 1) * self.window, ("window", current + 1))

    def on_timer(self, tag: Any) -> None:
        """Roll the window forward at its boundary."""
        self._roll_window()

    def on_restore(self) -> None:
        """Re-register the window-boundary timer after recovery."""
        current = int(self.ctx.now() // self.window)
        self.ctx.register_timer((current + 1) * self.window, ("window", current + 1))

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Roll the window once (virtual time is batch-constant), then join.

        ``ctx.now()`` cannot advance inside one batch task, so rolling
        before every record would only ever act on the first one.
        """
        self._roll_window()
        return _join_batch(
            self.ctx.op_name, batch, port, self._left_key, self._right_key,
            self._combine, self._left, self._right, self.out_size,
        )


class WindowedCountOperator(Operator):
    """Tumbling processing-time windowed count per key (NexMark Q12), running.

    Emits the updated count on every arrival as a ``(key, window, count)``
    tuple; per-key counters reset when the record's window differs from
    the stored one, and an expiry timer sweeps stale keys so state does
    not grow unboundedly.
    """

    cpu_per_record = 0.0018
    #: serialized size of one ``(key, window, count)`` update
    out_size = 48

    def __init__(self, key_fn: Callable[[Any], Any], window: float = 10.0) -> None:
        super().__init__()
        self._key_fn = key_fn
        self.window = window
        self._counts: KeyedMapState | None = None

    def open(self, ctx: OperatorContext) -> None:
        """Register the per-key windowed counter state."""
        super().open(ctx)
        self._counts = self.states.register("counts", KeyedMapState())

    def on_restore(self) -> None:
        """Re-register the stale-entry sweep timer after recovery."""
        current = int(self.ctx.now() // self.window)
        self.ctx.register_timer((current + 1) * self.window, ("sweep", current + 1))

    def on_timer(self, tag: Any) -> None:
        """Sweep counters of closed windows and reschedule."""
        kind, window_id = tag
        stale = [k for k, (w, _) in self._counts.items() if w < window_id]
        self._counts.delete_many(stale)
        self.ctx.register_timer((window_id + 1) * self.window, ("sweep", window_id + 1))

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Fold the batch per key; one state get/put per distinct key.

        One pass over a running ``key -> count`` dict: a key's first row
        reads the stored counter, every row bumps the running one and
        emits it.  The dict's insertion order is first-occurrence order,
        so the one :meth:`put_many` creates state entries in exactly the
        order the per-record loop would; counters never shrink mid-batch,
        so the sweep-timer arming condition (state empty) is checked once
        up front exactly as the first record would.  ``batch`` is never
        empty (:meth:`Operator.process_batch`).
        """
        n = len(batch.rids)
        ctx = self.ctx
        current = int(ctx.now() // self.window)
        counts = self._counts
        if not len(counts):
            ctx.register_timer((current + 1) * self.window, ("sweep", current + 1))
        key_fn = self._key_fn
        stored_count = counts.get
        running: dict[Any, int] = {}
        payloads = []
        for payload in batch.payloads:
            key = key_fn(payload)
            count = running.get(key)
            if count is None:
                stored = stored_count(key)
                count = 0 if stored is None or stored[0] != current else stored[1]
            running[key] = count = count + 1
            payloads.append((key, current, count))
        counts.put_many([(key, (current, count), 40)
                         for key, count in running.items()])
        return RecordBatch(derived_rids(ctx.op_name, batch.rids), payloads,
                           batch.source_ts, [self.out_size] * n)


class SlidingWindowCountOperator(Operator):
    """Hopping/sliding processing-time windowed count per key (NexMark Q5).

    A record at time ``t`` belongs to every window ``w`` with
    ``w*slide <= t < w*slide + range``; all their counters are updated, and
    the running update is emitted for the *newest* window (one output per
    input) as a ``(key, window, count)`` tuple.  An expiry timer sweeps
    windows whose range has passed.
    """

    cpu_per_record = 0.0022
    #: serialized size of one ``(key, window, count)`` update
    out_size = 56

    def __init__(self, key_fn: Callable[[Any], Any], window_range: float = 10.0,
                 slide: float = 2.0) -> None:
        super().__init__()
        if slide <= 0 or window_range < slide:
            raise ValueError("need slide > 0 and range >= slide")
        self._key_fn = key_fn
        self.window_range = window_range
        self.slide = slide
        self._counts: KeyedMapState | None = None

    def open(self, ctx: OperatorContext) -> None:
        """Register the (window, key) -> count state."""
        super().open(ctx)
        #: (window_id, key) -> count
        self._counts = self.states.register("counts", KeyedMapState())

    def _windows_for(self, t: float) -> range:
        newest = int(t // self.slide)
        oldest = int((t - self.window_range) // self.slide) + 1
        return range(max(oldest, 0), newest + 1)

    def _schedule_sweep(self, window_id: int) -> None:
        self.ctx.register_timer(
            window_id * self.slide + self.window_range, ("sweep", window_id)
        )

    def on_restore(self) -> None:
        """Re-register the expiry sweep timer after recovery."""
        current = int(self.ctx.now() // self.slide)
        self._schedule_sweep(current)

    def on_timer(self, tag: Any) -> None:
        """Drop slots of windows that slid out of range."""
        _, window_id = tag
        stale = [k for k in self._counts.keys() if k[0] <= window_id]
        self._counts.delete_many(stale)

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Fold the batch per key; one put per touched (window, key) slot.

        The covered window set is batch-constant (virtual time does not
        advance mid-batch).  One pass keeps, per key, the running count of
        the *newest* window — read from state at the key's first row,
        bumped and emitted at every row; the older covered slots then take
        the key's arrivals in one addition each.  Slots are created in the
        same key-major, window-minor order as the per-record loop, and the
        expiry sweep is scheduled exactly when a record would first create
        its key's newest slot.  ``batch`` is never empty
        (:meth:`Operator.process_batch`).
        """
        n = len(batch.rids)
        ctx = self.ctx
        now = ctx.now()
        newest = int(now // self.slide)
        older = self._windows_for(now)[:-1]
        counts = self._counts
        stored_count = counts.get
        key_fn = self._key_fn
        #: key -> [newest-window count before the batch, running count]
        running: dict[Any, list[int]] = {}
        payloads = []
        for payload in batch.payloads:
            key = key_fn(payload)
            pair = running.get(key)
            if pair is None:
                stored = stored_count((newest, key))
                if stored is None:
                    self._schedule_sweep(newest)
                    stored = 0
                pair = running[key] = [stored, stored]
            pair[1] = count = pair[1] + 1
            payloads.append((key, newest, count))
        puts: list[tuple[Any, Any, int]] = []
        for key, (base, count) in running.items():
            arrivals = count - base
            for window_id in older:
                slot = (window_id, key)
                puts.append((slot, (stored_count(slot) or 0) + arrivals, 32))
            puts.append(((newest, key), count, 32))
        counts.put_many(puts)
        return RecordBatch(derived_rids(ctx.op_name, batch.rids), payloads,
                           batch.source_ts, [self.out_size] * n)


class MaxPerKeyOperator(Operator):
    """Track the maximum value seen per grouping key; emit on improvement.

    The second stage of NexMark Q5: per window, which item leads.  An
    improving record is emitted as a ``(group, item, value)`` tuple.
    """

    cpu_per_record = 0.0012
    #: serialized size of one ``(group, item, value)`` improvement
    out_size = 48

    def __init__(self, group_fn: Callable[[Any], Any],
                 value_fn: Callable[[Any], int],
                 item_fn: Callable[[Any], Any]) -> None:
        super().__init__()
        self._group_fn = group_fn
        self._value_fn = value_fn
        self._item_fn = item_fn
        self._best: KeyedMapState | None = None

    def open(self, ctx: OperatorContext) -> None:
        """Register the per-group running-maximum state."""
        super().open(ctx)
        #: group -> (best value, best item)
        self._best = self.states.register("best", KeyedMapState())

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Sequential fold over the batch; one put per improved group.

        Emission order must interleave groups in record order (a record
        emits iff it improves on everything seen so far, including earlier
        records of this batch), so the fold walks records sequentially but
        defers state writes to a single :meth:`put_many` over the final
        per-group best — intermediate puts are unobservable because a
        checkpoint marker never lands inside a batch.
        """
        best = self._best
        get = best.get
        group_fn = self._group_fn
        value_fn = self._value_fn
        item_fn = self._item_fn
        local: dict[Any, tuple[Any, Any]] = {}
        local_get = local.get
        rids: list[int] = []
        ts_col: list[float] = []
        out_payloads: list[Any] = []
        for rid, payload, ts in zip(batch.rids, batch.payloads,
                                    batch.source_ts):
            group = group_fn(payload)
            value = value_fn(payload)
            cur = local_get(group)
            if cur is None:
                cur = get(group)
            if cur is not None and cur[0] >= value:
                continue
            item = item_fn(payload)
            local[group] = (value, item)
            rids.append(rid)
            ts_col.append(ts)
            out_payloads.append((group, item, value))
        if not rids:
            return None
        best.put_many([(g, vi, 32) for g, vi in local.items()])
        return RecordBatch(derived_rids(self.ctx.op_name, rids), out_payloads,
                           ts_col, [self.out_size] * len(rids))


class SinkOperator(Operator):
    """Terminal operator: reports records as pipeline output."""

    cpu_per_record = 0.0006

    def process_batch(self, batch: RecordBatch, port: str) -> RecordBatch | None:
        """Report the whole batch as final pipeline output (one metrics call)."""
        self.ctx.record_outputs(batch.source_ts)
        return None
