"""Operator state with byte-size accounting, and what a checkpoint uploads of it.

Checkpoint and restore durations in the cost model scale with state size, so
every state primitive tracks an approximate byte footprint.  Snapshots are
shallow copies: operators must *replace* stored values instead of mutating
them in place (the query implementations in :mod:`repro.workloads` follow
this rule; :class:`KeyedListState` copies lists on snapshot so appends stay
safe).

A checkpoint uploads the complete state as one self-contained snapshot,
or — state primitives can track the keys written since the last
checkpoint — only that **delta**, chained onto the previous checkpoint's
blob.  Restoring a delta checkpoint fetches its snapshot plus every delta
in between and folds them in order.  :class:`ChainTracker` decides which
one the next checkpoint is; the two state backends are two bounds on the
chain's length (``full``: no deltas, the default and the paper's
behaviour; ``changelog``: at most :data:`CHANGELOG_MAX_CHAIN`; DESIGN.md
section 10).

Both backends produce byte-identical restored state — the differential
suite in ``tests/test_exactly_once.py`` locks that equivalence down for
every protocol.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Container, Iterator, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.worker import InstanceRuntime


def _state_key_group(key: Any, max_key_groups: int) -> int:
    """Key group of a keyed-state entry (same mapping as KEY routing).

    Rescaled restores split keyed snapshots along this mapping, so it must
    agree with :class:`~repro.dataflow.channels.KeyDestinations`, which
    routes KEY edges: for operators whose state keys equal their routing
    keys (every keyed operator in the workload library) a group's state
    always lives where its records land.
    """
    from repro.dataflow.channels import hash_key
    from repro.dataflow.keygroups import key_group

    return key_group(hash_key(key), max_key_groups)

#: delta tag for "the whole state was replaced/cleared since the last clean
#: point" — the delta degenerates to a full snapshot of this state
FULL = "full"
#: delta tag for a keyed diff (written entries + deleted keys)
DIFF = "diff"

#: accounting bytes per recorded key deletion inside a delta
_DELETE_BYTES = 12


class ValueState:
    """A single mutable value with an explicit byte size.

    Change tracking is **armed lazily** by the first :meth:`mark_clean` —
    only the changelog backend ever calls it, so under the default
    full-snapshot backend writes pay a single boolean check and no
    tracking structures grow.  An unarmed state conservatively reports a
    full delta.
    """

    __slots__ = ("_value", "_size", "_dirty", "_tracked")

    def __init__(self, initial: Any = None, size_bytes: int = 0) -> None:
        self._value = initial
        self._size = size_bytes
        self._dirty = False
        self._tracked = False

    def get(self) -> Any:
        """Current value."""
        return self._value

    def set(self, value: Any, size_bytes: int) -> None:
        """Replace the value and its accounted byte size."""
        self._value = value
        self._size = size_bytes
        if self._tracked:
            self._dirty = True

    @property
    def size_bytes(self) -> int:
        """Accounted byte footprint of the value."""
        return self._size

    def snapshot(self) -> tuple[Any, int]:
        """Copyable (value, size) pair for checkpointing."""
        return (self._value, self._size)

    def restore(self, snap: tuple[Any, int]) -> None:
        """Reinstall a snapshot taken by :meth:`snapshot`."""
        self._value, self._size = snap
        self._dirty = True

    # -- changelog support ------------------------------------------------ #

    def snapshot_delta(self) -> tuple | None:
        """Delta since the last clean point (None if unchanged)."""
        if self._tracked and not self._dirty:
            return None
        return (FULL, self.snapshot())

    def delta_bytes(self) -> int:
        """Bytes a delta of the current changes would upload."""
        if self._tracked and not self._dirty:
            return 0
        return self._size

    def mark_clean(self) -> None:
        """Arm change tracking and forget pending changes."""
        self._tracked = True
        self._dirty = False

    def apply_delta(self, delta: tuple) -> None:
        """Fold one delta (from :meth:`snapshot_delta`) into the value."""
        _, snap = delta
        self.restore(snap)


class KeyedMapState:
    """A keyed map; each entry carries its own byte size.

    Change tracking is armed lazily by the first :meth:`mark_clean` (the
    changelog backend's base capture); under the full-snapshot backend the
    dirty/deleted sets never grow.
    """

    __slots__ = ("_data", "_sizes", "_total", "_dirty", "_deleted",
                 "_all_dirty", "_tracked")

    def __init__(self) -> None:
        self._data: dict[Any, Any] = {}
        self._sizes: dict[Any, int] = {}
        self._total = 0
        self._dirty: set[Any] = set()
        self._deleted: set[Any] = set()
        self._all_dirty = False
        self._tracked = False

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any, default: Any = None) -> Any:
        """Value stored under ``key`` (or ``default``)."""
        return self._data.get(key, default)

    def put(self, key: Any, value: Any, size_bytes: int) -> None:
        """Insert or replace ``key`` with an explicit byte size."""
        sizes = self._sizes
        prev = sizes.get(key)
        sizes[key] = size_bytes
        self._total += size_bytes if prev is None else size_bytes - prev
        self._data[key] = value
        if self._tracked:
            self._dirty.add(key)
            self._deleted.discard(key)

    # -- batch kernels (DESIGN.md section 16) ------------------------------ #

    def put_many(self, entries: Sequence[tuple[Any, Any, int]]) -> None:
        """Batch :meth:`put` over ``(key, value, size_bytes)`` triples.

        Semantically identical to the equivalent sequence of scalar puts —
        same data, sizes, total and dirty/deleted sets under both state
        backends — but with locals bound once and the tracking sets updated
        with one ``set.update``/``difference_update`` over the key column.
        """
        data = self._data
        sizes = self._sizes
        sizes_get = sizes.get
        total = self._total
        for key, value, size_bytes in entries:
            prev = sizes_get(key)
            sizes[key] = size_bytes
            total += size_bytes if prev is None else size_bytes - prev
            data[key] = value
        self._total = total
        if self._tracked and entries:
            keys = [entry[0] for entry in entries]
            self._dirty.update(keys)
            self._deleted.difference_update(keys)

    def delete_many(self, keys: Sequence[Any]) -> None:
        """Batch :meth:`delete`: remove every present key in ``keys``."""
        data = self._data
        sizes = self._sizes
        total = self._total
        removed: list[Any] = []
        for key in keys:
            if key in data:
                total -= sizes.pop(key)
                del data[key]
                removed.append(key)
        self._total = total
        if removed and self._tracked:
            self._dirty.difference_update(removed)
            self._deleted.update(removed)

    def keys(self) -> Iterator[Any]:
        """Iterator over stored keys."""
        return iter(self._data)

    def items(self) -> Iterator[tuple[Any, Any]]:
        """Iterator over (key, value) pairs."""
        return iter(self._data.items())

    @property
    def size_bytes(self) -> int:
        """Total accounted byte footprint."""
        return self._total

    def snapshot(self) -> tuple[dict, dict, int]:
        """Copyable (data, sizes, total) triple for checkpointing."""
        return (dict(self._data), dict(self._sizes), self._total)

    def restore(self, snap: tuple[dict, dict, int]) -> None:
        """Reinstall a snapshot taken by :meth:`snapshot`."""
        data, sizes, total = snap
        self._data = dict(data)
        self._sizes = dict(sizes)
        self._total = total
        self._dirty.clear()
        self._deleted.clear()
        self._all_dirty = True

    # -- changelog support ------------------------------------------------ #

    def snapshot_delta(self) -> tuple | None:
        """Written/deleted keys since the last clean point (None if unchanged)."""
        if self._all_dirty or not self._tracked:
            return (FULL, self.snapshot())
        if not self._dirty and not self._deleted:
            return None
        written = {
            key: (self._data[key], self._sizes[key])
            for key in sorted(self._dirty, key=repr)
        }
        return (DIFF, written, tuple(sorted(self._deleted, key=repr)), self._total)

    def delta_bytes(self) -> int:
        """Bytes a delta of the current changes would upload."""
        if self._all_dirty or not self._tracked:
            return self._total
        return (
            sum(self._sizes[key] for key in self._dirty)
            + len(self._deleted) * _DELETE_BYTES
        )

    def mark_clean(self) -> None:
        """Arm change tracking and forget pending changes."""
        self._tracked = True
        self._dirty.clear()
        self._deleted.clear()
        self._all_dirty = False

    def apply_delta(self, delta: tuple) -> None:
        """Fold one delta (from :meth:`snapshot_delta`) into the map."""
        if delta[0] == FULL:
            self.restore(delta[1])
            return
        _, written, deleted, total = delta
        for key in deleted:
            if key in self._data:
                del self._data[key]
                del self._sizes[key]
        for key, (value, size) in written.items():
            self._data[key] = value
            self._sizes[key] = size
        self._total = total

    # -- key-group partitioning (DESIGN.md section 11) --------------------- #

    def group_sizes(self, max_key_groups: int) -> dict[int, int]:
        """Byte footprint per key group (only non-empty groups appear)."""
        sizes: dict[int, int] = {}
        for key, nbytes in self._sizes.items():
            group = _state_key_group(key, max_key_groups)
            sizes[group] = sizes.get(group, 0) + nbytes
        return sizes

    @staticmethod
    def filter_snapshot(snap: tuple[dict, dict, int], groups: Container[int],
                        max_key_groups: int) -> tuple[dict, dict, int]:
        """Restrict a snapshot to the entries whose key group is owned."""
        data, sizes, _ = snap
        kept = {k: v for k, v in data.items()
                if _state_key_group(k, max_key_groups) in groups}
        kept_sizes = {k: sizes[k] for k in kept}
        return (kept, kept_sizes, sum(kept_sizes.values()))

    def restore_merged(self, slices: list[tuple[dict, dict, int]]) -> None:
        """Install the union of disjoint group slices as the new state."""
        data: dict[Any, Any] = {}
        sizes: dict[Any, int] = {}
        for part_data, part_sizes, _ in slices:
            data.update(part_data)
            sizes.update(part_sizes)
        self.restore((data, sizes, sum(sizes.values())))


class KeyedListState:
    """A keyed multimap (key -> list); lists are copied on snapshot.

    Change tracking is armed lazily by the first :meth:`mark_clean`.  While
    tracked, per-key byte totals are maintained (honouring the explicit
    ``size_bytes`` of each append) so a delta bills a rewritten key at its
    actual footprint; keys last touched before arming fall back to the
    ``entry_bytes`` estimate.
    """

    __slots__ = ("_data", "_entry_bytes", "_total", "_dirty", "_deleted",
                 "_all_dirty", "_tracked", "_key_bytes")

    def __init__(self, entry_bytes: int = 48) -> None:
        self._data: dict[Any, list] = {}
        self._entry_bytes = entry_bytes
        self._total = 0
        self._dirty: set[Any] = set()
        self._deleted: set[Any] = set()
        self._all_dirty = False
        self._tracked = False
        self._key_bytes: dict[Any, int] = {}

    def append(self, key: Any, value: Any, size_bytes: int | None = None) -> None:
        """Append ``value`` under ``key``, billing ``size_bytes`` (or the estimate)."""
        values = self._data.setdefault(key, [])
        values.append(value)
        added = self._entry_bytes if size_bytes is None else size_bytes
        self._total += added
        if self._tracked:
            self._dirty.add(key)
            self._deleted.discard(key)
            prev = self._key_bytes.get(key)
            if prev is None:  # first post-arm touch: estimate the backlog
                prev = (len(values) - 1) * self._entry_bytes
            self._key_bytes[key] = prev + added

    def append_many(
        self, entries: Sequence[tuple[Any, Any, int | None]]
    ) -> None:
        """Batch :meth:`append` over ``(key, value, size_bytes)`` triples.

        Semantically identical to the equivalent sequence of scalar appends
        (same lists, totals, per-key byte accounting and dirty/deleted sets
        under both state backends); the tracking sets are updated with one
        ``set.update``/``difference_update`` over the key column.
        """
        data = self._data
        entry_bytes = self._entry_bytes
        total = self._total
        if self._tracked:
            key_bytes = self._key_bytes
            for key, value, size_bytes in entries:
                values = data.get(key)
                if values is None:
                    values = data[key] = []
                values.append(value)
                added = entry_bytes if size_bytes is None else size_bytes
                total += added
                prev = key_bytes.get(key)
                if prev is None:  # first post-arm touch: estimate the backlog
                    prev = (len(values) - 1) * entry_bytes
                key_bytes[key] = prev + added
            if entries:
                keys = [entry[0] for entry in entries]
                self._dirty.update(keys)
                self._deleted.difference_update(keys)
        else:
            for key, value, size_bytes in entries:
                values = data.get(key)
                if values is None:
                    values = data[key] = []
                values.append(value)
                total += entry_bytes if size_bytes is None else size_bytes
        self._total = total

    def get(self, key: Any) -> list:
        """The list stored under ``key`` (empty if absent)."""
        return self._data.get(key, [])

    def delete(self, key: Any) -> None:
        """Remove ``key`` and its list (tracked as a deletion)."""
        values = self._data.pop(key, None)
        if values is not None:
            self._total -= len(values) * self._entry_bytes
            if self._tracked:
                self._dirty.discard(key)
                self._deleted.add(key)
                self._key_bytes.pop(key, None)

    def remove_value(self, key: Any, predicate: Callable[[Any], bool]) -> int:
        """Drop entries matching ``predicate``; returns how many were removed."""
        values = self._data.get(key)
        if not values:
            return 0
        kept = [v for v in values if not predicate(v)]
        removed = len(values) - len(kept)
        if removed:
            self._total -= removed * self._entry_bytes
            if kept:
                self._data[key] = kept
                if self._tracked:
                    self._dirty.add(key)
                    if key in self._key_bytes:
                        self._key_bytes[key] = max(
                            0, self._key_bytes[key] - removed * self._entry_bytes
                        )
            else:
                del self._data[key]
                if self._tracked:
                    self._dirty.discard(key)
                    self._deleted.add(key)
                    self._key_bytes.pop(key, None)
        return removed

    def clear(self) -> None:
        """Drop every entry (the next delta degenerates to full)."""
        self._data.clear()
        self._total = 0
        self._dirty.clear()
        self._deleted.clear()
        self._key_bytes.clear()
        self._all_dirty = True

    @property
    def size_bytes(self) -> int:
        """Total accounted byte footprint."""
        return self._total

    def snapshot(self) -> tuple[dict, int]:
        """Copyable (data, total) pair; lists are copied."""
        return ({k: list(v) for k, v in self._data.items()}, self._total)

    def restore(self, snap: tuple[dict, int]) -> None:
        """Reinstall a snapshot taken by :meth:`snapshot`."""
        data, total = snap
        self._data = {k: list(v) for k, v in data.items()}
        self._total = total
        self._dirty.clear()
        self._deleted.clear()
        self._key_bytes.clear()
        self._all_dirty = True

    # -- changelog support ------------------------------------------------ #

    def snapshot_delta(self) -> tuple | None:
        """Rewritten/deleted keys since the last clean point (None if unchanged)."""
        if self._all_dirty or not self._tracked:
            return (FULL, self.snapshot())
        if not self._dirty and not self._deleted:
            return None
        # a written key re-uploads its whole list: append-only lists make
        # this a per-key rewrite, still a large win when few keys are hot
        written = {
            key: list(self._data[key]) for key in sorted(self._dirty, key=repr)
        }
        return (DIFF, written, tuple(sorted(self._deleted, key=repr)), self._total)

    def delta_bytes(self) -> int:
        """Bytes a delta of the current changes would upload."""
        if self._all_dirty or not self._tracked:
            return self._total
        key_bytes = self._key_bytes
        entry_bytes = self._entry_bytes
        dirty_total = sum(
            key_bytes.get(key, len(self._data[key]) * entry_bytes)
            for key in self._dirty
        )
        return dirty_total + len(self._deleted) * _DELETE_BYTES

    def mark_clean(self) -> None:
        """Arm change tracking and forget pending changes."""
        self._tracked = True
        self._dirty.clear()
        self._deleted.clear()
        self._all_dirty = False

    def apply_delta(self, delta: tuple) -> None:
        """Fold one delta (from :meth:`snapshot_delta`) into the multimap."""
        if delta[0] == FULL:
            self.restore(delta[1])
            return
        _, written, deleted, total = delta
        for key in deleted:
            self._data.pop(key, None)
        for key, values in written.items():
            self._data[key] = list(values)
        self._total = total

    # -- key-group partitioning (DESIGN.md section 11) --------------------- #

    def group_sizes(self, max_key_groups: int) -> dict[int, int]:
        """Approximate byte footprint per key group (``entry_bytes`` each)."""
        sizes: dict[int, int] = {}
        entry_bytes = self._entry_bytes
        for key, values in self._data.items():
            group = _state_key_group(key, max_key_groups)
            sizes[group] = sizes.get(group, 0) + len(values) * entry_bytes
        return sizes

    def filter_snapshot(self, snap: tuple[dict, int], groups: Container[int],
                        max_key_groups: int) -> tuple[dict, int]:
        """Restrict a snapshot to the entries whose key group is owned.

        Byte totals are recomputed at ``entry_bytes`` per entry, so keys
        appended with explicit sizes are re-estimated after a rescale —
        state *content* stays exact, only the cost accounting coarsens.
        """
        data, _ = snap
        kept = {k: v for k, v in data.items()
                if _state_key_group(k, max_key_groups) in groups}
        total = sum(len(v) for v in kept.values()) * self._entry_bytes
        return (kept, total)

    def restore_merged(self, slices: list[tuple[dict, int]]) -> None:
        """Install the union of disjoint group slices as the new state."""
        data: dict[Any, list] = {}
        total = 0
        for part_data, part_total in slices:
            data.update(part_data)
            total += part_total
        self.restore((data, total))


class StateRegistry:
    """All named states of one operator instance; snapshot/restore as a unit."""

    def __init__(self) -> None:
        self._states: dict[str, Any] = {}

    def register(self, name: str, state: Any) -> Any:
        """Add a named state; returns it for convenient assignment."""
        if name in self._states:
            raise ValueError(f"duplicate state name {name!r}")
        self._states[name] = state
        return state

    def __getitem__(self, name: str) -> Any:
        return self._states[name]

    @property
    def size_bytes(self) -> int:
        """Summed byte footprint of every registered state."""
        return sum(s.size_bytes for s in self._states.values())

    def snapshot(self) -> dict[str, Any]:
        """Per-state snapshots keyed by state name."""
        return {name: state.snapshot() for name, state in self._states.items()}

    def restore(self, snap: dict[str, Any]) -> None:
        """Reinstall a snapshot taken by :meth:`snapshot`."""
        for name, state in self._states.items():
            state.restore(snap[name])

    # -- changelog support ------------------------------------------------ #

    def snapshot_delta(self) -> tuple[dict[str, Any], int]:
        """Per-state deltas since the last :meth:`mark_clean` plus their size.

        Unchanged states appear as ``None`` so the delta blob stays sparse.
        """
        deltas = {
            name: state.snapshot_delta() for name, state in self._states.items()
        }
        size = sum(s.delta_bytes() for s in self._states.values())
        return deltas, size

    def mark_clean(self) -> None:
        """Arm change tracking on every registered state."""
        for state in self._states.values():
            state.mark_clean()

    def apply_delta(self, deltas: dict[str, Any]) -> None:
        """Fold one delta (from :meth:`snapshot_delta`) into the live states."""
        for name, delta in deltas.items():
            if delta is not None:
                self._states[name].apply_delta(delta)

    # -- key-group partitioning (DESIGN.md section 11) --------------------- #

    def group_sizes(self, max_key_groups: int) -> dict[int, int]:
        """Aggregate per-group byte footprint of every keyed state."""
        totals: dict[int, int] = {}
        for state in self._states.values():
            group_sizes = getattr(state, "group_sizes", None)
            if group_sizes is None:
                continue
            for group, nbytes in group_sizes(max_key_groups).items():
                totals[group] = totals.get(group, 0) + nbytes
        return totals

    def restore_rescaled(self, snapshots: list[dict[str, Any]],
                         groups: Container[int], max_key_groups: int,
                         primary: int = 0) -> None:
        """Restore from several instances' snapshots after a rescale.

        ``snapshots`` holds the full registry snapshots of every old
        instance of this operator (instance order).  Keyed states are split
        per key group and only the owned ``groups`` are merged in; keys are
        disjoint across old instances (each group had one owner), so the
        merge is a plain union.  Non-keyed states (:class:`ValueState` and
        custom scalars) cannot be split — they are taken whole from the
        ``primary`` contributor, the old owner of the range's first group.
        """
        for name, state in self._states.items():
            filter_snapshot = getattr(state, "filter_snapshot", None)
            if filter_snapshot is not None:
                state.restore_merged([
                    filter_snapshot(snap[name], groups, max_key_groups)
                    for snap in snapshots
                ])
            else:
                state.restore(snapshots[primary][name])


# --------------------------------------------------------------------- #
# The chain tracker (DESIGN.md section 10)
# --------------------------------------------------------------------- #

class _Chain:
    """Where one instance's live chain stands."""

    __slots__ = ("newest_key", "deltas")

    def __init__(self, newest_key: str) -> None:
        #: blob of the instance's latest checkpoint: the next delta's base
        self.newest_key = newest_key
        #: delta hops from that blob back to the chain's full snapshot
        self.deltas = 0


#: changelog compaction threshold: after this many deltas the next
#: checkpoint is a fresh self-contained snapshot
CHANGELOG_MAX_CHAIN = 4


class ChainTracker:
    """What an instance's next checkpoint uploads: a snapshot or a delta.

    A checkpoint is a full snapshot, or the writes since the previous
    checkpoint chained onto its blob (``base_key``); a chain is cut and
    the next checkpoint a snapshot again once it holds ``max_chain``
    deltas, and after every rollback.  The two backends are two bounds:
    ``full`` is a chain of no deltas, ``changelog`` one of at most
    :data:`CHANGELOG_MAX_CHAIN`.  Under ``full`` nothing ever arms the
    state primitives' change tracking, so the state kernels stay on
    their untracked arm.
    """

    def __init__(self, backend: str, delta_overhead_bytes: int) -> None:
        bounds = {"full": 0, "changelog": CHANGELOG_MAX_CHAIN}
        if backend not in bounds:
            raise ValueError(f"unknown state backend {backend!r}; "
                             f"known: {sorted(bounds)}")
        self.max_chain = bounds[backend]
        self.delta_overhead_bytes = delta_overhead_bytes
        self._chains: dict[tuple[str, int], _Chain] = {}

    def capture(self, instance: "InstanceRuntime", blob_key: str,
                state_bytes: int,
                ) -> tuple[dict[str, Any], int, str | None]:
        """Capture the instance, whose state measures ``state_bytes``, for
        the checkpoint stored under ``blob_key``.

        Returns ``(payload, upload_bytes, base_key)``: what goes to the
        blob store verbatim, what crosses the wire (and the store bills),
        and the blob a delta chains onto (``None`` for a snapshot).  What
        a restore of the checkpoint fetches is the store's
        :meth:`~repro.storage.blobstore.BlobStore.chain_size`.
        """
        chain = self._chains.get(instance.key)
        if chain is None or chain.deltas >= self.max_chain:
            payload = instance.capture_snapshot()
            if self.max_chain:
                instance.operator.states.mark_clean()
            self._chains[instance.key] = _Chain(blob_key)
            return payload, state_bytes, None
        payload, delta_bytes = instance.capture_delta()
        base_key = chain.newest_key
        chain.newest_key = blob_key
        chain.deltas += 1
        return payload, delta_bytes + self.delta_overhead_bytes, base_key

    def on_restored(self, instance: "InstanceRuntime") -> None:
        """The instance was rolled back: its next checkpoint is a snapshot."""
        self._chains.pop(instance.key, None)
