"""Deterministic lineage identifiers of stream records.

A record is one row of a :class:`~repro.dataflow.batch.RecordBatch`, and
every record carries a *lineage id* (``rid``): a 64-bit value that is a
deterministic function of the record's provenance.  Source records derive
the rid from (topic, partition, offset); derived records mix the parent's
rid with the producing operator (one child per parent: a kernel takes
the column :func:`derived_rids` gives its input's rids), joined records
mix both parents' rids (:func:`joined_rid`).  Because rids are
regenerated identically when an operator re-processes the same inputs after
a rollback, receiver-side deduplication by rid gives exactly-once semantics
for the uncoordinated and communication-induced protocols even when message
batch boundaries shift between the original run and the replay.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Sequence

import numpy as _np

_MASK64 = (1 << 64) - 1
_PRIME = 0x9E3779B97F4A7C15

#: below this column length the numpy round-trip (array build + tolist)
#: costs more than the plain loop it replaces
_VECTOR_MIN = 16

#: memoised stable name hashes — builtin hash() of a str is salted per
#: process, which would make rids (and everything derived from them)
#: unreproducible across worker processes and cached runs
_NAME_HASHES: dict[str, int] = {}


def _name_hash(name: str) -> int:
    value = _NAME_HASHES.get(name)
    if value is None:
        value = zlib.crc32(name.encode("utf-8"))
        _NAME_HASHES[name] = value
    return value


def mix_rid(*parts: int) -> int:
    """Deterministically combine integer components into a 64-bit rid."""
    acc = 0xCBF29CE484222325
    for part in parts:
        acc ^= part & _MASK64
        acc = (acc * _PRIME) & _MASK64
        acc ^= acc >> 29
    return acc


def source_rid_prefix(topic: str, partition: int) -> int:
    """Partial rid accumulator over the constant (topic, partition) parts.

    Source instances poll thousands of records per virtual second from one
    fixed (topic, partition); precomputing the prefix leaves a single mix
    step per record in :func:`source_rid_from_prefix`.
    """
    acc = 0xCBF29CE484222325
    for part in (_name_hash(topic), (partition + 1) & _MASK64):
        acc ^= part
        acc = (acc * _PRIME) & _MASK64
        acc ^= acc >> 29
    return acc


def source_rid_from_prefix(prefix: int, offset: int) -> int:
    """Finish a prefixed source rid with the record's offset."""
    acc = prefix ^ ((offset + 1) & _MASK64)
    acc = (acc * _PRIME) & _MASK64
    return acc ^ (acc >> 29)


#: memoised per-operator partial accumulators for :func:`derived_rids`
_DERIVE_PREFIXES: dict[str, int] = {}


def derived_rid_prefix(op_name: str) -> int:
    """Partial rid accumulator over the constant operator-name part.

    A derived rid is :func:`mix_rid` of three components (the operator
    name's hash, the parent rid, 1); the first is constant per operator,
    so :func:`derived_rids` precomputes it once and finishes with two
    mix steps per record.
    """
    acc = _DERIVE_PREFIXES.get(op_name)
    if acc is None:
        acc = 0xCBF29CE484222325 ^ _name_hash(op_name)
        acc = (acc * _PRIME) & _MASK64
        acc ^= acc >> 29
        _DERIVE_PREFIXES[op_name] = acc
    return acc


def derived_rids(op_name: str, parent_rids: Sequence[int]) -> list[int]:
    """Lineage ids of the one child each parent rid has in an operator:
    ``mix_rid(name hash, parent, 1)`` per row, bit-identical to that
    scalar mix.

    Vectorized with numpy uint64 arithmetic (wraparound multiply matches
    the ``& _MASK64`` masking) when the column is long enough to amortize
    the array round-trip; results convert back to Python ints so dedup
    sets, rid journals and pickled snapshots hold what the scalar mix
    gives, byte for byte.  Below that length the two remaining mix steps run
    inline, row by row: most batches carry one to four rids, and a call
    per rid would cost more than the arithmetic.
    """
    prefix = _DERIVE_PREFIXES.get(op_name)
    if prefix is None:
        prefix = derived_rid_prefix(op_name)
    if len(parent_rids) < _VECTOR_MIN:
        rids = []
        for rid in parent_rids:
            mix = ((prefix ^ (rid & _MASK64)) * _PRIME) & _MASK64
            mix = (((mix ^ (mix >> 29)) ^ 1) * _PRIME) & _MASK64
            rids.append(mix ^ (mix >> 29))
        return rids
    acc = _np.array(parent_rids, dtype=_np.uint64)
    acc ^= _np.uint64(prefix)
    acc *= _np.uint64(_PRIME)
    acc ^= acc >> _np.uint64(29)
    acc ^= _np.uint64(1)
    acc *= _np.uint64(_PRIME)
    acc ^= acc >> _np.uint64(29)
    result: list[int] = acc.tolist()
    return result


def source_rid_column(prefix: int, length: int) -> array:
    """Column form of :func:`source_rid_from_prefix` over offsets
    ``0 .. length - 1``: 8-byte words (``array('Q')``), computed with
    numpy uint64 arithmetic (wraparound multiply is the ``& _MASK64``
    masking) and built without an ``int`` object per offset."""
    acc = _np.arange(length, dtype=_np.uint64)
    acc += _np.uint64(1)
    acc ^= _np.uint64(prefix)
    acc *= _np.uint64(_PRIME)
    acc ^= acc >> _np.uint64(29)
    return array("Q", acc.tobytes())


def joined_rid(op_name: str, left_rid: int, right_rid: int) -> int:
    """Lineage id of a join output — order-invariant in the two parents.

    Incremental joins emit a pair when the *second* side arrives; which side
    that is depends on interleaving, so the id must not depend on it.
    """
    lo, hi = sorted((left_rid, right_rid))
    return mix_rid(_name_hash(op_name), lo, hi)
