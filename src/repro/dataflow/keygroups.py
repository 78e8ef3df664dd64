"""Key groups: a fixed logical address space for keyed state and routing.

Production stream processors (Flink's key groups, Kafka Streams' task
partitions) decouple the *logical* key space from the *physical* operator
parallelism: a key is first hashed onto one of ``max_key_groups`` groups,
and each parallel instance owns a **contiguous, balanced range** of groups.
Routing and keyed state use the same mapping, so state can be repartitioned
when a job is redeployed at a different parallelism — each new instance
fetches exactly the group ranges it now owns (DESIGN.md section 11).

The assignment follows Flink's ``KeyGroupRangeAssignment``:

* ``range(i, p, G) = [ceil(i*G/p), ceil((i+1)*G/p))`` — contiguous ranges
  that partition ``[0, G)`` with sizes differing by at most one;
* ``owner(g, p, G) = g*p // G`` — arithmetic inverse of the ranges, so a
  record can be routed without materializing the assignment.

The same arithmetic doubles as the source-partition assignment after a
rescale: input-log partitions (fixed at deployment) are spread over the
current source instances with the identical contiguous balanced scheme.
"""

from __future__ import annotations

import zlib

from repro.dataflow.graph import GraphError

#: default size of the key-group address space; bounds the maximum useful
#: parallelism of a deployment (Flink's default maxParallelism is 128)
DEFAULT_MAX_KEY_GROUPS = 128

_MASK64 = (1 << 64) - 1


def key_group(key_hash: int, max_key_groups: int) -> int:
    """Map a stable key hash (:func:`repro.dataflow.channels.hash_key`)
    onto its key group.

    The hash is scrambled through crc32 before the modulo: ``hash_key`` is
    the identity for ints, and dense small keys taken modulo ``G`` would
    all fall into the first instance's *contiguous* range (Flink applies a
    murmur scramble at the same spot for the same reason).
    """
    key_hash &= _MASK64
    return zlib.crc32(key_hash.to_bytes(8, "little")) % max_key_groups


def group_range(index: int, parallelism: int, max_key_groups: int) -> range:
    """The contiguous group range owned by instance ``index``.

    Ranges of all ``parallelism`` instances partition ``[0, max_key_groups)``
    and their sizes differ by at most one.
    """
    start = (index * max_key_groups + parallelism - 1) // parallelism
    end = ((index + 1) * max_key_groups + parallelism - 1) // parallelism
    return range(start, end)


def group_owner(group: int, parallelism: int, max_key_groups: int) -> int:
    """The instance index whose :func:`group_range` contains ``group``."""
    return group * parallelism // max_key_groups


def validate_key_space(parallelism: int, max_key_groups: int,
                       context: str = "parallelism") -> None:
    """Reject deployments that cannot spread groups over all instances
    (or shards); ``context`` names what ``parallelism`` counts."""
    if max_key_groups <= 0:
        raise GraphError(f"{context}: max_key_groups must be positive, "
                         f"got {max_key_groups}")
    if parallelism > max_key_groups:
        raise GraphError(
            f"{context} {parallelism} exceeds max_key_groups "
            f"{max_key_groups}; some would own no key groups"
        )
