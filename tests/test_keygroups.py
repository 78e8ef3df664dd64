"""Property tests for the key-group address space (DESIGN.md section 11)."""

import pytest
from hypothesis import given, strategies as st

from repro.dataflow.channels import hash_key
from repro.dataflow.graph import GraphError
from repro.dataflow.keygroups import (
    DEFAULT_MAX_KEY_GROUPS,
    group_owner,
    group_range,
    key_group,
    validate_key_space,
)


@given(st.integers(min_value=1, max_value=256),
       st.integers(min_value=1, max_value=1024))
def test_assignment_is_balanced_contiguous_partition(parallelism, max_groups):
    """For all (groups, p): ranges are contiguous, cover [0, G) exactly
    once, and their sizes differ by at most one."""
    ranges = [group_range(i, parallelism, max_groups)
              for i in range(parallelism)]
    assert len(ranges) == parallelism
    # contiguous cover: each range starts where the previous ended
    assert ranges[0].start == 0
    assert ranges[-1].stop == max_groups
    for left, right in zip(ranges, ranges[1:]):
        assert left.stop == right.start
    sizes = [len(r) for r in ranges]
    assert sum(sizes) == max_groups
    assert max(sizes) - min(sizes) <= 1


@given(st.integers(min_value=1, max_value=256),
       st.integers(min_value=1, max_value=1024))
def test_owner_is_inverse_of_ranges(parallelism, max_groups):
    for group in range(max_groups):
        owner = group_owner(group, parallelism, max_groups)
        assert 0 <= owner < parallelism
        assert group in group_range(owner, parallelism, max_groups)


@given(st.one_of(st.integers(min_value=0), st.text(max_size=20),
                 st.tuples(st.integers(), st.text(max_size=5))))
def test_key_group_stable_and_in_range(key):
    group = key_group(hash_key(key), DEFAULT_MAX_KEY_GROUPS)
    assert group == key_group(hash_key(key), DEFAULT_MAX_KEY_GROUPS)
    assert 0 <= group < DEFAULT_MAX_KEY_GROUPS


def test_dense_int_keys_spread_over_instances():
    """The crc32 scramble must keep small dense keys off a single range."""
    owners = {
        group_owner(key_group(hash_key(k), 128), 4, 128) for k in range(20)
    }
    assert len(owners) == 4


def test_validate_key_space_rejects_small_group_space():
    with pytest.raises(GraphError, match="exceeds max_key_groups"):
        validate_key_space(130, 128)
    with pytest.raises(GraphError, match="positive"):
        validate_key_space(4, 0)
    validate_key_space(128, 128)  # boundary is fine


def test_rescale_preserves_group_cover():
    """Any old range maps onto new ranges without losing a group."""
    for p_old, p_new in ((4, 6), (6, 4), (1, 5), (5, 1)):
        old_groups = [g for i in range(p_old)
                      for g in group_range(i, p_old, 128)]
        new_groups = [g for j in range(p_new)
                      for g in group_range(j, p_new, 128)]
        assert sorted(old_groups) == sorted(new_groups) == list(range(128))
