"""Tests for the NexMark generator (uniform and hot-item modes)."""

import pytest

from repro.workloads.nexmark.generator import GeneratorConfig, NexmarkGenerator
from repro.workloads.nexmark.model import Bid, Q3_STATES


def test_bids_log_rate_and_partitions():
    gen = NexmarkGenerator(4, seed=1)
    log = gen.bids_log(rate=400.0, until=5.0)
    assert len(log) == 2000
    assert len(log.partitions) == 4
    sizes = [len(p) for p in log.partitions]
    assert max(sizes) - min(sizes) <= 1  # round-robin balance


def test_bids_are_bids_with_positive_prices():
    gen = NexmarkGenerator(2, seed=1)
    log = gen.bids_log(100.0, 2.0)
    for p in log.partitions:
        for r in p.records:
            assert isinstance(r.payload, Bid)
            assert r.payload.price > 0
            assert r.size_bytes == r.payload.size_bytes


def test_timestamps_monotone_per_partition():
    gen = NexmarkGenerator(3, seed=2)
    log = gen.bids_log(300.0, 3.0)
    for p in log.partitions:
        times = [r.available_at for r in p.records]
        assert times == sorted(times)


def test_determinism_same_seed():
    a = NexmarkGenerator(2, seed=9).bids_log(100.0, 2.0)
    b = NexmarkGenerator(2, seed=9).bids_log(100.0, 2.0)
    pa = [(r.available_at, r.payload) for r in a.partition(0).records]
    pb = [(r.available_at, r.payload) for r in b.partition(0).records]
    assert pa == pb


def test_different_seeds_differ():
    a = NexmarkGenerator(2, seed=1).bids_log(100.0, 2.0)
    b = NexmarkGenerator(2, seed=2).bids_log(100.0, 2.0)
    pa = [r.payload for r in a.partition(0).records]
    pb = [r.payload for r in b.partition(0).records]
    assert pa != pb


def test_uniform_mode_spreads_bidders_across_instances():
    gen = NexmarkGenerator(10, seed=3)
    log = gen.bids_log(2000.0, 5.0)
    buckets = [0] * 10
    for p in log.partitions:
        for r in p.records:
            buckets[r.payload.bidder % 10] += 1
    share = max(buckets) / sum(buckets)
    assert share < 0.2  # roughly uniform


def test_hot_mode_concentrates_bidders_on_instance_zero():
    config = GeneratorConfig(hot_ratio=0.3)
    gen = NexmarkGenerator(10, seed=3, config=config)
    log = gen.bids_log(2000.0, 5.0)
    hot = sum(
        1 for p in log.partitions for r in p.records if r.payload.bidder % 10 == 0
    )
    total = len(log)
    assert 0.30 <= hot / total <= 0.45  # 30% hot + ~7% uniform share


def test_hot_keys_route_to_instance_zero():
    gen = NexmarkGenerator(7, seed=1, config=GeneratorConfig(hot_ratio=0.5))
    assert all(k % 7 == 0 for k in gen.hot_keys)


def test_person_auction_mix_roughly_one_to_three():
    gen = NexmarkGenerator(2, seed=4)
    persons, auctions = gen.person_auction_logs(1000.0, 4.0)
    ratio = len(persons) / (len(persons) + len(auctions))
    assert 0.18 <= ratio <= 0.32


def test_auctions_reference_existing_persons():
    gen = NexmarkGenerator(2, seed=5)
    persons, auctions = gen.person_auction_logs(500.0, 4.0)
    person_ids = {
        r.payload.id for p in persons.partitions for r in p.records
    }
    for p in auctions.partitions:
        for r in p.records:
            assert r.payload.seller in person_ids


def test_hot_persons_preseeded_with_q3_state():
    config = GeneratorConfig(hot_ratio=0.2)
    gen = NexmarkGenerator(5, seed=6, config=config)
    persons, _ = gen.person_auction_logs(500.0, 2.0)
    all_persons = [
        (r.available_at, r.payload)
        for p in persons.partitions for r in p.records
    ]
    hot = [(t, p) for t, p in all_persons if p.id in gen.hot_keys]
    assert {p.id for _, p in hot} == set(gen.hot_keys)
    assert all(p.state in Q3_STATES for _, p in hot)
    # one fixed state, not whichever the salted set order yields first:
    # generated payloads must be identical across processes
    assert {p.state for _, p in hot} == {min(Q3_STATES)}
    # hot persons are available no later than any regular person
    first_regular = min(t for t, p in all_persons if p.id not in gen.hot_keys)
    assert all(t <= first_regular for t, _ in hot)


def test_hot_auctions_reference_hot_sellers():
    config = GeneratorConfig(hot_ratio=0.4)
    gen = NexmarkGenerator(5, seed=6, config=config)
    _, auctions = gen.person_auction_logs(2000.0, 4.0)
    hot = sum(
        1 for p in auctions.partitions for r in p.records
        if r.payload.seller in gen.hot_keys
    )
    assert hot / len(auctions) >= 0.3


def test_invalid_config_rejected():
    with pytest.raises(ValueError):
        GeneratorConfig(hot_ratio=1.5)
    with pytest.raises(ValueError):
        GeneratorConfig(num_hot_keys=0)
    with pytest.raises(ValueError):
        NexmarkGenerator(0)
    gen = NexmarkGenerator(2)
    with pytest.raises(ValueError):
        gen.bids_log(0.0, 1.0)
    with pytest.raises(ValueError):
        gen.person_auction_logs(10.0, -1.0)
    for share in (0.0, 1.5, -0.25, float("nan")):
        with pytest.raises(ValueError, match="person_share"):
            GeneratorConfig(person_share=share)
    GeneratorConfig(person_share=1.0)  # persons only: allowed


@pytest.mark.parametrize("rate, until", [
    (float("nan"), 1.0), (float("inf"), 1.0), (10.0, float("nan")),
    (10.0, float("inf")), (-5.0, 1.0), (10.0, 0.0),
])
def test_non_finite_or_non_positive_rate_and_horizon_rejected(rate, until):
    # NaN passed the old ``rate <= 0`` guard and died in int(nan)
    gen = NexmarkGenerator(2)
    with pytest.raises(ValueError, match="rate and until must be positive"):
        gen.bids_log(rate, until)
    with pytest.raises(ValueError, match="rate and until must be positive"):
        gen.person_auction_logs(rate, until)
