"""Tests for the NexMark generator (uniform and hot-item modes)."""

import dataclasses
import gc
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.parallel import resolve_spec
from repro.storage.kafka import PartitionedLog
from repro.workloads import columns
from repro.workloads.arrivals import parse_arrival
from repro.workloads.columns import rows_from_columns
from repro.workloads.nexmark import generator
from repro.workloads.nexmark.generator import NexmarkGenerator
from repro.workloads.nexmark.model import (
    Auction,
    Bid,
    Person,
    Q3_STATES,
    US_STATES,
)


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
    gen = NexmarkGenerator(10, seed=3, hot_ratio=0.3)
    log = gen.bids_log(2000.0, 5.0)
    hot = sum(
        1 for p in log.partitions for r in p.records if r.payload.bidder % 10 == 0
    )
    total = len(log)
    assert 0.30 <= hot / total <= 0.45  # 30% hot + ~7% uniform share


def test_hot_keys_route_to_instance_zero():
    gen = NexmarkGenerator(7, seed=1, hot_ratio=0.5)
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
    gen = NexmarkGenerator(5, seed=6, hot_ratio=0.2)
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
    gen = NexmarkGenerator(5, seed=6, hot_ratio=0.4)
    _, auctions = gen.person_auction_logs(2000.0, 4.0)
    hot = sum(
        1 for p in auctions.partitions for r in p.records
        if r.payload.seller in gen.hot_keys
    )
    assert hot / len(auctions) >= 0.3


def test_invalid_config_rejected():
    for hot_ratio in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="hot_ratio"):
            NexmarkGenerator(2, hot_ratio=hot_ratio)
    with pytest.raises(ValueError):
        NexmarkGenerator(0)
    gen = NexmarkGenerator(2)
    with pytest.raises(ValueError):
        gen.bids_log(0.0, 1.0)
    with pytest.raises(ValueError):
        gen.person_auction_logs(10.0, -1.0)


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


# --------------------------------------------------------------------- #
# Rows from columns (DESIGN.md section 20)
# --------------------------------------------------------------------- #

def assert_rows_equal_constructed(cls, *cols):
    """``rows_from_columns(cls, *cols)`` against ``cls(*row)`` per row.

    ``cols`` may hold numpy arrays; the reference is built from their
    ``tolist()``.  Shared with ``tests/test_cyclic.py``.
    """
    plain = [col.tolist() if isinstance(col, numpy.ndarray) else list(col)
             for col in cols]
    built = rows_from_columns(cls, *cols)
    reference = [cls(*row) for row in zip(*plain)]
    assert built == reference
    assert repr(built) == repr(reference)
    assert [hash(row) for row in built] == [hash(row) for row in reference]
    assert pickle.dumps(built, protocol=4) == pickle.dumps(reference, protocol=4)
    field_names = [f.name for f in dataclasses.fields(cls)]
    for row, expected in zip(built, reference):
        assert type(row) is cls
        for name in field_names:
            # a Python int/float/str/bool, never a numpy scalar
            assert type(getattr(row, name)) is type(getattr(expected, name))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(row, field_names[0], getattr(row, field_names[0]))
    return built


_ints = st.integers(0, 2**40)
_floats = st.floats(0.0, 1e6, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(_ints, _ints, _ints, _floats), max_size=30),
       as_arrays=st.booleans())
def test_bulk_bids_equal_constructed_bids(rows, as_arrays):
    cols = [list(col) for col in zip(*rows)] or [[], [], [], []]
    if as_arrays:
        cols = [numpy.array(cols[0], dtype=numpy.int64),
                numpy.array(cols[1], dtype=numpy.int64),
                numpy.array(cols[2], dtype=numpy.int64),
                numpy.array(cols[3], dtype=numpy.float64)]
    assert_rows_equal_constructed(Bid, *cols)


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(_ints, _ints, st.integers(0, 9), _ints, _floats),
                     max_size=30))
def test_bulk_auctions_equal_constructed_auctions(rows):
    cols = [list(col) for col in zip(*rows)] or [[], [], [], [], []]
    assert_rows_equal_constructed(
        Auction, range(1, len(rows) + 1), cols[1],
        numpy.array(cols[2], dtype=numpy.int64), cols[3], cols[4])


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(_ints, st.integers(0, len(US_STATES) - 1),
                               _floats), max_size=30))
def test_bulk_persons_equal_constructed_persons(rows):
    ids = [row[0] for row in rows]
    indices = [row[1] for row in rows]
    built = assert_rows_equal_constructed(
        Person, ids, [f"person-{id_}" for id_ in ids],
        list(map(US_STATES.__getitem__, indices)), [row[2] for row in rows])
    # the tuple's own strings: pickle memoises by identity
    assert all(person.state is US_STATES[index]
               for person, index in zip(built, indices))


def test_rows_from_columns_rejects_ragged_or_miscounted_columns():
    with pytest.raises(ValueError, match="unequal column lengths"):
        rows_from_columns(Bid, [1, 2], [1, 2], [1], [0.5, 1.5])
    with pytest.raises(TypeError, match="got 3 columns"):
        rows_from_columns(Bid, [1], [1], [1])


# --------------------------------------------------------------------- #
# Columns are drawn in blocks: the block size must not show
# --------------------------------------------------------------------- #

def log_columns(log: PartitionedLog):
    """Everything a log holds, per partition (payloads as pickles too)."""
    return [(p.times, p.payloads, p.sizes,
             pickle.dumps(p.payloads, protocol=4)) for p in log.partitions]


#: mode -> (parallelism, hot_ratio, arrival spec)
_MODES = {
    "uniform": (3, 0.0, None),
    "hot": (3, 0.3, None),
    "drift": (5, 0.25, "drift:period=1.5,zipf=1.2"),
    "flash": (3, 0.1, "flash:at=0.5,mag=3,ramp=0.2,hold=0.3"),
}


@pytest.mark.parametrize("mode", sorted(_MODES))
def test_block_size_does_not_show_in_the_logs(mode, monkeypatch):
    """The module constant patched to 7 events per block — hundreds of
    block boundaries and stride carry-overs on a short log — produces
    the default's logs, payload pickles included."""
    parallelism, hot_ratio, arrival = _MODES[mode]

    def generate():
        gen = NexmarkGenerator(parallelism, seed=11, hot_ratio=hot_ratio)
        process = parse_arrival(arrival) if arrival else None
        bids = gen.bids_log(900.0, 2.0, arrival=process)
        persons, auctions = gen.person_auction_logs(900.0, 2.0,
                                                    arrival=process)
        return [log_columns(log) for log in (bids, persons, auctions)]

    assert 900 * 2 < columns.BLOCK_EVENTS  # the default: one block
    whole = generate()
    monkeypatch.setattr(columns, "BLOCK_EVENTS", 7)
    assert generate() == whole


@pytest.mark.parametrize("hot_ratio", [0.0, 0.3])
def test_generated_payloads_hold_python_values(hot_ratio):
    gen = NexmarkGenerator(4, seed=3, hot_ratio=hot_ratio)
    logs = (gen.bids_log(500.0, 2.0), *gen.person_auction_logs(500.0, 2.0))
    expected = {"id": int, "seller": int, "category": int, "initial_bid": int,
                "auction": int, "bidder": int, "price": int,
                "created_at": float, "name": str, "state": str}
    for log in logs:
        for partition in log.partitions:
            assert all(type(t) is float for t in partition.times)
            for payload in partition.payloads:
                for name in payload.__slots__:
                    assert type(getattr(payload, name)) is expected[name]
    persons = [p for part in logs[1].partitions for p in part.payloads]
    assert all(any(p.state is state for state in US_STATES) for p in persons)


def test_first_event_is_a_person_whatever_its_draw_says():
    # uniform mode starts with an empty seller pool: seeds 1..40 cover
    # both a first test draw below person_share and one above it
    for seed in range(1, 41):
        persons, auctions = NexmarkGenerator(2, seed=seed).person_auction_logs(
            50.0, 1.0)
        first_person = persons.partition(0).times[0]
        first_auction = min(p.times[0] for p in auctions.partitions if p.times)
        assert first_person == 0.5 / 50.0 < first_auction


def test_generating_and_running_never_imports_numpy_random():
    """``uniform_block`` reads the one Mersenne stream through
    ``getrandbits``; ``numpy.random`` (a second generator, +6.8 MiB RSS in
    every process) must stay unimported through generation and a run."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "import sys\n"
        "from repro.experiments.parallel import RunRequest, execute_request\n"
        "result = execute_request(RunRequest(query='q12', protocol='unc',\n"
        "    parallelism=2, rate=300.0, duration=3.0, warmup=1.0,\n"
        "    hot_ratio=0.2))\n"
        "assert sum(result.metrics.sink_counts.values()) > 0\n"
        "assert 'numpy' in sys.modules\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# --------------------------------------------------------------------- #
# One int object per value (DESIGN.md section 20, identity hazard 1)
# --------------------------------------------------------------------- #

#: case -> (query, parallelism, hot_ratio, arrival spec)
_SHARING_CASES = {
    "q12-steady": ("q12", 4, 0.0, None),
    "q12-hot": ("q12", 4, 0.3, None),
    "q12-drift-p16": ("q12", 16, 0.2, "drift:period=4,zipf=1.2"),
    # hot keys above 256, which CPython does not cache
    "q12-hot-p128": ("q12", 128, 0.3, None),
    "q8-steady": ("q8", 4, 0.0, None),
    "q8-hot": ("q8", 4, 0.3, None),
    "q8-drift-p16": ("q8", 16, 0.2, "drift:period=4,zipf=1.2"),
}

#: topic -> the fields drawn from the process's shared int table
_SHARED_FIELDS = {
    "bids": ("auction", "bidder", "price"),
    "auctions": ("initial_bid",),
}


def generated_logs(query, parallelism, hot_ratio, arrival, rate, until):
    """``QuerySpec.build_inputs`` of ``query`` at seed 7."""
    process = parse_arrival(arrival) if arrival else None
    return resolve_spec(query).build_inputs(rate, until, parallelism,
                                            hot_ratio, 7, process)


@pytest.mark.parametrize("case", sorted(_SHARING_CASES))
def test_a_drawn_column_holds_one_int_object_per_value(case):
    logs = generated_logs(*_SHARING_CASES[case], 3000.0, 4.0)
    checked = 0
    for topic, fields in _SHARED_FIELDS.items():
        if topic not in logs:
            continue
        payloads = [r for p in logs[topic].partitions for r in p.payloads]
        for name in fields:
            values = [getattr(row, name) for row in payloads]
            assert all(type(v) is int for v in values), name
            assert len({id(v) for v in values}) == len(set(values)), name
            checked += 1
    assert checked


def test_logs_of_one_process_share_the_objects_of_a_value(monkeypatch):
    # the second log grows the table: the first's objects must survive it
    monkeypatch.setattr(generator, "_INTS", numpy.empty(0, dtype=object))
    first = generated_logs("q12", 4, 0.0, None, 500.0, 2.0)["bids"]
    second = generated_logs("q12", 8, 0.0, None, 500.0, 2.0)["bids"]
    objects = {}
    for log in (first, second):
        for partition in log.partitions:
            for bid in partition.payloads:
                for value in (bid.auction, bid.bidder, bid.price):
                    assert objects.setdefault(value, value) is value


#: bytes a record of a 40,000-event log holds, traced, at p = 4 and seed
#: 7, the table's growth included: q12 122.7 landed (207.6 with three
#: fresh ints per bid, 154 with one), q3 166.1 (185.6).  The counts
#: repeat per interpreter version, like the call-count gates
_BYTES_PER_RECORD = {"q12": 130.0, "q3": 170.0}


@pytest.mark.parametrize("query", sorted(_BYTES_PER_RECORD))
def test_bytes_per_generated_record_ratchet(query, monkeypatch):
    # what a first generation allocates once per process is not the log's
    generated_logs(query, 4, 0.0, None, 100.0, 1.0)
    # an empty table: its growth is counted, whatever ran before
    monkeypatch.setattr(generator, "_INTS", numpy.empty(0, dtype=object))
    gc.collect()
    tracemalloc.start()
    try:
        logs = generated_logs(query, 4, 0.0, None, 4000.0, 10.0)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    records = sum(len(log) for log in logs.values())
    assert records == 40_000
    assert held / records <= _BYTES_PER_RECORD[query]
