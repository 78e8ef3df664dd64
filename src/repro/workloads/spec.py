"""Query specification: what the experiment runner needs to deploy a query."""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable

from repro.dataflow.graph import LogicalGraph
from repro.storage.kafka import PartitionedLog
from repro.workloads.arrivals import ArrivalProcess, parse_arrival

#: bounded per-process memo of generated input logs.  Generation dominates
#: short probe runs (it is a tight RNG loop over hundreds of thousands of
#: events), and an MST bisection re-probes nearby configurations; logs are
#: read-only during runs (sources track their own cursors), so sharing one
#: log object between runs is safe.  An entry also pins what the engine
#: caches on its partitions — the source rid column, one int per polled
#: record, derived once and shared by every run replaying the log
#: (DESIGN.md section 20); the bounds did not move for it, since per record
#: it weighs less than the row object the log used to keep.
#: Both bounds guard memory: few entries, and no memoisation at all for
#: full-scale logs (millions of records each — pinning several of those
#: would add GBs of resident state per process).  A generated record
#: weighs 112 bytes as a bid and 152 as an auction (traced; a bid's three
#: ints and an auction's initial bid are shared objects), so an entry at
#: the record bound holds ~245 MB of q12 bids.
#: entries are (build_inputs callable, generated logs) — see identity check
_INPUT_MEMO: OrderedDict[tuple, tuple[Callable, dict[str, PartitionedLog]]] = OrderedDict()
_INPUT_MEMO_LIMIT = 3
_INPUT_MEMO_MAX_RECORDS = 2_000_000


@dataclass(frozen=True)
class QuerySpec:
    """A runnable streaming query.

    ``build_graph(parallelism)`` returns the logical dataflow.
    ``build_inputs(rate, until, parallelism, hot_ratio, seed, arrival)``
    returns the pre-generated replayable input logs (one topic per
    source), with records available up to virtual time ``until`` at
    aggregate rate ``rate`` shaped by the :class:`~repro.workloads.
    arrivals.ArrivalProcess` (``None`` = steady, the legacy behavior).
    ``capacity_per_worker`` seeds the MST bisection (records/s/worker under
    the default cost model); the search refines it with probe runs.
    """

    name: str
    description: str
    build_graph: Callable[[int], LogicalGraph]
    build_inputs: Callable[
        [float, float, int, float, int, ArrivalProcess | None],
        dict[str, PartitionedLog],
    ]
    capacity_per_worker: float
    cyclic: bool = False

    def make_job_inputs(self, rate: float, until: float, parallelism: int,
                        hot_ratio: float = 0.0, seed: int = 7,
                        arrival: str | None = None) -> dict[str, PartitionedLog]:
        """Pre-generate partitioned input logs for one run.

        ``arrival`` is an arrival-process spec string (``--arrival``
        grammar, see :func:`repro.workloads.arrivals.parse_arrival`);
        ``None`` means steady, today's behavior.
        """
        # the arrival spec is a memo-key coordinate: two runs differing
        # only in arrival shape must never share cached logs
        key = (self.name, rate, until, parallelism, hot_ratio, seed, arrival)
        cached = _INPUT_MEMO.get(key)
        # the stored generator is identity-checked (and kept alive by the
        # entry): an ad-hoc spec variant reusing a registered name must not
        # be served another generator's logs
        if cached is not None and cached[0] is self.build_inputs:
            _INPUT_MEMO.move_to_end(key)
            return cached[1]
        process = parse_arrival(arrival) if arrival is not None else None
        inputs = self.build_inputs(rate, until, parallelism, hot_ratio, seed,
                                   process)
        total_records = sum(
            len(partition) for log in inputs.values() for partition in log.partitions
        )
        if total_records <= _INPUT_MEMO_MAX_RECORDS:
            _INPUT_MEMO[key] = (self.build_inputs, inputs)
            if len(_INPUT_MEMO) > _INPUT_MEMO_LIMIT:
                _INPUT_MEMO.popitem(last=False)
        return inputs
