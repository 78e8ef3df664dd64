"""Message transport: transmission, FIFO ordering, credit flow control.

The :class:`Transport` owns everything between a producer's
:class:`~repro.dataflow.channels.RouterBuffer` and the consumer worker's
task queue (DESIGN.md section 13):

* **transmission** — serialization/network cost accounting, per-channel
  FIFO arrival ordering (a later message never overtakes an earlier one on
  the same channel), delivery scheduling with deploy-epoch guards;
* **bounded channel capacity with credit-based flow control** — each
  channel gets a byte budget (``RuntimeConfig.channel_capacity_bytes``;
  ``0`` = unbounded, the default).  A batch whose channel is out of
  credits parks in the sender's ``RouterBuffer`` and the sending instance
  *blocks*: its worker defers the instance's tasks until credits return.
  Credits are returned when the receiving worker *consumes* a message
  (starts processing it) — so a receiver that stops consuming (COOR
  alignment, a CPU-saturated straggler) genuinely stalls its upstream,
  which is the backpressure pathology the paper's protocol comparison
  hinges on;
* **forced flushes** — checkpoint captures and marker emission must cover
  every record already produced, so they drain parked batches with a
  credit *overdraft* (the channel stays saturated until consumption
  catches up) instead of reordering data past a marker.

Determinism rules: credit state is only mutated inside simulator events
(sends, deliveries, recoveries), credit-return wake-ups run as ordinary
worker CPU tasks, and parked batches leave in FIFO order through the one
staging buffer their channel ever had — so a capacity-bounded run is a
deterministic function of its request, and changing the capacity changes
*timing* only, never the final state (the differential suite in
``tests/test_backpressure.py`` enforces exactly that).
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Callable

from repro.dataflow.channels import ChannelId, DATA, MARKER, Message
from repro.sim.simulator import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.batch import RecordBatch
    from repro.dataflow.runtime import Job
    from repro.dataflow.worker import InstanceRuntime


class _Park(object):
    """Ledger entry for one credit-exhausted channel's open wait.

    ``aligned_accum`` collects the wait's *overlap* with the receiver's
    COOR alignment windows (``aligned_since >= 0`` while one is open) —
    the alignment-attributed share of blocked time is measured, not
    sampled at the park's endpoints.
    """

    __slots__ = ("instance", "since", "aligned_accum", "aligned_since")

    def __init__(self, instance: "InstanceRuntime", since: float) -> None:
        self.instance = instance
        self.since = since
        self.aligned_accum = 0.0
        self.aligned_since = -1.0


class Transport:
    """Channel transmission and credit-based flow control for one job."""

    __slots__ = ("job", "capacity", "_last_arrival", "in_flight_bytes",
                 "total_in_flight", "_parked", "_claimed", "pending_data",
                 "arrive")

    def __init__(self, job: "Job") -> None:
        self.job = job
        #: the callable :meth:`transmit` schedules for every arrival —
        #: :meth:`deliver` itself.  It is the transport's one observation
        #: seam: a test or tracer that must see each message as it lands
        #: wraps this attribute (same ``(channel, msg, deploy_epoch)``
        #: signature) and calls the original from inside
        self.arrive: Callable[[ChannelId, Message, int], None] = self.deliver
        #: per-channel credit budget in bytes; 0 disables flow control
        self.capacity = int(job.config.channel_capacity_bytes or 0)
        self._last_arrival: dict[ChannelId, float] = {}
        #: per-channel DATA credit units transmitted but not yet consumed.
        #: A message costs ``max(total_bytes, record_count)`` units: bytes
        #: normally, but at least one unit per record, so zero-size records
        #: cannot slip past a saturated channel for free (a size-0 batch
        #: would otherwise debit nothing and bypass the park)
        self.in_flight_bytes: dict[ChannelId, int] = {}
        #: sum of :attr:`in_flight_bytes` (kept incrementally)
        self.total_in_flight = 0
        #: DATA messages transmitted but not yet delivered (or dropped at
        #: delivery).  This is the wire half of the deterministic drain
        #: barrier (:meth:`Job.data_quiescent`): when it reaches zero and
        #: no worker holds record work, every produced record has landed
        self.pending_data = 0
        #: parked channels: channel -> open :class:`_Park` ledger entry.
        #: Entries live until the park is *closed* (sent, force-drained,
        #: reset or run end) — a dispatched-but-unrun unpark task does not
        #: remove its entry, so a recovery wiping that task still closes
        #: and accounts the park
        self._parked: dict[ChannelId, "_Park"] = {}
        #: channels whose unpark task is already queued (claim guard)
        self._claimed: set[ChannelId] = set()

    @property
    def bounded(self) -> bool:
        """Is credit-based flow control active for this job?"""
        return self.capacity > 0

    # ------------------------------------------------------------------ #
    # Credits
    # ------------------------------------------------------------------ #

    def has_credit(self, channel: ChannelId, nbytes: int,
                   nrecords: int = 0) -> bool:
        """May a batch of ``nbytes``/``nrecords`` be transmitted on a bounded
        channel right now?

        An empty channel always accepts (a single batch larger than the
        whole budget must still be deliverable, or it could never leave);
        otherwise the in-flight units plus the batch's cost —
        ``max(nbytes, nrecords)``, so zero-size records still pay — must
        fit the budget.
        """
        in_flight = self.in_flight_bytes.get(channel, 0)
        cost = nbytes if nbytes >= nrecords else nrecords
        return in_flight == 0 or in_flight + cost <= self.capacity

    def _gate(
        self, instance: "InstanceRuntime",
    ) -> Callable[[int, int, int, int], bool] | None:
        """Credit gate for ``RouterBuffer`` drains; parks on refusal.

        One closure per instance, built lazily and cached — ``flush_ready``
        sits on the per-batch hot path, so bounded runs must not allocate
        a fresh gate for every drained batch.
        """
        if self.capacity <= 0:
            return None
        gate = instance.credit_gate
        if gate is None:
            def gate(edge_id: int, dst: int, nbytes: int, nrecords: int) -> bool:
                channel = (edge_id, instance.index, dst)
                if self.has_credit(channel, nbytes, nrecords):
                    return True
                self._park(instance, channel)
                return False

            instance.credit_gate = gate
        return gate

    def _aligned_now(self, channel: ChannelId) -> bool:
        """Is the channel barrier-blocked (COOR alignment) at its receiver?"""
        workers = self.job.workers
        return channel[2] < len(workers) and channel in workers[channel[2]].blocked

    def _park(self, instance: "InstanceRuntime", channel: ChannelId) -> None:
        """Record a credit-exhausted channel and block its sender.

        Only the gate parks, and gated drains skip a blocked pair, so a
        parked channel is never asked again until its park closes.
        """
        park = _Park(instance, self.job.sim.now)
        if self._aligned_now(channel):
            park.aligned_since = self.job.sim.now
        self._parked[channel] = park
        instance.parked_channels.add(channel)
        instance.credit_blocked = True
        self.job.metrics.sends_parked += 1

    def note_channel_blocked(self, channel: ChannelId) -> None:
        """The receiver barrier-blocked ``channel`` (COOR alignment).

        If a park is open on it, the alignment overlap starts now — the
        aligned share of blocked time is measured as the *actual overlap*
        between the sender's wait and the receiver's alignment window,
        not sampled at the park's endpoints.
        """
        park = self._parked.get(channel)
        if park is not None and park.aligned_since < 0:
            park.aligned_since = self.job.sim.now

    def note_channel_unblocked(self, channel: ChannelId) -> None:
        """The receiver released ``channel``; close the alignment overlap."""
        park = self._parked.get(channel)
        if park is not None and park.aligned_since >= 0:
            park.aligned_accum += self.job.sim.now - park.aligned_since
            park.aligned_since = -1.0

    def _account_park(self, channel: ChannelId, park: "_Park") -> None:
        """Record a park's blocked time and its measured aligned overlap."""
        now = self.job.sim.now
        aligned = park.aligned_accum
        if park.aligned_since >= 0:
            aligned += now - park.aligned_since
        self.job.metrics.record_blocked_time(channel, now - park.since,
                                             aligned_elapsed=aligned)

    def _close_park(self, channel: ChannelId, park: "_Park") -> None:
        """Account a finished park and unblock its sender.

        The caller has already removed the entry from ``_parked``.
        """
        self._account_park(channel, park)
        instance = park.instance
        instance.parked_channels.discard(channel)
        if not instance.parked_channels and instance.credit_blocked:
            instance.credit_blocked = False
            instance.worker.release_instance(instance)

    def _settle_forced(self, instance: "InstanceRuntime", edge_id: int,
                       dst: int) -> None:
        """A forced drain pushed out a batch; settle any park it carried."""
        channel = (edge_id, instance.index, dst)
        park = self._parked.pop(channel, None)
        if park is not None:
            self._claimed.discard(channel)
            self._close_park(channel, park)

    def on_consumed(self, channel: ChannelId, msg: Message) -> None:
        """The receiving worker started processing DATA ``msg`` on a
        bounded channel (its one caller checks both): return credits.

        If the freed channel has a parked batch that now fits, the park is
        claimed here and an ``unpark`` task jumps the sender's CPU queue —
        the send itself (and its serialization cost) happens when that
        task runs, keeping credit-return wake-ups ordinary, deterministic
        worker events.  The ledger entry stays open until the task runs:
        a recovery that wipes the queued task still finds and closes it.
        """
        held = self.in_flight_bytes.get(channel, 0)
        if held <= 0:
            return  # transmitted before a recovery reset; nothing to return
        freed = min(held, max(msg.total_bytes, msg.record_count))
        self.in_flight_bytes[channel] = held - freed
        self.total_in_flight -= freed
        park = self._parked.get(channel)
        if park is None or channel in self._claimed:
            return
        instance = park.instance
        edge_id, _src, dst = channel
        if not instance.worker.alive or self.job.recovering:
            return
        staged_bytes, staged_records = instance.router.staged_for(edge_id, dst)
        if not self.has_credit(channel, staged_bytes, staged_records):
            return
        self._claimed.add(channel)
        instance.worker.enqueue_front(("unpark", instance, edge_id, dst))

    def finish_unpark(self, instance: "InstanceRuntime", edge_id: int,
                      dst: int) -> float:
        """Worker task: send the parked batch whose credits returned.

        The claim is validated first: a forced drain (checkpoint flush,
        marker emission) may have settled the park — and the channel may
        even have re-parked since — in which case this wake-up is stale
        and must not force a zero-credit send.
        """
        channel = (edge_id, instance.index, dst)
        if channel not in self._claimed:
            return 1e-6  # stale wake-up: the park was settled elsewhere
        self._claimed.discard(channel)
        drained = instance.router.take_channel(edge_id, dst)
        cost = 1e-6
        if drained is not None:
            records, nbytes = drained
            cost += self.send_data(instance, edge_id, dst, records, nbytes)
        park = self._parked.pop(channel, None)
        if park is not None:
            self._close_park(channel, park)
        return cost

    # ------------------------------------------------------------------ #
    # Flushing (the drain side of the data path)
    # ------------------------------------------------------------------ #

    def flush_ready(self, instance: "InstanceRuntime") -> float:
        """Send router buffers that reached the batch threshold."""
        cost = 0.0
        for edge_id, dst, records, nbytes in instance.router.take_ready(
                self._gate(instance)):
            cost += self.send_data(instance, edge_id, dst, records, nbytes)
        return cost

    def flush_all(self, instance: "InstanceRuntime", force: bool = False) -> float:
        """Send every staged router buffer regardless of fill.

        ``force=True`` (checkpoint capture) drains parked batches too,
        with a credit overdraft: the snapshot's sent-cursor must cover
        every record produced from pre-checkpoint input, or a rollback
        would drop them.  The linger flush uses ``force=False`` and
        leaves parked batches waiting for their credits; on unbounded
        channels it has no gate to ask and nothing parked, so the router
        sends its buffers as they stand (``RouterBuffer.send_all``).
        """
        gate = None if force else self._gate(instance)
        if gate is None and not force:
            return instance.router.send_all(self.send_data, instance)
        cost = 0.0
        for edge_id, dst, records, nbytes in instance.router.take_all(gate):
            if force:
                self._settle_forced(instance, edge_id, dst)
            cost += self.send_data(instance, edge_id, dst, records, nbytes)
        return cost

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send_data(self, instance: "InstanceRuntime", edge_id: int, dst: int,
                  records: RecordBatch, payload_bytes: int) -> float:
        """Build, account and transmit one DATA message; returns CPU cost.

        The whole DATA hop in one frame: ``CostModel.serialize_cost`` and
        ``network_delay`` written out (operands in their order, so every
        float is the same bit for bit), :meth:`transmit`'s FIFO clamp and
        ``Simulator.schedule_at``'s guard and heap push.  The arrival
        event calls :attr:`arrive` as read here, at send time.  The
        protocol's ``on_send`` runs only if its class has one
        (``hooks_send``).
        """
        job = self.job
        channel = (edge_id, instance.index, dst)
        seq = instance.out_seq.get(channel, 0) + 1
        instance.out_seq[channel] = seq
        sim = job.sim
        now = sim.now
        msg = Message(channel, seq, DATA, records, payload_bytes)
        protocol = job.protocol
        cost_model = job.cost
        extra_cost = (protocol.on_send(instance, channel, msg)
                      if protocol.hooks_send else 0.0)
        protocol_bytes = msg.protocol_bytes
        total_bytes = payload_bytes + protocol_bytes
        cost = (cost_model.serialize_message_base
                + total_bytes * cost_model.serialize_per_byte) + extra_cost
        metrics = job.metrics
        metrics.data_bytes += payload_bytes
        metrics.protocol_bytes += protocol_bytes
        metrics.messages_sent += 1
        metrics.records_sent += len(records.rids)
        self.pending_data += 1
        if self.capacity > 0:
            self._debit(channel, msg, total_bytes)
        arrival = now + (cost_model.network_latency
                         + total_bytes / cost_model.network_bandwidth)
        last_arrival = self._last_arrival
        last = last_arrival.get(channel, 0.0)
        if arrival <= last:
            arrival = last + cost_model.channel_epsilon
        last_arrival[channel] = arrival
        if not arrival >= now:
            raise SimulationError(
                f"cannot schedule at {arrival!r}, now is {now!r}")
        queue = sim._queue
        event_seq = queue._seq
        queue._seq = event_seq + 1
        heappush(queue._heap, [arrival, event_seq, self.arrive,
                               (channel, msg, job.deploy_epoch)])
        return cost

    def send_marker(self, instance: "InstanceRuntime", round_id: int) -> float:
        """Emit a marker on every outgoing channel.

        Every caller has just flushed the instance with force (parked
        batches overdraft their credits: ``Job.execute_checkpoint``,
        unaligned COOR's first-marker capture), so the router is empty
        here and FIFO puts everything sent before the marker ahead of it:
        the receiver's checkpoint covers exactly that prefix.  Markers
        themselves carry no payload and consume no credits.
        """
        job = self.job
        marker_bytes = job.cost.marker_bytes
        cost = 0.0
        for edge in instance.out_edges:
            for dst in job.edge_channel_dsts(edge, instance.index):
                channel = (edge.edge_id, instance.index, dst)
                # meta = (round, sender's send-cursor): the cursor lets the
                # unaligned variant identify in-flight channel state
                msg = Message(channel, 0, MARKER, None, 0, marker_bytes, None,
                              (round_id, instance.out_seq.get(channel, 0)))
                cost += job.cost.serialize_cost(marker_bytes)
                job.metrics.record_message(0, marker_bytes, 0)
                self.transmit(channel, msg)
        return cost

    # ------------------------------------------------------------------ #
    # Wire transmission
    # ------------------------------------------------------------------ #

    def transmit(self, channel: ChannelId, msg: Message) -> None:
        """Schedule delivery with per-channel FIFO arrival ordering.

        The path of markers and of replayed or re-routed DATA;
        :meth:`send_data` carries its own copy of the arithmetic.
        """
        job = self.job
        total_bytes = msg.payload_bytes + msg.protocol_bytes
        if msg.kind == DATA:
            self.pending_data += 1
            if self.capacity > 0:
                self._debit(channel, msg, total_bytes)
        arrival = job.sim.now + job.cost.network_delay(total_bytes)
        last = self._last_arrival.get(channel, 0.0)
        if arrival <= last:
            arrival = last + job.cost.channel_epsilon
        self._last_arrival[channel] = arrival
        job.sim.schedule_at(arrival, self.arrive, channel, msg,
                            job.deploy_epoch)

    def _debit(self, channel: ChannelId, msg: Message, total_bytes: int) -> None:
        """Charge a DATA message's credit units to its channel (bounded runs)."""
        units = max(total_bytes, msg.record_count)
        depth = self.in_flight_bytes.get(channel, 0) + units
        self.in_flight_bytes[channel] = depth
        self.total_in_flight += units
        self.job.metrics.note_queue_depth(channel, depth, self.total_in_flight)

    def deliver(self, channel: ChannelId, msg: Message,
                deploy_epoch: int = 0) -> None:
        """A message arrived: hand it to its destination worker (or drop it).

        DATA lands on the worker's CPU queue — or in its alignment buffer
        while the channel is barrier-blocked — and starts the CPU if it is
        idle; a MARKER is handled by the protocol at arrival.  This is
        the whole arrival path: the message's next frame is the worker's
        task dispatch.
        """
        job = self.job
        if msg.kind == DATA and self.pending_data > 0:
            # counted down even when the message is about to be dropped —
            # the drain barrier tracks wire occupancy, not acceptance
            self.pending_data -= 1
        if job.recovering or deploy_epoch != job.deploy_epoch:
            return  # dropped, or addressed to a pre-rescale topology
        worker = job.workers[channel[2]]
        if not worker.alive:
            return
        if msg.kind == MARKER:
            job.protocol.on_marker(job.channel_dst[channel], channel, msg)
        elif channel in worker.blocked:
            worker._blocked_buf.setdefault(channel, deque()).append(msg)
        else:
            worker._tasks.append(("data", channel, msg))
            if not worker._busy:
                worker._start_next()

    # ------------------------------------------------------------------ #
    # Resets
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Forget wire and credit state (rollback / rescaled redeploy).

        Messages in flight at the failure are dropped by the delivery
        guard, so their credits must be dropped with them; open parks
        close here (their blocked time is accounted up to the reset, the
        batches themselves were cleared with the routers).
        """
        self._last_arrival.clear()
        for channel in sorted(self._parked):
            park = self._parked[channel]
            self._account_park(channel, park)
            park.instance.parked_channels.discard(channel)
            park.instance.credit_blocked = False
        self._parked.clear()
        self._claimed.clear()
        self.in_flight_bytes.clear()
        self.total_in_flight = 0

    def finalize(self) -> None:
        """Close parks still open when the run's window ends (metrics)."""
        for channel in sorted(self._parked):
            self._account_park(channel, self._parked[channel])
