"""Coordinator node.

Mirrors the paper's Stateflow architecture (Section IV): the coordinator
deploys the dataflow, stores checkpoint metadata, runs the coordination
logic of the protocols (round scheduling for COOR, metadata collection for
UNC/CIC), and reacts to failure detection.  Its CPU is not modelled — the
paper's coordinator is never the bottleneck — but every control message to
or from it is charged to the network byte counters (Table II accounts for
exactly these messages).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.core.base import CheckpointMeta, CheckpointRegistry
from repro.storage.blobstore import BlobStore

if TYPE_CHECKING:  # pragma: no cover
    from repro.dataflow.runtime import Job


class Coordinator:
    """Metadata registry plus control-plane messaging."""

    def __init__(self, job: "Job") -> None:
        self.job = job
        self.registry = CheckpointRegistry()
        self.blobstore = BlobStore()

    # ------------------------------------------------------------------ #
    # Control-plane messaging (byte-accounted)
    # ------------------------------------------------------------------ #

    def send_metadata(self, meta: CheckpointMeta, epoch: int = 0) -> None:
        """A worker reports a durable checkpoint to the coordinator.

        The metadata message crosses the network (protocol bytes; UNC's
        only overhead in Table II) and registers after the delay, unless a
        recovery began after the checkpoint was taken in recovery
        ``epoch``: a rollback abandoned it.
        """
        cost_model = self.job.cost
        size = cost_model.metadata_message_bytes
        self.job.metrics.record_message(0, size, 0)
        delay = cost_model.network_delay(size)
        self.job.sim.schedule(delay, self._on_metadata, meta,
                              self.job.deploy_epoch, epoch)

    def _on_metadata(self, meta: CheckpointMeta, deploy_epoch: int = 0,
                     epoch: int = 0) -> None:
        if deploy_epoch != self.job.deploy_epoch:
            return  # metadata of a pre-rescale instance that no longer exists
        if epoch != self.job.epoch:
            return  # taken before a rollback that abandoned it
        self.registry.register(meta)
        self.job.protocol.on_metadata(meta)

    def send_control_to_worker(self, worker_index: int, size_bytes: int,
                               fn: Callable[[], None]) -> None:
        """Coordinator -> worker control message (e.g. COOR round trigger)."""
        self.job.metrics.record_message(0, size_bytes, 0)
        delay = self.job.cost.network_delay(size_bytes)

        def deliver() -> None:
            worker = self.job.workers[worker_index]
            if worker.alive and not self.job.recovering:
                fn()

        self.job.sim.schedule(delay, deliver)
