"""Checkpointing protocols — the paper's subject matter (Section III).

Three families are implemented behind one interface:

* :class:`~repro.core.coordinated.CoordinatedProtocol` (COOR) — aligned,
  marker-based, Chandy–Lamport-style rounds.
* :class:`~repro.core.uncoordinated.UncoordinatedProtocol` (UNC) —
  independent checkpoints + message logging + rollback propagation.
* :class:`~repro.core.cic.CommunicationInducedProtocol` (CIC) — UNC plus
  HMNR piggybacks and forced checkpoints.

Plus the :class:`~repro.core.base.CheckpointProtocol` base class itself,
registered as ``none``: the baseline used to normalise throughput in
Figure 7.
"""

from repro.core.base import (
    CheckpointMeta,
    CheckpointRegistry,
    CheckpointProtocol,
    RecoveryPlan,
    PROTOCOLS,
    create_protocol,
)
from repro.core.coordinated import CoordinatedProtocol
from repro.core.unaligned import UnalignedCoordinatedProtocol
from repro.core.uncoordinated import UncoordinatedProtocol
from repro.core.cic import CommunicationInducedProtocol
from repro.core.checkpoint_graph import CheckpointGraph
from repro.core.recovery import build_replay_sets

__all__ = [
    "CheckpointMeta",
    "CheckpointRegistry",
    "CheckpointProtocol",
    "RecoveryPlan",
    "PROTOCOLS",
    "create_protocol",
    "CoordinatedProtocol",
    "UnalignedCoordinatedProtocol",
    "UncoordinatedProtocol",
    "CommunicationInducedProtocol",
    "CheckpointGraph",
    "build_replay_sets",
]
