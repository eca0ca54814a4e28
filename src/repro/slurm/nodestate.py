"""SLURM node records.

The controller's node table entry: administrative state plus the per-job
core allocations, on the core's shared
:class:`~repro.sched.records.AllocNodeRecord`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sched.records import AllocNodeRecord


class SlurmNodeState(enum.Enum):
    """Administrative node state (``sinfo`` collapses allocation into
    the rendered word; see :meth:`SlurmNodeRecord.sinfo_state`)."""

    UP = "up"
    DOWN = "down"
    DRAIN = "drain"


@dataclass
class SlurmNodeRecord(AllocNodeRecord):
    """One compute node as ``slurmctld`` tracks it."""

    UP = SlurmNodeState.UP
    DRAINED = SlurmNodeState.DRAIN
    DOWN = SlurmNodeState.DOWN

    state: SlurmNodeState = SlurmNodeState.DOWN
    partition: str = "batch"

    def sinfo_state(self) -> str:
        """The word ``sinfo`` prints for this node."""
        if self.state is SlurmNodeState.DOWN:
            return "down"
        if self.state is SlurmNodeState.DRAIN:
            return "drain"
        if not self.allocations:
            return "idle"
        return "alloc" if self.cores_in_use >= self.cores else "mix"
