"""Windows HPC node records."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List


class WinNodeState(enum.Enum):
    ONLINE = "Online"
    OFFLINE = "Offline"
    DRAINING = "Draining"
    UNREACHABLE = "Unreachable"


@dataclass
class WinNodeRecord:
    """Head-node view of one compute node."""

    hostname: str
    cores: int
    state: WinNodeState = WinNodeState.UNREACHABLE
    template: str = "Default ComputeNode Template"
    #: job_id -> cores allocated on this node
    allocations: Dict[int, int] = field(default_factory=dict)

    @property
    def cores_in_use(self) -> int:
        return sum(self.allocations.values())

    @property
    def online(self) -> bool:
        return self.state is WinNodeState.ONLINE

    @property
    def available_cores(self) -> int:
        if self.state is not WinNodeState.ONLINE:
            return 0
        return self.cores - self.cores_in_use

    @property
    def idle(self) -> bool:
        return self.state is WinNodeState.ONLINE and not self.allocations

    def jobs_here(self) -> List[int]:
        """Job ids holding cores here, in allocation order."""
        return list(self.allocations)

    def allocate(self, job_id: int, count: int) -> None:
        if count > self.available_cores:
            raise ValueError(
                f"{self.hostname}: want {count} cores, "
                f"{self.available_cores} available"
            )
        self.allocations[job_id] = self.allocations.get(job_id, 0) + count

    def release(self, job_id: int) -> None:
        self.allocations.pop(job_id, None)

    # The head node keeps no state-change timestamps: the ``now``
    # argument of the transitions below is unused here.

    def mark_up(self, now: float) -> None:
        """The node manager came online."""
        self.state = WinNodeState.ONLINE
        self.allocations.clear()

    def mark_down(self, now: float) -> None:
        self.state = WinNodeState.UNREACHABLE
        self.allocations.clear()

    def cordon(self, now: float) -> None:
        """Admin drain: no new work, running allocations stay."""
        if self.state is WinNodeState.ONLINE:
            self.state = WinNodeState.DRAINING

    def uncordon(self, now: float) -> None:
        """Lift a drain; no-op unless draining."""
        if self.state is WinNodeState.DRAINING:
            self.state = WinNodeState.ONLINE
