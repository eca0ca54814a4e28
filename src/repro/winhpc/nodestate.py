"""Windows HPC node records."""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sched.records import AllocNodeRecord


class WinNodeState(enum.Enum):
    ONLINE = "Online"
    DRAINING = "Draining"
    UNREACHABLE = "Unreachable"


@dataclass
class WinNodeRecord(AllocNodeRecord):
    """Head-node view of one compute node."""

    UP = WinNodeState.ONLINE
    DRAINED = WinNodeState.DRAINING
    DOWN = WinNodeState.UNREACHABLE

    state: WinNodeState = WinNodeState.UNREACHABLE
    template: str = "Default ComputeNode Template"
