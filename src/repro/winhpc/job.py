"""Windows HPC job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.sched.records import SchedJob


class WinJobState(enum.Enum):
    """HPC Pack job states (the subset the middleware observes)."""

    CONFIGURING = "Configuring"
    QUEUED = "Queued"
    RUNNING = "Running"
    FINISHED = "Finished"
    FAILED = "Failed"
    CANCELED = "Canceled"


class WinJobUnit(enum.Enum):
    """Allocation unit (HPC Pack ``JobUnitType``)."""

    CORE = "Core"
    NODE = "Node"


#: HPC Pack priority bands (``JobPriority``); larger runs sooner.
PRIORITY_LOWEST = 0
PRIORITY_NORMAL = 2000
PRIORITY_HIGHEST = 4000


@dataclass
class WinJobSpec:
    """What a submission needs to provide."""

    name: str = "Job"
    unit: WinJobUnit = WinJobUnit.CORE
    amount: int = 1  # cores (CORE unit) or whole nodes (NODE unit)
    runtime_s: Optional[float] = None
    script: Optional[str] = None  # .bat text run on the first allocated node
    tag: str = ""
    priority: int = PRIORITY_NORMAL
    rerunnable: bool = True


@dataclass(kw_only=True, repr=False)
class WinHpcJob(SchedJob):
    """One job as tracked by the head node."""

    job_id: int
    state: WinJobState = WinJobState.QUEUED
    priority: int = PRIORITY_NORMAL
    unit: WinJobUnit
    amount: int

    def cores_submitted(self) -> int:
        """Core demand as known at submission time (allocation is empty
        then, so this falls back to the requested amount)."""
        return self.cores_running() or self.amount
