"""SLURM job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.sched.records import SchedJob


class SlurmJobState(enum.Enum):
    """Job states with their ``squeue`` short codes."""

    PENDING = "PD"
    RUNNING = "R"
    COMPLETED = "CD"
    FAILED = "F"
    CANCELLED = "CA"
    TIMEOUT = "TO"


#: Default ``--priority`` (sbatch accepts 0..2**32-1; this model keeps a
#: small positive default so explicit priorities sort either way).
PRIORITY_DEFAULT = 100


@dataclass
class SlurmJobSpec:
    """What an ``sbatch`` submission provides.

    ``nodes=0`` means "shape the flat ``cpus`` request onto whole nodes
    yourself" (what ``-n`` without ``-N`` does); a non-zero ``nodes``
    with ``ppn=0`` claims whole nodes.
    """

    name: str = "wrap"
    nodes: int = 0
    ppn: int = 0
    cpus: int = 1
    partition: str = "batch"
    time_limit_s: Optional[float] = None
    runtime_s: Optional[float] = None
    script: Optional[str] = None
    priority: int = PRIORITY_DEFAULT
    rerunnable: bool = True
    tag: str = ""


@dataclass(kw_only=True, repr=False)
class SlurmJob(SchedJob):
    """One job as ``slurmctld`` tracks it.

    The ``nodes``/``ppn`` shape is fixed at submission (the controller
    shapes flat requests), which is what lets the core's
    :class:`~repro.sched.index.NodeIndex` place SLURM jobs unchanged.
    """

    job_id: int
    state: SlurmJobState = SlurmJobState.PENDING
    priority: int = PRIORITY_DEFAULT
    nodes: int
    ppn: int
    partition: str
    time_limit_s: Optional[float] = None

    @property
    def total_cores(self) -> int:
        return self.nodes * self.ppn

    def cores_submitted(self) -> int:
        """Core demand as known at submission time (shape is fixed)."""
        return self.total_cores
