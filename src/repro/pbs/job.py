"""PBS job model."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sched.records import SchedJob


class JobState(enum.Enum):
    """TORQUE job states (the subset the paper's tooling sees)."""

    QUEUED = "Q"
    RUNNING = "R"
    EXITING = "E"
    COMPLETED = "C"
    HELD = "H"


@dataclass(kw_only=True, repr=False)
class PbsJob(SchedJob):
    """One batch job.

    ``payload`` describes what "running" means: either a plain duration
    (``runtime_s``) or a script executed on the first allocated node's OS
    (the OS-switch jobs).  ``exec_slots`` holds ``(hostname, core)`` pairs
    exactly as ``exec_host`` renders them; PBS leaves the core's
    ``allocation`` map empty.
    """

    job_id: str
    state: JobState = JobState.QUEUED
    nodes: int
    ppn: int
    queue: str = "default"
    walltime_s: Optional[float] = None
    join_oe: bool = False
    output_path: Optional[str] = None
    variables: Dict[str, str] = field(default_factory=dict)
    exit_status: Optional[int] = None
    exec_slots: List[Tuple[str, int]] = field(default_factory=list)

    @property
    def jobid(self) -> str:
        """TORQUE's name for the job id (``1185.eridani...``)."""
        return self.job_id

    @property
    def qtime(self) -> float:
        """TORQUE's name for the submission time."""
        return self.submit_time

    @property
    def total_cores(self) -> int:
        return self.nodes * self.ppn

    @property
    def seq_number(self) -> int:
        """Numeric part of the job id (``1185.eridani...`` → 1185)."""
        return int(self.job_id.split(".", 1)[0])

    def exec_host_string(self) -> str:
        """Figure-8 style: ``node16.dom/3+node16.dom/2+...``."""
        return "+".join(f"{host}/{core}" for host, core in self.exec_slots)

    def cores_submitted(self) -> int:
        """Core demand as known at submission time."""
        return self.total_cores

    def cores_running(self) -> int:
        """Cores actually allocated (PBS shapes are exact)."""
        return self.total_cores

    def allocation_by_host(self) -> Dict[str, int]:
        """Short hostname → allocated core count, placement order."""
        cores: Dict[str, int] = {}
        for fqdn, _ in self.exec_slots:
            host = fqdn.split(".")[0]
            cores[host] = cores.get(host, 0) + 1
        return cores
