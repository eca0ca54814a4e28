"""The job and node-record schema the scheduler core reads and writes.

:class:`SchedJob` declares, once, every job field
:class:`~repro.sched.core.SchedulerCore` writes (lifecycle times, the
recovery bookkeeping, the allocation) and the uniform surface the
control plane reads (``key``, ``submitted_at``, ``cores_running()``,
``allocation_by_host()``, wait and turnaround).  Personality job types
subclass it and add only their native fields and the defaults of their
native state and priority.

:class:`AllocNodeRecord` is the node record of personalities that book
cores per job (WinHPC, SLURM): a job id → cores map and the
up/drained/down transitions, bound to the personality's own state words
through the ``UP``/``DRAINED``/``DOWN`` class attributes.  PBS keeps its
own per-core slot map because ``exec_host`` renders core indices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, ClassVar, Dict, List, Optional

from repro.errors import SchedulerError


@dataclass(kw_only=True, repr=False)
class SchedJob:
    """One job as the scheduler core tracks it.

    Jobs carry no ``__slots__``: renderers may cache text on them.
    """

    job_id: Any
    name: str
    owner: str
    submit_time: float
    #: native job state; each personality sets its queued default
    state: Any = None
    #: larger runs sooner; personalities set their own default band
    priority: int = 0
    runtime_s: Optional[float] = None
    #: script text run on the first allocated node, instead of a duration
    script: Optional[str] = None
    start_time: Optional[float] = None
    end_time: Optional[float] = None
    #: native hostname -> cores taken there
    allocation: Dict[str, int] = field(default_factory=dict)
    #: free-form tag used by the middleware ("os-switch") and workloads
    tag: str = ""
    rerunnable: bool = True
    #: optional callback fired on completion (metrics, chaining)
    on_complete: Optional[Callable[[Any], None]] = None
    #: node-failure recovery bookkeeping (see ``SchedulerCore.fence_node``)
    restarts: int = 0
    checkpointed_s: float = 0.0
    lost_work_s: float = 0.0
    walltime_used_s: float = 0.0
    interrupted_at: Optional[float] = None

    @property
    def seq_number(self) -> int:
        """Submission order (job ids are handed out sequentially)."""
        return self.job_id

    @property
    def key(self) -> str:
        """Scheduler-neutral job id (integer ids render with ``str``)."""
        return str(self.job_id)

    @property
    def submitted_at(self) -> float:
        return self.submit_time

    @property
    def wait_time_s(self) -> Optional[float]:
        if self.start_time is None:
            return None
        return self.start_time - self.submit_time

    @property
    def turnaround_s(self) -> Optional[float]:
        if self.end_time is None:
            return None
        return self.end_time - self.submit_time

    def cores_running(self) -> int:
        """Cores actually allocated."""
        return sum(self.allocation.values())

    def allocation_by_host(self) -> Dict[str, int]:
        """Hostname → allocated core count, placement order."""
        return dict(self.allocation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.key} {self.name!r} "
            f"{self.state.value}>"
        )


@dataclass
class AllocNodeRecord:
    """One compute node as a head node books it: cores per job."""

    #: the personality's native state words for up / drained / down
    UP: ClassVar[Any]
    DRAINED: ClassVar[Any]
    DOWN: ClassVar[Any]

    hostname: str
    cores: int
    #: job id -> cores taken on this node, in allocation order
    allocations: Dict[Any, int] = field(default_factory=dict)
    #: native node state; each personality defaults it to ``DOWN``
    state: Any = None

    @property
    def cores_in_use(self) -> int:
        return sum(self.allocations.values())

    @property
    def online(self) -> bool:
        return self.state is self.UP

    @property
    def available_cores(self) -> int:
        """Free cores; 0 unless up (the NodeIndex bucket contract)."""
        if self.state is not self.UP:
            return 0
        return self.cores - self.cores_in_use

    @property
    def idle(self) -> bool:
        return self.state is self.UP and not self.allocations

    def jobs_here(self) -> List[Any]:
        """Job ids holding cores here, in allocation order."""
        return list(self.allocations)

    def allocate(self, job_id: Any, count: int) -> None:
        if count > self.available_cores:
            raise SchedulerError(
                f"{self.hostname}: want {count} cores, "
                f"{self.available_cores} available"
            )
        self.allocations[job_id] = self.allocations.get(job_id, 0) + count

    def release(self, job_id: Any) -> None:
        self.allocations.pop(job_id, None)

    # Neither head node keeps state-change timestamps: the ``now``
    # argument of the transitions below is unused here.

    def mark_up(self, now: float) -> None:
        """The node's agent registered: it joins clean."""
        self.state = self.UP
        self.allocations.clear()

    def mark_down(self, now: float) -> None:
        self.state = self.DOWN
        self.allocations.clear()

    def cordon(self, now: float) -> None:
        """Admin drain: no new work, running allocations stay."""
        if self.state is self.UP:
            self.state = self.DRAINED

    def uncordon(self, now: float) -> None:
        """Lift a drain; no-op unless drained."""
        if self.state is self.DRAINED:
            self.state = self.UP
