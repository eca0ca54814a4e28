"""The Windows HPC head-node scheduler.

FIFO with head-of-line blocking (HPC Pack's default queued scheduling
mode, and the assumption the paper's daemons make).  ``Core``-unit jobs
pack cores onto the fullest online nodes first, walking the core's
free-core index; ``Node``-unit jobs need entirely idle machines.  The
job lifecycle lives in :class:`repro.sched.core.SchedulerCore`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.errors import SchedulerError
from repro.sched.core import SchedulerCore
from repro.sched.protocol import SWITCH_JOB_NAME, SWITCH_TAG, JobRequest
from repro.simkernel import Simulator
from repro.winhpc.job import (
    PRIORITY_NORMAL,
    WinHpcJob,
    WinJobSpec,
    WinJobState,
    WinJobUnit,
)
from repro.winhpc.nodestate import WinNodeRecord


class WinHpcScheduler(SchedulerCore):
    """Job queue + node table on the Windows head node."""

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "winhpc"
    display_name = "WinHPC"
    join_event = "online"
    leave_event = "unreachable"
    record_key_prefix = "win"
    default_owner = "HPCUser"
    STATES = {
        "queued": WinJobState.QUEUED,
        "running": WinJobState.RUNNING,
        "finished": WinJobState.FINISHED,
        "failed": WinJobState.FAILED,
        "cancelled": WinJobState.CANCELED,
    }
    jobid_env = "CCP_JOBID"

    def __init__(self, sim: Simulator, head_name: str = "winhead") -> None:
        super().__init__(sim, head_name)

    # -- node table -----------------------------------------------------------

    # reprolint: disable=TRC002 -- static wiring (cluster build) before the simulation starts
    def add_node(self, hostname: str, cores: int, template: str = "") -> WinNodeRecord:
        record = WinNodeRecord(hostname=hostname, cores=cores)
        if template:
            record.template = template
        return self._register(record, cores)

    #: a node manager came online / became unreachable
    node_online = SchedulerCore.join_node
    node_unreachable = SchedulerCore.leave_node

    # -- submission -----------------------------------------------------------

    def submit(self, spec: WinJobSpec, owner: str = "HPCUser") -> WinHpcJob:
        if spec.amount < 1:
            raise SchedulerError(f"job amount must be >= 1, got {spec.amount}")
        if spec.unit is WinJobUnit.CORE:
            if spec.amount > self._total_cores:
                raise SchedulerError(
                    f"job wants {spec.amount} cores, "
                    f"cluster has {self._total_cores}"
                )
        elif spec.amount > len(self.nodes):
            raise SchedulerError(
                f"job wants {spec.amount} nodes, cluster has {len(self.nodes)}"
            )
        if not 0 <= spec.priority <= 4000:
            raise SchedulerError(
                f"priority must be in [0, 4000], got {spec.priority}"
            )
        job = WinHpcJob(
            job_id=self._seq,
            name=spec.name,
            owner=owner,
            unit=spec.unit,
            amount=spec.amount,
            submit_time=self.sim.now,
            runtime_s=spec.runtime_s,
            script=spec.script,
            tag=spec.tag,
            priority=spec.priority,
            rerunnable=spec.rerunnable,
        )
        self._seq += 1
        self._admit(job)
        return job

    # -- personality seam (repro.sched.protocol) -----------------------------

    def submit_request(self, request: JobRequest) -> str:
        """Scheduler-neutral submit: shape the request onto a unit."""
        if request.nodes > 0:
            unit, amount = WinJobUnit.NODE, request.nodes
        else:
            unit, amount = WinJobUnit.CORE, request.cores
        spec = WinJobSpec(
            name=request.name,
            unit=unit,
            amount=amount,
            runtime_s=request.runtime_s,
            script=request.script,
            tag=request.tag,
            priority=(
                request.priority
                if request.priority is not None
                else PRIORITY_NORMAL
            ),
            rerunnable=request.rerunnable,
        )
        owner = (
            request.owner if request.owner is not None else self.default_owner
        )
        return str(self.submit(spec, owner=owner).job_id)

    def submit_switch_job(self, script: str, owner: str) -> str:
        """Submit an OS-release job: one whole node, not rerunnable."""
        job = self.submit(
            WinJobSpec(
                name=SWITCH_JOB_NAME,
                unit=WinJobUnit.NODE,
                amount=1,
                script=script,
                tag=SWITCH_TAG,
                rerunnable=False,
            ),
            owner=owner,
        )
        return str(job.job_id)

    # -- scheduling -----------------------------------------------------------

    def _place(self, job: WinHpcJob) -> Optional[List[Tuple[Any, int]]]:
        if job.unit is WinJobUnit.NODE:
            if self._index.idle_count() < job.amount:
                return None
            idle = sorted(self.idle_nodes(), key=lambda r: r.hostname, reverse=True)
            return [(record, record.cores) for record in idle[: job.amount]]
        # CORE unit: pack onto the busiest (fewest free cores) nodes first,
        # leaving whole machines idle for NODE-unit work.
        return self._index.allocate_packed(job.amount)

    def _submit_fields(self, job: WinHpcJob) -> Dict[str, Any]:
        return {"amount": job.amount}
