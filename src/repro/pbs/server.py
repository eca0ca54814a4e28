"""The PBS server: queue, node table, job lifecycle.

One object plays ``pbs_server`` + ``pbs_sched`` + the moms' supervision:

* jobs enter via :meth:`qsub` (spec or raw ``#PBS`` script text);
* scheduling is event-driven strict FCFS (see :mod:`repro.sched.index`);
* each running job is a simulation process: either a timed payload or a
  script executed on the first allocated node's OS — the latter is how
  Figure 4's OS-switch job really reboots a machine here;
* a node going down (reboot!) interrupts every job process on it,
  mirroring TORQUE killing jobs when a mom disappears.

The lifecycle itself lives in :class:`repro.sched.core.SchedulerCore`;
this module adds TORQUE's job/node records, ``#PBS`` intake, holds,
FQDN hostnames, ``exec_host`` core slots and exit statuses.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import SchedulerError
from repro.pbs.job import JobState, PbsJob
from repro.pbs.nodes import PbsNodeRecord
from repro.pbs.script import JobSpec, parse_pbs_script
from repro.sched.core import (
    KILLED_EXIT_STATUS,
    WALLTIME_EXIT_STATUS,
    SchedulerCore,
)
from repro.sched.protocol import SWITCH_TAG, JobRequest
from repro.simkernel import Simulator

__all__ = ["KILLED_EXIT_STATUS", "WALLTIME_EXIT_STATUS", "PbsServer"]


class PbsServer(SchedulerCore):
    """A TORQUE-like server for one cluster."""

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "pbs"
    display_name = "PBS"
    join_event = "up"
    leave_event = "down"
    record_key_prefix = "pbs"
    default_owner = "sliang"
    #: every terminal outcome is TORQUE's COMPLETED; the exit status
    #: tells them apart
    STATES = {
        "queued": JobState.QUEUED,
        "held": JobState.HELD,
        "running": JobState.RUNNING,
        "finished": JobState.COMPLETED,
        "failed": JobState.COMPLETED,
        "cancelled": JobState.COMPLETED,
        "timed-out": JobState.COMPLETED,
    }
    jobid_env = "PBS_JOBID"

    def __init__(
        self,
        sim: Simulator,
        server_name: str = "eridani.qgg.hud.ac.uk",
        first_jobid: int = 1180,
    ) -> None:
        super().__init__(sim, server_name, first_jobid)
        self.server_name = server_name

    # -- node table ------------------------------------------------------------

    def fqdn(self, short: str) -> str:
        """``enode01`` → ``enode01.eridani.qgg.hud.ac.uk``."""
        return short if "." in short else f"{short}.{self.server_name}"

    _host = fqdn

    # reprolint: disable=TRC002 -- static wiring (the OSCAR nodes file) before the simulation starts
    def create_node(
        self, hostname: str, np: int, properties: Optional[List[str]] = None
    ) -> PbsNodeRecord:
        """Static registration (the OSCAR nodes file)."""
        record = PbsNodeRecord(hostname=self.fqdn(hostname), np=np)
        if properties:
            record.properties = list(properties)
        return self._register(record, np)

    #: a pbs_mom reported in / vanished
    node_up = SchedulerCore.join_node
    node_down = SchedulerCore.leave_node

    # -- job intake ----------------------------------------------------------

    def qsub(self, spec_or_script, owner: str = "sliang") -> str:
        """Submit a job; returns the jobid."""
        spec = (
            parse_pbs_script(spec_or_script)
            if isinstance(spec_or_script, str)
            else spec_or_script
        )
        if spec.nodes < 1 or spec.ppn < 1:
            raise SchedulerError(
                f"bad resource request nodes={spec.nodes} ppn={spec.ppn}"
            )
        if spec.ppn > self._max_cores:
            raise SchedulerError(
                f"ppn={spec.ppn} exceeds the largest node ({self._max_cores} cores)"
            )
        jobid = f"{self._seq}.{self.server_name}"
        self._seq += 1
        self._admit(PbsJob(
            job_id=jobid,
            name=spec.name,
            owner=f"{owner}@{self.server_name}" if "@" not in owner else owner,
            nodes=spec.nodes,
            ppn=spec.ppn,
            queue=spec.queue,
            submit_time=self.sim.now,
            runtime_s=spec.runtime_s,
            walltime_s=spec.walltime_s,
            script=spec.script,
            rerunnable=spec.rerunnable,
            join_oe=spec.join_oe,
            output_path=spec.output_path,
            variables=dict(spec.variables),
            tag=spec.tag,
        ))
        return jobid

    def qhold(self, jobid: str) -> None:
        """Hold a queued job: it keeps its queue position but is skipped
        by the scheduler until released (TORQUE ``qhold``)."""
        job = self._get(jobid)
        if job.state is not JobState.QUEUED:
            raise SchedulerError(
                f"{jobid}: only queued jobs can be held "
                f"(state {job.state.value})"
            )
        job.state = JobState.HELD
        self.mutation_epoch += 1
        self._lifecycle("job.held", job)

    def qrls(self, jobid: str) -> None:
        """Release a held job back into the queue (TORQUE ``qrls``)."""
        job = self._get(jobid)
        if job.state is not JobState.HELD:
            raise SchedulerError(f"{jobid} is not held")
        job.state = JobState.QUEUED
        self.mutation_epoch += 1
        self._lifecycle("job.released", job)
        self._try_schedule()

    #: cancel a job (queued: dropped; running: killed)
    qdel = SchedulerCore.cancel

    # -- queries ----------------------------------------------------------------

    def active_jobs_by_seq(self) -> List[PbsJob]:
        """All non-completed jobs in submission (sequence-number) order.

        Used by the qstat renderer: equivalent to scanning ``self.jobs``
        and filtering out COMPLETED, but O(active) instead of O(all jobs
        ever submitted).
        """
        active = [self.jobs[jobid] for jobid in self.queue_order]
        active.extend(self._running.values())
        active.sort(key=lambda j: j.seq_number)
        return active

    # -- personality seam (repro.sched.protocol) -----------------------------

    def submit_request(self, request: JobRequest) -> str:
        """Scheduler-neutral submit: shape the request onto nodes:ppn."""
        spec = JobSpec(
            name=request.name,
            nodes=request.nodes or 1,
            ppn=request.ppn or request.cores,
            runtime_s=request.runtime_s,
            rerunnable=request.rerunnable,
            script=request.script,
            tag=request.tag,
        )
        owner = (
            request.owner if request.owner is not None else self.default_owner
        )
        return self.qsub(spec, owner=owner)

    def get_job(self, jobid: str) -> Optional[PbsJob]:
        return self.jobs.get(jobid)

    def submit_switch_job(self, script: str, owner: str) -> str:
        """Submit an OS-release job (a ``#PBS`` script, tagged)."""
        spec = parse_pbs_script(script)
        spec.tag = SWITCH_TAG
        return self.qsub(spec, owner=owner)

    def make_commands(self, default_user: str = "sliang"):
        """The qstat/pbsnodes command facade bound to this server."""
        from repro.pbs.commands import PbsCommands

        return PbsCommands(self, default_user=default_user)

    # -- scheduling & execution -------------------------------------------------

    def _bind(self, job: PbsJob, record: Any, cores: int) -> None:
        for core in record.allocate(job.job_id, cores):
            job.exec_slots.append((record.hostname, core))

    def _hosts_of(self, job: PbsJob) -> List[str]:
        return list(dict.fromkeys(host for host, _ in job.exec_slots))

    def _unbind(self, job: PbsJob) -> None:
        job.exec_slots.clear()

    def _time_limit(self, job: PbsJob) -> Optional[float]:
        return job.walltime_s

    def _script_env(self, job: PbsJob) -> Dict[str, str]:
        return {
            **super()._script_env(job),
            "PBS_O_HOME": f"/home/{job.owner.split('@')[0]}",
            "PBS_O_LANG": "en_US.UTF-8",
            "PBS_JOBNAME": job.name,
            **job.variables,
        }

    def _exit_fields(self, job: PbsJob, exit_code: int) -> Dict[str, Any]:
        job.exit_status = exit_code
        return {"exit_status": exit_code}
