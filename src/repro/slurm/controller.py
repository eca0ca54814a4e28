"""The SLURM controller: ``slurmctld`` over one partition set.

Priority scheduling with EASY backfill (the half SLURM's
``sched/backfill`` plugin guarantees never delays the head job):

* the queue is ordered by (priority desc, submission order);
* the head job blocks until it fits — placement is the core's
  :class:`~repro.sched.index.NodeIndex` free-core buckets, which only
  need ``job.nodes``/``job.ppn`` and records exposing
  ``available_cores``;
* when the head cannot start, later jobs may backfill **only** if their
  time limit ends before the head's *shadow time* (the earliest instant
  the head could start, computed from the running jobs' limits).  Jobs
  whose running peers carry no limit contribute no release and cannot
  push the shadow earlier; when no shadow exists at all (the head can
  never be satisfied by waiting) backfill is unrestricted, since no
  reservation can be violated.

The job lifecycle, node fencing, checkpoint-credit recovery and the
time-limit timer come from :class:`repro.sched.core.SchedulerCore`, so
the control plane sees identical semantics through the
:mod:`repro.sched` seam.  A job with ``time_limit_s`` set is killed at
the limit and ends TIMEOUT — the guarantee the backfill test above
relies on.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import SchedulerError
from repro.sched.core import SchedulerCore
from repro.sched.protocol import SWITCH_JOB_NAME, SWITCH_TAG, JobRequest
from repro.simkernel import Simulator
from repro.slurm.job import (
    PRIORITY_DEFAULT,
    SlurmJob,
    SlurmJobSpec,
    SlurmJobState,
)
from repro.slurm.nodestate import SlurmNodeRecord


class SlurmController(SchedulerCore):
    """Job queue + node table, the ``slurmctld`` role."""

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = "slurm"
    display_name = "SLURM"
    join_event = "up"
    leave_event = "down"
    record_key_prefix = "slurm"
    default_owner = "slurm"
    STATES = {
        "queued": SlurmJobState.PENDING,
        "running": SlurmJobState.RUNNING,
        "finished": SlurmJobState.COMPLETED,
        "failed": SlurmJobState.FAILED,
        "cancelled": SlurmJobState.CANCELLED,
        "timed-out": SlurmJobState.TIMEOUT,
    }
    jobid_env = "SLURM_JOB_ID"

    def __init__(self, sim: Simulator, head_name: str = "slurmctl") -> None:
        super().__init__(sim, head_name)

    # -- node table -----------------------------------------------------------

    # reprolint: disable=TRC002 -- static wiring (cluster build) before the simulation starts
    def add_node(
        self, hostname: str, cores: int, partition: str = "batch"
    ) -> SlurmNodeRecord:
        record = SlurmNodeRecord(
            hostname=hostname, cores=cores, partition=partition
        )
        return self._register(record, cores)

    #: a slurmd registered / vanished
    node_online = SchedulerCore.join_node
    node_unreachable = SchedulerCore.leave_node

    # -- submission -----------------------------------------------------------

    def _shape(self, spec: SlurmJobSpec) -> Tuple[int, int]:
        """Fix the (nodes, ppn) shape of a submission.

        Explicit ``-N`` keeps its node count (whole nodes when no
        per-node task count is given).  A flat cpu request (``-n``
        without ``-N``) packs onto one node when it fits; beyond that it
        picks the nodes×ppn shape wasting the fewest cpus over the
        request (fewest nodes on ties) — ``sbatch -n`` allocates cpus,
        not whole nodes, so rounding up to full nodes would strand
        capacity a real controller hands to other jobs.
        """
        if spec.nodes > 0:
            return spec.nodes, spec.ppn if spec.ppn > 0 else self._max_cores
        if spec.cpus <= self._max_cores:
            return 1, spec.cpus
        best: Optional[Tuple[int, int, int]] = None
        for ppn in range(self._max_cores, 0, -1):
            nodes = -(-spec.cpus // ppn)
            if nodes > len(self.nodes):
                continue
            waste = nodes * ppn - spec.cpus
            if best is None or (waste, nodes) < (best[0], best[1]):
                best = (waste, nodes, ppn)
        if best is None:
            return -(-spec.cpus // self._max_cores), self._max_cores
        return best[1], best[2]

    def submit(self, spec: SlurmJobSpec, owner: str = "slurm") -> SlurmJob:
        if not self.nodes:
            raise SchedulerError("no nodes registered")
        if spec.nodes <= 0 and spec.cpus < 1:
            raise SchedulerError(f"job cpus must be >= 1, got {spec.cpus}")
        nodes, ppn = self._shape(spec)
        if nodes < 1 or ppn < 1:
            raise SchedulerError(f"bad resource request nodes={nodes} ppn={ppn}")
        if ppn > self._max_cores:
            raise SchedulerError(
                f"ppn={ppn} exceeds the largest node ({self._max_cores} cpus)"
            )
        if nodes > len(self.nodes):
            raise SchedulerError(
                f"job wants {nodes} nodes, cluster has {len(self.nodes)}"
            )
        if spec.priority < 0:
            raise SchedulerError(f"priority must be >= 0, got {spec.priority}")
        job = SlurmJob(
            job_id=self._seq,
            name=spec.name,
            owner=owner,
            nodes=nodes,
            ppn=ppn,
            partition=spec.partition,
            submit_time=self.sim.now,
            runtime_s=spec.runtime_s,
            time_limit_s=spec.time_limit_s,
            script=spec.script,
            priority=spec.priority,
            rerunnable=spec.rerunnable,
            tag=spec.tag,
        )
        self._seq += 1
        self._admit(job)
        return job

    # -- personality seam (repro.sched.protocol) -----------------------------

    def submit_request(self, request: JobRequest) -> str:
        """Scheduler-neutral submit: shape the request onto nodes×ppn."""
        spec = SlurmJobSpec(
            name=request.name,
            nodes=request.nodes,
            ppn=request.ppn,
            cpus=request.cores,
            runtime_s=request.runtime_s,
            script=request.script,
            tag=request.tag,
            priority=(
                request.priority
                if request.priority is not None
                else PRIORITY_DEFAULT
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
            SlurmJobSpec(
                name=SWITCH_JOB_NAME,
                nodes=1,
                script=script,
                tag=SWITCH_TAG,
                rerunnable=False,
            ),
            owner=owner,
        )
        return str(job.job_id)

    # -- scheduling -----------------------------------------------------------

    def _limit(self, job: SlurmJob) -> Optional[float]:
        """The job's expected occupancy bound (time limit, else runtime)."""
        if job.time_limit_s is not None:
            return job.time_limit_s
        return job.runtime_s

    def _shadow_time(self, head: SlurmJob) -> Optional[float]:
        """Earliest instant *head* could start, per running-job limits.

        Replays the running jobs' releases (soonest expected end first)
        onto a scratch free-cpu map until the head fits.  Running jobs
        without any limit never release in this projection; ``None``
        means no reservation point exists.
        """
        free = {h: r.available_cores for h, r in self.nodes.items()}
        ends: List[Tuple[float, int]] = []
        for job in self._running.values():
            limit = self._limit(job)
            if limit is None or job.start_time is None:
                continue
            ends.append((job.start_time + limit, job.job_id))
        ends.sort()
        for end, job_id in ends:
            for hostname, cpus in self.jobs[job_id].allocation.items():
                free[hostname] += cpus
            fitting = sum(1 for c in free.values() if c >= head.ppn)
            if fitting >= head.nodes:
                return end
        return None

    def _try_schedule(self) -> None:
        progress = True
        while progress:
            progress = False
            # every job needs at least one core: with none free, neither
            # the head nor any backfill candidate can start
            if not self.queue_order or self._index.free_cores() == 0:
                return
            head = self.jobs[self.queue_order[0]]
            placement = self._place(head)
            if placement is not None:
                self.queue_order.pop(0)
                self._start(head, placement)
                progress = True
                continue
            # EASY backfill: jobs behind the blocked head may run only if
            # their limit ends before the head's shadow time.
            shadow = self._shadow_time(head)
            for position in range(1, len(self.queue_order)):
                job = self.jobs[self.queue_order[position]]
                limit = self._limit(job)
                if shadow is not None and (
                    limit is None or self.sim.now + limit > shadow
                ):
                    continue
                placement = self._place(job)
                if placement is None:
                    continue
                self.queue_order.pop(position)
                self._start(job, placement)
                progress = True
                break

    def _time_limit(self, job: SlurmJob) -> Optional[float]:
        # the runtime fallback of _limit is a projection, never a limit
        return job.time_limit_s
