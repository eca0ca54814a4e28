"""The scheduler core every personality shares.

The paper's daemons drive both batch systems the same way (submit a
release job, watch the node reboot, resubmit work), so the mechanics a
scheduler needs for that are written once here:

* the job table, queue order, running bucket and ``mutation_epoch``;
* the free-core :class:`~repro.sched.index.NodeIndex`, which backs
  ``free_cores()``, ``idle_node_count()`` and the default placement;
* the job runners and the per-node OS handles scripts run on;
* node join (with stranded-job recovery), leave, crash, fence and
  cordon/uncordon/drain;
* checkpoint-credit recovery and the time-limit (walltime) timer;
* queue order: priority bands with FIFO ties, a requeued job rejoining
  its band by submission order (PBS jobs all carry priority 0, so the
  PBS queue is plain FIFO);
* the start → run → finish skeleton and cancellation;
* the queued/running/idle/online queries of the
  :class:`~repro.sched.protocol.SchedulerPersonality` seam;
* one lifecycle funnel, :meth:`SchedulerCore._lifecycle`, which emits
  a job's trace event and notifies the observers in one call.

A personality subclasses :class:`SchedulerCore` and supplies only what
is its own, as class attributes and overridden hooks:

* identity: ``kind``, ``display_name``, ``join_event``,
  ``leave_event``, ``record_key_prefix``, ``default_owner``;
* ``STATES``: lifecycle name → native job state;
* ``jobid_env`` / ``_script_env``: the environment of a script payload;
* ``_host``: hostname normalisation (PBS uses FQDNs);
* ``_place``: where a job would run now, or ``None`` (default: the
  index's highest-hostname-first ``nodes`` × ``ppn`` placement);
* ``_try_schedule``: dispatch policy (default: head-of-line FIFO);
* ``_time_limit``: the job's time limit, if any;
* ``_bind`` / ``_hosts_of`` / ``_unbind``: how a job records where it
  runs;
* ``_submit_fields`` / ``_exit_fields``: the trace payload fields that
  differ;

plus its native job/node-record types, request shaping in
``submit_request`` and its text formats.  Jobs subclass
:class:`~repro.sched.records.SchedJob`.  Node records share a small
surface: ``hostname``, ``available_cores`` (0 unless online),
``online``, ``idle``, ``jobs_here()``, ``allocate``/``release`` and
``mark_up``/``mark_down``/``cordon``/``uncordon`` taking the current
time; :class:`~repro.sched.records.AllocNodeRecord` implements it over
a job id → cores map.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.errors import SchedulerError
from repro.oslayer.shell import run_script
from repro.sched.index import NodeIndex, Placement
from repro.sched.protocol import SWITCH_TAG
from repro.simkernel import Event, Interrupt, Simulator, Timeout

#: Exit status TORQUE reports for jobs killed by node loss / cancel.
KILLED_EXIT_STATUS = 271

#: Exit status for jobs killed at their time limit (128 + SIGTERM).
WALLTIME_EXIT_STATUS = 143

#: Job trace kind -> observer event (held/released are trace-only).
_OBSERVED = {
    "job.submitted": "submitted",
    "job.started": "started",
    "job.requeued": "requeued",
    "job.finished": "finished",
    "job.failed": "finished",
}


class SchedulerCore:
    """Job table, node table and job lifecycle shared by every personality."""

    # -- personality identity (repro.sched.protocol) -------------------------
    kind = ""
    display_name = ""
    join_event = "up"
    leave_event = "down"
    record_key_prefix = ""
    default_owner = ""
    #: lifecycle name (queued/held/running/finished/failed/cancelled/
    #: timed-out) -> native job state; personalities without a held or
    #: timed-out state leave those out
    STATES: Dict[str, Any] = {}
    #: environment variable carrying the job id into a script payload
    jobid_env = ""

    def __init__(self, sim: Simulator, head_name: str,
                 first_jobid: int = 1) -> None:
        self.sim = sim
        self.head_name = head_name
        self.nodes: Dict[str, Any] = {}
        self.jobs: Dict[Any, Any] = {}
        #: queued (and held) job ids in dispatch order
        self.queue_order: List[Any] = []
        #: Monotonic counter bumped on every externally visible mutation
        #: (submit/hold/release/start/finish/node state change).  Renders
        #: and detector reports are cached keyed on this epoch: an
        #: unchanged epoch guarantees byte-identical command output, so
        #: idle control cycles cost O(1).
        self.mutation_epoch: int = 0
        #: jobs currently running (state bucket; avoids scanning self.jobs)
        self._running: Dict[Any, Any] = {}
        #: online records in ``self.nodes`` order; node state changes
        #: reset it, job churn (the hot path) leaves it valid
        self._online_cache: Optional[List[Any]] = None
        #: free-core buckets over every node record
        self._index = NodeIndex()
        self._max_cores = 0
        self._total_cores = 0
        self._node_os: Dict[str, Any] = {}  # native hostname -> OSInstance
        self._runners: Dict[Any, Any] = {}  # job id -> Process
        self._walltime_entries: Dict[Any, Any] = {}  # job id -> timer entry
        self._seq = first_jobid
        self._queued = self.STATES["queued"]
        self._held = self.STATES.get("held")
        self._running_state = self.STATES["running"]
        #: Optional :class:`repro.trace.Tracer` — set by the middleware.
        self.tracer: Any = None
        #: node-failure recovery policy (middleware copies config here)
        self.max_job_restarts = 3
        self.checkpoint_interval_s: Optional[float] = None
        self.requeues = 0
        self.jobs_failed_on_fence = 0
        #: observers: fn(event, job) with events
        #: submitted/started/finished/requeued
        self.observers: List[Callable[[str, Any], None]] = []
        #: node observers: fn(event, hostname as passed in) with events
        #: ``join_event``/``leave_event``
        self.node_observers: List[Callable[[str, str], None]] = []

    # -- node table ------------------------------------------------------------

    def _host(self, hostname: str) -> str:
        """The node-table key for *hostname*."""
        return hostname

    def _register(self, record: Any, cores: int) -> Any:
        if record.hostname in self.nodes:
            raise SchedulerError(f"node {record.hostname} already defined")
        if cores < 1:
            raise SchedulerError(
                f"node {record.hostname} needs at least 1 core, got {cores}"
            )
        self.nodes[record.hostname] = record
        self._max_cores = max(self._max_cores, cores)
        self._total_cores += cores
        self._index.add(record, cores)
        self._online_cache = None
        self.mutation_epoch += 1
        return record

    def node(self, hostname: str) -> Any:
        host = self._host(hostname)
        try:
            return self.nodes[host]
        except KeyError:
            raise SchedulerError(f"unknown node {host}") from None

    def _node_changed(self, record: Any) -> None:
        self._index.reindex(record)
        self._online_cache = None
        self.mutation_epoch += 1

    def join_node(self, hostname: str, os_instance: object = None) -> None:
        """The node's scheduler agent registered: it joins the free pool."""
        record = self.node(hostname)
        # a node that crashed and rebooted before the monitor fenced it
        # comes back with its old jobs still booked: recover them first
        stranded = record.jobs_here()
        record.mark_up(self.sim.now)
        self._node_changed(record)
        if os_instance is not None:
            self._node_os[record.hostname] = os_instance
        for job_id in stranded:
            job = self.jobs.get(job_id)
            if job is not None and job.state is self._running_state:
                self._recover(job, cause="node returned after crash")
        for observer in self.node_observers:
            observer(self.join_event, hostname)
        self._try_schedule()

    def _take_down(self, record: Any, hostname: str) -> List[Any]:
        """Mark *record* down; returns the ids of the jobs it held."""
        victims = record.jobs_here()
        record.mark_down(self.sim.now)
        self._node_changed(record)
        self._node_os.pop(record.hostname, None)
        for observer in self.node_observers:
            observer(self.leave_event, hostname)
        return victims

    def leave_node(self, hostname: str) -> None:
        """The agent vanished (reboot/crash): kill its jobs, mark it down."""
        for job_id in self._take_down(self.node(hostname), hostname):
            runner = self._runners.get(job_id)
            if runner is not None:
                runner.interrupt("node down")

    # -- node failure & recovery ---------------------------------------------

    # reprolint: disable=TRC002 -- the hardware layer emits node.crash at this same instant; the transition is already traced
    def node_crashed(self, hostname: str) -> None:
        """Hard node death: freeze its jobs where they stand.

        Called the instant the power goes (the hardware layer's crash
        hook), *before* anyone decides the node is gone for good.  The
        runners are killed — a dead node computes nothing — and each
        victim records when it stopped making progress, so the lost-work
        accounting at fence time charges only real compute.  The node
        record itself is left alone: the scheduler has not *observed* the
        death yet; that is the health monitor's call.
        """
        record = self.nodes.get(self._host(hostname))
        if record is None:
            return
        for job_id in record.jobs_here():
            job = self.jobs.get(job_id)
            if job is None or job.state is not self._running_state:
                continue
            if job.interrupted_at is None:
                job.interrupted_at = self.sim.now
            runner = self._runners.get(job_id)
            if runner is not None and runner.alive:
                runner.kill()

    def fence_node(
        self, hostname: str, cause: str = "node fenced"
    ) -> Dict[str, List[Any]]:
        """The health monitor declared the node dead: evict and recover.

        Marks the node down, then requeues every rerunnable victim (with
        retry budget left) and terminally fails the rest.  Returns
        ``{"requeued": [...], "failed": [...]}`` so the caller can abort
        dependent work (e.g. switch orders tied to failed jobs).
        """
        out: Dict[str, List[Any]] = {"requeued": [], "failed": []}
        record = self.nodes.get(self._host(hostname))
        if record is None:
            return out
        for job_id in self._take_down(record, hostname):
            job = self.jobs.get(job_id)
            if job is None or job.state is not self._running_state:
                continue
            out[self._recover(job, cause)].append(job_id)
        self._try_schedule()
        return out

    def cordon_node(self, hostname: str) -> None:
        """Admin cordon: no new placements, running jobs keep running."""
        record = self.node(hostname)
        record.cordon(self.sim.now)
        self._node_changed(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.cordoned", node=record.hostname, scheduler=self.kind
            )

    def uncordon_node(self, hostname: str) -> None:
        record = self.node(hostname)
        record.uncordon(self.sim.now)
        self._node_changed(record)
        if self.tracer is not None:
            self.tracer.emit(
                "node.uncordoned", node=record.hostname, scheduler=self.kind
            )
        self._try_schedule()

    def drain_node(self, hostname: str) -> List[str]:
        """Cordon *hostname*; returns the job ids still running there."""
        running = [str(job_id) for job_id in self.node(hostname).jobs_here()]
        self.cordon_node(hostname)
        return running

    def _recover(self, job: Any, cause: str) -> str:
        """Evict one running job from a dead node: requeue or fail.

        Returns ``"requeued"`` or ``"failed"``.  The checkpoint model
        credits ``floor(elapsed / interval) * interval`` seconds as
        durable; the remainder is lost work, and all elapsed time is
        charged against the time limit either way (the queue cannot
        tell how much of a vanished job's run was saved).
        """
        runner = self._runners.pop(job.job_id, None)
        if runner is not None and runner.alive:
            runner.kill()
        entry = self._walltime_entries.pop(job.job_id, None)
        if entry is not None:
            self.sim.cancel(entry)
        stopped_at = (
            job.interrupted_at if job.interrupted_at is not None else self.sim.now
        )
        started_at = job.start_time if job.start_time is not None else stopped_at
        elapsed = max(0.0, stopped_at - started_at)
        job.interrupted_at = None
        interval = self.checkpoint_interval_s
        durable = 0.0
        if interval is not None and interval > 0:
            durable = (elapsed // interval) * interval
            if job.runtime_s is not None:
                durable = min(
                    durable, max(0.0, job.runtime_s - job.checkpointed_s)
                )
        job.walltime_used_s += elapsed
        self._release(job)
        self._unbind(job)
        self.mutation_epoch += 1
        if job.rerunnable and job.restarts < self.max_job_restarts:
            job.restarts += 1
            job.checkpointed_s += durable
            job.lost_work_s += elapsed - durable
            job.state = self._queued
            job.start_time = None
            self._requeue(job)
            self.requeues += 1
            self._lifecycle(
                "job.requeued", job, cause=cause,
                restarts=job.restarts,
                lost_s=elapsed - durable,
                checkpointed_s=job.checkpointed_s,
            )
            return "requeued"
        job.lost_work_s += elapsed
        self.jobs_failed_on_fence += 1
        suffix = (
            "not rerunnable" if not job.rerunnable else "retry budget exhausted"
        )
        self._finish(job, "failed", KILLED_EXIT_STATUS,
                     cause=f"{cause} ({suffix})")
        return "failed"

    def _node_alive(self, job: Any) -> bool:
        """Whether the agent hosting *job* is still actually running.

        Unit setups that join nodes without an OS model have no handle;
        they count as alive (nothing there can crash silently).
        """
        os_instance = self._node_os.get(self._hosts_of(job)[0])
        if os_instance is None:
            return True
        return bool(getattr(os_instance, "running", True))

    # -- job intake ----------------------------------------------------------

    def _admit(self, job: Any) -> None:
        """Enter a freshly built native job into the table and queue."""
        self.jobs[job.job_id] = job
        self._enqueue(job)
        self.mutation_epoch += 1
        self._lifecycle("job.submitted", job, **self._submit_fields(job))
        self._try_schedule()

    def _enqueue(self, job: Any) -> None:
        """Priority queue with FIFO ties: insert after the last job of
        equal or greater priority.  The queue is always sorted
        non-increasing by priority, so scanning from the tail finds the
        slot in O(1) for the common equal-priority case."""
        position = 0
        for index in range(len(self.queue_order) - 1, -1, -1):
            if self.jobs[self.queue_order[index]].priority >= job.priority:
                position = index + 1
                break
        self.queue_order.insert(position, job.job_id)

    def _requeue(self, job: Any) -> None:
        """Reinsert by (priority, submission order): a requeued job rejoins
        where its original position puts it, not at the back of its band."""
        position = 0
        for index in range(len(self.queue_order) - 1, -1, -1):
            other = self.jobs[self.queue_order[index]]
            if other.priority > job.priority or (
                other.priority == job.priority
                and other.seq_number < job.seq_number
            ):
                position = index + 1
                break
        self.queue_order.insert(position, job.job_id)

    def cancel(self, job_id: Any) -> None:
        """Cancel a job (queued: dropped; running: killed)."""
        job = self._get(job_id)
        if job.state is self._queued or job.state is self._held:
            self.queue_order.remove(job_id)
            self._finish(job, "cancelled", KILLED_EXIT_STATUS)
        elif job.state is self._running_state:
            runner = self._runners.get(job_id)
            if runner is not None:
                runner.interrupt("cancelled")
        else:
            raise SchedulerError(
                f"{job_id} is not active (state {job.state.value})"
            )

    def cancel_if_queued(self, jobid: str) -> bool:
        job = self.get_job(jobid)
        if job is not None and job.state is self._queued:
            self.cancel(job.job_id)
            return True
        return False

    # -- queries ----------------------------------------------------------------

    def _get(self, job_id: Any) -> Any:
        try:
            return self.jobs[job_id]
        except KeyError:
            raise SchedulerError(f"unknown job {job_id}") from None

    def get_job(self, jobid: str) -> Optional[Any]:
        try:
            return self.jobs.get(int(jobid))
        except ValueError:
            return None

    def queued_jobs(self) -> List[Any]:
        """Queued jobs in dispatch order."""
        return [self.jobs[j] for j in self.queue_order]

    def running_jobs(self) -> List[Any]:
        # The _running bucket is keyed by start order; priorities and late
        # releases start jobs out of submission order, so sort by sequence
        # number for a stable view.
        return sorted(self._running.values(), key=lambda j: j.seq_number)

    def pending_switch_jobs(self) -> int:
        """Switch jobs currently queued (not held) or running."""
        queued = sum(
            1 for job in self.queued_jobs()
            if job.tag == SWITCH_TAG and job.state is self._queued
        )
        return queued + sum(
            1 for job in self._running.values() if job.tag == SWITCH_TAG
        )

    def _online(self) -> List[Any]:
        cache = self._online_cache
        if cache is None:
            cache = [r for r in self.nodes.values() if r.online]
            self._online_cache = cache
        return cache

    # reprolint: disable=TRC002 -- read-only query; reaches the memoised _online_cache rebuild through _online()
    def online_nodes(self) -> List[Any]:
        return self._online().copy()

    # reprolint: disable=TRC002 -- read-only query; reaches the memoised _online_cache rebuild through _online()
    def idle_nodes(self) -> List[Any]:
        return [r for r in self._online() if r.idle]

    def idle_node_count(self) -> int:
        return self._index.idle_count()

    # reprolint: disable=TRC002 -- read-only query; reaches the memoised _online_cache rebuild through _online()
    def online_node_count(self) -> int:
        return len(self._online())

    def free_cores(self) -> int:
        return self._index.free_cores()

    def node_idle(self, hostname: str) -> bool:
        record = self.nodes.get(self._host(hostname))
        return record is not None and record.idle

    # -- scheduling & execution -------------------------------------------------

    def _place(self, job: Any) -> Optional[Placement]:
        """Where *job* would run now: ``[(record, cores), ...]`` or None.

        The default places ``job.nodes`` × ``job.ppn`` through the index.
        The variant harness patches the reference ``allocate_fifo`` scan
        over this method to prove the index changes nothing.
        """
        return self._index.allocate_fifo(job)

    def _try_schedule(self) -> None:
        """Head-of-line FIFO: the first job that is not held blocks
        everything behind it until it fits (held jobs keep their place
        but do not block)."""
        while True:
            for job_id in self.queue_order:
                job = self.jobs[job_id]
                if job.state is self._held:
                    continue
                placement = self._place(job)
                if placement is None:
                    return
                self.queue_order.remove(job_id)
                self._start(job, placement)
                break
            else:
                return

    def _bind(self, job: Any, record: Any, cores: int) -> None:
        """Allocate *cores* of *record* to *job* and note it on the job."""
        record.allocate(job.job_id, cores)
        job.allocation[record.hostname] = cores

    def _hosts_of(self, job: Any) -> List[str]:
        """Native hostnames *job* holds cores on, in placement order."""
        return list(job.allocation)

    def _unbind(self, job: Any) -> None:
        job.allocation.clear()

    def _release(self, job: Any) -> None:
        for host in self._hosts_of(job):
            record = self.nodes[host]
            record.release(job.job_id)
            self._index.reindex(record)
        self._running.pop(job.job_id, None)

    def _start(self, job: Any, placement: Placement) -> None:
        job.state = self._running_state
        job.start_time = self.sim.now
        for record, cores in placement:
            self._bind(job, record, cores)
            self._index.reindex(record)
        self._running[job.job_id] = job
        self.mutation_epoch += 1
        self._runners[job.job_id] = self.sim.spawn(
            self._run(job), name=f"{self.record_key_prefix}job:{job.job_id}"
        )
        self._lifecycle("job.started", job,
                        hosts=list(job.allocation_by_host()))

    def _time_limit(self, job: Any) -> Optional[float]:
        """The job's time limit in seconds, or ``None`` for no limit."""
        return None

    def _run(self, job: Any) -> Iterator[Any]:
        # time-limit enforcement: an armed timer interrupts the runner; a
        # requeued job restarts with only its *remaining* budget (lost
        # work was charged back in _recover)
        limit = self._time_limit(job)
        if limit is not None:
            job_id = job.job_id

            def enforce() -> None:
                runner = self._runners.get(job_id)
                if runner is not None:
                    runner.interrupt("walltime")

            self._walltime_entries[job_id] = self.sim.schedule(
                max(0.0, limit - job.walltime_used_s), enforce
            )
        try:
            if not self._node_alive(job):
                # placed onto a node that silently died: nothing runs
                # there, nothing ever completes — park until the health
                # monitor fences the node and this runner is killed
                yield Event(self.sim)
            if job.script is not None:
                os_instance = self._node_os.get(self._hosts_of(job)[0])
                exit_code = 1
                if os_instance is not None:
                    result = yield from run_script(
                        os_instance, job.script, env=self._script_env(job)
                    )
                    exit_code = result.exit_code
            else:
                remaining = job.runtime_s if job.runtime_s is not None else 0.0
                yield Timeout(max(0.0, remaining - job.checkpointed_s))
                exit_code = 0
            outcome = "finished" if exit_code == 0 else "failed"
        except Interrupt as interrupt:
            if interrupt.cause == "walltime":
                outcome, exit_code = "timed-out", WALLTIME_EXIT_STATUS
            else:
                outcome, exit_code = "cancelled", KILLED_EXIT_STATUS
        self._finish(job, outcome, exit_code)

    def _script_env(self, job: Any) -> Dict[str, str]:
        return {self.jobid_env: job.key}

    def _finish(self, job: Any, outcome: str, exit_code: int,
                cause: Optional[str] = None) -> None:
        """Settle *job* in the native state for lifecycle *outcome*.

        A *cause* marks an abnormal end the scheduler itself decided
        (traced ``job.failed``); everything else traces ``job.finished``.
        """
        job.state = self.STATES[outcome]
        job.end_time = self.sim.now
        # Release only the nodes the job actually ran on — a sweep over
        # every node made each completion O(cluster size).
        self._release(job)
        self.mutation_epoch += 1
        self._runners.pop(job.job_id, None)
        entry = self._walltime_entries.pop(job.job_id, None)
        if entry is not None:
            self.sim.cancel(entry)
        self._lifecycle(
            "job.finished" if cause is None else "job.failed", job,
            cause=cause, **self._exit_fields(job, exit_code),
        )
        if job.on_complete is not None:
            job.on_complete(job)
        self._try_schedule()

    # -- lifecycle funnel --------------------------------------------------------

    def _submit_fields(self, job: Any) -> Dict[str, Any]:
        """Trace fields describing a submitted job's demand."""
        return {"cores": job.total_cores}

    def _exit_fields(self, job: Any, exit_code: int) -> Dict[str, Any]:
        """Record how *job* ended; returns the trace fields saying so."""
        return {"state": job.state.value}

    def _lifecycle(self, kind: str, job: Any, cause: Optional[str] = None,
                   **fields: Any) -> None:
        """Trace one job transition and tell the observers about it."""
        if self.tracer is not None:
            self.tracer.emit(
                kind, cause=cause, scheduler=self.kind, jobid=job.job_id,
                **fields,
            )
        event = _OBSERVED.get(kind)
        if event is not None:
            for observer in self.observers:
                observer(event, job)
