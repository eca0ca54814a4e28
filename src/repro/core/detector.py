"""Queue-state detectors ("checkqueue", §III.B.3–4).

Definition from the paper: "we define a scheduler is **stuck** when the
scheduler has no job running and several jobs are queuing.  The detector
reads how many compute nodes the first queuing job needs."

One check loop, :class:`QueueDetector`, under per-scheduler scans that
stay faithful to how each side observes its scheduler:

* :class:`PbsDetector` **parses the rendered text** of ``qstat -f``
  (because "PBS does not provide APIs ... Several Perl programs had been
  written for parsing the output of PBS commands");
* :class:`WinHpcDetector` queries the SDK facade, as the original C#
  tool did;
* :class:`~repro.slurm.detector.SlurmDetector` parses ``squeue`` text.

All produce the same :class:`DetectorReport`: the Figure-5 wire message
plus the debug lines of Figure 6.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.core.wire import QueueStateMessage
from repro.pbs.commands import PbsCommands
from repro.sched.protocol import SWITCH_JOB_NAME, SWITCH_TAG
from repro.winhpc.job import WinJobState, WinJobUnit
from repro.winhpc.sdk import HpcSchedulerConnection

#: A scan's running-detail lines, queued count and head job ``(jobid, cpus)``.
#: Switch jobs never count as demand, or each switch would trigger another.
Scan = Tuple[List[str], int, Optional[Tuple[str, int]]]


@dataclass
class DetectorReport:
    """Wire message + the Figure-6 style diagnostic text."""

    message: QueueStateMessage
    running: int
    queued: int
    debug: List[str] = field(default_factory=list)

    @property
    def wire(self) -> str:
        return self.message.encode()

    def text(self) -> str:
        """The full detector stdout (first line is the wire string)."""
        return "\n".join([self.wire] + self.debug)


# -- the shared check loop ----------------------------------------------------


class QueueDetector:
    """One ``checkqueue`` loop shared by every scheduler personality.

    A subclass supplies only :attr:`side`, :meth:`_epoch` (its
    scheduler's ``mutation_epoch``) and :meth:`_scan`.  Reports are
    cached keyed on the epoch: an idle control cycle (no submit, start,
    finish or node change since the last check) re-serves the report in
    O(1) instead of re-rendering and re-parsing the listing.  The
    ``detector.check`` trace event is emitted on every call, cached or
    not — caching must not change the observable trace.

    ``eager=True`` is the §V extension: the CPU field (positions 1–4 of
    the wire, "default 0000") is filled with the head queued job's needs
    even while other jobs run, so an :class:`~repro.core.policy.EagerPolicy`
    can react to backlog without waiting for the queue to empty.  The
    wire format itself is unchanged.
    """

    #: which cluster side this detector reports for
    side: str

    def __init__(
        self,
        eager: bool = False,
        tracer: Optional[Any] = None,
        node_name: Optional[str] = None,
    ) -> None:
        self.eager = eager
        self.tracer = tracer
        self.node_name = node_name
        #: (mutation epoch, report) of the last check
        self._cache: Optional[Tuple[int, DetectorReport]] = None

    def invalidate(self) -> None:
        """Drop the cached report (benchmarks use this to time cold checks)."""
        self._cache = None

    def _epoch(self) -> int:
        raise NotImplementedError

    def _scan(self) -> Scan:
        raise NotImplementedError

    def check(self) -> DetectorReport:
        """One detector run over the scheduler's current queue."""
        epoch = self._epoch()
        cached = self._cache
        if cached is not None and cached[0] == epoch:
            report = cached[1]
        else:
            running_detail, queued, first_queued = self._scan()
            report = _build_report(
                running_detail, queued, first_queued, self.eager
            )
            self._cache = (epoch, report)
        if self.tracer is not None:
            self.tracer.emit(
                "detector.check",
                node=self.node_name,
                side=self.side,
                wire=report.wire,
                running=report.running,
                queued=report.queued,
                stuck=report.message.stuck,
            )
        return report


# -- PBS side (text parsing) ---------------------------------------------------

_JOB_SPLIT_RE = re.compile(r"^Job Id: ", re.MULTILINE)
_FIELD_RE = re.compile(r"^\s{4}(\S+) = (.*)$", re.MULTILINE)
_NODES_RE = re.compile(r"(\d+)(?::ppn=(\d+))?")


#: Deterministic bound on a stanza cache; cleared wholesale when full so
#: behaviour depends only on the parsed text, never on timing.
_STANZA_CACHE_MAX = 16384


def parse_qstat_full(text: str, _cache: Optional[dict] = None) -> List[dict]:
    """Parse ``qstat -f`` text into a list of attribute dicts.

    This is the Perl detector's job, done in Python: nothing here touches
    scheduler objects — only the rendered text.  ``_cache`` (stanza text
    -> parsed attributes) lets a long-lived caller skip the regex work
    for stanzas it has seen before; entries are copied out so callers
    can never corrupt the cache.
    """
    jobs = []
    for chunk in _JOB_SPLIT_RE.split(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        if _cache is not None:
            hit = _cache.get(chunk)
            if hit is not None:
                jobs.append(dict(hit))
                continue
        jobid = chunk.splitlines()[0].strip()
        attributes = {"Job_Id": jobid}
        for match in _FIELD_RE.finditer(chunk):
            attributes[match.group(1)] = match.group(2).strip()
        if _cache is not None:
            if len(_cache) >= _STANZA_CACHE_MAX:
                _cache.clear()
            _cache[chunk] = attributes
            attributes = dict(attributes)
        jobs.append(attributes)
    return jobs


def _required_cpus(attributes: dict) -> int:
    resource = attributes.get("Resource_List.nodes", "1")
    m = _NODES_RE.match(resource)
    if not m:
        return 1
    nodes = int(m.group(1))
    ppn = int(m.group(2)) if m.group(2) else 1
    return nodes * ppn


class PbsDetector(QueueDetector):
    """The OSCAR-side ``checkqueue.pl``: parses ``qstat -f`` text."""

    side = "linux"

    def __init__(
        self,
        commands: PbsCommands,
        eager: bool = False,
        tracer: Optional[Any] = None,
        node_name: Optional[str] = None,
    ) -> None:
        super().__init__(eager, tracer, node_name)
        self.commands = commands
        #: stanza text -> parsed attributes, shared across checks (jobs
        #: rarely change between epochs, their stanzas even less so)
        self._stanza_cache: dict = {}

    def _epoch(self) -> int:
        # an unchanged epoch means byte-identical qstat text
        return self.commands.server.mutation_epoch

    def _scan(self) -> Scan:
        jobs = parse_qstat_full(self.commands.qstat_f(), self._stanza_cache)
        workload = [j for j in jobs if j.get("Job_Name") != SWITCH_JOB_NAME]
        running = [j for j in workload if j.get("job_state") == "R"]
        queued = [j for j in workload if j.get("job_state") == "Q"]
        head = (queued[0]["Job_Id"], _required_cpus(queued[0])) if queued else None
        detail = [
            f"{j['Job_Id']}\n"
            f"        Job_Name={j.get('Job_Name', '?')}\n"
            f"        Job_Ownner={j.get('Job_Owner', '?')}\n"
            f"        state=R"
            for j in running
        ]
        return detail, len(queued), head


# -- Windows side (SDK) -------------------------------------------------------


class WinHpcDetector(QueueDetector):
    """The Windows-side queue fetcher (via the SDK facade)."""

    side = "windows"

    def __init__(
        self,
        connection: HpcSchedulerConnection,
        eager: bool = False,
        tracer: Optional[Any] = None,
        node_name: Optional[str] = None,
    ) -> None:
        super().__init__(eager, tracer, node_name)
        self.connection = connection

    # reprolint: disable=PERF002 -- connect() is one-shot wiring before the sim starts; no check() can observe the swap
    def _epoch(self) -> int:
        return self.connection.mutation_epoch

    def _scan(self) -> Scan:
        running = [
            j
            for j in self.connection.get_job_list(WinJobState.RUNNING)
            if j.tag != SWITCH_TAG
        ]
        queued = [
            j
            for j in self.connection.get_job_list(WinJobState.QUEUED)
            if j.tag != SWITCH_TAG
        ]
        first: Optional[Tuple[str, int]] = None
        if queued:
            head = queued[0]
            cores = head.amount
            if head.unit is WinJobUnit.NODE:
                # Epoch-cached on the connection — historically this
                # walked the whole node table on every check.
                cores = head.amount * self.connection.max_node_cores()
            first = (str(head.job_id), cores)
        return [f"{j.job_id} {j.name} Running" for j in running], len(queued), first


# -- shared report assembly ---------------------------------------------------


def _build_report(
    running_detail: List[str],
    queued: int,
    first_queued: Optional[Tuple[str, int]],
    eager: bool,
) -> DetectorReport:
    running = len(running_detail)
    stuck = running == 0 and queued > 0
    if stuck:
        jobid, cpus = first_queued
        message = QueueStateMessage.stuck_queue(cpus, jobid)
        debug = ["Queue stuck", f"R={running} nR={queued}"]
    elif running > 0:
        if eager and queued > 0:
            # §V extension: advertise the backlog in the CPU field while
            # keeping the stuck flag honest
            jobid, cpus = first_queued
            message = QueueStateMessage(
                stuck=False, needed_cpus=cpus, stuck_jobid=jobid
            )
        else:
            message = QueueStateMessage.idle()
        state_line = (
            "Job running, no queuing." if queued == 0 else "Job running."
        )
        debug = [state_line, f"R={running} nR={queued}"] + running_detail
    else:
        message = QueueStateMessage.idle()
        debug = ["Other state", f"R={running} nR={queued}"]
    return DetectorReport(
        message=message, running=running, queued=queued, debug=debug
    )
