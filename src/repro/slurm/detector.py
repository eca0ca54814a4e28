"""The SLURM-side queue-state detector.

Like the PBS side, SLURM is observed by **parsing rendered text**
(``squeue`` output) rather than querying controller objects — the
detector sees exactly what a shell tool on the head node would see.
It is a :class:`~repro.core.detector.QueueDetector` that contributes
only its epoch and its ``squeue`` scan, so it produces the same wire
message as the other two detectors and the communicator daemons stay
personality-blind.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.core.detector import QueueDetector, Scan
from repro.sched.protocol import SWITCH_JOB_NAME
from repro.slurm.commands import SlurmCommands


def parse_squeue(text: str) -> List[dict]:
    """Parse ``squeue`` text into per-job attribute dicts.

    Column-order parsing over the fixed layout
    ``JOBID PARTITION NAME USER ST TIME NODES CPUS NODELIST(REASON)``
    (job names never contain whitespace in this model).
    """
    jobs: List[dict] = []
    lines = text.splitlines()
    for line in lines[1:]:
        parts = line.split()
        if len(parts) < 9:
            continue
        jobs.append({
            "job_id": parts[0],
            "partition": parts[1],
            "name": parts[2],
            "user": parts[3],
            "state": parts[4],
            "time": parts[5],
            "nodes": int(parts[6]),
            "cpus": int(parts[7]),
            "nodelist": parts[8],
        })
    return jobs


class SlurmDetector(QueueDetector):
    """The ``checkqueue`` run against a SLURM personality.

    The TIME column squeue renders does not affect any report field, so
    an unchanged controller epoch still means an identical report.
    """

    def __init__(
        self,
        commands: SlurmCommands,
        eager: bool = False,
        tracer: Optional[Any] = None,
        node_name: Optional[str] = None,
        side: str = "windows",
    ) -> None:
        super().__init__(eager, tracer, node_name)
        self.commands = commands
        #: the SLURM personality can replace either side's scheduler
        self.side = side

    def _epoch(self) -> int:
        return self.commands.controller.mutation_epoch

    def _scan(self) -> Scan:
        jobs = parse_squeue(self.commands.squeue())
        workload = [j for j in jobs if j["name"] != SWITCH_JOB_NAME]
        running = [j for j in workload if j["state"] == "R"]
        queued = [j for j in workload if j["state"] == "PD"]
        return (
            [f"{j['job_id']} {j['name']} Running" for j in running],
            len(queued),
            (queued[0]["job_id"], queued[0]["cpus"]) if queued else None,
        )
