"""Free-core placement: the persistent index and its reference scan.

The paper states the control daemons assume plain first-come first-serve
(§V: "the daemons for queue monitoring are still following the rule
'first-come first-serve'"), so the core's default placement is strict
FCFS with head-of-line blocking and **no backfill**: if the oldest
queued job cannot be placed, nothing behind it runs.  That head-of-line
blocking is exactly what makes a queue look "stuck" to the detector when
all nodes sit in the other operating system.

A job asks for ``job.nodes`` distinct nodes × ``job.ppn`` cores each;
candidate nodes are taken from the **highest** hostname down — TORQUE's
nodes-file order, visible in Figure 8 where a 1-node job lands on
``node16``.  Records need only ``hostname``, ``online`` and
``available_cores`` (0 unless the node is online), so the same index
places PBS and SLURM jobs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Tuple

#: ``[(record, cores), ...]``: where a job runs
Placement = List[Tuple[Any, int]]


def allocate_fifo(job: Any, nodes: Dict[str, Any]) -> Optional[Placement]:
    """Place *job* by scanning the whole node table, or return ``None``.

    This is the *reference* implementation: :class:`NodeIndex` below is
    the O(buckets) hot path the scheduler core actually uses, and the
    property tests in ``tests/pbs/test_scheduler_index.py`` (and the
    variant harness, which patches this scan over
    ``SchedulerCore._place``) hold the two equal.
    """
    candidates = [
        record
        for _, record in sorted(nodes.items(), reverse=True)  # perf: cold-path reference
        if record.online and record.available_cores >= job.ppn
    ]
    if len(candidates) < job.nodes:
        return None
    return [(record, job.ppn) for record in candidates[: job.nodes]]


class NodeIndex:
    """Persistent free-core buckets over the node table.

    The reference allocator above re-sorts the whole node table on every
    call; at 1024 nodes that sort dominates the simulation.  The index
    keeps, for each distinct ``available_cores`` value, the hostnames at
    that level in an **ascending** sorted list (walked backwards to get
    TORQUE's highest-hostname-first order).  A node moves buckets only
    when its availability changes (:meth:`reindex`), so an allocation
    touches O(job.nodes × buckets) entries instead of O(nodes log nodes).

    Equivalence with the reference filter: a job needs ``ppn >= 1`` cores
    per node, and offline nodes report ``available_cores == 0``, so the
    reference's ``online`` check is subsumed by the
    ``available_cores >= ppn`` bucket cut — the index never has to look
    at node state at all.
    """

    def __init__(self) -> None:
        self._records: Dict[str, Any] = {}
        #: hostname -> the available_cores value it is bucketed under
        self._avail: Dict[str, int] = {}
        #: available_cores -> ascending hostnames at that level
        self._buckets: Dict[int, List[str]] = {}

    def add(self, record: Any) -> None:
        """Register a new node (its current availability is indexed)."""
        host = record.hostname
        self._records[host] = record
        cores = record.available_cores
        self._avail[host] = cores
        insort(self._buckets.setdefault(cores, []), host)

    def reindex(self, record: Any) -> None:
        """Move *record* to the bucket matching its current availability.

        Must be called after every mutation that can change
        ``available_cores`` (allocate/release/mark_up/mark_down/cordon).
        A record the index has not seen yet is added.
        """
        host = record.hostname
        old = self._avail.get(host)
        if old is None:
            self.add(record)
            return
        new = record.available_cores
        if old == new:
            return
        bucket = self._buckets[old]
        del bucket[bisect_left(bucket, host)]
        if not bucket:
            del self._buckets[old]
        self._avail[host] = new
        insort(self._buckets.setdefault(new, []), host)

    def free_cores(self) -> int:
        """Total available cores (offline nodes sit in bucket 0)."""
        return sum(cores * len(hosts) for cores, hosts in self._buckets.items())

    def allocate_fifo(self, job: Any) -> Optional[Placement]:
        """Indexed equivalent of module-level :func:`allocate_fifo`.

        A k-way backwards merge over the (few) buckets whose core level
        satisfies ``job.ppn`` — identical order to the reference's
        ``sorted(..., reverse=True)`` scan restricted to qualifying hosts.
        """
        count = job.nodes
        eligible = [
            hosts for cores, hosts in self._buckets.items() if cores >= job.ppn
        ]
        if sum(len(hosts) for hosts in eligible) < count:
            return None
        ptrs = [len(hosts) - 1 for hosts in eligible]
        placement: Placement = []
        while len(placement) < count:
            best = -1
            best_host = ""
            for i, hosts in enumerate(eligible):
                p = ptrs[i]
                if p >= 0 and hosts[p] > best_host:
                    best = i
                    best_host = hosts[p]
            ptrs[best] -= 1
            placement.append((self._records[best_host], job.ppn))
        return placement
