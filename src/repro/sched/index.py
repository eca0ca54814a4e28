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

WinHPC ``Core``-unit jobs are placed differently: cores are packed onto
the fullest nodes first (fewest free cores, then hostname ascending),
leaving whole machines idle for ``Node``-unit work.  Both placements
have a readable reference scan here and an indexed hot path on
:class:`NodeIndex`.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Any, Dict, List, Optional, Set, Tuple

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


def allocate_packed(amount: int, nodes: Dict[str, Any]) -> Optional[Placement]:
    """Pack *amount* cores onto the fullest online nodes, or ``None``.

    The *reference* for :meth:`NodeIndex.allocate_packed`: nodes with
    free cores in ascending ``(available_cores, hostname)`` order, each
    giving as many cores as are still needed.  The variant harness
    patches it back under WinHPC's ``Core``-unit placement.
    """
    candidates = sorted(  # perf: cold-path reference
        (r for r in nodes.values() if r.online and r.available_cores > 0),
        key=lambda r: (r.available_cores, r.hostname),
    )
    placement: Placement = []
    for record in candidates:
        take = min(record.available_cores, amount)
        placement.append((record, take))
        amount -= take
        if amount == 0:
            return placement
    return None


class NodeIndex:
    """Persistent free-core buckets over the node table.

    The reference allocator above re-sorts the whole node table on every
    call; at 1024 nodes that sort dominates the simulation.  The index
    keeps, for each distinct ``available_cores`` value, the hostnames at
    that level in an **ascending** sorted list (walked backwards to get
    TORQUE's highest-hostname-first order), plus the levels themselves
    in ascending order.  A node moves buckets only when its availability
    changes (:meth:`reindex`), so an allocation touches
    O(job.nodes × buckets) entries instead of O(nodes log nodes).

    Equivalence with the reference filter: a job needs ``ppn >= 1`` cores
    per node, and offline nodes report ``available_cores == 0``, so the
    reference's ``online`` check is subsumed by the
    ``available_cores >= ppn`` bucket cut — the index never has to look
    at node state at all.

    The index also remembers what it has computed:

    * a running total of free cores, and a count of *idle* nodes, those
      whose availability equals their full core count.  Records report
      ``idle`` exactly when they are up with nothing allocated; down,
      cordoned and draining nodes report 0 available cores, every node
      has at least 1 core and every binding takes at least 1, so the
      count is exact;
    * every ``(nodes, ppn)`` shape :meth:`allocate_fifo` failed to
      place.  A shape fails when fewer than ``nodes`` hosts have
      ``ppn`` free cores, and that count can only grow when some host's
      availability rises, so the misses stay valid until then: any
      :meth:`add`, or a :meth:`reindex` to more free cores, clears them.
    """

    def __init__(self) -> None:
        self._records: Dict[str, Any] = {}
        #: hostname -> the node's full core count
        self._cores: Dict[str, int] = {}
        #: hostname -> the available_cores value it is bucketed under
        self._avail: Dict[str, int] = {}
        #: available_cores -> ascending hostnames at that level
        self._buckets: Dict[int, List[str]] = {}
        #: the keys of ``_buckets``, ascending
        self._levels: List[int] = []
        self._free = 0
        self._idle = 0
        #: (nodes, ppn) shapes that failed since availability last rose
        self._misses: Set[Tuple[int, int]] = set()

    def add(self, record: Any, cores: int) -> None:
        """Register a new node of *cores* cores at its current availability."""
        host = record.hostname
        self._records[host] = record
        self._cores[host] = cores
        self._misses.clear()
        avail = record.available_cores
        self._avail[host] = avail
        self._free += avail
        if avail == cores:
            self._idle += 1
        bucket = self._buckets.get(avail)
        if bucket is None:
            self._buckets[avail] = [host]
            insort(self._levels, avail)
        else:
            insort(bucket, host)

    def reindex(self, record: Any) -> None:
        """Move *record* to the bucket matching its current availability.

        Must be called after every mutation that can change
        ``available_cores`` (allocate/release/mark_up/mark_down/cordon).
        """
        host = record.hostname
        old = self._avail[host]
        new = record.available_cores
        if old == new:
            return
        bucket = self._buckets[old]
        del bucket[bisect_left(bucket, host)]
        if not bucket:
            del self._buckets[old]
            del self._levels[bisect_left(self._levels, old)]
        if new > old:
            self._misses.clear()
        self._avail[host] = new
        self._free += new - old
        full = self._cores[host]
        if old == full:
            self._idle -= 1
        elif new == full:
            self._idle += 1
        bucket = self._buckets.get(new)
        if bucket is None:
            self._buckets[new] = [host]
            insort(self._levels, new)
        else:
            insort(bucket, host)

    def free_cores(self) -> int:
        """Total available cores (offline nodes count 0)."""
        return self._free

    def idle_count(self) -> int:
        """Nodes up with nothing allocated."""
        return self._idle

    def allocate_fifo(self, job: Any) -> Optional[Placement]:
        """Indexed equivalent of module-level :func:`allocate_fifo`.

        A k-way backwards merge over the (few) buckets whose core level
        satisfies ``job.ppn`` — identical order to the reference's
        ``sorted(..., reverse=True)`` scan restricted to qualifying hosts.
        """
        shape = (job.nodes, job.ppn)
        if shape in self._misses:
            return None
        count = job.nodes
        levels = self._levels
        eligible = [
            self._buckets[cores]
            for cores in levels[bisect_left(levels, job.ppn):]
        ]
        if sum(map(len, eligible)) < count:
            self._misses.add(shape)
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

    def allocate_packed(self, amount: int) -> Optional[Placement]:
        """Indexed equivalent of module-level :func:`allocate_packed`.

        Walks the buckets with free cores in ascending level order and
        each bucket's hostnames ascending, which is the reference's
        ``(available_cores, hostname)`` sort order.
        """
        if self._free < amount:
            return None
        placement: Placement = []
        for cores in self._levels:
            if cores == 0:
                continue
            for host in self._buckets[cores]:
                if cores >= amount:
                    placement.append((self._records[host], amount))
                    return placement
                placement.append((self._records[host], cores))
                amount -= cores
        return None
