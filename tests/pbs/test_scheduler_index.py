"""NodeIndex ≡ reference scheduler — the property the scale path rests on.

The scheduler core places jobs through :class:`repro.sched.index.NodeIndex`
(persistent free-core buckets); the module-level ``allocate_fifo`` and
``allocate_packed`` are the readable O(n log n) references.  These
properties hold the two equal on arbitrary node tables and mutation
sequences — any divergence would silently change every experiment's
trace, so the tests compare *placements* (exact hosts, in order), not
just feasibility.  The index's remembered state (the free-core total,
the idle count and the memo of failed shapes) is checked against values
recomputed from the records after every step.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulerError
from repro.pbs.job import PbsJob
from repro.pbs.nodes import PbsNodeRecord, PbsNodeState
from repro.sched import SCHEDULER_KINDS, create_scheduler
from repro.sched.index import NodeIndex, allocate_fifo, allocate_packed
from repro.simkernel import Simulator
from repro.slurm.nodestate import SlurmNodeRecord
from repro.winhpc.nodestate import WinNodeRecord


def _make_nodes(specs):
    """specs: list of (np, occupied, state) -> ({host: record}, NodeIndex)."""
    nodes = {}
    index = NodeIndex()
    for i, (np, occupied, state) in enumerate(specs):
        record = PbsNodeRecord(hostname=f"n{i:02d}", np=np)
        record.mark_up(0.0)
        if occupied:
            record.allocate(f"pre{i}.head", min(occupied, np))
        if state is not PbsNodeState.FREE:
            record.state = state
        nodes[record.hostname] = record
        index.add(record, np)
    return nodes, index


def _make_jobs(shapes):
    return [
        PbsJob(job_id=f"{i + 1}.head", name=f"j{i}", owner="u",
               submit_time=0.0, nodes=n, ppn=p)
        for i, (n, p) in enumerate(shapes)
    ]


node_specs = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=8),           # np
        st.integers(min_value=0, max_value=8),           # occupied cores
        st.sampled_from([PbsNodeState.FREE, PbsNodeState.FREE,
                         PbsNodeState.DOWN, PbsNodeState.OFFLINE]),
    ),
    min_size=0,
    max_size=12,
)


def _hosts(placement):
    return None if placement is None else [
        (record.hostname, ppn) for record, ppn in placement
    ]


@settings(max_examples=120)
@given(specs=node_specs, shape=st.tuples(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=8),
))
def test_allocate_fifo_matches_reference(specs, shape):
    nodes, index = _make_nodes(specs)
    job = _make_jobs([shape])[0]
    assert _hosts(index.allocate_fifo(job)) == _hosts(
        allocate_fifo(job, nodes)
    )


# -- remembered state: totals, idle count, the shape-miss memo ---------------

RECORD_TYPES = {
    "pbs": lambda host, cores: PbsNodeRecord(hostname=host, np=cores),
    "win": lambda host, cores: WinNodeRecord(hostname=host, cores=cores),
    "slurm": lambda host, cores: SlurmNodeRecord(hostname=host, cores=cores),
}

#: every (nodes, ppn) shape the mutation test asks after each step
SHAPES = [(n, p) for n in range(1, 4) for p in range(1, 9)]


def _cores_of(record):
    return record.np if isinstance(record, PbsNodeRecord) else record.cores


def _check_against_records(index, nodes):
    """Every remembered value equals the one recomputed from the records."""
    free = sum(r.available_cores for r in nodes.values())
    assert index.free_cores() == free
    assert index.idle_count() == sum(1 for r in nodes.values() if r.idle)
    for job in _make_jobs(SHAPES):
        expected = _hosts(allocate_fifo(job, nodes))
        # the second ask is answered from the memo after a miss
        assert _hosts(index.allocate_fifo(job)) == expected
        assert _hosts(index.allocate_fifo(job)) == expected
    for amount in range(1, free + 2):
        assert _hosts(index.allocate_packed(amount)) == _hosts(
            allocate_packed(amount, nodes)
        )


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(RECORD_TYPES)),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["add", "allocate", "allocate", "release",
                             "release", "down", "up", "cordon",
                             "uncordon"]),
            st.integers(min_value=0, max_value=7),   # node pick (mod len)
            st.integers(min_value=1, max_value=8),   # cores / job pick
        ),
        max_size=30,
    ),
)
def test_index_stays_equivalent_under_mutations(kind, ops):
    """reindex() after arbitrary add/allocate/release/down/up/cordon
    sequences keeps free_cores(), idle_count() and every placement
    (memoised or not) equal to a fresh reference scan of the records."""
    make = RECORD_TYPES[kind]
    nodes = {}
    index = NodeIndex()
    seq = 0
    for op, pick, amount in [("add", 0, 4)] + ops:
        if op == "add":
            record = make(f"n{len(nodes):02d}", amount)
            record.mark_up(0.0)
            nodes[record.hostname] = record
            index.add(record, _cores_of(record))
        else:
            hostnames = sorted(nodes)
            record = nodes[hostnames[pick % len(hostnames)]]
            if op == "allocate":
                if record.available_cores >= amount:
                    seq += 1
                    record.allocate(f"m{seq}", amount)
            elif op == "release":
                held = record.jobs_here()
                if held:
                    record.release(held[amount % len(held)])
            elif op == "down":
                record.mark_down(0.0)
            elif op == "up":
                record.mark_up(0.0)
            elif op == "cordon":
                record.cordon(0.0)
            else:
                record.uncordon(0.0)
            index.reindex(record)
        _check_against_records(index, nodes)


@pytest.mark.parametrize("kind", sorted(RECORD_TYPES))
def test_memoised_miss_clears_when_one_core_frees(kind):
    """A shape that failed stays failed while availability only falls,
    and is asked afresh as soon as one node gains a single core."""
    make = RECORD_TYPES[kind]
    nodes = {}
    index = NodeIndex()
    for host in ("n00", "n01"):
        record = make(host, 4)
        record.mark_up(0.0)
        record.allocate(f"{host}-big", 3)
        nodes[host] = record
        index.add(record, 4)
    nodes["n01"].allocate("n01-one", 1)
    index.reindex(nodes["n01"])
    pair = _make_jobs([(2, 1)])[0]
    assert index.allocate_fifo(pair) is None
    assert (2, 1) in index._misses
    # a fall keeps the miss
    nodes["n00"].allocate("n00-one", 1)
    index.reindex(nodes["n00"])
    assert (2, 1) in index._misses
    assert index.allocate_fifo(pair) is None
    # one core back on n01 clears the memo; the pair still misses there
    nodes["n01"].release("n01-one")
    index.reindex(nodes["n01"])
    assert not index._misses
    assert index.allocate_fifo(pair) is None
    assert _hosts(index.allocate_fifo(_make_jobs([(1, 1)])[0])) == [("n01", 1)]
    # and one core back on n00 places it
    nodes["n00"].release("n00-one")
    index.reindex(nodes["n00"])
    assert _hosts(index.allocate_fifo(pair)) == [("n01", 1), ("n00", 1)]
    _check_against_records(index, nodes)


@pytest.mark.parametrize("kind", SCHEDULER_KINDS)
def test_a_node_without_cores_is_rejected(kind):
    """The idle count reads "availability equals the full core count",
    which needs every node to have at least one core."""
    scheduler = create_scheduler(kind, Simulator(), head_name="head.test")
    with pytest.raises(SchedulerError):
        if kind == "pbs":
            scheduler.create_node("n01", np=0)
        else:
            scheduler.add_node("n01", cores=0)
    assert scheduler.nodes == {}
