"""SLURM controller scheduling: EASY backfill, request shaping, priority.

Pins the controller's own scheduling decisions (the parts no other
personality shares) through its public surface: ``submit`` and the
queue/job views.  Every node has 4 cpus.
"""

import pytest

from repro.simkernel import Simulator
from repro.slurm import SlurmController, SlurmJobSpec, SlurmJobState


@pytest.fixture()
def sim():
    return Simulator()


def build(sim, num_nodes):
    controller = SlurmController(sim)
    for i in range(1, num_nodes + 1):
        controller.add_node(f"n{i:02d}", cores=4)
        controller.node_online(f"n{i:02d}")
    return controller


def spec(name, cpus=0, nodes=0, ppn=0, runtime=None, limit=None, **kw):
    return SlurmJobSpec(name=name, cpus=cpus, nodes=nodes, ppn=ppn,
                        runtime_s=runtime, time_limit_s=limit, **kw)


def pending_names(controller):
    return [job.name for job in controller.queued_jobs()]


# -- EASY backfill ------------------------------------------------------------


def test_backfill_admits_only_jobs_ending_before_the_shadow_time(sim):
    controller = build(sim, 2)
    # one node full until 600 s, the other half full for an hour
    full = controller.submit(spec("full", nodes=1, ppn=4, runtime=500.0,
                                  limit=600.0))
    half = controller.submit(spec("half", cpus=2, runtime=3000.0,
                                  limit=3600.0))
    head = controller.submit(spec("head", cpus=4, runtime=100.0))
    # 2 cpus are free now, but 0 + 900 s overruns the head's 600 s shadow
    late = controller.submit(spec("late", cpus=2, runtime=800.0, limit=900.0))
    # 0 + 300 s ends before the shadow: backfilled at once
    short = controller.submit(spec("short", cpus=2, runtime=200.0,
                                   limit=300.0))
    assert full.state is SlurmJobState.RUNNING
    assert half.state is SlurmJobState.RUNNING
    assert head.state is SlurmJobState.PENDING
    assert short.state is SlurmJobState.RUNNING
    assert short.start_time == 0.0
    assert late.state is SlurmJobState.PENDING
    assert pending_names(controller) == ["head", "late"]

    sim.run(until=499.0)
    # short finished at 200 s; late still may not run past the shadow
    assert short.state is SlurmJobState.COMPLETED
    assert late.state is SlurmJobState.PENDING
    sim.run()
    assert head.start_time == 500.0
    assert late.start_time == 500.0
    assert all(job.state is SlurmJobState.COMPLETED
               for job in (full, half, head, late, short))


def test_backfill_refuses_a_job_without_any_limit_behind_a_shadow(sim):
    controller = build(sim, 1)
    controller.submit(spec("busy", cpus=2, runtime=100.0, limit=600.0))
    head = controller.submit(spec("head", cpus=4, runtime=10.0))
    open_ended = controller.submit(
        spec("open", cpus=2, script="echo hi")
    )
    assert head.state is SlurmJobState.PENDING
    assert open_ended.state is SlurmJobState.PENDING
    sim.run()
    assert head.start_time == 100.0
    assert open_ended.start_time == 110.0


def test_backfill_is_unrestricted_when_no_shadow_time_exists(sim):
    controller = build(sim, 2)
    controller.cordon_node("n02")
    busy = controller.submit(spec("busy", cpus=2, runtime=1000.0,
                                  limit=1000.0))
    # needs both nodes whole: no release of running work can ever fit it
    head = controller.submit(spec("head", nodes=2, ppn=4, runtime=10.0))
    long = controller.submit(spec("long", cpus=2, runtime=5000.0,
                                  limit=10_000.0))
    assert busy.state is SlurmJobState.RUNNING
    assert head.state is SlurmJobState.PENDING
    assert long.state is SlurmJobState.RUNNING
    assert long.start_time == 0.0


# -- request shaping -----------------------------------------------------------


def shape(job):
    return job.nodes, job.ppn


def test_flat_request_packs_onto_one_node_when_it_fits(sim):
    controller = build(sim, 4)
    assert shape(controller.submit(spec("a", cpus=3, runtime=1.0))) == (1, 3)
    assert shape(controller.submit(spec("b", cpus=4, runtime=1.0))) == (1, 4)


def test_flat_request_takes_the_least_waste_shape(sim):
    controller = build(sim, 4)
    # 6 cpus: 2x4 wastes 2, 2x3 and 3x2 waste nothing -> fewest nodes
    assert shape(controller.submit(spec("six", cpus=6, runtime=1.0))) == (2, 3)
    # 7 cpus: 2x4 and 4x2 both waste 1 -> fewest nodes
    assert shape(controller.submit(spec("seven", cpus=7, runtime=1.0))) == (
        2, 4
    )
    # 9 cpus: 3x3 is exact, 3x4 wastes 3
    assert shape(controller.submit(spec("nine", cpus=9, runtime=1.0))) == (
        3, 3
    )


def test_explicit_node_count_keeps_its_shape(sim):
    controller = build(sim, 4)
    assert shape(controller.submit(spec("whole", nodes=2, runtime=1.0))) == (
        2, 4
    )
    assert shape(
        controller.submit(spec("exact", nodes=3, ppn=1, runtime=1.0))
    ) == (3, 1)


# -- priority order --------------------------------------------------------------


def test_pending_queue_is_priority_ordered_with_fifo_ties(sim):
    controller = build(sim, 1)
    controller.submit(spec("blocker", cpus=4, runtime=1000.0))
    for name, priority in (("a", 100), ("b", 200), ("c", 100), ("d", 200),
                           ("e", 50)):
        controller.submit(spec(name, cpus=4, runtime=10.0, priority=priority))
    assert pending_names(controller) == ["b", "d", "a", "c", "e"]
    sim.run()
    starts = sorted(controller.jobs.values(), key=lambda j: j.start_time)
    assert [job.name for job in starts] == [
        "blocker", "b", "d", "a", "c", "e"
    ]


def test_requeued_job_rejoins_its_priority_band(sim):
    controller = build(sim, 2)
    first = controller.submit(spec("first", cpus=4, runtime=1000.0,
                                   priority=200))
    controller.submit(spec("other", cpus=4, runtime=1000.0, priority=100))
    controller.submit(spec("later", cpus=4, runtime=10.0, priority=200))
    controller.submit(spec("low", cpus=4, runtime=10.0, priority=100))
    controller.submit(spec("urgent", cpus=4, runtime=10.0, priority=300))
    assert pending_names(controller) == ["urgent", "later", "low"]
    sim.run(until=50.0)
    victim = next(iter(first.allocation))
    out = controller.fence_node(victim)
    assert out == {"requeued": [first.job_id], "failed": []}
    # ahead of the later-submitted job of its own band, behind the higher
    assert first.state is SlurmJobState.PENDING
    assert pending_names(controller) == ["urgent", "first", "later", "low"]
