"""SLURM time limits are enforced, which is what EASY backfill relies on.

A backfilled job is admitted because its *limit* ends before the head
job's shadow time; if the limit were advisory, an overrunning backfill
job would push the head job back past its reservation.
"""

from repro.simkernel import Simulator
from repro.slurm import SlurmController, SlurmJobSpec, SlurmJobState


def build(num_nodes=1):
    sim = Simulator()
    controller = SlurmController(sim)
    for i in range(1, num_nodes + 1):
        controller.add_node(f"n{i:02d}", cores=4)
        controller.node_online(f"n{i:02d}")
    return sim, controller


def test_job_is_killed_at_its_time_limit():
    sim, controller = build()
    job = controller.submit(
        SlurmJobSpec(name="overrun", cpus=4, runtime_s=3600.0,
                     time_limit_s=600.0)
    )
    sim.run()
    assert job.state is SlurmJobState.TIMEOUT
    assert job.state.value == "TO"
    assert job.end_time == 600.0


def test_overrunning_backfill_job_cannot_delay_the_head_job():
    sim, controller = build()
    # no limit: the shadow projection uses its 600 s runtime, and no
    # timer is armed from that fallback
    running = controller.submit(
        SlurmJobSpec(name="running", cpus=2, runtime_s=600.0)
    )
    head = controller.submit(
        SlurmJobSpec(name="head", cpus=4, runtime_s=100.0)
    )
    backfill = controller.submit(
        SlurmJobSpec(name="backfill", cpus=2, runtime_s=3000.0,
                     time_limit_s=300.0)
    )
    assert backfill.state is SlurmJobState.RUNNING
    sim.run()
    assert backfill.state is SlurmJobState.TIMEOUT
    assert backfill.end_time == 300.0
    assert running.state is SlurmJobState.COMPLETED
    assert running.end_time == 600.0
    assert head.start_time == 600.0
