"""The benchmark's three workloads, built only from the public API.

Every workload uses the E10 generator (Poisson mixed Linux/Windows jobs at
0.5 arrivals per hour per node, at most 16 cores, runtimes scaled by 0.25),
the v2 middleware, a 24 h horizon plus drain, and full tracing.  They
differ in which layers carry the work:

* ``e10-1024`` — PBS submit/place/start and the cold ``qstat -f`` render
  and parse every cycle dominate; switching stays nearly idle.
* ``slurm-backlog-128`` — the Windows side runs SLURM with a deep pending
  queue, so priority ordering, backfill and ``squeue`` dominate.
* ``elastic-storm-256`` — eager switching, elasticity, checkpoints and a
  seeded node-crash storm keep the control plane, boot path, health
  fencing and the energy meter busy.

A run's seed ``s`` names ``n`` scenarios with seeds ``s*n .. s*n+n-1``
(``n`` is the workload's ``scenarios``), so different run seeds never share
a scenario and a run averages over several job streams.  A scenario seed
feeds both the job generator and the cluster seed, exactly as in E10; the
system receives only the generated jobs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.compare import HybridSystem
from repro.core.config import ElasticConfig, MiddlewareConfig
from repro.core.policy import EagerPolicy
from repro.faults import FaultInjector, FaultPlan, NodeCrash, NodeFlap
from repro.simkernel import HOUR, MINUTE
from repro.workloads import MixedWorkload, WorkloadJob

#: E10's arrival rate: mixed-workload arrivals per hour per node.
RATE_PER_NODE_PER_HOUR = 0.5
HORIZON_S = 24 * HOUR
#: run_scenario's drain window after the horizon.
DRAIN_S = 24 * HOUR


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    nodes: int
    windows_fraction: float
    make_config: Callable[[], MiddlewareConfig]
    #: job streams per run; more where the per-event cost varies more
    #: from one stream to the next
    scenarios: int = 4
    eager: bool = False
    storm: bool = False

    def scenario_seeds(self, seed: int) -> List[int]:
        return [seed * self.scenarios + i for i in range(self.scenarios)]

    def jobs(self, seed: int) -> List[WorkloadJob]:
        """The generated job stream (E10's generator and seeding)."""
        return MixedWorkload(
            seed=seed + self.nodes,
            rate_per_hour=self.nodes * RATE_PER_NODE_PER_HOUR,
            windows_fraction=self.windows_fraction,
            horizon_s=HORIZON_S,
            max_cores=16,
            runtime_scale=0.25,
        ).generate()

    def build(self, seed: int) -> HybridSystem:
        """A fresh, undeployed system for this workload."""
        return HybridSystem(
            num_nodes=self.nodes, seed=seed, version=2,
            config=self.make_config(),
            policy=EagerPolicy() if self.eager else None,
        )

    def arm_faults(self, system: HybridSystem) -> None:
        """Arm the node-crash storm (call right after deploy)."""
        if not self.storm:
            return
        middleware = system.middleware
        cluster = middleware.cluster
        FaultInjector(
            system.sim, cluster.network, cluster.rng,
            storm_plan(cluster, system.sim.now, HORIZON_S),
            control=middleware.daemons,
            nodes={n.name: n for n in cluster.compute_nodes},
            env=cluster.env,
            tracer=middleware.tracer,
        ).arm()


def storm_plan(cluster, t0: float, horizon_s: float) -> FaultPlan:
    """E14's seeded storm: ``max(2, n/10)`` hard crashes plus a flapper.

    Victims are the lowest-index nodes; each crashes in the first 60 % of
    the horizon and all but the last come back 8–20 minutes later.  One
    more node flaps twice.  Every draw comes from the cluster's seed.
    """
    rng = cluster.rng.spawn("e14-storm")
    names = [n.name for n in cluster.compute_nodes]
    crash_count = max(2, len(names) // 10)
    crashes = []
    for index, name in enumerate(names[:crash_count]):
        at_s = t0 + rng.uniform(f"crash-at:{name}", 0.1, 0.6) * horizon_s
        restart_after = (
            None if index == crash_count - 1
            else rng.uniform(f"down:{name}", 8 * MINUTE, 20 * MINUTE)
        )
        crashes.append(NodeCrash(node=name, at_s=at_s,
                                 restart_after_s=restart_after))
    flap_at = t0 + rng.uniform("flap-at", 0.2, 0.45) * horizon_s
    return FaultPlan(
        name="perfbench-storm",
        node_crashes=tuple(crashes),
        node_flaps=(
            NodeFlap(node=names[crash_count], first_at_s=flap_at,
                     down_s=12 * MINUTE, period_s=35 * MINUTE, count=2),
        ),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="e10-1024", nodes=1024, windows_fraction=0.25,
            make_config=lambda: MiddlewareConfig(
                version=2, check_cycle_s=10 * MINUTE,
            ),
            scenarios=2,
        ),
        Workload(
            name="slurm-backlog-128", nodes=128, windows_fraction=0.5,
            make_config=lambda: MiddlewareConfig(
                version=2, check_cycle_s=10 * MINUTE,
                windows_scheduler="slurm",
            ),
        ),
        Workload(
            name="elastic-storm-256", nodes=256, windows_fraction=0.5,
            make_config=lambda: MiddlewareConfig(
                version=2, check_cycle_s=5 * MINUTE,
                eager_detectors=True,
                checkpoint_interval_s=15 * MINUTE,
                burst_nodes=32,
                elastic=ElasticConfig(enabled=True),
            ),
            eager=True, storm=True,
        ),
    )
}
