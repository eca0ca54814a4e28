"""Power-aware elasticity: suspend idle capacity, wake it under pressure.

The paper's control loop only moves nodes *between* OSes; this daemon
adds the third option the tri-stable hardware makes possible — parking
idle donors in suspend-to-RAM and waking (or cold-provisioning burst
nodes) when a queue backs up.  It reuses the control plane's hard-won
defences:

* **hysteresis** — a side must look surplus for ``hysteresis_cycles``
  consecutive evaluations before anything is suspended, so a gap between
  two job arrivals doesn't flap nodes;
* **staleness caps** — decisions about the Windows side are based on
  state the Linux head only knows through reports (PR 1's lesson), so
  when the last Windows report is older than the communicator's
  staleness cap the manager *holds* instead of acting;
* **rejoin expectations** — every resume/provision registers an
  ``expect_rejoin`` with the switch-order ledger, so a woken node's
  scheduler join is never mistaken for a switch order landing;
* **cordon before suspend** — the scheduler stops placing work on a
  victim before its services stop, and the orderly service shutdown
  keeps the heartbeat monitor's fence-immunity (``agent_down``) path —
  a suspended node is planned downtime, never a fenced one.

Every action (and every hold) is an ``elastic.decision`` trace event.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.config import ElasticConfig
from repro.hardware.cluster import Cluster
from repro.hardware.node import ComputeNode, NodeState
from repro.sched.protocol import SWITCH_TAG
from repro.simkernel import Simulator, Timeout

#: the two scheduler sides, in deterministic evaluation order
SIDES = ("linux", "windows")


class ElasticityManager:
    """Periodic suspend/resume/provision decisions over both node pools.

    *schedulers* maps each OS side to its personality; the knobs come
    from *config* (``enabled`` is the middleware's switch, not read here).
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        schedulers: Dict[str, Any],
        config: ElasticConfig,
        orders: Any,
        health: Any,
        linux_comm: Any,
        controller: Any,
        tracer: Any = None,
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.schedulers = schedulers
        self.config = config
        self.orders = orders
        self.health = health
        self.linux_comm = linux_comm
        self.controller = controller
        self.tracer = tracer
        self.suspends = 0
        self.resumes = 0
        self.provisions = 0
        self.stale_holds = 0
        self._surplus_streak: Dict[str, int] = {side: 0 for side in SIDES}
        self._process = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> Any:
        """Spawn the evaluation loop; returns the process handle."""
        self._process = self.sim.spawn(self._loop(), name="daemon:elastic")
        return self._process

    def stop(self) -> None:
        if self._process is not None and self._process.alive:
            self._process.kill()

    def _loop(self) -> Any:
        while True:
            yield Timeout(self.config.cycle_s)
            self.evaluate()

    # -- evaluation ----------------------------------------------------------

    def evaluate(self) -> None:
        """One decision round over both sides (deterministic order)."""
        for side in SIDES:
            self._evaluate_side(side)

    def _evaluate_side(self, side: str) -> None:
        if side == "windows" and self._windows_state_stale():
            self._surplus_streak[side] = 0
            self.stale_holds += 1
            self._decide(side, "hold", cause="stale windows report")
            return
        queued = self._queued_workload(side)
        if queued > 0:
            self._surplus_streak[side] = 0
            self._wake(side, queued)
            return
        idle = self._idle_nodes(side)
        online = self._online_count(side)
        headroom = min(
            len(idle) - self.config.idle_surplus,
            online - self.config.min_online,
        )
        if headroom <= 0:
            self._surplus_streak[side] = 0
            return
        self._surplus_streak[side] += 1
        if self._surplus_streak[side] < self.config.hysteresis_cycles:
            return
        self._surplus_streak[side] = 0
        # park the highest-named idle nodes (mirrors the switch policy's
        # donor order, so both mechanisms shrink the same end of the pool)
        victims = sorted(idle, key=lambda n: n.name, reverse=True)
        for node in victims[: min(headroom, self.config.max_actions)]:
            self._cordon(side, node.name)
            node.suspend()
            self.suspends += 1
            self._decide(side, "suspend", node=node.name, cause="idle surplus")

    def _wake(self, side: str, queued: int) -> None:
        budget = self.config.max_actions
        resumable = sorted(
            (
                n
                for n in self.cluster.suspended_nodes()
                if n.suspended_os_name == side
            ),
            key=lambda n: n.name,
        )
        for node in resumable[:budget]:
            self.orders.expect_rejoin(node.name)
            node.resume()
            self.resumes += 1
            budget -= 1
            self._decide(
                side, "resume", node=node.name, cause=f"{queued} queued"
            )
        if budget <= 0 or not self._boots_land_on(side):
            return
        burst = sorted(
            self.cluster.deprovisioned_nodes(), key=lambda n: n.name
        )
        for node in burst[:budget]:
            self.orders.expect_rejoin(node.name)
            node.provision()
            self.provisions += 1
            self._decide(
                side, "provision", node=node.name, cause=f"{queued} queued"
            )

    # -- side inspection -----------------------------------------------------

    def _windows_state_stale(self) -> bool:
        """The Linux head's view of the Windows queue is only as fresh as
        the last report; past the staleness cap, acting on it repeats the
        bug PR 1's staleness guard fixed."""
        last = self.linux_comm.last_report_at
        if last is None:
            return True
        return self.sim.now - last > self.linux_comm.staleness_cap_s

    def _queued_workload(self, side: str) -> int:
        return sum(
            1
            for job in self.schedulers[side].queued_jobs()
            if job.tag != SWITCH_TAG
        )

    def _online_count(self, side: str) -> int:
        return sum(
            1
            for n in self.cluster.compute_nodes
            if n.state is NodeState.UP and n.os_name == side
        )

    def _idle_nodes(self, side: str) -> List[ComputeNode]:
        """Healthy, schedulable, zero-allocation UP nodes of *side*."""
        scheduler = self.schedulers[side]
        out: List[ComputeNode] = []
        for node in self.cluster.compute_nodes:
            if node.state is not NodeState.UP or node.os_name != side:
                continue
            if not self._healthy(node.name):
                continue
            if not scheduler.node_idle(node.name):
                continue
            out.append(node)
        return out

    def _healthy(self, name: str) -> bool:
        try:
            return self.health.health(name).state.value == "healthy"
        except KeyError:
            return True

    def _boots_land_on(self, side: str) -> bool:
        """Whether a cold boot right now comes up on *side* — provisioning
        is only useful when the boot flag points at the pressured OS."""
        return bool(
            self.controller.has_cluster_flag
            and self.controller.current_target() == side
        )

    def _cordon(self, side: str, hostname: str) -> None:
        """Stop new placements before the orderly shutdown.  No uncordon
        bookkeeping is needed: the schedulers' rejoin paths clear the
        offline/draining mark unconditionally."""
        self.schedulers[side].cordon_node(hostname)

    def _decide(
        self,
        side: str,
        action: str,
        node: Optional[str] = None,
        cause: Optional[str] = None,
    ) -> None:
        if self.tracer is not None:
            self.tracer.emit(
                "elastic.decision",
                node=node,
                cause=cause,
                side=side,
                action=action,
            )
