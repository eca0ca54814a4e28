"""Daemon wiring: start/stop the two communicators on a cluster.

"The key to make the dual-boot cluster switch idle resources
automatically, are the daemon (background) programs.  Two daemon programs
are running at each head node" (§III.B.3).

Beyond the paper's two processes, the hardened control plane runs two
more on the Linux head:

* a **staleness ticker** that re-evaluates (or refuses to act on) the
  last Windows report between receipts, so a silent Windows side cannot
  freeze or mislead the control loop;
* a **switch-order watchdog** that periodically expires orders whose
  node never rejoined the target scheduler.

:meth:`DualBootDaemons.crash` / :meth:`~DualBootDaemons.restart` model a
head-node daemon dying and coming back — the communicators keep their
state across a restart, which is exactly why the staleness guard exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.core.communicator import (
    LinuxCommunicator,
    SwitchOrders,
    WindowsCommunicator,
)
from repro.core.config import MiddlewareConfig
from repro.core.controller import BootController
from repro.core.policy import SwitchPolicy
from repro.errors import MiddlewareError
from repro.hardware.cluster import Cluster
from repro.netsvc.network import Host
from repro.sched import create_detector
from repro.simkernel import MINUTE, Process, Simulator, Timeout

#: How often the switch-order watchdog looks for overdue orders.
WATCHDOG_POLL_S = MINUTE


def _ticker_loop(linux: LinuxCommunicator):
    """Heartbeat offset half a cycle from the report cadence, so each tick
    sees either a fresh report (no-op) or a genuinely missing one."""
    yield Timeout(linux.cycle_s / 2)
    while True:
        linux.tick()
        yield Timeout(linux.cycle_s)


def _watchdog_loop(sim: Simulator, orders: SwitchOrders):
    while True:
        yield Timeout(WATCHDOG_POLL_S)
        orders.expire(sim.now)


@dataclass
class DualBootDaemons:
    """Handles to the running control plane (built by :func:`start_daemons`)."""

    linux: LinuxCommunicator
    windows: WindowsCommunicator
    linux_process: Process
    windows_process: Process
    ticker_process: Process
    watchdog_process: Process
    orders: SwitchOrders
    sim: Simulator
    linux_host: Host
    windows_host: Host
    _crashed: Set[str] = field(default_factory=set)
    tracer: Optional[Any] = None

    def stop(self) -> None:
        """Kill every control-plane process (freeze the system for analysis)."""
        for process in (
            self.linux_process,
            self.windows_process,
            self.ticker_process,
            self.watchdog_process,
        ):
            process.kill()

    # -- crash / restart (fault injection entry points) ----------------------

    def _host(self, side: str) -> Host:
        if side == "linux":
            return self.linux_host
        if side == "windows":
            return self.windows_host
        raise MiddlewareError(f"unknown head side {side!r}")

    def crash(self, side: str) -> None:
        """Kill one head node's daemon(s) and take its host off the network."""
        host = self._host(side)
        if side in self._crashed:
            return
        self._crashed.add(side)
        if self.tracer is not None:
            self.tracer.emit("daemon.crash", node=host.name, side=side)
        if side == "linux":
            self.linux_process.kill()
            self.ticker_process.kill()
        else:
            self.windows_process.kill()
        host.online = False

    def restart(self, side: str) -> None:
        """Bring a crashed daemon back (communicator state persists — the
        staleness guard covers whatever it slept through)."""
        host = self._host(side)
        if side not in self._crashed:
            return
        self._crashed.discard(side)
        if self.tracer is not None:
            self.tracer.emit("daemon.restart", node=host.name, side=side)
        host.online = True
        if side == "linux":
            self.linux_process = self.sim.spawn(
                self.linux.run(), name="daemon:linux"
            )
            self.ticker_process = self.sim.spawn(
                _ticker_loop(self.linux), name="daemon:ticker"
            )
        else:
            self.windows_process = self.sim.spawn(
                self.windows.run(), name="daemon:windows"
            )


def start_daemons(
    cluster: Cluster,
    schedulers: Dict[str, Any],
    controller: BootController,
    policy: SwitchPolicy,
    config: MiddlewareConfig,
    tracer: Optional[Any] = None,
) -> DualBootDaemons:
    """Stand up the control plane and return its handles.

    *schedulers* maps each OS side to its personality.  *config* supplies
    the deployment's cycle, port, user, detector mode and order timeout;
    the retry, staleness and watchdog timings are the module constants of
    :mod:`repro.core.communicator` and this module.
    """
    sim = cluster.sim
    cycle_s = config.check_cycle_s
    port = config.communicator_port
    linux_head, windows_head = cluster.linux_head, cluster.windows_head

    orders = SwitchOrders(
        schedulers, controller, pbs_user=config.pbs_user,
        order_timeout_s=config.order_timeout_s,
        tracer=tracer,
    )

    listener = linux_head.host.listen(port)
    ack_listener = windows_head.host.listen(port + 1)
    linux_daemon = LinuxCommunicator(
        sim=sim,
        listener=listener,
        detector=create_detector(
            schedulers["linux"], eager=config.eager_detectors,
            tracer=tracer, node_name=linux_head.name, user=config.pbs_user,
        ),
        policy=policy,
        orders=orders,
        cores_per_node=(
            cluster.compute_nodes[0].cores if cluster.compute_nodes else 4
        ),
        host=linux_head.host,
        ack_port=port + 1,
        cycle_s=cycle_s,
        tracer=tracer,
    )

    windows_daemon = WindowsCommunicator(
        sim=sim,
        host=windows_head.host,
        detector=create_detector(
            schedulers["windows"], eager=config.eager_detectors,
            tracer=tracer, node_name=windows_head.name,
        ),
        linux_head=linux_head.name,
        port=port,
        cycle_s=cycle_s,
        ack_listener=ack_listener,
        rng=cluster.rng.spawn("communicator"),
        tracer=tracer,
    )

    return DualBootDaemons(
        linux=linux_daemon,
        windows=windows_daemon,
        linux_process=sim.spawn(linux_daemon.run(), name="daemon:linux"),
        windows_process=sim.spawn(windows_daemon.run(), name="daemon:windows"),
        ticker_process=sim.spawn(_ticker_loop(linux_daemon), name="daemon:ticker"),
        watchdog_process=sim.spawn(
            _watchdog_loop(sim, orders),
            name="daemon:watchdog",
        ),
        orders=orders,
        sim=sim,
        linux_host=linux_head.host,
        windows_host=windows_head.host,
        tracer=tracer,
    )
