"""Per-layer host-time attribution, recorded from outside the program.

A :class:`SpanRecorder` keeps one span per call across a layer boundary:
its layer, start, end and the span that was open when it began.  Nothing
inside ``src/`` is edited; the boundaries are instance-level wrappers the
benchmark installs on one system:

* the kernel's ``schedule_at`` (every dispatched callback becomes a span of
  the module that owns the callback), ``spawn`` (every process step becomes
  a span of the module that owns the generator) and ``run``;
* each personality's ``submit_request`` and the callbacks in its
  ``observers`` / ``node_observers`` lists, plus the nodes' power-state and
  OS up/down/crash callback lists;
* the detectors' ``check`` and the text or SDK queries they make;
* ``Tracer.emit``;
* setup: ``WindowsDeployTool.deploy_node``, the OSCAR wizard steps and
  ``wait_for_nodes``.

The boot-chain walk is a module function the node imports by name, so it
is swapped for the length of one traced run by :func:`patched_boot_chain`.

A layer's self time is its spans' durations minus the time covered by
their direct children.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: The layers reported, named after the ``repro.*`` modules they cover
#: (``core`` is split per module).  Code in any other module is ``other``.
LAYERS: Tuple[str, ...] = (
    "simkernel", "pbs", "winhpc", "slurm",
    "core.detector", "core.communicator", "core.daemon", "core.elasticity",
    "core.middleware", "hardware", "boot", "health", "energy", "metrics",
    "trace", "faults", "netsvc", "compare", "other",
)

#: Setup components, timed inclusively.
SETUP_PARTS: Tuple[str, ...] = ("windeploy", "oscar", "boot")

#: OSCAR wizard steps that ``DualBootOscar.deploy`` drives.
WIZARD_STEPS: Tuple[str, ...] = (
    "install_server", "configure_packages", "build_image",
    "define_clients", "setup_networking", "deploy_clients",
)

#: Node callback lists wrapped after deploy.
NODE_HOOKS: Tuple[str, ...] = ("on_power_state", "on_os_up", "on_os_down",
                               "on_crash")

_LAYER_SET = frozenset(LAYERS)
_layer_cache: Dict[str, str] = {}


def layer_of_module(module: Optional[str]) -> str:
    """``repro.pbs.server`` -> ``pbs``; ``repro.core.detector`` ->
    ``core.detector``; anything unlisted -> ``other``."""
    if not module:
        return "other"
    layer = _layer_cache.get(module)
    if layer is None:
        layer = "other"
        if module.startswith("repro."):
            parts = module.split(".")[1:]
            name = ".".join(parts[:2]) if parts[0] == "core" else parts[0]
            if name in _LAYER_SET:
                layer = name
        _layer_cache[module] = layer
    return layer


def owner_module(fn: Any) -> Optional[str]:
    """The module that defines a callable (bound methods and closures
    included; builtin methods fall back to their owner's module)."""
    module = getattr(fn, "__module__", None)
    if module is None:
        owner = getattr(fn, "__self__", None)
        if owner is not None:
            module = type(owner).__module__
    return module


def generator_module(gen: Any) -> Optional[str]:
    """The module whose code a generator runs."""
    frame = getattr(gen, "gi_frame", None)
    if frame is not None:
        return frame.f_globals.get("__name__")
    return type(gen).__module__


class SpanRecorder:
    """Spans as parallel lists: layer, start, end and parent index."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.layers: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.layers)

    def open(self, layer: str) -> None:
        stack = self._stack
        index = len(self.layers)
        self.layers.append(layer)
        self.parents.append(stack[-1] if stack else -1)
        self.ends.append(0.0)
        stack.append(index)
        self.starts.append(self.clock())

    def close(self) -> None:
        self.ends[self._stack.pop()] = self.clock()

    @property
    def depth(self) -> int:
        return len(self._stack)

    def wrap(self, layer: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recorded as one span of *layer* per call."""
        def spanned(*args: Any, **kwargs: Any) -> Any:
            self.open(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return spanned

    def wrap_generator(self, layer: str, gen: Any) -> Any:
        """A generator that steps *gen*, one span of *layer* per step.

        Values sent in, exceptions thrown in, ``close()`` and the return
        value all pass through unchanged, so a kernel ``Process`` driving
        the wrapper behaves as if it drove *gen*.
        """
        send_value: Any = None
        error: Optional[BaseException] = None
        while True:
            self.open(layer)
            try:
                if error is not None:
                    yielded = gen.throw(error)
                else:
                    yielded = gen.send(send_value)
            except StopIteration as stop:
                return stop.value
            finally:
                self.close()
            try:
                send_value, error = (yield yielded), None
            except GeneratorExit:
                self.open(layer)
                try:
                    gen.close()
                finally:
                    self.close()
                raise
            except BaseException as exc:  # delivered into gen on the next step
                send_value, error = None, exc

    def self_times(self, first: int = 0) -> Dict[str, Tuple[int, float]]:
        """``layer -> (calls, self seconds)`` over spans ``first..``.

        Spans before *first* must all be closed; none may be a parent of
        a later span.
        """
        layers, starts, ends, parents = (
            self.layers, self.starts, self.ends, self.parents,
        )
        count = len(layers) - first
        child = [0.0] * count
        for i in range(first, len(layers)):
            parent = parents[i]
            if parent >= first:
                child[parent - first] += ends[i] - starts[i]
        out: Dict[str, Tuple[int, float]] = {}
        for offset in range(count):
            i = first + offset
            calls, self_s = out.get(layers[i], (0, 0.0))
            out[layers[i]] = (
                calls + 1, self_s + (ends[i] - starts[i]) - child[offset],
            )
        return out

    def durations(self, layer: str, first: int = 0,
                  last: Optional[int] = None) -> float:
        """Summed inclusive duration of the *layer* spans in
        ``first..last`` that have no *layer* ancestor."""
        layers, parents = self.layers, self.parents
        total = 0.0
        end = len(layers) if last is None else last
        for i in range(first, end):
            if layers[i] != layer:
                continue
            ancestor = parents[i]
            while ancestor >= 0 and layers[ancestor] != layer:
                ancestor = parents[ancestor]
            if ancestor < 0:
                total += self.ends[i] - self.starts[i]
        return total


class DetectorProbe:
    """Counts detector checks and how many found the epoch moved."""

    def __init__(self) -> None:
        self.checks = 0
        self.cold = 0


def instrument_kernel(sim: Any, recorder: SpanRecorder) -> None:
    """Span ``run``, every dispatched callback and every process step."""
    wrap = recorder.wrap
    real_schedule_at = sim.schedule_at
    real_spawn = sim.spawn

    def schedule_at(at: float, fn: Callable[..., Any], *args: Any) -> Any:
        return real_schedule_at(
            at, wrap(layer_of_module(owner_module(fn)), fn), *args
        )

    def spawn(generator: Any, name: str = "") -> Any:
        # name it as the kernel would have named the unwrapped generator
        name = name or getattr(generator, "__name__", "process")
        layer = layer_of_module(generator_module(generator))
        return real_spawn(recorder.wrap_generator(layer, generator), name=name)

    sim.schedule_at = schedule_at
    sim.spawn = spawn
    sim.run = wrap("simkernel", sim.run)


def instrument_setup(system: Any, recorder: SpanRecorder) -> None:
    """Wrap what must be in place before ``deploy()`` runs."""
    middleware = system.middleware
    wrap = recorder.wrap
    instrument_kernel(system.sim, recorder)
    tracer = middleware.tracer
    tracer.emit = wrap("trace", tracer.emit)
    for personality in middleware.schedulers.values():
        personality.submit_request = wrap(
            layer_of_module(type(personality).__module__),
            personality.submit_request,
        )
    tool = middleware.deploy_tool
    tool.deploy_node = wrap("setup.windeploy", tool.deploy_node)
    wizard = middleware.wizard
    for step in WIZARD_STEPS:
        setattr(wizard, step, wrap("setup.oscar", getattr(wizard, step)))
    middleware.wait_for_nodes = wrap("setup.boot", middleware.wait_for_nodes)


def instrument_running(system: Any, recorder: SpanRecorder,
                       probe: DetectorProbe) -> None:
    """Wrap what ``deploy()`` created: observers, nodes, detectors."""
    middleware = system.middleware
    wrap = recorder.wrap

    def wrap_list(callbacks: List[Callable[..., Any]]) -> None:
        callbacks[:] = [
            wrap(layer_of_module(owner_module(cb)), cb) for cb in callbacks
        ]

    for personality in middleware.schedulers.values():
        wrap_list(personality.observers)
        wrap_list(personality.node_observers)
    for node in middleware.cluster.compute_nodes:
        for hook in NODE_HOOKS:
            wrap_list(getattr(node, hook))
    job_recorder = middleware.recorder
    job_recorder.finalize = wrap("metrics", job_recorder.finalize)
    energy = middleware.energy
    if energy is not None:
        energy.finalize = wrap("energy", energy.finalize)
    daemons = middleware.daemons
    for side, comm in (("linux", daemons.linux), ("windows", daemons.windows)):
        instrument_detector(comm.detector, middleware.scheduler(side),
                            recorder, probe)


def instrument_detector(detector: Any, personality: Any,
                         recorder: SpanRecorder, probe: DetectorProbe) -> None:
    """Span the check (parse side) and the queries it makes (render side);
    count a check as cold when the personality's epoch moved since this
    detector's previous check."""
    for holder_name, methods in (("commands", ("qstat_f", "squeue")),
                                 ("connection", ("get_job_list",
                                                 "max_node_cores"))):
        holder = getattr(detector, holder_name, None)
        if holder is None:
            continue
        layer = layer_of_module(type(holder).__module__)
        for method in methods:
            if hasattr(holder, method):
                setattr(holder, method,
                        recorder.wrap(layer, getattr(holder, method)))
    check = recorder.wrap("core.detector", detector.check)
    last_epoch: List[Any] = [None]

    def counted_check() -> Any:
        epoch = personality.mutation_epoch
        probe.checks += 1
        if epoch != last_epoch[0]:
            probe.cold += 1
        last_epoch[0] = epoch
        return check()

    detector.check = counted_check


@contextlib.contextmanager
def patched_boot_chain(recorder: SpanRecorder) -> Iterator[None]:
    """Span every boot-chain walk as ``boot`` for the enclosed run."""
    import repro.hardware.node as node_module

    real = node_module.resolve_boot
    node_module.resolve_boot = recorder.wrap("boot", real)
    try:
        yield
    finally:
        node_module.resolve_boot = real
